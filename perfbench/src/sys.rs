//! Process-level measurements read from `/proc`, and run metadata.

use std::path::Path;

/// Process CPU (user + system) in µs, including threads that have
/// already exited.
pub fn process_cpu_us() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 1e6 / clock_ticks_per_s()
}

/// CPU time, in s, the host has stolen from all of this machine's
/// CPUs so far (the `steal` column of `/proc/stat`).
pub fn host_steal_s() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = text.lines().next().unwrap_or("");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal = line.split_whitespace().nth(8);
    steal.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0) / clock_ticks_per_s()
}

fn clock_ticks_per_s() -> f64 {
    // USER_HZ is 100 on every Linux architecture this runs on.
    100.0
}

/// CPU time in µs of live threads whose name starts with `prefix`,
/// from each task's `schedstat` (nanosecond resolution). A thread's
/// time vanishes once it exits, so sample before joining.
pub fn threads_cpu_us(prefix: &str) -> f64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let mut total = 0.0;
    for task in dir.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let sched = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        if let Some(ns) = sched
            .split_whitespace()
            .next()
            .and_then(|s| s.parse::<f64>().ok())
        {
            total += ns / 1e3;
        }
    }
    total
}

/// Write back every dirty page of the filesystem that holds `dir`
/// (`syncfs(2)`).
pub fn syncfs(dir: &Path) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    let f = std::fs::File::open(dir)?;
    // SAFETY: `f` is an open descriptor for the whole call.
    if unsafe { syncfs(f.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checkout's git revision, or `unknown` outside a git work tree.
pub fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of Rust in the workspace (`crates/`, `src/`, `tests/`,
/// `examples/`, `vendor/`), so shrinkage is tracked like latency.
pub fn workspace_rust_lines(root: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<_> = ["crates", "src", "tests", "examples", "vendor"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            let Ok(ft) = e.file_type() else { continue };
            if ft.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    total += text.lines().count() as u64;
                }
            }
        }
    }
    total
}
