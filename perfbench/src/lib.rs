//! The TSS benchmark: four seeded closed-loop workloads through
//! Adapter → CFS/DSFS → Chirp against in-process servers on loopback
//! TCP, end-to-end metrics from untraced runs, and per-layer numbers
//! from a traced run plus a replay through each lower layer.
//!
//! See `README.md` for the workloads and the layer → metric map.

pub mod catalog;
pub mod gen;
pub mod model;
pub mod record;
pub mod rng;
pub mod stats;
pub mod sys;

mod bulk;
mod churn;
mod fixture;
mod meta;
mod replay;
mod thirdput;
mod workload;

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use telemetry::json::Value;
use telemetry::{HistogramSnapshot, MetricsSnapshot};

use crate::gen::Scale;
use crate::record::{Kind, Recorder};
use crate::stats::{hist_quantile, median, summarize, tail_percentile};
use crate::workload::Setup;

pub const WORKLOADS: [&str; 4] = ["meta_hot", "bulk_cold", "dsfs_churn", "thirdput_hol"];

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(String, f64)>,
    /// Run metadata and notes, printed before the result line.
    pub meta: Value,
    pub report: Vec<String>,
    pub first_error: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| {
                let unit = catalog::unit_of(n);
                (
                    n.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*v)),
                        ("unit".into(), unit.into()),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Uint(self.attempted)),
            ("failed".into(), Value::Uint(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .render()
    }
}

fn setup_workload(name: &str, seed: u64, scale: &Scale, dir: &Path) -> io::Result<Setup> {
    match name {
        "meta_hot" => meta::setup(seed, scale, dir),
        "bulk_cold" => bulk::setup(seed, scale, dir),
        "dsfs_churn" => churn::setup(seed, scale, dir),
        "thirdput_hol" => thirdput::setup(seed, scale, dir),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {other}; expected one of {WORKLOADS:?}"),
        )),
    }
}

/// The run's server trees: the first set-up creates them, later
/// set-ups rewrite them in place, and they are deleted when the run
/// ends — before the kernel writes their dirty pages back, so a run
/// leaves no disk traffic behind for the next one.
struct Trees(PathBuf);

impl Drop for Trees {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counters and CPU at one instant of the load.
struct Snap {
    t: Instant,
    cpu_us: f64,
    reactor_us: f64,
    servers: Vec<MetricsSnapshot>,
}

fn snap(setup_servers: &[fixture::Server]) -> Snap {
    Snap {
        t: Instant::now(),
        cpu_us: sys::process_cpu_us(),
        reactor_us: sys::threads_cpu_us("chirp-react-"),
        servers: setup_servers
            .iter()
            .map(|s| s.registry().snapshot())
            .collect(),
    }
}

/// The measured window is cut into this many equal sub-windows, each
/// recorded apart with the CPU time the host stole from this machine
/// meanwhile; an end-to-end metric is the median of its values in the
/// least-stolen sub-windows, at least `KEPT` of them (see
/// `least_stolen`).
const SUBWINDOWS: usize = 20;
const KEPT: usize = SUBWINDOWS / 2;

/// Load phases: warm-up, the sub-windows, the traced window, stop.
const WARM: usize = 0;
const TRACED: usize = SUBWINDOWS + 1;
const STOP: usize = SUBWINDOWS + 2;

/// What one load run recorded.
struct Load {
    /// One merged recorder per phase, indexed like the phases.
    recs: Vec<Recorder>,
    /// Full snapshots at the start and end of the measured window and
    /// (traced runs) at the end of the traced window.
    snaps: Vec<Snap>,
    /// Time, process CPU and host steal (s) at each sub-window
    /// boundary.
    marks: Vec<(Instant, f64, f64)>,
}

impl Load {
    fn sub_windows(&self) -> &[Recorder] {
        &self.recs[1..=SUBWINDOWS]
    }

    /// Every sub-window merged.
    fn measured(&self, epoch: Instant) -> Recorder {
        let mut all = Recorder::new(epoch, 0, false);
        for r in self.sub_windows() {
            all.merge_stats(r);
        }
        all
    }
}

/// Run the clients closed-loop: warm-up, then the untraced window in
/// sub-windows, then (traced runs) the traced window.
fn load(setup: &mut Setup, opts: &Options, epoch: Instant) -> Load {
    let phase = AtomicUsize::new(WARM);
    let (clients, servers) = (&mut setup.clients, &setup.servers);
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let slice = Duration::from_secs_f64(window / SUBWINDOWS as f64);
    let mut snaps = Vec::new();
    let mut marks = Vec::new();
    let per_thread: Vec<Vec<Recorder>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let phase = &phase;
                let traced = opts.trace;
                s.spawn(move || {
                    let mut recs: Vec<Recorder> = (0..STOP)
                        .map(|p| Recorder::new(epoch, i, traced && p == TRACED))
                        .collect();
                    loop {
                        let p = phase.load(Ordering::SeqCst);
                        if p == STOP {
                            break;
                        }
                        client.step(&mut recs[p]);
                    }
                    recs
                })
            })
            .collect();
        std::thread::sleep(opts.scale.warmup);
        snaps.push(snap(servers));
        let start = snaps[0].t;
        marks.push((start, snaps[0].cpu_us, sys::host_steal_s()));
        for k in 1..=SUBWINDOWS {
            phase.store(k, Ordering::SeqCst);
            let until = start + slice * k as u32;
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), sys::process_cpu_us(), sys::host_steal_s()));
        }
        // Sample thread CPU before any thread exits.
        snaps.push(snap(servers));
        if opts.trace {
            phase.store(TRACED, Ordering::SeqCst);
            std::thread::sleep(Duration::from_secs_f64(window));
            snaps.push(snap(servers));
        }
        phase.store(STOP, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut recs: Vec<Recorder> = (0..STOP)
        .map(|p| Recorder::new(epoch, 0, opts.trace && p == TRACED))
        .collect();
    for thread in per_thread {
        for (m, r) in recs.iter_mut().zip(thread) {
            m.merge(r);
        }
    }
    Load { recs, snaps, marks }
}

pub(crate) fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    b.counter(name)
        .unwrap_or(0)
        .saturating_sub(a.counter(name).unwrap_or(0)) as f64
}

pub(crate) fn hist_delta(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    match (b.histogram(name), a.histogram(name)) {
        (Some(b), Some(a)) => b.delta(a),
        (Some(b), None) => b.clone(),
        _ => HistogramSnapshot::default(),
    }
}

pub(crate) fn rpcs(a: &MetricsSnapshot, b: &MetricsSnapshot) -> f64 {
    chirp_proto::message::OP_NAMES
        .iter()
        .map(|op| counter_delta(a, b, &format!("rpc.{op}.count")))
        .sum()
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Run one workload once and measure it.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let scale = &opts.scale;
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {}", opts.workload),
        ));
    }
    let trees = Trees(fixture::work_dir(&opts.workload)?);
    // `setup_s` is the program's part of each set-up: server start,
    // the data set written through a mount, and the load mounts with
    // their handshakes. The benchmark's own preparation is timed apart.
    let (mut setup_s, mut prep_s, mut setup_steal) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..scale.setups.max(1) {
        let (t0, steal0) = (Instant::now(), sys::host_steal_s());
        let s = setup_workload(&opts.workload, opts.seed, scale, &trees.0)?;
        let elapsed = t0.elapsed();
        let stolen = sys::host_steal_s() - steal0;
        setup_steal.push(stolen / elapsed.as_secs_f64() / sys::nproc() as f64);
        setup_s.push(elapsed.saturating_sub(s.prep).as_secs_f64());
        prep_s.push(s.prep.as_secs_f64());
        if i + 1 < scale.setups {
            s.teardown();
        } else {
            kept = Some(s);
        }
    }
    let mut setup = kept.expect("at least one set-up");
    // Write the set-up's data back before the load, so the kernel's
    // writeback of it (due 30 s after the first set-up) never lands
    // inside the measured window.
    let t0 = Instant::now();
    sys::syncfs(&trees.0)?;
    let sync_s = t0.elapsed().as_secs_f64();

    let run = load(&mut setup, opts, epoch);
    let mut checks = Recorder::new(epoch, 99, false);
    for c in setup.clients.iter_mut() {
        c.verify(&mut checks);
    }
    let replayed = if opts.trace {
        let r = replay::run(
            &setup,
            opts.seed,
            scale.replay_ops,
            epoch,
            &trees.0,
            &mut checks,
        )?;
        Some(r)
    } else {
        None
    };
    let after = After {
        clients: setup
            .client_registries
            .iter()
            .map(|r| r.snapshot())
            .collect(),
        pool_retries: (setup.pool_retries)(),
        replay_server: setup.replay.server,
    };
    let info = setup.info.clone();
    setup.teardown();

    let (mut attempted, mut bad, mut mismatched) = (0, 0, 0);
    let mut first_error = None;
    for r in run.recs.iter().chain([&checks]) {
        attempted += r.attempted;
        bad += r.failed + r.mismatched;
        mismatched += r.mismatched;
        first_error = first_error.or_else(|| r.first_error.clone());
    }
    let error_ratio = ratio(bad as f64, attempted as f64);
    let measured = run.measured(epoch);
    let window = (run.snaps[1].t - run.snaps[0].t).as_secs_f64();

    let mut report = Vec::new();
    let metrics: Vec<(String, f64)> = match &replayed {
        None => end_to_end(&run, &setup_s, &setup_steal),
        Some(rp) => {
            let mut m = per_layer(&run, &measured, rp, &after, &info);
            m.insert("error_ratio".into(), error_ratio);
            let (lines, unexplained) = reconcile(&measured, rp);
            m.insert("layers.unexplained_share".into(), unexplained);
            report = lines;
            let named: Vec<(String, f64)> = catalog::PER_LAYER
                .iter()
                .map(|p| (p.name.to_string(), m.get(p.name).copied().unwrap_or(0.0)))
                .collect();
            write_trace(&opts.workload, &run.recs[TRACED], rp, &named, &report)?;
            named
        }
    };

    let root = fixture::repo_root();
    let meta = Value::Object(vec![
        ("workload".into(), opts.workload.as_str().into()),
        ("seed".into(), Value::Uint(opts.seed)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("traced".into(), Value::Bool(opts.trace)),
        ("git_rev".into(), sys::git_rev(&root).as_str().into()),
        ("nproc".into(), Value::Uint(sys::nproc() as u64)),
        ("kernel".into(), sys::kernel().as_str().into()),
        ("cache_bytes".into(), Value::Uint(info.cache_bytes)),
        (
            "working_set_bytes".into(),
            Value::Uint(info.working_set_bytes),
        ),
        (
            "workspace_rust_lines".into(),
            Value::Uint(sys::workspace_rust_lines(&root)),
        ),
        ("load_threads".into(), Value::Uint(info.load_threads as u64)),
        (
            "connections".into(),
            Value::Array(info.connections.iter().map(|c| c.as_str().into()).collect()),
        ),
        ("window_s".into(), Value::Float(window)),
        ("ops".into(), Value::Uint(measured.ops)),
        ("error_ratio".into(), Value::Float(error_ratio)),
        ("setup_sync_s".into(), Value::Float(sync_s)),
        (
            "notes".into(),
            notes(&run, &measured, &setup_s, &setup_steal, &prep_s),
        ),
    ]);
    Ok(Outcome {
        correct: mismatched == 0,
        attempted,
        failed: bad,
        metrics,
        meta,
        report,
        first_error,
    })
}

/// What the per-layer figures need from a set-up after its load.
struct After {
    clients: Vec<MetricsSnapshot>,
    pool_retries: u64,
    replay_server: usize,
}

/// Each end-to-end metric's value in each sub-window (all but the
/// set-up and memory figures, which are per run).
fn sub_window_values(run: &Load) -> BTreeMap<&'static str, Vec<f64>> {
    let subs = run.sub_windows();
    // One tail percentile for every sub-window: the highest the
    // smallest of them supports.
    let min_n = |f: &dyn Fn(&Recorder) -> u64| subs.iter().map(f).min().unwrap_or(0) as usize;
    let op_tail = tail_percentile(min_n(&|r| r.op_lat_us.len())) / 100.0;
    let probe_tail = tail_percentile(min_n(&|r| r.small_calls().len())) / 100.0;
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, r) in subs.iter().enumerate() {
        let ((t0, cpu0, steal0), (t1, cpu1, steal1)) = (run.marks[k], run.marks[k + 1]);
        let secs = (t1 - t0).as_secs_f64();
        let small = r.small_calls();
        let p50 = |kind: Kind| r.calls(kind).quantile(0.5);
        for (name, v) in [
            ("ops_per_s", r.ops as f64 / secs),
            ("lat_p50_us", r.op_lat_us.quantile(0.5)),
            ("lat_p99_us", r.op_lat_us.quantile(op_tail)),
            ("stat_p50_us", p50(Kind::Stat)),
            ("open_close_p50_us", p50(Kind::OpenClose)),
            ("pread8k_p50_us", p50(Kind::Pread8k)),
            ("pwrite8k_p50_us", p50(Kind::Pwrite8k)),
            ("read_mb_per_s", r.bytes_read as f64 / 1e6 / secs),
            ("write_mb_per_s", r.bytes_written as f64 / 1e6 / secs),
            ("probe_p50_us", small.quantile(0.5)),
            ("probe_p99_us", small.quantile(probe_tail)),
            ("cpu_us_per_op", ratio(cpu1 - cpu0, r.ops as f64)),
            (
                "host_steal_share",
                (steal1 - steal0) / secs / sys::nproc() as f64,
            ),
        ] {
            values.entry(name).or_default().push(v);
        }
    }
    values
}

/// Indices, in order, of the entries whose host steal is no more than
/// that of the `keep`-th least-stolen entry: at least `keep` of them,
/// every one when none was stolen from.
///
/// On a shared host the hypervisor now and then takes this machine's
/// CPUs away for milliseconds at a time, for seconds on end; the CPU
/// time it takes shows as `steal` in `/proc/stat`. A closed loop stalls
/// whenever one of the CPUs its chain of threads waits on is taken
/// away, so throughput falls and latencies rise far more than the
/// stolen share: on the 2-vCPU development host a sub-window with a
/// fifth of its CPU time stolen ran at half the ops of one with none.
/// Steal is the host's doing, not the program's, so each figure is
/// taken from the samples the host left alone.
fn least_stolen(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&limit) = sorted.get(keep.clamp(1, sorted.len().max(1)) - 1) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|i| steal[*i] <= limit).collect()
}

/// The values at `idx`.
fn pick(values: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|i| values[*i]).collect()
}

/// The sub-window values of the least-stolen sub-windows.
fn kept_sub_window_values(run: &Load) -> BTreeMap<&'static str, Vec<f64>> {
    let mut values = sub_window_values(run);
    let kept = least_stolen(&values["host_steal_share"], KEPT);
    for v in values.values_mut() {
        *v = pick(v, &kept);
    }
    values
}

/// The end-to-end metrics of the untraced window, in catalogue order:
/// each the median of its values in the least-stolen sub-windows, and
/// `setup_s` the median of the least-stolen half of the set-ups.
fn end_to_end(run: &Load, setup_s: &[f64], setup_steal: &[f64]) -> Vec<(String, f64)> {
    let mut values = kept_sub_window_values(run);
    let kept_setups = least_stolen(setup_steal, setup_s.len().div_ceil(2));
    values.insert("setup_s", pick(setup_s, &kept_setups));
    values.insert("peak_rss_mb", vec![sys::peak_rss_mb()]);
    catalog::END_TO_END
        .iter()
        .map(|p| (p.name.to_string(), median(&values[p.name])))
        .collect()
}

/// Sample counts and percentiles behind the end-to-end figures.
fn notes(
    run: &Load,
    measured: &Recorder,
    setup_s: &[f64],
    setup_steal: &[f64],
    prep_s: &[f64],
) -> Value {
    let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Float(*x)).collect());
    let indices =
        |v: Vec<usize>| Value::Array(v.into_iter().map(|i| Value::Uint(i as u64)).collect());
    let steal = &sub_window_values(run)["host_steal_share"];
    let summary = |s: stats::Summary| {
        Value::Object(vec![
            ("p50_us".into(), Value::Float(s.p50)),
            ("tail_percentile".into(), Value::Float(s.tail_pct)),
            ("tail_us".into(), Value::Float(s.tail)),
            ("samples".into(), Value::Uint(s.n as u64)),
        ])
    };
    let calls = Kind::ALL
        .iter()
        .map(|k| (k, summarize(measured.calls(*k))))
        .filter(|(_, s)| s.n > 0)
        .map(|(k, s)| (k.name().to_string(), summary(s)))
        .collect();
    Value::Object(vec![
        ("ops".into(), summary(summarize(&measured.op_lat_us))),
        ("probe".into(), summary(summarize(&measured.small_calls()))),
        ("calls".into(), Value::Object(calls)),
        ("setup_s_each".into(), floats(setup_s)),
        ("setup_host_steal_share_each".into(), floats(setup_steal)),
        (
            "setups_kept".into(),
            indices(least_stolen(setup_steal, setup_s.len().div_ceil(2))),
        ),
        (
            "sub_windows_kept".into(),
            indices(least_stolen(steal, KEPT)),
        ),
        ("setup_prep_s_each".into(), floats(prep_s)),
        (
            "sub_windows".into(),
            Value::Object(
                sub_window_values(run)
                    .into_iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Value::Array(v.into_iter().map(Value::Float).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Per-layer figures: registry deltas and thread CPU over the traced
/// window, plus the replay's medians and single-layer timings.
fn per_layer(
    run: &Load,
    measured: &Recorder,
    rp: &replay::ReplayOut,
    after: &After,
    info: &workload::Info,
) -> BTreeMap<String, f64> {
    let (snaps, traced) = (&run.snaps, &run.recs[TRACED]);
    let (a, b) = (&snaps[1], &snaps[2]);
    let tops = traced.ops as f64;
    let pairs = || a.servers.iter().zip(&b.servers);
    let total_rpcs: f64 = pairs().map(|(x, y)| rpcs(x, y)).sum();
    let sum_counter = |name: &str| -> f64 { pairs().map(|(x, y)| counter_delta(x, y, name)).sum() };
    let mut lat_all = HistogramSnapshot::default();
    for (x, y) in pairs() {
        lat_all.merge(&hist_delta(x, y, "rpc.latency_ns"));
    }
    let med = |layer: &'static str, op: &'static str| {
        rp.medians.get(&(layer, op)).copied().unwrap_or(0.0)
    };
    let client_counter = |name: &str| -> f64 {
        after
            .clients
            .iter()
            .map(|s| s.counter(name).unwrap_or(0) as f64)
            .sum()
    };
    let reactor_us = b.reactor_us - a.reactor_us;
    let small = traced.small_calls();
    let rs = after.replay_server;
    let cache = |name: &str| counter_delta(&snaps[0].servers[rs], &b.servers[rs], name);
    let (hits, misses) = (cache("cache.hits"), cache("cache.misses"));
    let evicted = counter_delta(&a.servers[rs], &b.servers[rs], "cache.evicted_pages");
    let wq_peak = b
        .servers
        .iter()
        .filter_map(|s| match s.metrics.get("reactor.wq_peak_bytes") {
            Some(telemetry::MetricValue::Gauge(g)) => Some(*g as f64),
            _ => None,
        })
        .fold(0.0, f64::max);
    let untraced_ops_per_s = measured.ops as f64 / (a.t - snaps[0].t).as_secs_f64();
    let tail = tail_percentile(lat_all.count as usize) / 100.0;

    let mut m: BTreeMap<String, f64> = rp.micro.clone();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    set("cfs.self_ns", med("mount", "stat") - med("conn", "stat"));
    set(
        "client.retries",
        client_counter("client.retries") + after.pool_retries as f64,
    );
    set("client.reconnects", client_counter("client.reconnects"));
    for op in replay::OPS {
        for layer in ["conn", "handler", "localfs"] {
            set(&format!("{layer}.{op}_ns"), med(layer, op));
        }
    }
    set("conn.auth_handshake_us", median(&info.auth_handshake_us));
    set(
        "reactor.wakeups_per_rpc",
        ratio(sum_counter("reactor.wakeups"), total_rpcs),
    );
    set(
        "reactor.loops_per_rpc",
        ratio(sum_counter("reactor.loop_iterations"), total_rpcs),
    );
    set("reactor.cpu_us_per_rpc", ratio(reactor_us, total_rpcs));
    set("reactor.backpressure", sum_counter("reactor.backpressure"));
    set("reactor.wq_peak_bytes", wq_peak);
    set(
        "probe.blocked_share",
        ratio(
            small.count_above(10.0 * small.quantile(0.5)) as f64,
            small.len() as f64,
        ),
    );
    set("server.rpc_p50_us", hist_quantile(&lat_all, 0.5) / 1e3);
    set("server.rpc_p99_us", hist_quantile(&lat_all, tail) / 1e3);
    set("server.rpcs_per_op", ratio(total_rpcs, tops));
    set("cache.hit_ratio", ratio(hits, hits + misses));
    set(
        "cache.evicted_pages_per_mb",
        ratio(evicted, traced.bytes_read as f64 / 1e6),
    );
    set(
        "client.cpu_us_per_op",
        ratio(b.cpu_us - a.cpu_us - reactor_us, tops),
    );
    let traced_ops_per_s = tops / (b.t - a.t).as_secs_f64();
    set(
        "trace.overhead_ratio",
        ratio(traced_ops_per_s, untraced_ops_per_s),
    );
    // Tails of the untraced half, as an untraced run computes them:
    // reported without a bound (see README.md).
    let subs = kept_sub_window_values(run);
    set("lat_p99_us", median(&subs["lat_p99_us"]));
    set("probe_p99_us", median(&subs["probe_p99_us"]));
    set("cpu_us_per_op", median(&subs["cpu_us_per_op"]));
    m
}

/// For each replayed call, the loaded end-to-end p50 beside each
/// layer's self time (its replay median minus the next layer's).
/// Returns the report lines and the mean unexplained share.
fn reconcile(measured: &Recorder, rp: &replay::ReplayOut) -> (Vec<String>, f64) {
    let med = |layer: &'static str, op: &'static str| {
        rp.medians.get(&(layer, op)).copied().unwrap_or(0.0)
    };
    let mut lines = vec![format!(
        "reconcile {:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "op(us)", "e2e_p50", "adapter", "cfs", "wire", "handler", "localfs", "unexpl"
    )];
    let mut shares = Vec::new();
    let kinds = [
        Kind::Stat,
        Kind::OpenClose,
        Kind::Pread8k,
        Kind::Pwrite8k,
        Kind::ReaddirStat,
        Kind::Getfile,
        Kind::Putfile,
    ];
    for (op, kind) in replay::OPS.into_iter().zip(kinds) {
        let e2e = summarize(measured.calls(kind)).p50 * 1e3;
        let top = med("adapter", op);
        let selfs = [
            top - med("mount", op),
            med("mount", op) - med("conn", op),
            med("conn", op) - med("handler", op),
            med("handler", op) - med("localfs", op),
            med("localfs", op),
        ];
        let unexplained = if e2e > 0.0 {
            let share = (e2e - top).abs() / e2e;
            shares.push(share);
            format!("{share:.3}")
        } else {
            "-".into()
        };
        let us: Vec<String> = selfs.iter().map(|v| format!("{:>9.1}", v / 1e3)).collect();
        lines.push(format!(
            "reconcile {op:<10} {:>10.1} {} {unexplained:>7}",
            e2e / 1e3,
            us.join(" ")
        ));
    }
    let mean = if shares.is_empty() {
        0.0
    } else {
        shares.iter().sum::<f64>() / shares.len() as f64
    };
    (lines, mean)
}

/// Write the traced window's spans and the replay's spans as JSON
/// lines, and the per-layer numbers with the reconciliation report,
/// one pair of files per workload, when the run ends.
/// Ops whose spans the span file keeps, at most (see `write_trace`).
const SPAN_FILE_OPS: u64 = 50_000;

fn write_trace(
    workload: &str,
    traced: &Recorder,
    rp: &replay::ReplayOut,
    metrics: &[(String, f64)],
    report: &[String],
) -> io::Result<()> {
    let dir = fixture::repo_root().join(".perfbench_out");
    std::fs::create_dir_all(&dir)?;
    let mut w = io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.spans.jsonl")),
    )?);
    // A traced window records some 10^5–10^6 ops; write the spans of
    // one op in `stride`, picked by a hash of the op id (an op's spans
    // share its id, so each written op keeps its whole tree), to bound
    // the file at ~10 MB.
    let spans = traced.spans.as_deref().unwrap_or_default();
    let ops = spans.iter().filter(|s| s.parent == 0).count() as u64;
    let stride = ops.div_ceil(SPAN_FILE_OPS).max(1);
    for s in spans
        .iter()
        .filter(|s| (s.op.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % stride == 0)
    {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.op,
            s.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    for s in &rp.spans {
        writeln!(
            w,
            "{{\"id\":0,\"parent\":0,\"op\":{},\"name\":\"replay.{}.{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.idx, s.layer, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()?;
    let layers = Value::Object(vec![
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "reconcile".into(),
            Value::Array(report.iter().map(|l| l.as_str().into()).collect()),
        ),
        ("span_op_stride".into(), Value::Uint(stride)),
    ]);
    std::fs::write(
        dir.join(format!("{workload}.layers.json")),
        layers.render() + "\n",
    )
}

#[cfg(test)]
mod tests {
    use super::least_stolen;

    #[test]
    fn least_stolen_keeps_the_quiet_half_and_its_ties() {
        // Nothing stolen: every entry is kept.
        assert_eq!(least_stolen(&[0.0; 6], 3), vec![0, 1, 2, 3, 4, 5]);
        // The stolen stretch is left out; entries tied with the
        // `keep`-th least-stolen one stay.
        let steal = [0.2, 0.0, 0.3, 0.01, 0.0, 0.01, 0.25];
        assert_eq!(least_stolen(&steal, 3), vec![1, 3, 4, 5]);
        assert_eq!(least_stolen(&steal, 1), vec![1, 4]);
        assert_eq!(least_stolen(&[], 3), Vec::<usize>::new());
    }
}
