//! Servers, mounts and work directories shared by every workload.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_client::{AuthMethod, Connection};
use chirp_proto::transport::Dialer;
use chirp_proto::OpenFlags;
use chirp_server::{Acl, FileServer, ServerConfig};
use tss_core::fs::FileSystem;
use tss_core::{Adapter, AdapterConfig, Cfs, CfsConfig};

use crate::gen::InitFile;
use crate::model::FileModel;

/// The HMAC key every load client authenticates with.
const KEY: &[u8] = b"perfbench-hmac-sha256-shared-key";
pub const TIMEOUT: Duration = Duration::from_secs(30);

pub fn client_auth() -> Vec<AuthMethod> {
    vec![AuthMethod::key("hmac", "bench", KEY)]
}

/// The repository checkout the benchmark runs in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf()
}

/// A fresh, empty directory under the checkout's work area.
pub fn work_dir(label: &str) -> io::Result<PathBuf> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = repo_root()
        .join(".perfbench_work")
        .join(format!("{}-{n}-{label}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One running file server and what started it (the replay builds a
/// second `Shared` from the same configuration).
pub struct Server {
    pub fs: FileServer,
    pub config: ServerConfig,
    pub root: PathBuf,
}

impl Server {
    /// Default reactor core, default worker count, no service delay;
    /// `cache` sets the page-cache budget (`None`: no cache).
    pub fn start(root: &Path, cache: Option<u64>) -> io::Result<Server> {
        std::fs::create_dir_all(root)?;
        let mut acl = Acl::single("hostname:*", "rwlda").map_err(io::Error::other)?;
        acl.set("hmac:bench", "rwlda").map_err(io::Error::other)?;
        let mut config = ServerConfig::localhost(root, "perfbench")
            .with_root_acl(acl)
            .with_key("hmac", "bench", KEY);
        // Advertise far more space than any workload stores, so the
        // capacity check never refuses a benchmark write.
        config.capacity_bytes = 1 << 40;
        if let Some(bytes) = cache {
            config = config.with_cache(bytes);
        }
        let fs = FileServer::start(config.clone())?;
        Ok(Server {
            fs,
            config,
            root: root.canonicalize()?,
        })
    }

    pub fn endpoint(&self) -> String {
        self.fs.endpoint()
    }

    pub fn registry(&self) -> &telemetry::Registry {
        self.fs.telemetry().registry()
    }
}

/// A CFS mount with its own telemetry registry.
pub fn cfs(endpoint: &str) -> Arc<Cfs> {
    Arc::new(Cfs::new(CfsConfig::new(endpoint, client_auth())))
}

/// An adapter serving `fs` under `/<name>`.
pub fn adapter(name: &str, fs: Arc<dyn FileSystem>) -> io::Result<Adapter> {
    let a = Adapter::new(AdapterConfig {
        auth: client_auth(),
        ..AdapterConfig::default()
    })?;
    a.register(name, fs);
    Ok(a)
}

/// One connect + HMAC challenge–response handshake, in µs.
pub fn handshake_us(endpoint: &str) -> io::Result<f64> {
    let t0 = Instant::now();
    let mut conn = Connection::connect_via(&Dialer::tcp(), endpoint, TIMEOUT)?;
    conn.authenticate(&client_auth())?;
    Ok(t0.elapsed().as_secs_f64() * 1e6)
}

/// Run `f`, the benchmark's own preparation in a set-up, adding its
/// time to `spent`: `setup_s` leaves that time out.
pub fn prep<T>(spent: &mut Duration, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    let t0 = Instant::now();
    let r = f();
    *spent += t0.elapsed();
    r
}

/// Make `path` under `root` hold exactly `data`, rewriting an
/// existing file in place (never truncating it to zero first: ext4
/// starts writeback at once when a truncated file is rewritten).
pub fn restore(root: &Path, path: &str, data: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(root.join(path.trim_start_matches('/')))?;
    f.write_all_at(data, 0)?;
    f.set_len(data.len() as u64)
}

/// Bytes per PWRITE when `write_files` writes a file.
const WRITE_CHUNK: u64 = 1 << 20;

/// Write each file's initial content through `adapter` under `mount`:
/// OPEN (creating the file in a run's first set-up), a PWRITE per
/// MiB, CLOSE. Later set-ups rewrite the same bytes in place, so they
/// time the program's write path rather than the host filesystem
/// creating inodes. Returns the time spent generating the bytes: the
/// benchmark's work, which `setup_s` leaves out.
pub fn write_files(
    adapter: &Adapter,
    mount: &str,
    seed: u64,
    files: &[InitFile],
) -> io::Result<Duration> {
    let mut generating = Duration::ZERO;
    for (path, id, size) in files {
        let path = format!("{mount}{path}");
        let model = FileModel::new(*id, *size);
        let flags = OpenFlags::WRITE | OpenFlags::CREATE;
        let mut h = adapter.open_handle(&path, flags, 0o644)?;
        for off in (0..*size).step_by(WRITE_CHUNK as usize) {
            let t0 = Instant::now();
            let data = model.expected(seed, off, WRITE_CHUNK as usize);
            generating += t0.elapsed();
            let n = h.pwrite(&data, off)?;
            if n != data.len() {
                return Err(io::Error::other(format!("{path}: wrote {n} at {off}")));
            }
        }
    }
    Ok(generating)
}

/// Make each directory under `root`, if missing.
pub fn mkdirs(root: &Path, dirs: &[String]) -> io::Result<()> {
    for d in dirs {
        std::fs::create_dir_all(root.join(d.trim_start_matches('/')))?;
    }
    Ok(())
}
