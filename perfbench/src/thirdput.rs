//! `thirdput_hol`: a handler that holds its reactor shard. One thread
//! replicates a blob from a source server to two replicas with
//! `controlplane::distribute` (at most one push in flight) while a
//! probe client, dealt onto the pushing connection's reactor shard,
//! issues the small Fig 4 calls against the source.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chirp_proto::OpenFlags;
use controlplane::{distribute, TreeConfig, TreeReport, TreeTarget};
use tss_core::fs::FileHandle;
use tss_core::{Adapter, Cfs};

use crate::fixture::{self, Server};
use crate::gen::{
    pread_offset, pwrite_offset, thirdput_initial_files, ProbeGen, ProbeOp, Scale, BLOB_ID,
    BLOB_PATH, PROBE_BYTES, PROBE_ID, PROBE_PATH,
};
use crate::model::FileModel;
use crate::record::{timed, Kind, Recorder};
use crate::workload::{reactor_shards, Client, Info, ReplaySpec, Setup};

const MOUNT: &str = "/src";

/// Replication of one source file to replica servers: one
/// `controlplane::distribute` per `push`, every replica then checked
/// byte for byte.
pub(crate) struct Replicas {
    source: TreeTarget,
    /// Each target with the host path its copy lands at.
    targets: Vec<(TreeTarget, PathBuf)>,
    /// The mount the tree uses for the source endpoint.
    cfs: Arc<Cfs>,
    /// Mounts the tree dialed for endpoints other than the source:
    /// expected to stay empty (every push leaves the source).
    extra: Mutex<HashMap<String, Arc<Cfs>>>,
}

impl Replicas {
    pub fn new(source: TreeTarget, targets: Vec<(TreeTarget, PathBuf)>, cfs: Arc<Cfs>) -> Self {
        Replicas {
            source,
            targets,
            cfs,
            extra: Mutex::new(HashMap::new()),
        }
    }

    /// Distribute the source, timed, then check every replica against
    /// `want`. `None` (with the failure recorded) if a target failed.
    pub fn push(&self, want: &[u8], rec: &mut Recorder) -> Option<(TreeReport, Instant, Instant)> {
        // Every replication lands as a new file: the previous copies go
        // first, so a push that wrote nothing cannot pass the check,
        // and no push rewrites a truncated file (ext4 would start
        // writeback at once, turning the push into disk traffic).
        for (_, host) in &self.targets {
            let _ = std::fs::remove_file(host);
        }
        let targets: Vec<TreeTarget> = self.targets.iter().map(|(t, _)| t.clone()).collect();
        let source_ep = self.source.endpoint.as_str();
        let (report, t0, t1) = timed(|| {
            distribute(
                &self.source,
                &targets,
                |ep: &str| {
                    if ep == source_ep {
                        return self.cfs.clone();
                    }
                    let mut extra = self.extra.lock().expect("extra mounts lock");
                    extra
                        .entry(ep.to_string())
                        .or_insert_with(|| fixture::cfs(ep))
                        .clone()
                },
                &TreeConfig::default(),
                None,
                None,
            )
        });
        if !report.failed.is_empty() || report.completed.len() != targets.len() {
            rec.fail(format!(
                "distribute {}: {} of {} failed",
                self.source.path,
                report.failed.len(),
                targets.len()
            ));
            return None;
        }
        for (t, host) in &self.targets {
            match std::fs::read(host) {
                Ok(data) if data == want => {}
                Ok(_) => rec.mismatch(format!("replica {}{}", t.endpoint, t.path)),
                Err(e) => rec.fail(format!("replica {}{}: {e}", t.endpoint, t.path)),
            }
        }
        Some((report, t0, t1))
    }

    /// Servers besides the source the tree has dialed.
    pub fn extra_mounts(&self) -> usize {
        self.extra.lock().expect("extra mounts lock").len()
    }
}

struct Pusher {
    replicas: Replicas,
    blob: Vec<u8>,
}

impl Client for Pusher {
    fn step(&mut self, rec: &mut Recorder) {
        let op = rec.begin_op();
        let Some((_, t0, t1)) = self.replicas.push(&self.blob, rec) else {
            return;
        };
        rec.end_op(op, Kind::Replicate, t0, t1);
        let bytes = self.blob.len() as u64 * self.replicas.targets.len() as u64;
        rec.bytes_read += bytes;
        rec.bytes_written += bytes;
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let extra = self.replicas.extra_mounts();
        if extra > 0 {
            rec.mismatch(format!(
                "distribution dialed {extra} servers besides the source"
            ));
        }
    }
}

struct Probe {
    seed: u64,
    adapter: Adapter,
    gen: ProbeGen,
    held: Box<dyn FileHandle>,
    model: FileModel,
    buf: Vec<u8>,
}

/// Think time between probe calls. A probe call that arrives during a
/// push waits for the whole push, so the share of probe calls that
/// block is the share of time the shard spends pushing; the pause
/// keeps the probe from flooding the shard between pushes.
const PROBE_PAUSE: Duration = Duration::from_millis(1);

impl Client for Probe {
    fn step(&mut self, rec: &mut Recorder) {
        std::thread::sleep(PROBE_PAUSE);
        let path = format!("{MOUNT}{PROBE_PATH}");
        let op = rec.begin_op();
        match self.gen.next_op() {
            ProbeOp::Stat => {
                let (r, t0, t1) = timed(|| self.adapter.stat(&path));
                match r {
                    Ok(st) if st.size == self.model.size => {
                        rec.call(op, Kind::Stat, t0, t1);
                        rec.aux_op(op, Kind::Stat, t0, t1);
                    }
                    Ok(st) => rec.mismatch(format!("stat {path}: size {}", st.size)),
                    Err(e) => rec.fail(format!("stat {path}: {e}")),
                }
            }
            ProbeOp::OpenClose => {
                let (r, t0, t1) = timed(|| {
                    self.adapter
                        .open_handle(&path, OpenFlags::READ, 0)
                        .map(drop)
                });
                match r {
                    Ok(()) => {
                        rec.call(op, Kind::OpenClose, t0, t1);
                        rec.aux_op(op, Kind::OpenClose, t0, t1);
                    }
                    Err(e) => rec.fail(format!("open {path}: {e}")),
                }
            }
            ProbeOp::Pread { pick } => {
                let off = pread_offset(self.model.size, pick);
                let (h, buf) = (&mut self.held, &mut self.buf);
                let (r, t0, t1) = timed(|| h.pread(&mut buf[..8192], off));
                match r {
                    Ok(n) => {
                        rec.call(op, Kind::Pread8k, t0, t1);
                        rec.aux_op(op, Kind::Pread8k, t0, t1);
                        if !self.model.matches(self.seed, off, 8192, &buf[..n]) {
                            rec.mismatch(format!("pread {path} at {off}"));
                        }
                    }
                    Err(e) => rec.fail(format!("pread {path}: {e}")),
                }
            }
            ProbeOp::Pwrite { pick, version } => {
                let off = pwrite_offset(self.model.size, pick);
                let payload = self.model.write(self.seed, off, 8192, version);
                let (r, t0, t1) = timed(|| self.held.pwrite(&payload, off));
                match r {
                    Ok(8192) => {
                        rec.call(op, Kind::Pwrite8k, t0, t1);
                        rec.aux_op(op, Kind::Pwrite8k, t0, t1);
                    }
                    Ok(n) => rec.mismatch(format!("pwrite {path}: wrote {n}")),
                    Err(e) => rec.fail(format!("pwrite {path}: {e}")),
                }
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let path = format!("{MOUNT}{PROBE_PATH}");
        rec.begin_op();
        match self.adapter.read_file(&path) {
            Ok(d)
                if self
                    .model
                    .matches(self.seed, 0, self.model.size as usize, &d) => {}
            Ok(_) => rec.mismatch(format!("read-back {path}")),
            Err(e) => rec.fail(format!("read-back {path}: {e}")),
        }
    }
}

pub fn setup(seed: u64, scale: &Scale, dir: &Path) -> io::Result<Setup> {
    let source = Server::start(&dir.join("source"), None)?;
    let mut servers = vec![];
    let mut replicas = vec![];
    for r in 1..=2 {
        let root = dir.join(format!("replica{r}"));
        let s = Server::start(&root, None)?;
        replicas.push((
            TreeTarget::new(&s.endpoint(), BLOB_PATH),
            s.root.join(BLOB_PATH.trim_start_matches('/')),
        ));
        servers.push(s);
    }
    let ep = source.endpoint();
    // Accept order on the source decides reactor shards (round-robin):
    // the pusher first (it also writes the initial files), then
    // enough handshake connections that the probe is dealt onto the
    // pusher's shard.
    let shards = reactor_shards();
    let pusher_cfs = fixture::cfs(&ep);
    let loader = fixture::adapter(MOUNT, pusher_cfs.clone())?;
    let prep = fixture::write_files(&loader, MOUNT, seed, &thirdput_initial_files(scale))?;
    drop(loader);
    let fillers = (3..).find(|k| (1 + k) % shards == 0).expect("some k fits");
    let handshakes = (0..fillers)
        .map(|_| fixture::handshake_us(&ep))
        .collect::<io::Result<Vec<f64>>>()?;
    let probe_cfs = fixture::cfs(&ep);
    probe_cfs.whoami()?;
    let registries = vec![
        pusher_cfs.telemetry().clone(),
        probe_cfs.telemetry().clone(),
    ];
    let adapter = fixture::adapter(MOUNT, probe_cfs)?;
    let held = adapter.open_handle(&format!("{MOUNT}{PROBE_PATH}"), OpenFlags::read_write(), 0)?;
    let pusher = Pusher {
        replicas: Replicas::new(TreeTarget::new(&ep, BLOB_PATH), replicas, pusher_cfs),
        blob: FileModel::new(BLOB_ID, scale.blob_bytes).expected(
            seed,
            0,
            scale.blob_bytes as usize,
        ),
    };
    let probe = Probe {
        seed,
        adapter,
        gen: ProbeGen::new(seed),
        held,
        model: FileModel::new(PROBE_ID, PROBE_BYTES),
        buf: vec![0u8; 8192],
    };
    servers.insert(0, source);
    Ok(Setup {
        clients: vec![Box::new(pusher), Box::new(probe)],
        client_registries: registries,
        replay: ReplaySpec {
            server: 0,
            small: vec![PROBE_PATH.into(), BLOB_PATH.into()],
            whole: vec![BLOB_PATH.into()],
            dirs: vec!["/".into()],
            scan: None,
        },
        info: Info {
            cache_bytes: 0,
            working_set_bytes: scale.blob_bytes + PROBE_BYTES,
            load_threads: 2,
            connections: vec![
                "pusher -> source (shard 0)".into(),
                format!("{fillers} handshake connections -> source (opened and closed)"),
                format!("probe -> source (shard {})", (1 + fillers) % shards),
            ],
            auth_handshake_us: handshakes,
        },
        servers,
        pool_retries: Box::new(|| 0),
        prep,
    })
}
