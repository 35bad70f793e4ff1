//! `dsfs_churn`: the paper's abstraction over resources. One client
//! runs DSFS over a directory server and a data server and churns a
//! live set of ~1,000 files: every op pays stub RPCs plus data RPCs,
//! with the crash-ordered create (stub, then data) and delete (data,
//! then stub).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::OpenFlags;
use tss_core::stub::Stub;
use tss_core::{Adapter, CfsConfig, DataServer, Placement, StubFs, StubFsOptions};

use crate::fixture::{self, Server};
use crate::gen::{dsfs_path, ChurnGen, ChurnOp, InitFile, Scale, DSFS_FILE_BYTES};
use crate::model::FileModel;
use crate::record::{timed, Kind, Recorder};
use crate::workload::{reactor_shards, Client, Info, ReplaySpec, Setup};

const MOUNT: &str = "/dsfs";
const VOLUME: &str = "/tree";
const DATA_VOLUME: &str = "/vol";
/// The set-up's plain mount of the data server.
const DATA_MOUNT: &str = "/data";
const HALF: usize = 8 * 1024;

struct ChurnClient {
    seed: u64,
    adapter: Adapter,
    gen: ChurnGen,
    /// Live files: id → directory.
    live: BTreeMap<u64, usize>,
    dirs: usize,
    buf: Vec<u8>,
}

fn model(id: u64) -> FileModel {
    FileModel::new(id, DSFS_FILE_BYTES)
}

impl ChurnClient {
    fn create(&mut self, rec: &mut Recorder, id: u64, dir: usize) {
        let path = format!("{MOUNT}{}", dsfs_path(dir, id));
        let data = model(id).expected(self.seed, 0, DSFS_FILE_BYTES as usize);
        let op = rec.begin_op();
        let start = std::time::Instant::now();
        let flags = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE;
        let (h, o0, o1) = timed(|| self.adapter.open_handle(&path, flags, 0o644));
        let mut h = match h {
            Ok(h) => h,
            Err(e) => return rec.fail(format!("create {path}: {e}")),
        };
        for half in data.chunks(HALF) {
            let off = (half.as_ptr() as usize - data.as_ptr() as usize) as u64;
            let (r, t0, t1) = timed(|| h.pwrite(half, off));
            match r {
                Ok(n) if n == HALF => rec.call(op, Kind::Pwrite8k, t0, t1),
                Ok(n) => return rec.mismatch(format!("pwrite {path}: wrote {n}")),
                Err(e) => return rec.fail(format!("pwrite {path}: {e}")),
            }
        }
        let ((), c0, c1) = timed(|| drop(h));
        let us = ((o1 - o0) + (c1 - c0)).as_secs_f64() * 1e6;
        rec.call_us(op, Kind::OpenClose, o0, c1, us);
        rec.end_op(op, Kind::Create, start, c1);
        rec.bytes_written += DSFS_FILE_BYTES;
        self.live.insert(id, dir);
    }

    fn read(&mut self, rec: &mut Recorder, id: u64, dir: usize) {
        let path = format!("{MOUNT}{}", dsfs_path(dir, id));
        let m = model(id);
        let op = rec.begin_op();
        let (h, o0, o1) = timed(|| self.adapter.open_handle(&path, OpenFlags::READ, 0));
        let mut h = match h {
            Ok(h) => h,
            Err(e) => return rec.fail(format!("open {path}: {e}")),
        };
        for off in [0u64, HALF as u64] {
            let buf = &mut self.buf;
            let (r, t0, t1) = timed(|| h.pread(&mut buf[..HALF], off));
            match r {
                Ok(n) => {
                    rec.call(op, Kind::Pread8k, t0, t1);
                    rec.bytes_read += n as u64;
                    if !m.matches(self.seed, off, HALF, &buf[..n]) {
                        return rec.mismatch(format!("pread {path} at {off}"));
                    }
                }
                Err(e) => return rec.fail(format!("pread {path}: {e}")),
            }
        }
        let ((), c0, c1) = timed(|| drop(h));
        let us = ((o1 - o0) + (c1 - c0)).as_secs_f64() * 1e6;
        rec.call_us(op, Kind::OpenClose, o0, c1, us);
        rec.end_op(op, Kind::Read, o0, c1);
    }
}

impl Client for ChurnClient {
    fn step(&mut self, rec: &mut Recorder) {
        match self.gen.next_op() {
            ChurnOp::Create { id, dir } => self.create(rec, id, dir),
            ChurnOp::Read { id, dir } => self.read(rec, id, dir),
            ChurnOp::Stat { id, dir } => {
                let path = format!("{MOUNT}{}", dsfs_path(dir, id));
                let op = rec.begin_op();
                let (r, t0, t1) = timed(|| self.adapter.stat(&path));
                match r {
                    Ok(st) if st.size == DSFS_FILE_BYTES && st.is_file() => {
                        rec.call(op, Kind::Stat, t0, t1);
                        rec.end_op(op, Kind::Stat, t0, t1);
                    }
                    Ok(st) => rec.mismatch(format!("stat {path}: size {}", st.size)),
                    Err(e) => rec.fail(format!("stat {path}: {e}")),
                }
            }
            ChurnOp::Unlink { id, dir } => {
                let path = format!("{MOUNT}{}", dsfs_path(dir, id));
                let op = rec.begin_op();
                let (r, t0, t1) = timed(|| self.adapter.unlink(&path));
                match r {
                    Ok(()) => {
                        rec.end_op(op, Kind::Unlink, t0, t1);
                        self.live.remove(&id);
                    }
                    Err(e) => rec.fail(format!("unlink {path}: {e}")),
                }
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        // The namespace must list exactly the live set...
        for d in 0..self.dirs {
            let path = format!("{MOUNT}/c{d}");
            rec.begin_op();
            let want: Vec<String> = self
                .live
                .iter()
                .filter(|(_, dir)| **dir == d)
                .map(|(id, dir)| {
                    dsfs_path(*dir, *id)
                        .rsplit('/')
                        .next()
                        .unwrap_or("")
                        .to_string()
                })
                .collect();
            match self.adapter.readdir(&path) {
                Ok(mut names) => {
                    names.sort();
                    if names != want {
                        rec.mismatch(format!(
                            "listing {path}: {} names, want {}",
                            names.len(),
                            want.len()
                        ));
                    }
                }
                Err(e) => rec.fail(format!("readdir {path}: {e}")),
            }
        }
        // ...and every live file must read back whole.
        let live: Vec<(u64, usize)> = self.live.iter().map(|(i, d)| (*i, *d)).collect();
        for (id, dir) in live {
            let path = format!("{MOUNT}{}", dsfs_path(dir, id));
            rec.begin_op();
            match self.adapter.read_file(&path) {
                Ok(data) if model(id).matches(self.seed, 0, DSFS_FILE_BYTES as usize, &data) => {}
                Ok(_) => rec.mismatch(format!("read-back {path}")),
                Err(e) => rec.fail(format!("read-back {path}: {e}")),
            }
        }
    }
}

pub fn setup(seed: u64, scale: &Scale, dir: &Path) -> io::Result<Setup> {
    let (meta_root, data_root) = (dir.join("dir-server"), dir.join("data-server"));
    let dirs: Vec<String> = (0..scale.dsfs_dirs)
        .map(|d| format!("{VOLUME}/c{d}"))
        .collect();
    let gen = ChurnGen::new(seed, scale.dsfs_live, scale.dsfs_dirs);
    let files = gen.initial_files();
    let data_path = |id: u64| format!("{DATA_VOLUME}/init-{id:06}.dat");
    let mut prep = Duration::ZERO;
    fixture::prep(&mut prep, || {
        fixture::mkdirs(&meta_root, &dirs)?;
        fixture::mkdirs(&data_root, &[DATA_VOLUME.to_string()])
    })?;
    let dir_server = Server::start(&meta_root, None)?;
    let data_server = Server::start(&data_root, None)?;
    let (dir_ep, data_ep) = (dir_server.endpoint(), data_server.endpoint());
    // The initial live set goes in beside DSFS, not through it:
    // creating 1,000 files through DSFS would make set-up time a
    // measure of stub fsyncs. The data files go through a plain mount
    // of the data server, closed before the load starts; the
    // benchmark writes each stub (rendered by the program's own stub
    // type, naming this set-up's data server, so its length changes
    // from set-up to set-up) into the directory tree itself.
    let data_files: Vec<InitFile> = files
        .iter()
        .map(|(_, id, size)| (data_path(*id), *id, *size))
        .collect();
    let loader = fixture::adapter(DATA_MOUNT, fixture::cfs(&data_ep))?;
    prep += fixture::write_files(&loader, DATA_MOUNT, seed, &data_files)?;
    drop(loader);
    fixture::prep(&mut prep, || {
        for (path, id, _) in &files {
            let stub = Stub {
                endpoint: data_ep.clone(),
                data_path: data_path(*id),
            };
            let path = format!("{VOLUME}{path}");
            fixture::restore(&meta_root, &path, stub.render().as_bytes())?;
        }
        Ok(())
    })?;
    let handshakes = (0..3)
        .map(|_| fixture::handshake_us(&dir_ep))
        .collect::<io::Result<Vec<f64>>>()?;
    let meta = Arc::new(tss_core::Cfs::new(
        CfsConfig::new(&dir_ep, fixture::client_auth()).with_base(VOLUME),
    ));
    let registries = vec![meta.telemetry().clone()];
    let pool = vec![DataServer::new(
        &data_ep,
        DATA_VOLUME,
        fixture::client_auth(),
    )];
    let dsfs = Arc::new(StubFs::new(
        meta,
        pool,
        Placement::round_robin(),
        StubFsOptions::default(),
    ));
    let adapter = fixture::adapter(MOUNT, dsfs.clone())?;
    let live: BTreeMap<u64, usize> = gen.live.iter().copied().collect();
    let shards = reactor_shards();
    let n = handshakes.len();
    let pool_fs = dsfs.clone();
    Ok(Setup {
        clients: vec![Box::new(ChurnClient {
            seed,
            adapter,
            gen,
            live,
            dirs: scale.dsfs_dirs,
            buf: vec![0u8; HALF],
        })],
        client_registries: registries,
        replay: ReplaySpec {
            server: 1,
            scan: Some(DATA_VOLUME.into()),
            ..ReplaySpec::default()
        },
        info: Info {
            cache_bytes: 0,
            working_set_bytes: scale.dsfs_live as u64 * DSFS_FILE_BYTES,
            load_threads: 1,
            connections: vec![
                format!("dsfs stubs -> dir-server (shard {})", n % shards),
                format!("dsfs data pool -> data-server (shard {})", 1 % shards),
            ],
            auth_handshake_us: handshakes,
        },
        servers: vec![dir_server, data_server],
        pool_retries: Box::new(move || pool_fs.pool_stats().retries),
        prep,
    })
}
