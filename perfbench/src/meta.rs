//! `meta_hot`: SP5-init-style metadata and small I/O over a tree that
//! fits the server's page cache. Every request is small, so the
//! per-RPC layers dominate.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::OpenFlags;
use tss_core::fs::FileHandle;
use tss_core::Adapter;

use crate::fixture::{self, Server};
use crate::gen::{pread_offset, pwrite_offset, MetaGen, MetaOp, MetaTree, Scale, META_CLIENTS};
use crate::model::FileModel;
use crate::record::{timed, Kind, Recorder};
use crate::workload::{reactor_shards, Alternate, Client, Info, ReplaySpec, Setup};

const MOUNT: &str = "/m";

struct MetaClient {
    seed: u64,
    adapter: Adapter,
    tree: Arc<MetaTree>,
    gen: MetaGen,
    /// Held handles and the model of each held file (the only files
    /// this client writes).
    held: Vec<(usize, Box<dyn FileHandle>)>,
    models: HashMap<usize, FileModel>,
    buf: Vec<u8>,
}

impl MetaClient {
    fn path(&self, file: usize) -> String {
        format!("{MOUNT}{}", self.tree.files[file].0)
    }

    fn size(&self, file: usize) -> u64 {
        self.models
            .get(&file)
            .map_or(self.tree.files[file].1, |m| m.size)
    }
}

impl Client for MetaClient {
    fn step(&mut self, rec: &mut Recorder) {
        let op = self.gen.next_op();
        let id = rec.begin_op();
        match op {
            MetaOp::Stat(f) => {
                let path = self.path(f);
                let (r, t0, t1) = timed(|| self.adapter.stat(&path));
                match r {
                    Ok(st) => {
                        rec.call(id, Kind::Stat, t0, t1);
                        rec.end_op(id, Kind::Stat, t0, t1);
                        if st.size != self.size(f) || !st.is_file() {
                            rec.mismatch(format!("stat {path}: size {}", st.size));
                        }
                    }
                    Err(e) => rec.fail(format!("stat {path}: {e}")),
                }
            }
            MetaOp::OpenClose(f) => {
                let path = self.path(f);
                let (r, t0, t1) = timed(|| {
                    self.adapter
                        .open_handle(&path, OpenFlags::READ, 0)
                        .map(drop)
                });
                match r {
                    Ok(()) => {
                        rec.call(id, Kind::OpenClose, t0, t1);
                        rec.end_op(id, Kind::OpenClose, t0, t1);
                    }
                    Err(e) => rec.fail(format!("open {path}: {e}")),
                }
            }
            MetaOp::Pread { slot, pick } => {
                let (file, h) = &mut self.held[slot];
                let model = &self.models[file];
                let off = pread_offset(model.size, pick);
                let buf = &mut self.buf;
                let (r, t0, t1) = timed(|| h.pread(&mut buf[..8192], off));
                match r {
                    Ok(n) => {
                        rec.call(id, Kind::Pread8k, t0, t1);
                        rec.end_op(id, Kind::Pread8k, t0, t1);
                        rec.bytes_read += n as u64;
                        if !model.matches(self.seed, off, 8192, &buf[..n]) {
                            rec.mismatch(format!("pread file {file} at {off}"));
                        }
                    }
                    Err(e) => rec.fail(format!("pread file {file}: {e}")),
                }
            }
            MetaOp::Pwrite {
                slot,
                pick,
                version,
            } => {
                let (file, h) = &mut self.held[slot];
                let model = self.models.get_mut(file).expect("held files are modelled");
                let off = pwrite_offset(model.size, pick);
                let payload = model.write(self.seed, off, 8192, version);
                let (r, t0, t1) = timed(|| h.pwrite(&payload, off));
                match r {
                    Ok(8192) => {
                        rec.call(id, Kind::Pwrite8k, t0, t1);
                        rec.end_op(id, Kind::Pwrite8k, t0, t1);
                        rec.bytes_written += 8192;
                    }
                    Ok(n) => rec.mismatch(format!("pwrite file {file}: wrote {n}")),
                    Err(e) => rec.fail(format!("pwrite file {file}: {e}")),
                }
            }
            MetaOp::ReaddirStat(d) => {
                let (dir, names) = self.tree.listed_dir(d);
                let path = format!("{MOUNT}{dir}");
                let (r, t0, t1) = timed(|| {
                    let (fs, rel) = self.adapter.resolve(&path)?;
                    fs.readdir_stat(&rel)
                });
                match r {
                    Ok(mut list) => {
                        rec.call(id, Kind::ReaddirStat, t0, t1);
                        rec.end_op(id, Kind::ReaddirStat, t0, t1);
                        list.sort_by(|a, b| a.0.cmp(&b.0));
                        let got: Vec<&String> = list.iter().map(|(n, _)| n).collect();
                        let want: Vec<&String> = names.iter().collect();
                        if got != want || list.iter().any(|(_, st)| !st.is_dir()) {
                            rec.mismatch(format!("readdir_stat {path}"));
                        }
                    }
                    Err(e) => rec.fail(format!("readdir_stat {path}: {e}")),
                }
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let mut files: Vec<usize> = self.models.keys().copied().collect();
        files.sort_unstable();
        for f in files {
            let path = self.path(f);
            rec.begin_op();
            match self.adapter.read_file(&path) {
                Ok(data)
                    if self.models[&f].matches(
                        self.seed,
                        0,
                        self.models[&f].size as usize,
                        &data,
                    ) => {}
                Ok(_) => rec.mismatch(format!("read-back {path}")),
                Err(e) => rec.fail(format!("read-back {path}: {e}")),
            }
        }
    }
}

pub fn setup(seed: u64, scale: &Scale, dir: &Path) -> io::Result<Setup> {
    let tree = Arc::new(MetaTree::new(seed, scale.meta_fanout));
    let root = dir.join("server");
    let mut prep = Duration::ZERO;
    fixture::prep(&mut prep, || fixture::mkdirs(&root, &tree.dirs()))?;
    let server = Server::start(&root, Some(scale.meta_cache))?;
    let ep = server.endpoint();
    // The files go in through a mount of their own, closed before the
    // load starts.
    let loader = fixture::adapter(MOUNT, fixture::cfs(&ep))?;
    prep += fixture::write_files(&loader, MOUNT, seed, &tree.initial_files())?;
    drop(loader);
    let handshakes = (0..3)
        .map(|_| fixture::handshake_us(&ep))
        .collect::<io::Result<Vec<f64>>>()?;
    let shards = reactor_shards();
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    let mut registries = Vec::new();
    let mut connections = Vec::new();
    for c in 0..META_CLIENTS {
        let cfs = fixture::cfs(&ep);
        registries.push(cfs.telemetry().clone());
        let adapter = fixture::adapter(MOUNT, cfs)?;
        let gen = MetaGen::new(seed, c, &tree, scale.meta_held);
        let mut held = Vec::new();
        let mut models = HashMap::new();
        let mut buf = vec![0u8; 16 * 1024];
        for &f in &gen.held {
            let (path, size) = &tree.files[f];
            let mut h =
                adapter.open_handle(&format!("{MOUNT}{path}"), OpenFlags::read_write(), 0)?;
            // Warm the server's page cache with the held file.
            let n = h.pread(&mut buf, 0)?;
            let model = FileModel::new(f as u64, *size);
            if !model.matches(seed, 0, buf.len(), &buf[..n]) {
                return Err(io::Error::other(format!("warm read of {path} mismatched")));
            }
            held.push((f, h));
            models.insert(f, model);
        }
        connections.push(format!(
            "client{c} -> server (shard {})",
            (1 + handshakes.len() + c) % shards
        ));
        clients.push(Box::new(MetaClient {
            seed,
            adapter,
            tree: tree.clone(),
            gen,
            held,
            models,
            buf,
        }));
    }
    let (dirs, paths): (Vec<String>, Vec<String>) = (
        (0..tree.listed_dirs())
            .map(|i| tree.listed_dir(i).0)
            .collect(),
        tree.files.iter().map(|(p, _)| p.clone()).collect(),
    );
    Ok(Setup {
        clients: vec![Box::new(Alternate::new(clients))],
        client_registries: registries,
        replay: ReplaySpec {
            server: 0,
            small: paths.clone(),
            whole: paths,
            dirs,
            scan: None,
        },
        info: Info {
            cache_bytes: scale.meta_cache,
            working_set_bytes: tree.files.iter().map(|(_, s)| s).sum(),
            load_threads: 1,
            connections,
            auth_handshake_us: handshakes,
        },
        servers: vec![server],
        pool_retries: Box::new(|| 0),
        prep,
    })
}
