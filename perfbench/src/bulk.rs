//! `bulk_cold`: bytes instead of requests. A reader scans a data set
//! eight times the server's page cache while a writer rewrites a
//! fixed set, both in 64 KiB handle calls and whole-file calls.
//! Per-RPC costs barely show; copies and the cache miss path do.
//!
//! One load thread takes the reader's and the writer's turns in
//! alternation (`Alternate`), each on its own connection: two threads
//! copying at once, each with a reactor shard copying beside it,
//! would keep four threads busy on a two-CPU host and time the
//! scheduler's slices.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use chirp_proto::OpenFlags;
use tss_core::Adapter;

use crate::fixture::{self, Server};
use crate::gen::{
    bulk_initial_files, bulk_reader_path, bulk_writer_path, BulkMode, ReaderGen, Scale, WriterGen,
};
use crate::model::FileModel;
use crate::record::{timed, Kind, Recorder};
use crate::workload::{reactor_shards, Alternate, Client, Info, ReplaySpec, Setup};

const MOUNT: &str = "/b";
const CHUNK: usize = 64 * 1024;
const HEADER: usize = 8 * 1024;

struct Reader {
    seed: u64,
    adapter: Adapter,
    gen: ReaderGen,
    models: Vec<FileModel>,
    buf: Vec<u8>,
}

struct Writer {
    seed: u64,
    adapter: Adapter,
    gen: WriterGen,
    models: Vec<FileModel>,
    /// One buffer for every whole-file write, so the benchmark adds no
    /// 16 MiB allocation per write of its own to the peak RSS.
    payload: Vec<u8>,
}

/// Record an open and a close as one `open_close` call.
fn record_open_close(
    rec: &mut Recorder,
    id: u64,
    open: (Instant, Instant),
    close: (Instant, Instant),
) {
    let us = ((open.1 - open.0) + (close.1 - close.0)).as_secs_f64() * 1e6;
    rec.call_us(id, Kind::OpenClose, open.0, close.1, us);
    rec.aux_op(id, Kind::OpenClose, open.0, close.1);
}

impl Client for Reader {
    fn step(&mut self, rec: &mut Recorder) {
        let (i, mode) = self.gen.next_file(self.models.len());
        let path = format!("{MOUNT}{}", bulk_reader_path(i));
        let model = &self.models[i];
        let id = rec.begin_op();
        let (r, t0, t1) = timed(|| self.adapter.stat(&path));
        match r {
            Ok(st) if st.size == model.size => {
                rec.call(id, Kind::Stat, t0, t1);
                rec.end_op(id, Kind::Stat, t0, t1);
            }
            Ok(st) => return rec.mismatch(format!("stat {path}: size {}", st.size)),
            Err(e) => return rec.fail(format!("stat {path}: {e}")),
        }
        if mode == BulkMode::Whole {
            let id = rec.begin_op();
            let (r, t0, t1) = timed(|| self.adapter.read_file(&path));
            match r {
                Ok(data) => {
                    rec.call(id, Kind::Getfile, t0, t1);
                    rec.end_op(id, Kind::Getfile, t0, t1);
                    rec.bytes_read += data.len() as u64;
                    if !model.matches(self.seed, 0, model.size as usize, &data) {
                        rec.mismatch(format!("getfile {path}"));
                    }
                }
                Err(e) => rec.fail(format!("getfile {path}: {e}")),
            }
            return;
        }
        let open_id = rec.begin_op();
        let (h, o0, o1) = timed(|| self.adapter.open_handle(&path, OpenFlags::READ, 0));
        let mut h = match h {
            Ok(h) => h,
            Err(e) => return rec.fail(format!("open {path}: {e}")),
        };
        let mut off = 0u64;
        while off < model.size {
            let (len, kind) = if off == 0 {
                (HEADER, Kind::Pread8k)
            } else {
                (CHUNK, Kind::Pread64k)
            };
            let id = rec.begin_op();
            let buf = &mut self.buf;
            let (r, t0, t1) = timed(|| h.pread(&mut buf[..len], off));
            match r {
                Ok(n) if n > 0 => {
                    rec.call(id, kind, t0, t1);
                    rec.end_op(id, kind, t0, t1);
                    rec.bytes_read += n as u64;
                    if !model.matches(self.seed, off, len, &buf[..n]) {
                        rec.mismatch(format!("pread {path} at {off}"));
                    }
                    off += n as u64;
                }
                Ok(_) => return rec.mismatch(format!("pread {path}: early EOF at {off}")),
                Err(e) => return rec.fail(format!("pread {path}: {e}")),
            }
        }
        let ((), c0, c1) = timed(|| drop(h));
        record_open_close(rec, open_id, (o0, o1), (c0, c1));
    }

    fn verify(&mut self, _rec: &mut Recorder) {
        // Every reader byte was already checked as it arrived; the
        // reader files are never written.
    }
}

impl Client for Writer {
    fn step(&mut self, rec: &mut Recorder) {
        let (i, mode, version) = self.gen.next_file(self.models.len());
        let path = format!("{MOUNT}{}", bulk_writer_path(i));
        let model = &mut self.models[i];
        // Every rewrite replaces the file rather than rewriting it in
        // place: a file no older than a few writer turns never reaches
        // the kernel's 30 s dirty expiry, so no writeback runs inside
        // the window; and ext4 starts writeback at once when a file is
        // truncated and rewritten.
        if let Err(e) = self.adapter.unlink(&path) {
            return rec.fail(format!("unlink {path}: {e}"));
        }
        if mode == BulkMode::Whole {
            let size = model.size;
            model.replace(self.seed, size, version, &mut self.payload);
            let data = &self.payload;
            let id = rec.begin_op();
            let (r, t0, t1) = timed(|| self.adapter.write_file(&path, data));
            match r {
                Ok(()) => {
                    rec.call(id, Kind::Putfile, t0, t1);
                    rec.end_op(id, Kind::Putfile, t0, t1);
                    rec.bytes_written += data.len() as u64;
                }
                Err(e) => rec.fail(format!("putfile {path}: {e}")),
            }
            return;
        }
        let open_id = rec.begin_op();
        let flags = OpenFlags::WRITE | OpenFlags::CREATE;
        let (h, o0, o1) = timed(|| self.adapter.open_handle(&path, flags, 0o644));
        let mut h = match h {
            Ok(h) => h,
            Err(e) => return rec.fail(format!("open {path}: {e}")),
        };
        // Body chunks first, then the 8 KiB header, as an application
        // that commits a file by rewriting its header last.
        let size = model.size;
        let mut offsets: Vec<(u64, usize, Kind)> = Vec::new();
        let mut off = HEADER as u64;
        while off < size {
            let len = (size - off).min(CHUNK as u64) as usize;
            offsets.push((off, len, Kind::Pwrite64k));
            off += len as u64;
        }
        offsets.push((0, HEADER, Kind::Pwrite8k));
        for (off, len, kind) in offsets {
            let payload = model.write(self.seed, off, len, version);
            let id = rec.begin_op();
            let (r, t0, t1) = timed(|| h.pwrite(&payload, off));
            match r {
                Ok(n) if n == len => {
                    rec.call(id, kind, t0, t1);
                    rec.end_op(id, kind, t0, t1);
                    rec.bytes_written += n as u64;
                }
                Ok(n) => return rec.mismatch(format!("pwrite {path} at {off}: wrote {n}")),
                Err(e) => return rec.fail(format!("pwrite {path}: {e}")),
            }
        }
        let ((), c0, c1) = timed(|| drop(h));
        record_open_close(rec, open_id, (o0, o1), (c0, c1));
    }

    fn verify(&mut self, rec: &mut Recorder) {
        for (i, model) in self.models.iter().enumerate() {
            let path = format!("{MOUNT}{}", bulk_writer_path(i));
            rec.begin_op();
            match self.adapter.read_file(&path) {
                Ok(data) if model.matches(self.seed, 0, model.size as usize, &data) => {}
                Ok(_) => rec.mismatch(format!("read-back {path}")),
                Err(e) => rec.fail(format!("read-back {path}: {e}")),
            }
        }
    }
}

pub fn setup(seed: u64, scale: &Scale, dir: &Path) -> io::Result<Setup> {
    let files = bulk_initial_files(scale);
    let models: Vec<FileModel> = files
        .iter()
        .map(|(_, id, size)| FileModel::new(*id, *size))
        .collect();
    let (readers, writers) = models.split_at(scale.bulk_files);
    let root = dir.join("server");
    let mut prep = Duration::ZERO;
    fixture::prep(&mut prep, || {
        fixture::mkdirs(&root, &["/r".into(), "/w".into()])
    })?;
    let server = Server::start(&root, Some(scale.bulk_cache))?;
    let ep = server.endpoint();
    // The files go in through a mount of their own, closed before the
    // load starts.
    let loader = fixture::adapter(MOUNT, fixture::cfs(&ep))?;
    prep += fixture::write_files(&loader, MOUNT, seed, &files)?;
    drop(loader);
    let handshakes = (0..3)
        .map(|_| fixture::handshake_us(&ep))
        .collect::<io::Result<Vec<f64>>>()?;
    let shards = reactor_shards();
    let reader_cfs = fixture::cfs(&ep);
    let writer_cfs = fixture::cfs(&ep);
    let registries = vec![
        reader_cfs.telemetry().clone(),
        writer_cfs.telemetry().clone(),
    ];
    let reader = Reader {
        seed,
        adapter: fixture::adapter(MOUNT, reader_cfs.clone())?,
        gen: ReaderGen::new(seed, scale.bulk_files),
        models: readers.to_vec(),
        buf: vec![0u8; CHUNK],
    };
    let writer = Writer {
        seed,
        adapter: fixture::adapter(MOUNT, writer_cfs.clone())?,
        gen: WriterGen::default(),
        models: writers.to_vec(),
        payload: Vec::new(),
    };
    // Dial both now, in a fixed order.
    reader_cfs.whoami()?;
    writer_cfs.whoami()?;
    let n = handshakes.len();
    let reader_paths: Vec<String> = (0..scale.bulk_files).map(bulk_reader_path).collect();
    let mut small = reader_paths.clone();
    small.extend((0..scale.bulk_write_files).map(bulk_writer_path));
    Ok(Setup {
        clients: vec![Box::new(Alternate::new(vec![
            Box::new(reader),
            Box::new(writer),
        ]))],
        client_registries: registries,
        replay: ReplaySpec {
            server: 0,
            small,
            whole: reader_paths,
            dirs: vec!["/r".into(), "/w".into()],
            scan: None,
        },
        info: Info {
            cache_bytes: scale.bulk_cache,
            working_set_bytes: (scale.bulk_files + scale.bulk_write_files) as u64
                * scale.bulk_file_bytes,
            load_threads: 1,
            connections: vec![
                format!("reader -> server (shard {})", (n + 1) % shards),
                format!("writer -> server (shard {})", (n + 2) % shards),
            ],
            auth_handshake_us: handshakes,
        },
        servers: vec![server],
        pool_retries: Box::new(|| 0),
        prep,
    })
}
