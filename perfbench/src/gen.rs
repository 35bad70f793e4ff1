//! Workload inputs, all derived from the seed: file trees, file
//! sizes, Zipf(0.9) file choice, op sequences and payload versions.
//! The program under test only ever sees what these produce.

use std::time::Duration;

use crate::model::{fill_block, BLOCK};
use crate::rng::{derive, Fnv, Rng, Zipf};

/// Sizes of everything a workload builds. `full` is the benchmark;
/// `tiny` keeps each workload's shape at a size tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `meta_hot` tree: `fanout³` leaf directories, one file each.
    pub meta_fanout: usize,
    pub meta_cache: u64,
    /// Handles each `meta_hot` client holds open for preads/pwrites.
    pub meta_held: usize,
    pub bulk_files: usize,
    pub bulk_write_files: usize,
    pub bulk_file_bytes: u64,
    pub bulk_cache: u64,
    pub dsfs_live: usize,
    pub dsfs_dirs: usize,
    pub blob_bytes: u64,
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Calls per op kind in each layer of the traced replay.
    pub replay_ops: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            meta_fanout: 16,
            meta_cache: 64 << 20,
            meta_held: 16,
            bulk_files: 16,
            bulk_write_files: 4,
            bulk_file_bytes: 16 << 20,
            bulk_cache: 32 << 20,
            dsfs_live: 1000,
            dsfs_dirs: 8,
            blob_bytes: 8 << 20,
            warmup: Duration::from_millis(1000),
            setups: 7,
            replay_ops: 300,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            meta_fanout: 3,
            meta_cache: 4 << 20,
            meta_held: 4,
            bulk_files: 4,
            bulk_write_files: 2,
            bulk_file_bytes: 1 << 20,
            bulk_cache: 512 << 10,
            dsfs_live: 40,
            dsfs_dirs: 4,
            blob_bytes: 1 << 20,
            warmup: Duration::from_millis(100),
            setups: 2,
            replay_ops: 20,
        }
    }
}

// Stream labels, so each input is an independent function of the seed.
const TREE: u64 = 1;
const CLIENT: u64 = 2;
const READER: u64 = 3;
const CHURN: u64 = 5;
const PROBE: u64 = 6;
pub const REPLAY: u64 = 7;

pub const META_CLIENTS: usize = 2;

// ---- meta_hot -------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct MetaTree {
    pub fanout: usize,
    /// `(path, size)`; the index is the file id.
    pub files: Vec<(String, u64)>,
}

impl MetaTree {
    pub fn new(seed: u64, fanout: usize) -> MetaTree {
        let mut rng = Rng::new(derive(seed, TREE));
        let mut files = Vec::with_capacity(fanout.pow(3));
        for id in 0..fanout.pow(3) {
            let (a, b, c) = (id / fanout / fanout, id / fanout % fanout, id % fanout);
            let size = rng.range(1024, 16 * 1024);
            files.push((format!("/d{a:02}/e{b:02}/g{c:02}/f{id:04}.dat"), size));
        }
        MetaTree { fanout, files }
    }

    /// Every directory, parents first.
    pub fn dirs(&self) -> Vec<String> {
        let f = self.fanout;
        let mut out = Vec::new();
        for a in 0..f {
            out.push(format!("/d{a:02}"));
            for b in 0..f {
                out.push(format!("/d{a:02}/e{b:02}"));
                for c in 0..f {
                    out.push(format!("/d{a:02}/e{b:02}/g{c:02}"));
                }
            }
        }
        out
    }

    /// The second-level directories `readdir_stat` lists (each holds
    /// `fanout` subdirectories).
    pub fn listed_dir(&self, i: usize) -> (String, Vec<String>) {
        let (a, b) = (i / self.fanout, i % self.fanout);
        let names = (0..self.fanout).map(|c| format!("g{c:02}")).collect();
        (format!("/d{a:02}/e{b:02}"), names)
    }

    /// Every file, its index as its content id.
    pub fn initial_files(&self) -> Vec<InitFile> {
        self.files
            .iter()
            .enumerate()
            .map(|(id, (path, size))| (path.clone(), id as u64, *size))
            .collect()
    }

    pub fn listed_dirs(&self) -> usize {
        self.fanout * self.fanout
    }

    /// Files client `c` owns: its ops touch only these, so the two
    /// clients never race on one file and the model stays exact.
    pub fn domain(&self, c: usize) -> Vec<usize> {
        (0..self.files.len())
            .filter(|id| id % META_CLIENTS == c)
            .collect()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    Stat(usize),
    OpenClose(usize),
    /// Read 8 KiB from held handle `slot` at block `pick % blocks`.
    Pread {
        slot: usize,
        pick: u64,
    },
    /// Write 8 KiB to held handle `slot` at one of the block-aligned
    /// offsets 0, 4 KiB, 8 KiB that do not leave a hole.
    Pwrite {
        slot: usize,
        pick: u64,
        version: u32,
    },
    ReaddirStat(usize),
}

pub struct MetaGen {
    rng: Rng,
    zipf: Zipf,
    held_zipf: Zipf,
    /// The client's files, hottest first (a seeded permutation).
    pub ranked: Vec<usize>,
    /// The files the client holds open: its hottest of at least 8 KiB,
    /// so every pread on them reads a full 8 KiB.
    pub held: Vec<usize>,
    dirs: usize,
    seq: u32,
}

impl MetaGen {
    pub fn new(seed: u64, client: usize, tree: &MetaTree, held: usize) -> MetaGen {
        let mut rng = Rng::new(derive(seed, CLIENT << 8 | client as u64));
        let domain = tree.domain(client);
        let ranked: Vec<usize> = rng
            .permutation(domain.len())
            .into_iter()
            .map(|i| domain[i])
            .collect();
        let held: Vec<usize> = ranked
            .iter()
            .copied()
            .filter(|&f| tree.files[f].1 >= PREAD_BYTES)
            .take(held)
            .collect();
        MetaGen {
            rng,
            zipf: Zipf::new(domain.len(), 0.9),
            held_zipf: Zipf::new(held.len(), 0.9),
            ranked,
            held,
            dirs: tree.listed_dirs(),
            seq: 0,
        }
    }

    pub fn next_op(&mut self) -> MetaOp {
        self.seq += 1;
        let file = self.ranked[self.zipf.sample(&mut self.rng)];
        match self.rng.below(100) {
            0..=34 => MetaOp::Stat(file),
            35..=54 => MetaOp::OpenClose(file),
            55..=79 => MetaOp::Pread {
                slot: self.held_zipf.sample(&mut self.rng),
                pick: self.rng.next_u64(),
            },
            80..=89 => MetaOp::Pwrite {
                slot: self.held_zipf.sample(&mut self.rng),
                pick: self.rng.next_u64(),
                version: self.seq,
            },
            _ => MetaOp::ReaddirStat(self.rng.below(self.dirs as u64) as usize),
        }
    }
}

/// Bytes of a small pread.
pub const PREAD_BYTES: u64 = 8 * 1024;

/// Offset of an 8 KiB pread chosen by `pick` in a file of `size`: a
/// block boundary from which the whole 8 KiB lies inside the file (0
/// in a shorter file).
pub fn pread_offset(size: u64, pick: u64) -> u64 {
    let fits = size.saturating_sub(PREAD_BYTES) / BLOCK as u64 + 1;
    (pick % fits) * BLOCK as u64
}

/// Offset of an 8 KiB pwrite chosen by `pick`: 0, 4 KiB or 8 KiB, at
/// most the last block boundary inside the file (no holes, and the
/// file never grows past 16 KiB).
pub fn pwrite_offset(size: u64, pick: u64) -> u64 {
    let choices = (size / BLOCK as u64 + 1).min(3);
    (pick % choices) * BLOCK as u64
}

// ---- bulk_cold -------------------------------------------------------------

pub fn bulk_reader_path(i: usize) -> String {
    format!("/r/r{i:02}.dat")
}

pub fn bulk_writer_path(i: usize) -> String {
    format!("/w/w{i:02}.dat")
}

/// The reader files, then the writer files; ids count up in that
/// order.
pub fn bulk_initial_files(scale: &Scale) -> Vec<InitFile> {
    let readers = (0..scale.bulk_files).map(bulk_reader_path);
    let writers = (0..scale.bulk_write_files).map(bulk_writer_path);
    readers
        .chain(writers)
        .enumerate()
        .map(|(id, path)| (path, id as u64, scale.bulk_file_bytes))
        .collect()
}

/// How a bulk file is moved: 64 KiB handle calls or one whole-file
/// call (`GETFILE`/`PUTFILE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkMode {
    Stream,
    Whole,
}

/// The reader's endless cyclic scan: each cycle visits every reader
/// file once in a seeded order, each visit streaming or whole-file.
pub struct ReaderGen {
    rng: Rng,
    order: Vec<usize>,
    at: usize,
}

impl ReaderGen {
    pub fn new(seed: u64, files: usize) -> ReaderGen {
        ReaderGen {
            rng: Rng::new(derive(seed, READER)),
            order: Vec::new(),
            at: files,
        }
    }

    pub fn next_file(&mut self, files: usize) -> (usize, BulkMode) {
        if self.at >= self.order.len() {
            self.order = self.rng.permutation(files);
            self.at = 0;
        }
        self.at += 1;
        // Modes alternate, so every stretch of the scan moves the same
        // mix of calls and bytes (a 16 MiB file is ~258 handle calls
        // streamed, 1 call whole).
        let mode = if self.at % 2 == 1 {
            BulkMode::Stream
        } else {
            BulkMode::Whole
        };
        (self.order[self.at - 1], mode)
    }
}

/// The writer rewrites its fixed set round-robin with fresh versions,
/// streaming every file in one round and writing each whole in the
/// next. (The seed already fixes the bytes of every version.)
#[derive(Debug, Default)]
pub struct WriterGen {
    turn: usize,
    version: u32,
}

impl WriterGen {
    pub fn next_file(&mut self, files: usize) -> (usize, BulkMode, u32) {
        self.turn += 1;
        self.version += 1;
        let mode = if ((self.turn - 1) / files).is_multiple_of(2) {
            BulkMode::Stream
        } else {
            BulkMode::Whole
        };
        ((self.turn - 1) % files, mode, self.version)
    }
}

// ---- dsfs_churn ------------------------------------------------------------

pub const DSFS_FILE_BYTES: u64 = 16 * 1024;

pub fn dsfs_path(dir: usize, id: u64) -> String {
    format!("/c{dir}/f{id:06}.dat")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    Create { id: u64, dir: usize },
    Read { id: u64, dir: usize },
    Stat { id: u64, dir: usize },
    Unlink { id: u64, dir: usize },
}

/// The churn op stream. It tracks the live set itself, so the stream
/// is a pure function of the seed; creates and unlinks are equally
/// likely, holding the live count near its initial size.
pub struct ChurnGen {
    rng: Rng,
    dirs: usize,
    pub live: Vec<(u64, usize)>,
    next_id: u64,
    zipf: Zipf,
}

impl ChurnGen {
    pub fn new(seed: u64, live: usize, dirs: usize) -> ChurnGen {
        let mut rng = Rng::new(derive(seed, CHURN));
        let live: Vec<(u64, usize)> = (0..live as u64)
            .map(|id| (id, rng.below(dirs as u64) as usize))
            .collect();
        ChurnGen {
            rng,
            dirs,
            next_id: live.len() as u64,
            zipf: Zipf::new(live.len() * 2, 0.9),
            live,
        }
    }

    /// The initial live set.
    pub fn initial_files(&self) -> Vec<InitFile> {
        self.live
            .iter()
            .map(|&(id, dir)| (dsfs_path(dir, id), id, DSFS_FILE_BYTES))
            .collect()
    }

    fn pick(&mut self) -> usize {
        // Zipf over live-set positions: recently created files sit
        // at the end, old ones at the front and stay hot.
        self.zipf.sample(&mut self.rng) % self.live.len()
    }

    pub fn next_op(&mut self) -> ChurnOp {
        let roll = self.rng.below(100);
        if self.live.is_empty() || roll < 20 {
            let id = self.next_id;
            self.next_id += 1;
            let dir = self.rng.below(self.dirs as u64) as usize;
            self.live.push((id, dir));
            return ChurnOp::Create { id, dir };
        }
        if roll < 40 {
            let i = self.rng.below(self.live.len() as u64) as usize;
            let (id, dir) = self.live.swap_remove(i);
            return ChurnOp::Unlink { id, dir };
        }
        let i = self.pick();
        let (id, dir) = self.live[i];
        if roll < 75 {
            ChurnOp::Read { id, dir }
        } else {
            ChurnOp::Stat { id, dir }
        }
    }
}

// ---- thirdput_hol ----------------------------------------------------------

pub const BLOB_PATH: &str = "/blob.dat";
pub const PROBE_PATH: &str = "/probe.dat";
pub const BLOB_ID: u64 = 1;
pub const PROBE_ID: u64 = 2;
pub const PROBE_BYTES: u64 = 16 * 1024;

pub fn thirdput_initial_files(scale: &Scale) -> Vec<InitFile> {
    vec![
        (BLOB_PATH.into(), BLOB_ID, scale.blob_bytes),
        (PROBE_PATH.into(), PROBE_ID, PROBE_BYTES),
    ]
}

/// The probe cycles the four Fig 4 calls on its own small file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeOp {
    Stat,
    OpenClose,
    Pread { pick: u64 },
    Pwrite { pick: u64, version: u32 },
}

pub struct ProbeGen {
    rng: Rng,
    seq: u32,
}

impl ProbeGen {
    pub fn new(seed: u64) -> ProbeGen {
        ProbeGen {
            rng: Rng::new(derive(seed, PROBE)),
            seq: 0,
        }
    }

    pub fn next_op(&mut self) -> ProbeOp {
        self.seq += 1;
        match self.seq % 4 {
            1 => ProbeOp::Stat,
            2 => ProbeOp::OpenClose,
            3 => ProbeOp::Pread {
                pick: self.rng.next_u64(),
            },
            _ => ProbeOp::Pwrite {
                pick: self.rng.next_u64(),
                version: self.seq,
            },
        }
    }
}

// ---- digests for the determinism test ---------------------------------------

/// The first `n` ops of every op stream of `workload`, rendered.
pub fn op_trace(workload: &str, seed: u64, n: usize, scale: &Scale) -> String {
    let mut out = String::new();
    match workload {
        "meta_hot" => {
            let tree = MetaTree::new(seed, scale.meta_fanout);
            for c in 0..META_CLIENTS {
                let mut g = MetaGen::new(seed, c, &tree, scale.meta_held);
                out += &format!("held{c} {:?}\n", g.held);
                for _ in 0..n {
                    out += &format!("c{c} {:?}\n", g.next_op());
                }
            }
        }
        "bulk_cold" => {
            let mut r = ReaderGen::new(seed, scale.bulk_files);
            let mut w = WriterGen::default();
            for _ in 0..n {
                out += &format!("r {:?}\n", r.next_file(scale.bulk_files));
                out += &format!("w {:?}\n", w.next_file(scale.bulk_write_files));
            }
        }
        "dsfs_churn" => {
            let mut g = ChurnGen::new(seed, scale.dsfs_live, scale.dsfs_dirs);
            out += &format!("live {:?}\n", g.live);
            for _ in 0..n {
                out += &format!("{:?}\n", g.next_op());
            }
        }
        "thirdput_hol" => {
            let mut g = ProbeGen::new(seed);
            for _ in 0..n {
                out += &format!("{:?}\n", g.next_op());
            }
        }
        other => panic!("unknown workload {other}"),
    }
    out
}

/// A file a workload's set-up writes before the load: its path in
/// the workload's namespace, its content-model id and its size.
pub type InitFile = (String, u64, u64);

/// The files `workload`'s set-up writes, in the order it writes them.
pub fn initial_files(workload: &str, seed: u64, scale: &Scale) -> Vec<InitFile> {
    match workload {
        "meta_hot" => MetaTree::new(seed, scale.meta_fanout).initial_files(),
        "bulk_cold" => bulk_initial_files(scale),
        "dsfs_churn" => ChurnGen::new(seed, scale.dsfs_live, scale.dsfs_dirs).initial_files(),
        "thirdput_hol" => thirdput_initial_files(scale),
        other => panic!("unknown workload {other}"),
    }
}

/// Digest of the initial data set `workload` populates: every path,
/// size and content byte.
pub fn data_digest(workload: &str, seed: u64, scale: &Scale) -> u64 {
    let mut h = Fnv::default();
    let mut block = [0u8; BLOCK];
    for (path, id, size) in initial_files(workload, seed, scale) {
        h.write(path.as_bytes());
        h.write(&size.to_le_bytes());
        let mut off = 0;
        while off < size {
            let n = (size - off).min(BLOCK as u64) as usize;
            fill_block(seed, id, off / BLOCK as u64, 0, &mut block[..n]);
            h.write(&block[..n]);
            off += n as u64;
        }
    }
    h.finish()
}
