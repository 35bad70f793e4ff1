//! The traced replay: the workload's seeded calls replayed through
//! each lower entry point in turn — adapter → CFS mount →
//! `Connection` → `Session::handle` → `LocalFs` — plus the pieces a
//! request crosses inside the server (`Request` encode/parse, `Jail`,
//! `Acl`, `PageCache`). One span per call; each layer's median minus
//! the next lower layer's median for the same op is its self time.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use chirp_client::Connection;
use chirp_proto::transport::Dialer;
use chirp_proto::{OpenFlags, Request};
use chirp_server::handlers::{Reply, Session};
use chirp_server::server::Shared;
use chirp_server::{Acl, Jail, PageCache};
use controlplane::TreeTarget;
use tss_core::fs::{FileHandle, FileSystem};
use tss_core::{Adapter, Cfs, LocalFs};

use crate::fixture::{self, Server};
use crate::gen::REPLAY;
use crate::record::Recorder;
use crate::rng::{derive, Rng};
use crate::stats::{hist_quantile, median};
use crate::thirdput::Replicas;
use crate::workload::{ReplaySpec, Setup};

/// The op kinds every layer replays, named as in the metrics.
pub const OPS: [&str; 7] = [
    "stat",
    "open_close",
    "pread8k",
    "pwrite8k",
    "getdir",
    "getfile",
    "putfile",
];

const MOUNT: &str = "/r";
const SMALL: usize = 8192;
const HELD: usize = 16;

#[derive(Debug, Clone)]
pub struct ReplaySpan {
    pub layer: &'static str,
    pub op: &'static str,
    pub idx: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Median ns per `(layer, op)`.
    pub medians: BTreeMap<(&'static str, &'static str), f64>,
    /// Single-layer measurements (`proto.*`, `acl.*`, ...).
    pub micro: BTreeMap<String, f64>,
    pub spans: Vec<ReplaySpan>,
}

/// One replayed call.
#[derive(Debug, Clone)]
enum Op {
    Stat(String),
    OpenClose(String),
    Pread(String, u64),
    Pwrite(String, u64),
    Getdir(String),
    Getfile(String),
    Putfile(String),
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::Stat(_) => "stat",
            Op::OpenClose(_) => "open_close",
            Op::Pread(..) => "pread8k",
            Op::Pwrite(..) => "pwrite8k",
            Op::Getdir(_) => "getdir",
            Op::Getfile(_) => "getfile",
            Op::Putfile(_) => "putfile",
        }
    }
}

/// Expected bytes of each region the replay touches, read from the
/// server's tree before the replay starts. Every replayed read is
/// checked against it, and every replayed write writes it back, so
/// the replay leaves the data unchanged.
struct Truth {
    regions: HashMap<(String, u64), Vec<u8>>,
    whole: HashMap<String, Vec<u8>>,
}

trait Layer {
    fn name(&self) -> &'static str;
    fn hold(&mut self, path: &str) -> io::Result<()>;
    /// Run `op`, leaving any bytes read in `out`.
    fn run(&mut self, op: &Op, truth: &Truth, out: &mut Vec<u8>) -> io::Result<()>;
}

fn region<'a>(truth: &'a Truth, path: &str, off: u64) -> &'a [u8] {
    &truth.regions[&(path.to_string(), off)]
}

/// The path-level calls of any [`FileSystem`] (mount and `LocalFs`),
/// with handles held open for the positional calls.
struct FsLayer {
    name: &'static str,
    fs: Arc<dyn FileSystem>,
    held: HashMap<String, Box<dyn FileHandle>>,
}

impl Layer for FsLayer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn hold(&mut self, path: &str) -> io::Result<()> {
        let h = self.fs.open(path, OpenFlags::read_write(), 0)?;
        self.held.insert(path.to_string(), h);
        Ok(())
    }

    fn run(&mut self, op: &Op, truth: &Truth, out: &mut Vec<u8>) -> io::Result<()> {
        match op {
            Op::Stat(p) => drop(self.fs.stat(p)?),
            Op::OpenClose(p) => drop(self.fs.open(p, OpenFlags::READ, 0)?),
            Op::Pread(p, off) => {
                out.resize(SMALL, 0);
                let n = self.held.get_mut(p).expect("held").pread(out, *off)?;
                out.truncate(n);
            }
            Op::Pwrite(p, off) => {
                let data = region(truth, p, *off);
                self.held.get_mut(p).expect("held").pwrite(data, *off)?;
            }
            Op::Getdir(p) => drop(self.fs.readdir_stat(p)?),
            Op::Getfile(p) => *out = self.fs.read_file(p)?,
            Op::Putfile(p) => self.fs.write_file(p, &truth.whole[p])?,
        }
        Ok(())
    }
}

/// The application's view: every path resolved through the adapter.
struct AdapterLayer {
    adapter: Adapter,
    held: HashMap<String, Box<dyn FileHandle>>,
}

impl Layer for AdapterLayer {
    fn name(&self) -> &'static str {
        "adapter"
    }

    fn hold(&mut self, path: &str) -> io::Result<()> {
        let h = self
            .adapter
            .open_handle(&format!("{MOUNT}{path}"), OpenFlags::read_write(), 0)?;
        self.held.insert(path.to_string(), h);
        Ok(())
    }

    fn run(&mut self, op: &Op, truth: &Truth, out: &mut Vec<u8>) -> io::Result<()> {
        let a = &self.adapter;
        match op {
            Op::Stat(p) => drop(a.stat(&format!("{MOUNT}{p}"))?),
            Op::OpenClose(p) => drop(a.open_handle(&format!("{MOUNT}{p}"), OpenFlags::READ, 0)?),
            Op::Pread(p, off) => {
                out.resize(SMALL, 0);
                let n = self.held.get_mut(p).expect("held").pread(out, *off)?;
                out.truncate(n);
            }
            Op::Pwrite(p, off) => {
                let data = region(truth, p, *off);
                self.held.get_mut(p).expect("held").pwrite(data, *off)?;
            }
            Op::Getdir(p) => {
                let (fs, rel) = a.resolve(&format!("{MOUNT}{p}"))?;
                drop(fs.readdir_stat(&rel)?)
            }
            Op::Getfile(p) => *out = a.read_file(&format!("{MOUNT}{p}"))?,
            Op::Putfile(p) => a.write_file(&format!("{MOUNT}{p}"), &truth.whole[p])?,
        }
        Ok(())
    }
}

struct ConnLayer {
    conn: Connection,
    held: HashMap<String, i32>,
}

impl Layer for ConnLayer {
    fn name(&self) -> &'static str {
        "conn"
    }

    fn hold(&mut self, path: &str) -> io::Result<()> {
        let fd = self.conn.open(path, OpenFlags::read_write(), 0)?;
        self.held.insert(path.to_string(), fd);
        Ok(())
    }

    fn run(&mut self, op: &Op, truth: &Truth, out: &mut Vec<u8>) -> io::Result<()> {
        let c = &mut self.conn;
        match op {
            Op::Stat(p) => drop(c.stat(p)?),
            Op::OpenClose(p) => {
                let fd = c.open(p, OpenFlags::READ, 0)?;
                c.close(fd)?;
            }
            Op::Pread(p, off) => {
                out.resize(SMALL, 0);
                let n = c.pread_into(self.held[p], out, *off)?;
                out.truncate(n);
            }
            Op::Pwrite(p, off) => drop(c.pwrite(self.held[p], region(truth, p, *off), *off)?),
            Op::Getdir(p) => drop(c.getdir_stat(p)?),
            Op::Getfile(p) => *out = c.getfile(p)?,
            Op::Putfile(p) => c.putfile(p, 0o644, &truth.whole[p])?,
        }
        Ok(())
    }
}

/// The server's request handler, driven in process: what a reactor
/// shard runs for one parsed request, including producing the reply
/// body it would write to the socket.
struct HandlerLayer {
    session: Session,
    held: HashMap<String, i32>,
}

impl HandlerLayer {
    fn drain(&self, reply: Reply, out: &mut Vec<u8>) -> io::Result<i64> {
        out.clear();
        Ok(match reply {
            Reply::Value(v) => v,
            Reply::Words(v, w) => {
                black_box(w);
                v
            }
            Reply::Data(d) => {
                *out = d;
                out.len() as i64
            }
            Reply::Scratch(n) => {
                out.extend_from_slice(&self.session.scratch()[..n]);
                n as i64
            }
            Reply::FileStream(mut f, len) => {
                out.reserve(len as usize);
                (&mut f).take(len).read_to_end(out)?;
                len as i64
            }
            Reply::Pages(p) => {
                for s in p.slices() {
                    out.extend_from_slice(s.as_slice());
                }
                p.total() as i64
            }
        })
    }

    fn call(
        &mut self,
        req: Request,
        payload: Option<Vec<u8>>,
        out: &mut Vec<u8>,
    ) -> io::Result<i64> {
        let reply = self.session.handle(req, payload)?;
        self.drain(reply, out)
    }
}

impl Layer for HandlerLayer {
    fn name(&self) -> &'static str {
        "handler"
    }

    fn hold(&mut self, path: &str) -> io::Result<()> {
        let mut scratch = Vec::new();
        let fd = self.call(
            Request::Open {
                path: path.to_string(),
                flags: OpenFlags::read_write(),
                mode: 0,
            },
            None,
            &mut scratch,
        )?;
        self.held.insert(path.to_string(), fd as i32);
        Ok(())
    }

    fn run(&mut self, op: &Op, truth: &Truth, out: &mut Vec<u8>) -> io::Result<()> {
        match op {
            Op::Stat(p) => drop(self.call(Request::Stat { path: p.clone() }, None, out)?),
            Op::OpenClose(p) => {
                let fd = self.call(
                    Request::Open {
                        path: p.clone(),
                        flags: OpenFlags::READ,
                        mode: 0,
                    },
                    None,
                    out,
                )?;
                self.call(Request::Close { fd: fd as i32 }, None, out)?;
            }
            Op::Pread(p, off) => {
                let fd = self.held[p];
                let req = Request::Pread {
                    fd,
                    length: SMALL as u64,
                    offset: *off,
                };
                self.call(req, None, out)?;
            }
            Op::Pwrite(p, off) => {
                let data = region(truth, p, *off).to_vec();
                let req = Request::Pwrite {
                    fd: self.held[p],
                    length: data.len() as u64,
                    offset: *off,
                };
                self.call(req, Some(data), out)?;
            }
            Op::Getdir(p) => drop(self.call(Request::GetdirStat { path: p.clone() }, None, out)?),
            Op::Getfile(p) => drop(self.call(Request::Getfile { path: p.clone() }, None, out)?),
            Op::Putfile(p) => {
                let data = &truth.whole[p];
                let mut reader: &[u8] = data;
                let reply =
                    self.session
                        .handle_putfile(p, 0o644, data.len() as u64, &mut reader)?;
                self.drain(reply, out)?;
            }
        }
        Ok(())
    }
}

/// Files and directories of the replay, from the spec or a scan.
fn resolve_spec(spec: &ReplaySpec, root: &Path) -> io::Result<ReplaySpec> {
    let Some(scan) = &spec.scan else {
        return Ok(spec.clone());
    };
    let mut out = ReplaySpec::default();
    let mut stack = vec![scan.clone()];
    while let Some(dir) = stack.pop() {
        out.dirs.push(dir.clone());
        let mut entries: Vec<_> = std::fs::read_dir(root.join(dir.trim_start_matches('/')))?
            .flatten()
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') {
                continue;
            }
            let p = format!("{}/{name}", dir.trim_end_matches('/'));
            if e.file_type()?.is_dir() {
                stack.push(p);
            } else {
                out.small.push(p);
            }
        }
    }
    out.whole = out.small.clone();
    Ok(out)
}

fn host(root: &Path, path: &str) -> std::path::PathBuf {
    root.join(path.trim_start_matches('/'))
}

/// Build the seeded op lists and the truth they are checked against.
fn plan(spec: &ReplaySpec, root: &Path, seed: u64, n: usize) -> io::Result<(Vec<Vec<Op>>, Truth)> {
    use std::os::unix::fs::FileExt;
    let mut rng = Rng::new(derive(seed, REPLAY));
    let sizes: Vec<u64> = spec
        .small
        .iter()
        .map(|p| std::fs::metadata(host(root, p)).map(|m| m.len()))
        .collect::<io::Result<_>>()?;
    let writable: Vec<usize> = (0..sizes.len())
        .filter(|&i| sizes[i] >= SMALL as u64)
        .collect();
    if spec.small.is_empty() || spec.dirs.is_empty() || writable.is_empty() {
        return Err(io::Error::other("replay has no files to drive"));
    }
    let mut truth = Truth {
        regions: HashMap::new(),
        whole: HashMap::new(),
    };
    let mut pick = |v: usize| rng.below(v as u64) as usize;
    // Positional calls go to a few held handles, as an application's
    // would (and as every layer must hold them open at once).
    let held: Vec<usize> = (0..HELD).map(|_| writable[pick(writable.len())]).collect();
    let mut lists: Vec<Vec<Op>> = vec![Vec::new(); OPS.len()];
    let whole_bytes = std::fs::metadata(host(root, &spec.whole[0]))?.len().max(1);
    let n_whole = ((64u64 << 20) / whole_bytes).clamp(4, n as u64) as usize;
    for _ in 0..n {
        let f = pick(spec.small.len());
        let p = spec.small[f].clone();
        lists[0].push(Op::Stat(p.clone()));
        lists[1].push(Op::OpenClose(p.clone()));
        let r = held[pick(HELD)];
        let blocks = sizes[r].div_ceil(4096).max(1);
        let off = pick(blocks as usize) as u64 * 4096;
        lists[2].push(Op::Pread(spec.small[r].clone(), off));
        let w = held[pick(HELD)];
        let wp = spec.small[w].clone();
        let off = pick(((sizes[w] - SMALL as u64) / 4096 + 1) as usize) as u64 * 4096;
        lists[3].push(Op::Pwrite(wp, off));
        lists[4].push(Op::Getdir(spec.dirs[pick(spec.dirs.len())].clone()));
    }
    for _ in 0..n_whole {
        let p = spec.whole[pick(spec.whole.len())].clone();
        lists[5].push(Op::Getfile(p.clone()));
        lists[6].push(Op::Putfile(p));
    }
    for op in lists.iter().flatten() {
        match op {
            Op::Pread(p, off) | Op::Pwrite(p, off) => {
                if let Entry::Vacant(slot) = truth.regions.entry((p.clone(), *off)) {
                    let f = std::fs::File::open(host(root, p))?;
                    let len = (f.metadata()?.len() - off).min(SMALL as u64) as usize;
                    let mut buf = vec![0u8; len];
                    f.read_exact_at(&mut buf, *off)?;
                    slot.insert(buf);
                }
            }
            Op::Getfile(p) | Op::Putfile(p) => {
                if let Entry::Vacant(slot) = truth.whole.entry(p.clone()) {
                    slot.insert(std::fs::read(host(root, p))?);
                }
            }
            _ => {}
        }
    }
    Ok((lists, truth))
}

fn check(op: &Op, truth: &Truth, out: &[u8], layer: &str, rec: &mut Recorder) {
    let ok = match op {
        Op::Pread(p, off) => out == region(truth, p, *off),
        Op::Getfile(p) => out == &truth.whole[p][..],
        _ => true,
    };
    if !ok {
        rec.mismatch(format!("replay {layer} {} {op:?}", op.kind()));
    }
}

/// Median ns per call of `f(i)`, timed in batches of `per` calls so
/// the clock's own cost does not swamp sub-µs work.
fn batched(n: usize, per: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::new();
    for b in 0..n.div_ceil(per) {
        let t0 = Instant::now();
        for j in 0..per {
            f(b * per + j);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / per as f64);
    }
    median(&samples)
}

/// Replay through every layer of `setup`'s replay server.
pub fn run(
    setup: &Setup,
    seed: u64,
    n: usize,
    epoch: Instant,
    trees: &Path,
    rec: &mut Recorder,
) -> io::Result<ReplayOut> {
    let server: &Server = &setup.servers[setup.replay.server];
    let root = server.root.clone();
    let spec = resolve_spec(&setup.replay, &root)?;
    let (lists, truth) = plan(&spec, &root, seed, n)?;
    let ep = server.endpoint();
    let mut out = ReplayOut::default();

    let cfs: Arc<Cfs> = fixture::cfs(&ep);
    let adapter = fixture::adapter(MOUNT, cfs.clone())?;
    let mut conn = Connection::connect_via(&Dialer::tcp(), &ep, fixture::TIMEOUT)?;
    conn.authenticate(&fixture::client_auth())?;
    let shared = Shared::new(server.config.clone())?;
    let mut session = Session::new(shared, IpAddr::V4(Ipv4Addr::LOCALHOST));
    session.handle(
        Request::Auth {
            method: "hostname".into(),
            name: String::new(),
            credential: String::new(),
        },
        None,
    )?;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(AdapterLayer {
            adapter,
            held: HashMap::new(),
        }),
        Box::new(FsLayer {
            name: "mount",
            fs: cfs.clone(),
            held: HashMap::new(),
        }),
        Box::new(ConnLayer {
            conn,
            held: HashMap::new(),
        }),
        Box::new(HandlerLayer {
            session,
            held: HashMap::new(),
        }),
        Box::new(FsLayer {
            name: "localfs",
            fs: Arc::new(LocalFs::new(&root)?),
            held: HashMap::new(),
        }),
    ];
    let mut held: Vec<&str> = lists[2]
        .iter()
        .chain(&lists[3])
        .map(|op| match op {
            Op::Pread(p, _) | Op::Pwrite(p, _) => p.as_str(),
            _ => unreachable!("positional lists"),
        })
        .collect();
    held.sort_unstable();
    held.dedup();
    let mut buf = Vec::new();
    for layer in layers.iter_mut() {
        for p in &held {
            layer.hold(p)?;
        }
    }
    // Layers take turns call by call, so drift over the replay (CPU
    // frequency, page cache, background work) lands on all alike.
    for list in &lists {
        let op_name = list[0].kind();
        let before = server.registry().snapshot();
        let mut samples = vec![Vec::with_capacity(list.len()); layers.len()];
        for pass in 0..2 {
            for (i, op) in list.iter().enumerate() {
                for (l, layer) in layers.iter_mut().enumerate() {
                    let t0 = Instant::now();
                    let r = layer.run(op, &truth, &mut buf);
                    let t1 = Instant::now();
                    rec.begin_op();
                    if let Err(e) = r {
                        rec.fail(format!("replay {} {op:?}: {e}", layer.name()));
                        continue;
                    }
                    check(op, &truth, &buf, layer.name(), rec);
                    if pass == 1 {
                        samples[l].push((t1 - t0).as_nanos() as f64);
                        out.spans.push(ReplaySpan {
                            layer: layer.name(),
                            op: op_name,
                            idx: i,
                            start_ns: (t0 - epoch).as_nanos() as u64,
                            end_ns: (t1 - epoch).as_nanos() as u64,
                        });
                    }
                }
            }
        }
        for (layer, s) in layers.iter().zip(&samples) {
            out.medians.insert((layer.name(), op_name), median(s));
        }
        if op_name == "stat" {
            // Every STAT the server saw in this list came from the
            // three remote layers; what the wire and reactor add is
            // the Connection's time beyond the server's.
            let after = server.registry().snapshot();
            let server_ns = after
                .histogram("rpc.latency_ns")
                .map(|h| h.delta(before.histogram("rpc.latency_ns").expect("registered")))
                .map(|d| hist_quantile(&d, 0.5))
                .unwrap_or(0.0);
            let conn = out.medians[&("conn", "stat")];
            out.micro.insert("reactor.wire_ns".into(), conn - server_ns);
        }
    }
    drop(layers);

    micro(&mut out, &spec, &lists, &root, &cfs, n)?;
    let target = trees.join("push-target");
    out.micro.insert(
        "thirdput.push_ms".into(),
        push_ms(&cfs, &truth, &target, rec)?,
    );
    tree_layer(&mut out, &cfs, &truth, &trees.join("tree"), rec)?;
    dsfs_layer(&mut out, seed, n, &trees.join("dsfs"), rec)?;
    Ok(out)
}

/// The distribution tree: `controlplane::distribute` of the whole-file
/// target from the replay server to two fresh servers, three times,
/// every replica checked byte for byte.
fn tree_layer(
    out: &mut ReplayOut,
    cfs: &Arc<Cfs>,
    truth: &Truth,
    dir: &Path,
    rec: &mut Recorder,
) -> io::Result<()> {
    let (src, want) = truth
        .whole
        .iter()
        .min_by_key(|(p, _)| p.as_str())
        .expect("the plan always has whole-file targets");
    let servers = [
        Server::start(&dir.join("r1"), None)?,
        Server::start(&dir.join("r2"), None)?,
    ];
    let replicas = Replicas::new(
        TreeTarget::new(cfs.endpoint(), src),
        servers
            .iter()
            .map(|r| {
                (
                    TreeTarget::new(&r.endpoint(), "/tree.dat"),
                    host(&r.root, "/tree.dat"),
                )
            })
            .collect(),
        cfs.clone(),
    );
    let (mut depth, mut hops, mut retries) = (0, 0, 0);
    const RUNS: u64 = 3;
    for _ in 0..RUNS {
        rec.begin_op();
        if let Some((report, _, _)) = replicas.push(want, rec) {
            depth += report.depth;
            hops += report.hops;
            retries += report.retries;
        }
    }
    out.micro
        .insert("tree.depth".into(), depth as f64 / RUNS as f64);
    out.micro
        .insert("tree.hops".into(), hops as f64 / RUNS as f64);
    out.micro.insert("tree.retries".into(), retries as f64);
    Ok(())
}

/// The stub layer: a small DSFS (its own directory and data servers)
/// runs `n` seeded churn ops — create+write, open+read, stat, unlink —
/// and each server's `rpc.*.count` and busy time give exact RPCs per
/// op on each side and the directory server's share of the work.
fn dsfs_layer(
    out: &mut ReplayOut,
    seed: u64,
    n: usize,
    dir: &Path,
    rec: &mut Recorder,
) -> io::Result<()> {
    let scale = crate::gen::Scale {
        dsfs_live: 64,
        dsfs_dirs: 4,
        ..crate::gen::Scale::tiny()
    };
    let mut setup = crate::churn::setup(seed, &scale, dir)?;
    let before: Vec<_> = setup
        .servers
        .iter()
        .map(|s| s.registry().snapshot())
        .collect();
    let client = &mut setup.clients[0];
    for _ in 0..n {
        client.step(rec);
    }
    client.verify(rec);
    let after: Vec<_> = setup
        .servers
        .iter()
        .map(|s| s.registry().snapshot())
        .collect();
    setup.teardown();
    let ops = n as f64;
    let rpcs = |i: usize| crate::rpcs(&before[i], &after[i]);
    let busy = |i: usize| crate::hist_delta(&before[i], &after[i], "rpc.latency_ns").sum as f64;
    // Server 0 holds the stubs, server 1 the data.
    out.micro
        .insert("dsfs.meta_rpcs_per_op".into(), rpcs(0) / ops);
    out.micro
        .insert("dsfs.data_rpcs_per_op".into(), rpcs(1) / ops);
    out.micro
        .insert("dsfs.meta_busy_share".into(), busy(0) / (busy(0) + busy(1)));
    Ok(())
}

/// Single-layer costs: protocol codec, jail, ACL walk, page cache
/// hit, adapter resolution.
fn micro(
    out: &mut ReplayOut,
    spec: &ReplaySpec,
    lists: &[Vec<Op>],
    root: &Path,
    cfs: &Arc<Cfs>,
    n: usize,
) -> io::Result<()> {
    let paths: Vec<&String> = lists[0]
        .iter()
        .map(|op| match op {
            Op::Stat(p) => p,
            _ => unreachable!("stat list"),
        })
        .collect();
    let p = |i: usize| paths[i % paths.len()].clone();
    let kinds: [(&str, &dyn Fn(usize) -> Request); 8] = [
        ("stat", &|i| Request::Stat { path: p(i) }),
        ("open", &|i| Request::Open {
            path: p(i),
            flags: OpenFlags::READ,
            mode: 0,
        }),
        ("close", &|i| Request::Close { fd: i as i32 }),
        ("pread", &|i| Request::Pread {
            fd: 3,
            length: SMALL as u64,
            offset: i as u64 * 4096,
        }),
        ("pwrite", &|i| Request::Pwrite {
            fd: 3,
            length: SMALL as u64,
            offset: i as u64 * 4096,
        }),
        ("getdirstat", &|i| Request::GetdirStat {
            path: spec.dirs[i % spec.dirs.len()].clone(),
        }),
        ("getfile", &|i| Request::Getfile { path: p(i) }),
        ("putfile", &|i| Request::Putfile {
            path: p(i),
            mode: 0o644,
            length: 1 << 24,
        }),
    ];
    for (name, make) in kinds {
        let reqs: Vec<Request> = (0..n).map(make).collect();
        let lines: Vec<String> = reqs.iter().map(Request::encode).collect();
        let enc = batched(n, 16, |i| {
            black_box(reqs[i % n].encode());
        });
        let dec = batched(n, 16, |i| {
            black_box(Request::parse(lines[i % n].trim_end_matches('\n')).ok());
        });
        out.micro.insert(format!("proto.{name}.encode_ns"), enc);
        out.micro.insert(format!("proto.{name}.parse_ns"), dec);
    }

    let jail = Jail::new(root)?;
    out.micro.insert(
        "jail.resolve_ns".into(),
        batched(n, 16, |i| {
            black_box(jail.resolve(&p(i)).ok());
        }),
    );
    let dirs: Vec<std::path::PathBuf> = (0..n)
        .map(|i| jail.resolve_parent(&p(i)).map(|(d, _)| d))
        .collect::<Result<_, _>>()?;
    let mut acl = Vec::new();
    for d in &dirs {
        let t0 = Instant::now();
        black_box(Acl::load_effective(jail.root(), d)?);
        acl.push(t0.elapsed().as_nanos() as f64);
    }
    out.micro
        .insert("acl.load_effective_ns".into(), median(&acl));

    // A page-cache hit on an 8 KiB read of a resident file.
    let reg = telemetry::Registry::new();
    let cache = PageCache::new(64 << 20, 8192, &reg);
    let file = std::fs::File::open(jail.resolve(&p(0))?)?;
    let meta = file.metadata()?;
    let key = chirp_server::cache::file_key(&meta);
    let len = meta.len().min(SMALL as u64) as usize;
    cache.read(&file, key, 0, len, meta.len(), true)?;
    out.micro.insert(
        "cache.read_hit_ns".into(),
        batched(n, 16, |_| {
            black_box(cache.read(&file, key, 0, len, meta.len(), true).ok());
        }),
    );

    let adapter = fixture::adapter(MOUNT, cfs.clone())?;
    let full: Vec<String> = (0..n).map(|i| format!("{MOUNT}{}", p(i))).collect();
    out.micro.insert(
        "adapter.resolve_ns".into(),
        batched(n, 16, |i| {
            black_box(adapter.resolve(&full[i % n]).ok());
        }),
    );
    Ok(())
}

/// One direct `THIRDPUT` of the replay's whole-file target to a fresh
/// server, median of three, checked byte for byte.
fn push_ms(cfs: &Cfs, truth: &Truth, dir: &Path, rec: &mut Recorder) -> io::Result<f64> {
    let target = Server::start(dir, None)?;
    let (src, want) = truth
        .whole
        .iter()
        .min_by_key(|(p, _)| p.as_str())
        .expect("the plan always has whole-file targets");
    let mut samples = Vec::new();
    for i in 0..3 {
        let dst = format!("/push{i}.dat");
        rec.begin_op();
        let t0 = Instant::now();
        let r = cfs.thirdput(src, &target.endpoint(), &dst);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(_) => match std::fs::read(host(&target.root, &dst)) {
                Ok(got) if &got == want => {}
                Ok(_) => rec.mismatch(format!("thirdput copy {dst}")),
                Err(e) => rec.fail(format!("thirdput copy {dst}: {e}")),
            },
            Err(e) => rec.fail(format!("thirdput {src}: {e}")),
        }
    }
    drop(target);
    Ok(median(&samples))
}
