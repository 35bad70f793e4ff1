//! Per-thread recording of application calls: latencies by call
//! kind, payload bytes, failures, and (in the traced phase) spans.

use std::time::Instant;

use crate::stats::LatHist;

/// The application calls the workloads make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Stat,
    OpenClose,
    Pread8k,
    Pwrite8k,
    ReaddirStat,
    Getfile,
    Putfile,
    Pread64k,
    Pwrite64k,
    Create,
    Read,
    Unlink,
    Replicate,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::Stat,
        Kind::OpenClose,
        Kind::Pread8k,
        Kind::Pwrite8k,
        Kind::ReaddirStat,
        Kind::Getfile,
        Kind::Putfile,
        Kind::Pread64k,
        Kind::Pwrite64k,
        Kind::Create,
        Kind::Read,
        Kind::Unlink,
        Kind::Replicate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Stat => "stat",
            Kind::OpenClose => "open_close",
            Kind::Pread8k => "pread8k",
            Kind::Pwrite8k => "pwrite8k",
            Kind::ReaddirStat => "getdir",
            Kind::Getfile => "getfile",
            Kind::Putfile => "putfile",
            Kind::Pread64k => "pread64k",
            Kind::Pwrite64k => "pwrite64k",
            Kind::Create => "create",
            Kind::Read => "read",
            Kind::Unlink => "unlink",
            Kind::Replicate => "replicate",
        }
    }

    /// The small Fig 4 calls whose latency the `probe_*` metrics pool.
    pub fn is_small(self) -> bool {
        matches!(
            self,
            Kind::Stat | Kind::OpenClose | Kind::Pread8k | Kind::Pwrite8k
        )
    }
}

/// One recorded interval, named `op.<kind>` (`parent` 0) or
/// `call.<kind>` (`parent` the id of the op span that caused it).
/// Times are ns since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn name(&self) -> String {
        let level = if self.parent == 0 { "op" } else { "call" };
        format!("{level}.{}", self.kind.name())
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread_tag: u64,
    next_id: u64,
    /// Completed unit ops (the denominator of `ops_per_s`).
    pub ops: u64,
    pub op_lat_us: LatHist,
    pub call_lat_us: Vec<LatHist>,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub first_error: Option<String>,
    pub spans: Option<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: usize, traced: bool) -> Recorder {
        Recorder {
            epoch,
            thread_tag: (thread as u64 + 1) << 48,
            next_id: 0,
            ops: 0,
            op_lat_us: LatHist::default(),
            call_lat_us: vec![LatHist::default(); Kind::ALL.len()],
            bytes_read: 0,
            bytes_written: 0,
            attempted: 0,
            failed: 0,
            mismatched: 0,
            first_error: None,
            spans: traced.then(Vec::new),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start an op; returns its id (also its span id).
    pub fn begin_op(&mut self) -> u64 {
        self.attempted += 1;
        self.next_id += 1;
        self.thread_tag | self.next_id
    }

    /// A unit op completed (counts toward `ops_per_s` and `lat_*`).
    pub fn end_op(&mut self, op: u64, kind: Kind, t0: Instant, t1: Instant) {
        self.ops += 1;
        self.op_lat_us.record((t1 - t0).as_secs_f64() * 1e6);
        self.span(op, 0, op, kind, t0, t1);
    }

    /// One timed application call of `kind` inside op `op`.
    pub fn call(&mut self, op: u64, kind: Kind, t0: Instant, t1: Instant) {
        self.call_lat_us[kind as usize].record((t1 - t0).as_secs_f64() * 1e6);
        if self.spans.is_some() {
            self.next_id += 1;
            let id = self.thread_tag | self.next_id;
            self.span(id, op, op, kind, t0, t1);
        }
    }

    /// A call whose latency is not one interval (an open and the
    /// matching close, timed apart): `us` is the summed time.
    pub fn call_us(&mut self, op: u64, kind: Kind, t0: Instant, t1: Instant, us: f64) {
        self.call_lat_us[kind as usize].record(us);
        if self.spans.is_some() {
            self.next_id += 1;
            let id = self.thread_tag | self.next_id;
            self.span(id, op, op, kind, t0, t1);
        }
    }

    /// Close an op that is not a unit op (the probe's calls beside
    /// `thirdput_hol`'s replications): a span, no count.
    pub fn aux_op(&mut self, op: u64, kind: Kind, t0: Instant, t1: Instant) {
        self.span(op, 0, op, kind, t0, t1);
    }

    fn span(&mut self, id: u64, parent: u64, op: u64, kind: Kind, t0: Instant, t1: Instant) {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                id,
                parent,
                op,
                kind,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        self.first_error
            .get_or_insert_with(|| format!("failed: {what}"));
    }

    pub fn mismatch(&mut self, what: impl std::fmt::Display) {
        self.mismatched += 1;
        self.first_error
            .get_or_insert_with(|| format!("mismatch: {what}"));
    }

    /// Fold another recording's counts and latencies (not its spans)
    /// into this one.
    pub fn merge_stats(&mut self, other: &Recorder) {
        self.ops += other.ops;
        self.op_lat_us.merge(&other.op_lat_us);
        for (a, b) in self.call_lat_us.iter_mut().zip(&other.call_lat_us) {
            a.merge(b);
        }
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    /// Fold another thread's recording, spans included, into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.merge_stats(&other);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        match (&mut self.spans, other.spans) {
            (Some(a), Some(b)) => a.extend(b),
            (None, Some(b)) => self.spans = Some(b),
            _ => {}
        }
    }

    pub fn calls(&self, kind: Kind) -> &LatHist {
        &self.call_lat_us[kind as usize]
    }

    /// Latencies of every small Fig 4 call, pooled.
    pub fn small_calls(&self) -> LatHist {
        let mut all = LatHist::default();
        for k in Kind::ALL.iter().filter(|k| k.is_small()) {
            all.merge(self.calls(*k));
        }
        all
    }
}

/// Time one fallible call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let out = f();
    (out, t0, Instant::now())
}
