//! What every workload provides to the runner.

use std::time::Duration;

use crate::fixture::Server;
use crate::record::Recorder;

/// One closed-loop load thread's application: each `step` issues the
/// next op of its seeded sequence and blocks until it completes.
pub trait Client: Send {
    fn step(&mut self, rec: &mut Recorder);
    /// Untimed read-back of everything this client wrote, checked
    /// against its content model.
    fn verify(&mut self, rec: &mut Recorder);
}

/// Several clients driven by one load thread, one step of each in
/// turn: each keeps its own adapter and connection, but at most one
/// call is in flight, so the load never has more threads ready to run
/// than the host has CPUs.
pub struct Alternate {
    clients: Vec<Box<dyn Client>>,
    next: usize,
}

impl Alternate {
    pub fn new(clients: Vec<Box<dyn Client>>) -> Alternate {
        Alternate { clients, next: 0 }
    }
}

impl Client for Alternate {
    fn step(&mut self, rec: &mut Recorder) {
        self.clients[self.next].step(rec);
        self.next = (self.next + 1) % self.clients.len();
    }

    fn verify(&mut self, rec: &mut Recorder) {
        for c in &mut self.clients {
            c.verify(rec);
        }
    }
}

/// Where the traced replay drives the lower layers: one server of
/// the workload and the files and directories on it.
#[derive(Debug, Clone, Default)]
pub struct ReplaySpec {
    pub server: usize,
    /// Files for stat, open+close, 8 KiB pread and pwrite.
    pub small: Vec<String>,
    /// Files for whole-file GETFILE/PUTFILE.
    pub whole: Vec<String>,
    pub dirs: Vec<String>,
    /// When set, the file lists come from a scan of this directory on
    /// the server's tree at replay time (its names are chosen by the
    /// program, not the benchmark).
    pub scan: Option<String>,
}

/// Facts about a set-up workload, reported with every result.
#[derive(Debug, Clone, Default)]
pub struct Info {
    pub cache_bytes: u64,
    pub working_set_bytes: u64,
    pub load_threads: usize,
    /// Load connections in the order they were opened, with the
    /// server and reactor shard each one lands on.
    pub connections: Vec<String>,
    pub auth_handshake_us: Vec<f64>,
}

/// A workload, fully set up and ready to load.
pub struct Setup {
    pub clients: Vec<Box<dyn Client>>,
    pub servers: Vec<Server>,
    pub client_registries: Vec<telemetry::Registry>,
    pub replay: ReplaySpec,
    pub info: Info,
    /// Retries counted outside any registry (the DSFS data pool).
    pub pool_retries: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Time the set-up spent on the benchmark's own work (making the
    /// directory skeleton, generating file bytes, writing DSFS stubs),
    /// which `setup_s` leaves out.
    pub prep: Duration,
}

impl Setup {
    /// Stop clients, then servers.
    pub fn teardown(self) {
        let Setup {
            clients, servers, ..
        } = self;
        drop(clients);
        drop(servers);
    }
}

/// Reactor shard count of a server on this host (the server's own
/// default: available parallelism clamped to 2..=8). Connections are
/// dealt to shards round-robin in accept order.
pub fn reactor_shards() -> usize {
    crate::sys::nproc().clamp(2, 8)
}
