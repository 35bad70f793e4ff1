//! Every metric the benchmark reports: name, unit and direction.
//! `BENCHMARK.json` lists the same metrics (a test holds the two
//! together); README.md maps each per-layer metric to the end-to-end
//! metric and workload it should move.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

macro_rules! metrics {
    ($($n:literal $u:literal $b:literal),* $(,)?) => {
        &[$(Metric { name: $n, unit: $u, better: $b }),*]
    };
}

pub const END_TO_END: &[Metric] = metrics![
    "ops_per_s" "1/s" "higher",
    "lat_p50_us" "us" "lower",
    "stat_p50_us" "us" "lower",
    "open_close_p50_us" "us" "lower",
    "pread8k_p50_us" "us" "lower",
    "pwrite8k_p50_us" "us" "lower",
    "read_mb_per_s" "MB/s" "higher",
    "write_mb_per_s" "MB/s" "higher",
    "probe_p50_us" "us" "lower",
    "setup_s" "s" "lower",
    "peak_rss_mb" "MB" "lower",
];

pub const PER_LAYER: &[Metric] = metrics![
    "adapter.resolve_ns" "ns" "lower",
    "cfs.self_ns" "ns" "lower",
    "client.retries" "count" "lower",
    "client.reconnects" "count" "lower",
    "dsfs.meta_rpcs_per_op" "rpc/op" "lower",
    "dsfs.data_rpcs_per_op" "rpc/op" "lower",
    "dsfs.meta_busy_share" "ratio" "lower",
    "conn.stat_ns" "ns" "lower",
    "conn.open_close_ns" "ns" "lower",
    "conn.pread8k_ns" "ns" "lower",
    "conn.pwrite8k_ns" "ns" "lower",
    "conn.getdir_ns" "ns" "lower",
    "conn.getfile_ns" "ns" "lower",
    "conn.putfile_ns" "ns" "lower",
    "conn.auth_handshake_us" "us" "lower",
    "proto.stat.encode_ns" "ns" "lower",
    "proto.stat.parse_ns" "ns" "lower",
    "proto.open.encode_ns" "ns" "lower",
    "proto.open.parse_ns" "ns" "lower",
    "proto.close.encode_ns" "ns" "lower",
    "proto.close.parse_ns" "ns" "lower",
    "proto.pread.encode_ns" "ns" "lower",
    "proto.pread.parse_ns" "ns" "lower",
    "proto.pwrite.encode_ns" "ns" "lower",
    "proto.pwrite.parse_ns" "ns" "lower",
    "proto.getdirstat.encode_ns" "ns" "lower",
    "proto.getdirstat.parse_ns" "ns" "lower",
    "proto.getfile.encode_ns" "ns" "lower",
    "proto.getfile.parse_ns" "ns" "lower",
    "proto.putfile.encode_ns" "ns" "lower",
    "proto.putfile.parse_ns" "ns" "lower",
    "reactor.wire_ns" "ns" "lower",
    "reactor.wakeups_per_rpc" "1/rpc" "lower",
    "reactor.loops_per_rpc" "1/rpc" "lower",
    "reactor.cpu_us_per_rpc" "us/rpc" "lower",
    "reactor.backpressure" "count" "lower",
    "reactor.wq_peak_bytes" "bytes" "lower",
    "probe.blocked_share" "ratio" "lower",
    "server.rpc_p50_us" "us" "lower",
    "server.rpc_p99_us" "us" "lower",
    "server.rpcs_per_op" "rpc/op" "lower",
    "handler.stat_ns" "ns" "lower",
    "handler.open_close_ns" "ns" "lower",
    "handler.pread8k_ns" "ns" "lower",
    "handler.pwrite8k_ns" "ns" "lower",
    "handler.getdir_ns" "ns" "lower",
    "handler.getfile_ns" "ns" "lower",
    "handler.putfile_ns" "ns" "lower",
    "acl.load_effective_ns" "ns" "lower",
    "jail.resolve_ns" "ns" "lower",
    "cache.hit_ratio" "ratio" "higher",
    "cache.read_hit_ns" "ns" "lower",
    "cache.evicted_pages_per_mb" "pages/MB" "lower",
    "localfs.stat_ns" "ns" "lower",
    "localfs.open_close_ns" "ns" "lower",
    "localfs.pread8k_ns" "ns" "lower",
    "localfs.pwrite8k_ns" "ns" "lower",
    "localfs.getdir_ns" "ns" "lower",
    "localfs.getfile_ns" "ns" "lower",
    "localfs.putfile_ns" "ns" "lower",
    "tree.depth" "count" "lower",
    "tree.hops" "count" "lower",
    "tree.retries" "count" "lower",
    "thirdput.push_ms" "ms" "lower",
    "lat_p99_us" "us" "lower",
    "probe_p99_us" "us" "lower",
    "cpu_us_per_op" "us/op" "lower",
    "client.cpu_us_per_op" "us/op" "lower",
    "trace.overhead_ratio" "ratio" "higher",
    "error_ratio" "ratio" "lower",
    "layers.unexplained_share" "ratio" "lower",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}
