//! The four workloads and their pre-generated inputs.
//!
//! Each workload names a backend, a connection count, a submit size and
//! whether replies are verified; everything else is `ServeConfig::default()`
//! with two shards, so a later change to a default is measured, not hidden.
//! Inputs come from `Workload::generate` with the run's seed, before any
//! timing starts, together with the oracle each reply is checked against.

use memsync_core::OrganizationKind;
use memsync_netapp::fib::{synthetic_table, Route};
use memsync_netapp::{Fib, Ipv4Packet, Workload};
use memsync_serve::pipeline::oracle_forwards;
use memsync_serve::{BackendKind, ServeConfig, TracingConfig};
use std::time::Duration;

/// Route mutations per control frame on the control connection.
pub const CHURN_ROUTES: usize = 32;
/// The control connection's open-loop schedule: one frame every 100 ms.
/// At 31 frames/s the control worker saturates and ack latency grows
/// without bound; 10 frames/s keeps it steady.
pub const CHURN_PERIOD: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub backend: BackendKind,
    /// Closed-loop data connections, one load thread each.
    pub conns: usize,
    /// Packets per submit.
    pub batch: usize,
    pub verify: bool,
    /// An open-loop control connection churns routes beside the data.
    pub churn: bool,
    /// `peak_rss_mib` is read once the load has had this many packets
    /// answered, about one second of load on a quiet reference host. The
    /// server's sample registries grow with every request served, so a
    /// peak read at a fixed time would follow throughput.
    pub rss_after_packets: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fwd-small",
        backend: BackendKind::Fast,
        conns: 2,
        batch: 64,
        verify: false,
        churn: false,
        rss_after_packets: 2_000_000,
        why: "64-packet submits: per-request cost (frame header, syscalls, queue handoff, shard wake-up, reply channel) dominates",
    },
    Spec {
        name: "fwd-bulk",
        backend: BackendKind::Fast,
        conns: 2,
        batch: 8192,
        verify: true,
        churn: false,
        rss_after_packets: 32_000_000,
        why: "8192-packet verified submits: per-packet work (decode, split, DIR-24-8, batch kernels, verify) dominates",
    },
    Spec {
        name: "sim-arb",
        backend: BackendKind::Sim,
        conns: 2,
        batch: 256,
        verify: true,
        churn: false,
        rss_after_packets: 256_000,
        why: "the paper's mechanism: cycle-accurate arbitrated wrapper, round-robin arbiter and dependency-list CAM",
    },
    Spec {
        name: "churn",
        backend: BackendKind::Fast,
        conns: 1,
        batch: 1024,
        verify: true,
        churn: true,
        rss_after_packets: 8_000_000,
        why: "route add/withdraw at 10 frames/s beside verified reads: every frame rebuilds and swaps the tables",
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    pub fn config(&self, traced: bool) -> ServeConfig {
        let mut config = ServeConfig {
            shards: 2,
            backend: self.backend,
            ..ServeConfig::default()
        };
        if self.backend == BackendKind::Sim {
            config.organization = OrganizationKind::Arbitrated;
        }
        config.tracing = TracingConfig {
            enabled: traced,
            ..TracingConfig::default()
        };
        config
    }
}

/// One connection's batches and, per batch, the range the server's
/// `forwarded` count must fall in: the oracle without and with the churned
/// routes (the two agree unless a random destination lands in the churn
/// prefix space).
#[derive(Debug)]
pub struct ConnPool {
    pub batches: Vec<Vec<Ipv4Packet>>,
    pub forwarded: Vec<(u32, u32)>,
}

/// At least this many packets per connection, so the pool is far larger
/// than the shards' route cache and the load never replays a tiny set.
const POOL_PACKETS: usize = 1 << 16;

pub fn pools(spec: &Spec, seed: u64, routes: usize) -> Vec<ConnPool> {
    let base = synthetic_table(routes);
    let mut churned = base.clone();
    for r in churn_routes() {
        churned.insert(r);
    }
    let per_conn = POOL_PACKETS.div_ceil(spec.batch).max(16);
    (0..spec.conns)
        .map(|c| {
            let w = Workload::generate(
                seed.wrapping_mul(16).wrapping_add(c as u64),
                per_conn * spec.batch,
                routes,
            );
            let batches: Vec<Vec<Ipv4Packet>> =
                w.packets.chunks(spec.batch).map(<[_]>::to_vec).collect();
            let forwarded = batches
                .iter()
                .map(|b| (forwards(b, &base), forwards(b, &churned)))
                .collect();
            ConnPool { batches, forwarded }
        })
        .collect()
}

fn forwards(batch: &[Ipv4Packet], fib: &Fib) -> u32 {
    batch.iter().filter(|p| oracle_forwards(p, fib)).count() as u32
}

/// The churned routes: 32 /24s in 198.18.0.0/15 (RFC 2544 benchmarking
/// space), disjoint from the synthetic FIB.
pub fn churn_routes() -> Vec<Route> {
    (0..CHURN_ROUTES as u32)
        .map(|i| Route {
            prefix: 0xC612_0000 | (i << 8),
            len: 24,
            next_hop: 9_000 + i,
        })
        .collect()
}
