//! The stats frame: per-shard registries merged into one
//! [`StatsSnapshot`].
//!
//! Each shard records into its own [`MetricsRegistry`] (no cross-shard
//! lock traffic on the hot path); a stats request snapshots every shard,
//! merges them with [`MetricsRegistry::merge`], and [`collect`] fills in
//! the document's one schema, [`StatsSnapshot`]: service totals,
//! throughput, backpressure counters, queue-depth high-water marks, the
//! batch-size and service-latency summaries, and the tracing, control
//! plane and frontend sections. The server renders it with
//! [`StatsSnapshot::render`].

use crate::backend::BackendKind;
use crate::snapshot::{FrontendSnapshot, ShardSnapshot, StageSummarySnapshot, StatsSnapshot};
use crate::supervisor::PublicShard;
use crate::tables::EpochTables;
use crate::tracing::ServeTracer;
use crate::FrontendKind;
use memsync_trace::{BucketHistogram, MetricsRegistry, Summary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// The traced stages rendered into a registry's `stages` object, in
/// pipeline order. The four shard stages live in the shard registries;
/// decode/write come from the tracer's frontend registry.
pub const STAGE_METRICS: [(&str, &str); 6] = [
    ("decode_ns", "serve.stage.decode_ns"),
    ("queue_ns", "serve.stage.queue_ns"),
    ("coalesce_ns", "serve.stage.coalesce_ns"),
    ("execute_ns", "serve.stage.execute_ns"),
    ("egress_ns", "serve.stage.egress_ns"),
    ("write_ns", "serve.stage.write_ns"),
];

/// A bucketed histogram's summary; `None` when nothing was recorded.
fn summary(reg: &MetricsRegistry, metric: &str) -> Option<Summary> {
    reg.bucket_histogram(metric)
        .and_then(BucketHistogram::summary)
}

/// The non-empty stage histograms of `reg`, in pipeline order.
fn stages(reg: &MetricsRegistry) -> Vec<StageSummarySnapshot> {
    STAGE_METRICS
        .iter()
        .filter_map(|&(stage, metric)| {
            Some(StageSummarySnapshot::new(stage, summary(reg, metric)?))
        })
        .collect()
}

/// Server-global counters the acceptors maintain (everything per-shard
/// lives in the shard registries).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Submit batches accepted (enqueued on every target shard).
    pub accepted: AtomicU64,
    /// Submit batches refused with `Busy` (a shard queue was full).
    pub busy: AtomicU64,
    /// Submits that failed after acceptance (shard died mid-batch).
    pub errors: AtomicU64,
}

/// Connection-plane counters, maintained by whichever frontend is
/// running; reported as the stats document's `frontend` section.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Connections currently open (post-cap-check).
    pub conns_open: AtomicU64,
    /// Highest concurrently-open connection count ever observed.
    pub conns_peak: AtomicU64,
    /// Connections refused over [`crate::ServeConfig::max_conns`].
    pub conn_rejects: AtomicU64,
    /// Accept-loop pauses forced by fd or thread exhaustion.
    pub accept_pauses: AtomicU64,
    /// Times a frontend stopped reading a connection for backpressure
    /// (egress high-water, an in-flight submit, or saturated shards).
    pub read_pauses: AtomicU64,
    /// Submits deferred because a target shard queue was full (reactor
    /// only; the blocking frontend answers `Busy` instead).
    pub deferred_submits: AtomicU64,
    /// Deferred submits currently parked (gauge; drain waits on it).
    pub deferred_now: AtomicU64,
    /// Largest per-connection egress queue ever observed, in bytes —
    /// the server-side memory bound the backpressure tests pin.
    pub egress_highwater: AtomicU64,
}

impl FrontendStats {
    /// Counts a connection in, updating the peak gauge.
    pub fn conn_opened(&self) {
        let now = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Counts a connection out.
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// The stats document's `frontend` section.
    pub fn snapshot(&self, kind: FrontendKind) -> FrontendSnapshot {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        FrontendSnapshot {
            kind: kind.to_string(),
            conns_open: load(&self.conns_open),
            conns_peak: load(&self.conns_peak),
            conn_rejects: load(&self.conn_rejects),
            accept_pauses: load(&self.accept_pauses),
            read_pauses: load(&self.read_pauses),
            deferred_submits: load(&self.deferred_submits),
            deferred_now: load(&self.deferred_now),
            egress_highwater_bytes: load(&self.egress_highwater),
        }
    }
}

/// Collects the merged stats frame.
///
/// `draining` and `restarts` come from the server; `started` anchors the
/// throughput computation (forwarded+dropped packets over uptime). The
/// tracer adds the `spans` section and folds the connection-side
/// decode/write stage histograms into the merged `stages`; `frontend`
/// adds the connection-plane counters; `fib` adds the control plane's
/// route-table section (generation, route count, swap/retirement
/// counters, swap-latency percentiles) so the RCU retirement property is
/// externally auditable.
#[allow(clippy::too_many_arguments)]
pub fn collect(
    shards: &[PublicShard],
    counters: &ServerCounters,
    backend: BackendKind,
    restarts: u64,
    draining: bool,
    started: Instant,
    tracer: &ServeTracer,
    frontend: (FrontendKind, &FrontendStats),
    fib: &EpochTables,
) -> StatsSnapshot {
    let mut merged = MetricsRegistry::new();
    let per_shard: Vec<ShardSnapshot> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let reg = s
                .stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            merged.merge(&reg);
            ShardSnapshot {
                shard: i as u64,
                packets: reg.counter("serve.packets"),
                forwarded: reg.counter("serve.forwarded"),
                dropped: reg.counter("serve.dropped"),
                mismatches: reg.counter("serve.mismatches"),
                lost_updates: reg.counter("serve.lost_updates"),
                batches: reg.counter("serve.batches"),
                sim_cycles: reg.counter("serve.sim_cycles"),
                queue_depth_highwater: s.queue.high_water() as u64,
                queue_depth: s.queue.len() as u64,
                restart_carryover: s.carryover.load(Ordering::Relaxed),
                batch_size: summary(&reg, "serve.batch_size"),
                service_latency_us: summary(&reg, "serve.service_latency_us"),
                stages: stages(&reg),
            }
        })
        .collect();
    tracer.merge_frontend_into(&mut merged);

    let uptime = started.elapsed().as_secs_f64().max(1e-9);
    let packets = merged.counter("serve.packets");
    let (kind, frontend) = frontend;
    StatsSnapshot {
        shards: shards.len() as u64,
        backend: Some(backend),
        uptime_secs: uptime,
        draining,
        shard_restarts: restarts,
        restart_carryover: per_shard.iter().map(|s| s.restart_carryover).sum(),
        accepted: counters.accepted.load(Ordering::Relaxed),
        busy: counters.busy.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
        packets,
        forwarded: merged.counter("serve.forwarded"),
        dropped: merged.counter("serve.dropped"),
        mismatches: merged.counter("serve.mismatches"),
        lost_updates: merged.counter("serve.lost_updates"),
        batches: merged.counter("serve.batches"),
        sim_cycles: merged.counter("serve.sim_cycles"),
        packets_per_sec: packets as f64 / uptime,
        batch_size: summary(&merged, "serve.batch_size"),
        service_latency_us: summary(&merged, "serve.service_latency_us"),
        stages: stages(&merged),
        spans: Some(tracer.snapshot()),
        fib: Some(fib.snapshot()),
        frontend: Some(frontend.snapshot(kind)),
        per_shard,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::queue::ShardQueue;
    use crate::shard::ShardTables;
    use crate::tables::ControlOp;
    use crate::tracing::{PendingSpan, StageTimings, TracingConfig};
    use memsync_netapp::fib::Route;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    /// A shard whose registry holds one batch of `forwarded + dropped`
    /// packets with a 100 µs service latency.
    fn mk_shard(forwarded: u64, dropped: u64, carryover: u64) -> PublicShard {
        let mut r = MetricsRegistry::new();
        r.add("serve.packets", forwarded + dropped);
        r.add("serve.forwarded", forwarded);
        r.add("serve.dropped", dropped);
        r.add("serve.batches", 1);
        r.record_bucket("serve.batch_size", forwarded + dropped);
        r.record_bucket("serve.service_latency_us", 100);
        PublicShard {
            queue: Arc::new(ShardQueue::new(4)),
            stats: Arc::new(Mutex::new(r)),
            die: Arc::new(AtomicBool::new(false)),
            idle: Arc::new(AtomicBool::new(true)),
            carryover: Arc::new(AtomicU64::new(carryover)),
            gen_seen: Arc::new(AtomicU64::new(1)),
        }
    }

    fn tracer(shards: usize, enabled: bool) -> ServeTracer {
        let config = TracingConfig {
            enabled,
            ..TracingConfig::default()
        };
        ServeTracer::new(config, shards).unwrap()
    }

    /// Finishes one traced span on shard 0 whose four shard stages took
    /// `stage_ns` each.
    fn finish_span(tracer: &ServeTracer, stage_ns: u64) {
        tracer.finish(
            &PendingSpan {
                span_id: 1,
                client_assigned: false,
                decode_ns: 100,
                timings: vec![StageTimings {
                    shard: 0,
                    packets: 12,
                    queue_ns: stage_ns,
                    coalesce_ns: stage_ns,
                    execute_ns: stage_ns,
                    egress_ns: stage_ns,
                    sim_cycles: 0,
                    frames: 24,
                }],
            },
            200,
        );
    }

    /// Records the four shard-side stages on `shard`, as a traced batch
    /// does.
    fn record_stages(shard: &PublicShard, stage_ns: u64) {
        let mut reg = shard.stats.lock().unwrap();
        for (_, metric) in &STAGE_METRICS[1..5] {
            reg.record_bucket(metric, stage_ns);
        }
    }

    /// A control plane with one completed swap, so the `fib` section
    /// carries the `swap_latency_us` object too.
    fn swapped_tables() -> EpochTables {
        let route = |prefix, len, next_hop| Route {
            prefix,
            len,
            next_hop,
        };
        let tables = EpochTables::new(ShardTables::from_routes(&[route(0, 0, 7)]));
        tables.mutate(&[ControlOp::Add(vec![route(0x0a00_0000, 8, 42)])]);
        tables.retire_up_to(1);
        tables.record_swap_latency(350);
        tables
    }

    /// A fully populated stats frame: two shards with traffic, traced
    /// stages on shard 0, a live tracer with one finished span, an open
    /// connection, one route swap. The clock-derived `uptime_secs` and
    /// `packets_per_sec` are zeroed so the rendering is reproducible.
    pub(crate) fn full_snapshot() -> StatsSnapshot {
        let shards = vec![mk_shard(10, 2, 3), mk_shard(5, 4, 0)];
        record_stages(&shards[0], 900);
        let tracer = tracer(2, true);
        finish_span(&tracer, 900);
        let counters = ServerCounters::default();
        counters.accepted.store(2, Ordering::Relaxed);
        counters.busy.store(1, Ordering::Relaxed);
        let frontend = FrontendStats::default();
        frontend.conn_opened();
        let mut snap = collect(
            &shards,
            &counters,
            BackendKind::Fast,
            1,
            false,
            Instant::now(),
            &tracer,
            (FrontendKind::Reactor, &frontend),
            &swapped_tables(),
        );
        snap.uptime_secs = 0.0;
        snap.packets_per_sec = 0.0;
        snap
    }

    /// [`full_snapshot`], rendered.
    pub(crate) fn full_document() -> String {
        full_snapshot().render()
    }

    /// The bytes [`full_document`] renders, pinned so that any change to
    /// the wire format of the stats frame fails here.
    const GOLDEN: &str = concat!(
        r#"{"shards":2,"backend":"fast","uptime_secs":0,"draining":false,"shard_restarts":1,"re"#,
        r#"start_carryover":3,"accepted":2,"busy":1,"errors":0,"packets":21,"forwarded":15,"dro"#,
        r#"pped":6,"mismatches":0,"lost_updates":0,"batches":2,"sim_cycles":0,"packets_per_sec""#,
        r#":0,"batch_size":{"count":2,"min":9,"max":12,"mean":10.5,"p50":12,"p90":12,"p99":12},"#,
        r#""service_latency_us":{"count":2,"min":100,"max":100,"mean":100,"p50":100,"p90":100,""#,
        r#"p99":100},"stages":{"decode_ns":{"count":1,"min":100,"max":100,"mean":100,"p50":100,"#,
        r#""p90":100,"p99":100},"queue_ns":{"count":1,"min":900,"max":900,"mean":900,"p50":900,"#,
        r#""p90":900,"p99":900},"coalesce_ns":{"count":1,"min":900,"max":900,"mean":900,"p50":9"#,
        r#"00,"p90":900,"p99":900},"execute_ns":{"count":1,"min":900,"max":900,"mean":900,"p50""#,
        r#":900,"p90":900,"p99":900},"egress_ns":{"count":1,"min":900,"max":900,"mean":900,"p50"#,
        r#"":900,"p90":900,"p99":900},"write_ns":{"count":1,"min":200,"max":200,"mean":200,"p50"#,
        r#"":200,"p90":200,"p99":200}},"spans":{"enabled":true,"sample_every":16,"slow_ns":5000"#,
        r#"000,"seen":1,"exported":0,"rings":[{"shard":0,"seen":1,"recent":0,"slow":0},{"shard""#,
        r#":1,"seen":0,"recent":0,"slow":0}]},"fib":{"generation":2,"routes":2,"swaps":1,"retir"#,
        r#"ed":1,"swap_latency_us":{"count":1,"p50":350,"p99":350,"max":350}},"frontend":{"kind"#,
        r#"":"reactor","conns_open":1,"conns_peak":1,"conn_rejects":0,"accept_pauses":0,"read_p"#,
        r#"auses":0,"deferred_submits":0,"deferred_now":0,"egress_highwater_bytes":0},"per_shar"#,
        r#"d":[{"shard":0,"packets":12,"forwarded":10,"dropped":2,"mismatches":0,"lost_updates""#,
        r#":0,"batches":1,"sim_cycles":0,"queue_depth_highwater":0,"queue_depth":0,"restart_car"#,
        r#"ryover":3,"batch_size":{"count":1,"min":12,"max":12,"mean":12,"p50":12,"p90":12,"p99"#,
        r#"":12},"service_latency_us":{"count":1,"min":100,"max":100,"mean":100,"p50":100,"p90""#,
        r#":100,"p99":100},"stages":{"queue_ns":{"count":1,"min":900,"max":900,"mean":900,"p50""#,
        r#":900,"p90":900,"p99":900},"coalesce_ns":{"count":1,"min":900,"max":900,"mean":900,"p"#,
        r#"50":900,"p90":900,"p99":900},"execute_ns":{"count":1,"min":900,"max":900,"mean":900,"#,
        r#""p50":900,"p90":900,"p99":900},"egress_ns":{"count":1,"min":900,"max":900,"mean":900"#,
        r#","p50":900,"p90":900,"p99":900}}},{"shard":1,"packets":9,"forwarded":5,"dropped":4,""#,
        r#"mismatches":0,"lost_updates":0,"batches":1,"sim_cycles":0,"queue_depth_highwater":0,"#,
        r#""queue_depth":0,"restart_carryover":0,"batch_size":{"count":1,"min":9,"max":9,"mean""#,
        r#":9,"p50":9,"p90":9,"p99":9},"service_latency_us":{"count":1,"min":100,"max":100,"mea"#,
        r#"n":100,"p50":100,"p90":100,"p99":100}}]}"#,
    );

    #[test]
    fn full_document_matches_the_golden_bytes_and_round_trips() {
        let doc = full_document();
        assert_eq!(doc, GOLDEN);
        let snap = StatsSnapshot::decode(&doc).expect("decodes");
        assert_eq!(snap, full_snapshot());
        assert_eq!(snap.render(), doc, "decode then render is the identity");
    }

    #[test]
    fn collect_merges_shards_into_a_document_that_decodes() {
        let shards = vec![mk_shard(10, 2, 4), mk_shard(5, 3, 0)];
        let counters = ServerCounters::default();
        counters.accepted.store(2, Ordering::Relaxed);
        counters.busy.store(1, Ordering::Relaxed);
        let frontend = FrontendStats::default();
        frontend.conn_opened();
        let doc = collect(
            &shards,
            &counters,
            BackendKind::Sim,
            3,
            true,
            Instant::now(),
            &tracer(2, false),
            (FrontendKind::Threads, &frontend),
            &EpochTables::new(ShardTables::from_routes(&[])),
        )
        .render();
        assert!(doc.contains("\"backend\":\"sim\""), "{doc}");
        assert!(
            doc.contains("\"frontend\":{\"kind\":\"threads\""),
            "frontend object present: {doc}"
        );
        assert!(doc.contains("\"per_shard\""));
        assert!(doc.contains("\"p99\""), "latency percentiles present");
        assert!(doc.contains("\"queue_depth_highwater\""));
        assert!(
            !doc.contains("\"stages\""),
            "no tracing, no stage section: {doc}"
        );
        let snap = StatsSnapshot::decode(&doc).expect("decodes");
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.backend, Some(BackendKind::Sim));
        assert!(snap.draining);
        assert_eq!(snap.shard_restarts, 3);
        assert_eq!(
            snap.restart_carryover, 4,
            "per-shard carryover sums to the top level"
        );
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.packets, 20);
        assert_eq!(snap.forwarded, 15);
        assert_eq!(snap.dropped, 5);
        assert_eq!(snap.lost_updates, 0);
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].forwarded, 10);
        assert_eq!(snap.per_shard[0].restart_carryover, 4);
        assert_eq!(snap.per_shard[1].dropped, 3);
        assert!(snap.uptime_secs >= 0.0);
        assert!(snap.stages.is_empty(), "no tracing, no stages");
        let spans = snap.spans.expect("spans section");
        assert!(!spans.enabled, "tracing off, and the section says so");
        let front = snap.frontend.as_ref().expect("frontend section");
        assert_eq!(front.conns_open, 1);
        assert_eq!(front.conns_peak, 1);
        let fib = snap.fib.expect("fib section");
        assert_eq!(
            (fib.generation, fib.swap_latency_us),
            (1, None),
            "no swap yet"
        );
    }

    #[test]
    fn traced_stats_carry_stage_summaries_and_the_spans_section() {
        let shards = vec![mk_shard(10, 2, 0)];
        record_stages(&shards[0], 1500);
        let tracer = tracer(1, true);
        finish_span(&tracer, 1500);
        let doc = collect(
            &shards,
            &ServerCounters::default(),
            BackendKind::Fast,
            0,
            false,
            Instant::now(),
            &tracer,
            (FrontendKind::Reactor, &FrontendStats::default()),
            &EpochTables::new(ShardTables::from_routes(&[])),
        )
        .render();
        for key in ["\"stages\"", "\"decode_ns\"", "\"execute_ns\"", "\"spans\""] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        // The merged stage summary reflects the recorded sample.
        let snap = StatsSnapshot::decode(&doc).expect("decodes");
        assert_eq!(snap.spans.as_ref().expect("spans section").seen, 1);
        let stages = snap.stages;
        assert_eq!(stages.len(), STAGE_METRICS.len(), "{stages:?}");
        assert!(
            stages
                .iter()
                .any(|s| s.stage == "execute_ns" && s.count == 1),
            "{stages:?}"
        );
    }
}
