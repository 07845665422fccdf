//! Per-layer timings, each taken from outside the server by calling the
//! layer's public functions on the workload's own pre-generated inputs,
//! plus the exact modelled counts of the simulator on the same inputs.

use crate::host::thread_cpu_ns;
use crate::report::{median, nearest_rank, Metrics};
use crate::workload::{churn_routes, ConnPool, Spec};
use memsync_core::arbiter::RoundRobin;
use memsync_core::deplist::DependencyList;
use memsync_core::{Compiler, OrganizationKind};
use memsync_netapp::fib::synthetic_table;
use memsync_netapp::Ipv4Packet;
use memsync_serve::backend::{FastBackend, ForwardingBackend, SimBackend};
use memsync_serve::frame::{decode_submit_into, encode_submit_into};
use memsync_serve::pipeline::PipelineModel;
use memsync_serve::queue::{Job, Reply, ShardQueue};
use memsync_serve::router::ShardSplitter;
use memsync_serve::shard::{self, ShardCtx, ShardTables};
use memsync_serve::tables::ControlOp;
use memsync_serve::{EpochTables, Response, ServeConfig, SubmitOptions};
use memsync_sim::System;
use memsync_trace::MetricsRegistry;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of each timing; the median is reported.
const REPS: usize = 5;
/// Minimum length of one repetition.
const REP_TIME: Duration = Duration::from_millis(40);
/// Descriptors fed to the simulator for the modelled counts and its host
/// speed: enough for every steady-state pattern, cheap at ~15 µs each.
pub const SIM_SAMPLE: usize = 1024;
/// Per-descriptor cycle budget before a simulated batch counts as stalled
/// (the serving backend's own limit).
const SIM_BUDGET: u64 = 2_000;

/// Runs `body` (which returns the units of work it did) until a
/// repetition lasts `REP_TIME`, `REPS` times; the median ns per unit.
fn ns_per_unit(mut body: impl FnMut() -> u64) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut units = 0u64;
            while t0.elapsed() < REP_TIME {
                units += body();
            }
            t0.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&mut reps)
}

/// Each batch split the way the router splits it: the per-shard groups a
/// shard receives as jobs.
fn shard_groups(batches: &[Vec<Ipv4Packet>], shards: usize) -> Vec<Vec<Ipv4Packet>> {
    let mut splitter = ShardSplitter::new(shards);
    let mut groups = Vec::new();
    for b in batches {
        splitter.split(b);
        groups.extend(splitter.groups().map(|(_, g)| g.to_vec()));
    }
    groups
}

/// Times every serve layer on one connection's batches and records the
/// results into `m`.
pub fn serve_layers(spec: &Spec, config: &ServeConfig, pool: &ConnPool, m: &mut Metrics) {
    let batches = &pool.batches;
    let packets: Vec<Ipv4Packet> = batches.iter().flatten().copied().collect();
    let descs: Vec<u32> = packets.iter().map(Ipv4Packet::descriptor).collect();
    let dsts: Vec<u32> = packets.iter().map(|p| p.dst).collect();
    let options = SubmitOptions::new().verify(spec.verify);
    let groups = shard_groups(batches, config.shards);
    let egress = config.egress;

    // serve::frame
    let mut buf = Vec::new();
    let mut i = 0;
    let frame_encode_ns_per_pkt = ns_per_unit(|| {
        let b = &batches[i % batches.len()];
        i += 1;
        encode_submit_into(b, options, &mut buf);
        black_box(&buf);
        b.len() as u64
    });
    let payloads: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| {
            let mut p = Vec::new();
            encode_submit_into(b, options, &mut p);
            p
        })
        .collect();
    let mut scratch = Vec::new();
    let frame_decode_ns_per_pkt = ns_per_unit(|| {
        let p = &payloads[i % payloads.len()];
        i += 1;
        decode_submit_into(p, &mut scratch).expect("own frame decodes");
        black_box(&scratch);
        scratch.len() as u64
    });
    let reply = Response::Batch {
        forwarded: pool.forwarded[0].0,
        dropped: batches[0].len() as u32 - pool.forwarded[0].0,
        mismatches: 0,
    };
    let mut reply_buf = Vec::new();
    let frame_reply_encode_ns = ns_per_unit(|| {
        black_box(&reply).encode_into(&mut reply_buf);
        black_box(&reply_buf);
        1
    });

    // serve::router
    let mut splitter = ShardSplitter::new(config.shards);
    let router_split_ns_per_pkt = ns_per_unit(|| {
        let b = &batches[i % batches.len()];
        i += 1;
        splitter.split(b);
        black_box(&splitter);
        b.len() as u64
    });

    // netapp::fib
    let tables = ShardTables::build(config.routes);
    let mut hops = vec![None; dsts.len()];
    let fib_dir_lookup_ns_per_pkt = ns_per_unit(|| {
        tables.dir.lookup_batch(black_box(&dsts), &mut hops);
        black_box(&hops);
        dsts.len() as u64
    });
    let fib_trie_lookup_ns_per_pkt = ns_per_unit(|| {
        for &d in &dsts {
            black_box(tables.fib.lookup(black_box(d)));
        }
        dsts.len() as u64
    });

    // serve::pipeline
    let model = PipelineModel::new();
    let mut carriers = vec![0u32; descs.len()];
    let pipeline_carrier_ns_per_pkt = ns_per_unit(|| {
        model.carrier_batch(black_box(&descs), &mut carriers);
        black_box(&carriers);
        descs.len() as u64
    });
    let mut lanes = vec![vec![0u32; descs.len()]; egress];
    let pipeline_scramble_ns_per_pkt = ns_per_unit(|| {
        for (e, lane) in lanes.iter_mut().enumerate() {
            model.scramble_batch(black_box(&carriers), e, lane);
        }
        black_box(&lanes);
        descs.len() as u64
    });
    // The shard's verify loop: every egress frame against the model.
    let pipeline_verify_ns_per_pkt = ns_per_unit(|| {
        let mut bad = 0u32;
        for (k, &d) in descs.iter().enumerate() {
            if lanes
                .iter()
                .enumerate()
                .any(|(e, l)| l[k] != model.frame(d, e))
            {
                bad += 1;
            }
        }
        assert_eq!(black_box(bad), 0, "batch kernels disagree with the model");
        descs.len() as u64
    });

    // serve::backend
    let group_descs: Vec<Vec<u32>> = groups
        .iter()
        .map(|g| g.iter().map(Ipv4Packet::descriptor).collect())
        .collect();
    let mut fast = FastBackend::new(egress);
    let backend_fast_ns_per_pkt = ns_per_unit(|| {
        let g = &group_descs[i % group_descs.len()];
        i += 1;
        fast.submit_batch(g);
        black_box(fast.drain_egress());
        g.len() as u64
    });
    let (backend_sim_ns_per_pkt, backend_sim_ns_per_cycle) = sim_backend(&group_descs, egress);

    // serve::queue
    let queue = ShardQueue::new(config.queue_cap);
    let (tx, _rx) = channel();
    let mut job = Some(Job {
        packets: groups[0].clone(),
        options,
        reply: Reply::new(tx),
        enqueued: Instant::now(),
    });
    let queue_push_pop_ns = ns_per_unit(|| {
        queue
            .try_push(job.take().expect("job in hand"))
            .expect("queue has room");
        job = queue.try_pop();
        black_box(&job);
        1
    });

    let shard_service_ns_per_pkt = shard_service(config, &groups, options);
    let (net_loopback_rtt_us, net_echo_server_cpu_ns) = loopback_echo(&payloads[0], &reply_buf);
    let (tables_rebuild_ms, tables_mutate_ms) = tables_timing(config.routes);

    for (name, value, unit, how) in [
        (
            "frame.decode_ns_per_pkt",
            frame_decode_ns_per_pkt,
            "ns",
            "decode_submit_into",
        ),
        (
            "frame.encode_ns_per_pkt",
            frame_encode_ns_per_pkt,
            "ns",
            "encode_submit_into",
        ),
        (
            "frame.reply_encode_ns",
            frame_reply_encode_ns,
            "ns",
            "Response::encode_into",
        ),
        (
            "router.split_ns_per_pkt",
            router_split_ns_per_pkt,
            "ns",
            "ShardSplitter::split",
        ),
        (
            "fib.dir_lookup_ns_per_pkt",
            fib_dir_lookup_ns_per_pkt,
            "ns",
            "Dir24_8::lookup_batch",
        ),
        (
            "fib.trie_lookup_ns_per_pkt",
            fib_trie_lookup_ns_per_pkt,
            "ns",
            "Fib::lookup",
        ),
        (
            "pipeline.carrier_ns_per_pkt",
            pipeline_carrier_ns_per_pkt,
            "ns",
            "carrier_batch",
        ),
        (
            "pipeline.scramble_ns_per_pkt",
            pipeline_scramble_ns_per_pkt,
            "ns",
            "every egress",
        ),
        (
            "pipeline.verify_ns_per_pkt",
            pipeline_verify_ns_per_pkt,
            "ns",
            "frame per egress",
        ),
        (
            "backend.fast_ns_per_pkt",
            backend_fast_ns_per_pkt,
            "ns",
            "FastBackend",
        ),
        (
            "backend.sim_ns_per_pkt",
            backend_sim_ns_per_pkt,
            "ns",
            "SimBackend",
        ),
        (
            "backend.sim_ns_per_cycle",
            backend_sim_ns_per_cycle,
            "ns",
            "SimBackend",
        ),
        (
            "queue.push_pop_ns",
            queue_push_pop_ns,
            "ns",
            "ShardQueue try_push + try_pop",
        ),
        (
            "shard.service_ns_per_pkt",
            shard_service_ns_per_pkt,
            "ns",
            "shard::run, no TCP",
        ),
        (
            "net.loopback_rtt_us",
            net_loopback_rtt_us,
            "us",
            "raw std echo, median",
        ),
        (
            "net.echo_server_cpu_ns",
            net_echo_server_cpu_ns,
            "ns",
            "per round trip",
        ),
        (
            "tables.rebuild_ms",
            tables_rebuild_ms,
            "ms",
            "ShardTables::from_routes",
        ),
        (
            "tables.mutate_ms",
            tables_mutate_ms,
            "ms",
            "EpochTables::mutate, one frame",
        ),
    ] {
        m.put(name, value, unit, how);
    }
}

/// `SimBackend` submit plus drain over the shard groups, warmed by one
/// group: (ns per packet, ns per simulated cycle).
fn sim_backend(group_descs: &[Vec<u32>], egress: usize) -> (f64, f64) {
    let mut b = SimBackend::new(egress, OrganizationKind::Arbitrated);
    b.submit_batch(&group_descs[0]);
    let mut i = 1;
    let per_pkt = ns_per_unit(|| {
        let g = &group_descs[i % group_descs.len()];
        i += 1;
        b.submit_batch(g);
        black_box(b.drain_egress());
        g.len() as u64
    });
    let m = b.metrics();
    let cycles_per_pkt = m.sim_cycles as f64 / m.descriptors as f64;
    (per_pkt, per_pkt / cycles_per_pkt)
}

/// `shard::run` on a `ShardCtx` fed directly: one job in flight, timed
/// from push to reply, with no TCP. ns of wall time per packet.
fn shard_service(config: &ServeConfig, groups: &[Vec<Ipv4Packet>], options: SubmitOptions) -> f64 {
    let ctx = ShardCtx {
        id: 0,
        queue: Arc::new(ShardQueue::new(config.queue_cap)),
        stats: Arc::new(Mutex::new(MetricsRegistry::new())),
        stop: Arc::new(AtomicBool::new(false)),
        die: Arc::new(AtomicBool::new(false)),
        idle: Arc::new(AtomicBool::new(true)),
        tables: Arc::new(EpochTables::new(ShardTables::build(config.routes))),
        gen_seen: Arc::new(AtomicU64::new(0)),
        config: config.clone(),
    };
    let (tx, rx) = channel();
    let mut i = 0;
    let mut round = || {
        let g = &groups[i % groups.len()];
        i += 1;
        ctx.queue
            .try_push(Job {
                packets: g.clone(),
                options,
                reply: Reply::new(tx.clone()),
                enqueued: Instant::now(),
            })
            .expect("one job in flight fits");
        let out = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("shard replies");
        assert_eq!(out.mismatches, 0, "shard verify mismatch");
        g.len() as u64
    };
    std::thread::scope(|s| {
        let worker = s.spawn(|| shard::run(&ctx));
        // Stops the shard however this thread leaves the scope, so a
        // failed check ends the run instead of hanging it.
        let stop = StopOnDrop(&ctx.stop);
        // Warm up: the shard builds its backend before its first job.
        round();
        let ns = ns_per_unit(&mut round);
        drop(stop);
        worker.join().expect("shard thread");
        ns
    })
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A raw std loopback echo of the workload's frame sizes: the client
/// writes a submit-sized frame, the server answers a reply-sized one.
/// Returns (median round trip in µs, echo server CPU per round trip in ns).
fn loopback_echo(submit: &[u8], reply: &[u8]) -> (f64, f64) {
    let framed = |p: &[u8]| {
        let mut f = (p.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(p);
        f
    };
    let (request, response) = (framed(submit), framed(reply));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            let mut req = vec![0u8; request.len()];
            let cpu0 = thread_cpu_ns();
            let mut echoes = 0u64;
            while conn.read_exact(&mut req).is_ok() {
                conn.write_all(&response).expect("echo write");
                echoes += 1;
            }
            (thread_cpu_ns() - cpu0) as f64 / echoes.max(1) as f64
        });
        let mut conn = TcpStream::connect(addr).expect("connect loopback");
        conn.set_nodelay(true).expect("nodelay");
        let mut rsp = vec![0u8; response.len()];
        let mut rtts = Vec::new();
        let t0 = Instant::now();
        // Long enough that the echo thread's tick-resolution CPU time
        // reads to about one percent.
        while t0.elapsed() < Duration::from_millis(1000) {
            let sent = Instant::now();
            conn.write_all(&request).expect("echo request");
            conn.read_exact(&mut rsp).expect("echo response");
            rtts.push(sent.elapsed().as_nanos() as u64);
        }
        drop(conn);
        let cpu = server.join().expect("echo thread");
        rtts.sort_unstable();
        (nearest_rank(&rtts, 0.5) as f64 / 1e3, cpu)
    })
}

/// `ShardTables::from_routes` on the churn route set, and one
/// `EpochTables::mutate` of a churn frame: median ms each.
fn tables_timing(routes: usize) -> (f64, f64) {
    let churn = churn_routes();
    let mut all = synthetic_table(routes).routes();
    all.extend(churn.iter().copied());
    let mut rebuild: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(ShardTables::from_routes(&all));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let epoch = EpochTables::new(ShardTables::build(routes));
    let add = ControlOp::Add(churn.clone());
    let withdraw = ControlOp::Withdraw(churn.iter().map(|r| (r.prefix, r.len)).collect());
    let mut mutate: Vec<f64> = (0..6)
        .map(|k| {
            let op = if k % 2 == 0 { &add } else { &withdraw };
            let t0 = Instant::now();
            let r = epoch.mutate([op]);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                r.applied,
                vec![churn.len() as u32],
                "mutation applies fully"
            );
            ms
        })
        .collect();
    (median(&mut rebuild), median(&mut mutate))
}

/// Exact modelled counts of the arbitrated forwarding system on a
/// workload's descriptors, per packet. Identical on every run and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounts {
    pub packets: u64,
    pub cycles: u64,
    pub arb_stalls: u64,
    pub dep_waits: u64,
    pub deplist_hits: u64,
    pub grant_wait_p50: u64,
    pub grant_wait_p99: u64,
    pub lost_updates: u64,
}

fn forwarding_system(egress: usize) -> (System, Vec<memsync_sim::ThreadId>) {
    let src = memsync_netapp::forwarding::app_source(egress);
    let mut compiler = Compiler::new(&src);
    compiler
        .organization(OrganizationKind::Arbitrated)
        .skip_validation();
    let sys = System::new(&compiler.compile().expect("forwarding app compiles"));
    let ids = (0..egress)
        .map(|i| sys.thread_id(&format!("e{i}")).expect("egress thread"))
        .collect();
    (sys, ids)
}

/// Feeds `descs` through `submit_paced` in shard-sized chunks, draining
/// egress after each, as the serving backend does.
fn feed(sys: &mut System, ids: &[memsync_sim::ThreadId], descs: &[u32], chunk: usize) {
    for c in descs.chunks(chunk) {
        let values: Vec<i64> = c.iter().map(|&d| i64::from(d)).collect();
        assert!(
            sys.submit_paced("rx", ids, &values, 0, SIM_BUDGET),
            "simulated pipeline stalled"
        );
        for &id in ids {
            black_box(sys.drain_sent(id));
        }
    }
}

pub fn sim_counts(descs: &[u32], egress: usize, chunk: usize) -> SimCounts {
    let (mut sys, ids) = forwarding_system(egress);
    sys.enable_metrics();
    feed(&mut sys, &ids, descs, chunk);
    let m = &sys.metrics;
    let (mut arb_stalls, mut dep_waits, mut deplist_hits) = (0, 0, 0);
    let mut waits = Vec::new();
    for b in 0..64 {
        arb_stalls += m.counter_sum(&format!("bank{b}.arb_stall."));
        dep_waits += m.counter_sum(&format!("bank{b}.dep_wait."));
        deplist_hits += m.counter(&format!("bank{b}.deplist_hit"));
        if let Some(h) = m.histogram(&format!("bank{b}.grant_wait.consumers")) {
            waits.extend_from_slice(h.samples());
        }
    }
    waits.sort_unstable();
    SimCounts {
        packets: descs.len() as u64,
        cycles: sys.cycle(),
        arb_stalls,
        dep_waits,
        deplist_hits,
        grant_wait_p50: nearest_rank(&waits, 0.50),
        grant_wait_p99: nearest_rank(&waits, 0.99),
        lost_updates: sys.lost_updates(),
    }
}

/// Host speed of the simulator: uninstrumented `System::step` ns per
/// simulated cycle on the same feed.
pub fn sim_step_ns_per_cycle(descs: &[u32], egress: usize, chunk: usize) -> f64 {
    let mut v: Vec<f64> = (0..3)
        .map(|_| {
            let (mut sys, ids) = forwarding_system(egress);
            let t0 = Instant::now();
            feed(&mut sys, &ids, descs, chunk);
            t0.elapsed().as_nanos() as f64 / sys.cycle() as f64
        })
        .collect();
    median(&mut v)
}

/// `RoundRobin::grant` over request vectors taken from the descriptors'
/// prefix bits: ns per grant.
pub fn arbiter_grant_ns(descs: &[u32]) -> f64 {
    const REQUESTERS: usize = 4;
    let requests: Vec<[bool; REQUESTERS]> = descs
        .iter()
        .map(|d| std::array::from_fn(|k| (d >> (8 + k)) & 1 == 1))
        .collect();
    let mut rr = RoundRobin::new(REQUESTERS);
    ns_per_unit(|| {
        for r in &requests {
            black_box(rr.grant(black_box(r)));
        }
        requests.len() as u64
    })
}

/// `DependencyList` producer writes and consumer reads, picked and
/// addressed by the descriptors' bits: ns per operation.
pub fn deplist_op_ns(descs: &[u32]) -> f64 {
    const ENTRIES: u32 = 8;
    let mut list = DependencyList::new(ENTRIES as usize);
    for e in 0..ENTRIES {
        list.configure(e * 4, 2).expect("entry fits");
    }
    let ops: Vec<(bool, u32)> = descs
        .iter()
        .map(|d| (d & 1 == 1, ((d >> 8) % ENTRIES) * 4))
        .collect();
    ns_per_unit(|| {
        for &(write, addr) in &ops {
            if write {
                black_box(list.producer_write_checked(black_box(addr)));
            } else {
                black_box(list.consumer_read(black_box(addr)));
            }
        }
        ops.len() as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::pools;

    fn descs(seed: u64) -> Vec<u32> {
        let spec = Spec::find("sim-arb").expect("sim-arb workload");
        let pool = &pools(spec, seed, 64)[0];
        pool.batches
            .iter()
            .flatten()
            .take(256)
            .map(Ipv4Packet::descriptor)
            .collect()
    }

    /// The modelled counts are exact: two runs and two seeds agree, at
    /// 35 cycles per packet (plus the system's first cycle) with no lost
    /// update.
    #[test]
    fn sim_counts_repeat_exactly_across_runs_and_seeds() {
        let a = sim_counts(&descs(1), 4, 128);
        assert_eq!(a, sim_counts(&descs(1), 4, 128), "two runs differ");
        assert_eq!(a, sim_counts(&descs(2), 4, 128), "two seeds differ");
        assert_eq!(a.cycles, 35 * a.packets + 1);
        assert_eq!(a.lost_updates, 0);
    }

    /// The serving sim backend spends exactly the modelled cycles.
    #[test]
    fn sim_backend_cycles_match_the_modelled_count() {
        let d = descs(3);
        let mut b = SimBackend::new(4, OrganizationKind::Arbitrated);
        for c in d.chunks(128) {
            b.submit_batch(c);
            b.drain_egress();
        }
        assert_eq!(b.metrics().sim_cycles, sim_counts(&d, 4, 128).cycles);
    }
}
