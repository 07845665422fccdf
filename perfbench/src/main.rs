//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fwd-small|fwd-bulk|sim-arb|churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: in-process servers, the
//! workload's load through the public `Client`, every reply checked.
//! `--trace 1` measures the per-layer metrics: the same load untraced and
//! with request tracing on, each layer timed from outside on the
//! workload's inputs, and a budget of the layers against the server's CPU
//! time per packet. Both print each metric with its unit and sample count,
//! then one JSON result line; any failed check exits 1. See README.md.

mod host;
mod layers;
mod load;
mod report;
mod workload;

use host::{reset_peak_rss, HostStamp};
use load::{Failures, Phase};
use memsync_serve::stats::STAGE_METRICS;
use memsync_serve::ServeConfig;
use report::{median, nearest_rank, Metrics};
use std::time::Duration;
use workload::{ConnPool, Spec, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <fwd-small|fwd-bulk|sim-arb|churn> --seed N --seconds S --trace <0|1>";

/// `setup_s` is the fastest of `SETUP_STARTS` server starts. A single
/// start is bimodal: the accept loop sleeps 50 ms whenever it finds no
/// connection waiting, so the first hello either finds it awake or waits
/// out that sleep. The fastest start drops the sleep and leaves the
/// server's own set-up work (tables, shards, threads, the hello).
const SETUP_STARTS: usize = 20;

/// Length of the swap probe: the control schedule run beside one of the
/// workload's data connections, on a workload that has no control
/// connection of its own, in the traced run.
const PROBE_WINDOW: Duration = Duration::from_secs(3);

struct Args {
    spec: &'static Spec,
    seed: u64,
    window: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let number = |key: &str| -> Result<u64, String> {
        let v = value(key)?;
        v.parse()
            .map_err(|_| format!("{key} wants a whole number, got {v:?}"))
    };
    let name = value("--workload")?;
    let spec = Spec::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        spec,
        seed: number("--seed")?,
        window: Duration::from_secs(seconds),
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let spec = args.spec;
    let host = HostStamp::read();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.window.as_secs(),
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" kernel={} reference kernel {:.2} us",
        host.nproc, host.cpu_model, host.kernel, host.reference_us
    );
    println!(
        "{}: {} backend, {} closed-loop connection(s) of {}-packet submits, verify {}{}; {}",
        spec.name,
        spec.backend,
        spec.conns,
        spec.batch,
        if spec.verify { "on" } else { "off" },
        if spec.churn {
            ", plus an open-loop control connection at 10 frames/s"
        } else {
            ""
        },
        spec.why
    );
    let pools = workload::pools(spec, args.seed, ServeConfig::default().routes);
    let (metrics, attempted, failures) = if args.trace {
        traced(spec, &pools, args.window, &host)
    } else {
        end_to_end(spec, &pools, args.window)
    };
    println!(
        "error_rate {:.6} ({} failed of {attempted} attempted operations)",
        failures.count as f64 / attempted as f64,
        failures.count
    );
    for note in &failures.notes {
        println!("FAIL: {note}");
        eprintln!("FAIL: {note}");
    }
    let correct = failures.count == 0;
    println!("{}", metrics.json_line(correct, attempted, failures.count));
    if !correct {
        std::process::exit(1);
    }
}

/// Prints what every load phase reports beside its metrics: the host's
/// steal share, the client-side sample counts, and the control schedule.
fn describe(label: &str, p: &Phase) {
    println!(
        "{label}: {} packets in {} submits over {:.2}s, {} slices, host steal {:.1}%, busy retries {}",
        p.packets,
        p.submits,
        p.elapsed_s,
        p.slice_packets.len(),
        p.steal_frac * 100.0,
        p.busy_retries
    );
    let list = |f: &dyn Fn(usize) -> String| {
        (0..p.slice_packets.len())
            .map(f)
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("{label}: per 1 s slice:");
    println!(
        "{label}:   packets [{}]",
        list(&|k| p.slice_packets[k].to_string())
    );
    println!(
        "{label}:   server CPU ns/pkt [{}]",
        list(&|k| format!(
            "{:.1}",
            p.slice_server_cpu_ns[k] as f64 / p.slice_packets[k].max(1) as f64
        ))
    );
    println!(
        "{label}:   host steal % [{}]",
        list(&|k| format!("{:.1}", p.slice_steal[k] * 100.0))
    );
    if let Some(c) = &p.control {
        println!(
            "{label}: control {} frames, swap ack p50 {:.2} ms p90 {:.2} ms, generator late max {:.2} ms p90 {:.2} ms{}",
            c.frames,
            nearest_rank(&c.swap_ms, 0.5),
            nearest_rank(&c.swap_ms, 0.9),
            c.lateness_ms.last().copied().unwrap_or(0.0),
            nearest_rank(&c.lateness_ms, 0.9),
            if c.backlogged() {
                " BACKLOGGED: the generator fell a whole period behind, not steady"
            } else {
                ""
            }
        );
    }
}

fn end_to_end(spec: &Spec, pools: &[ConnPool], window: Duration) -> (Metrics, u64, Failures) {
    let config = spec.config(false);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        // The last start serves the load; the others shut down first.
        drop(server.take());
        let (took, s) = load::start(&config);
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one start");
    setups.sort_by(f64::total_cmp);
    println!(
        "set-up: {SETUP_STARTS} starts, fastest {:.1} ms, median {:.1} ms, slowest {:.1} ms",
        setups[0] * 1e3,
        median(&mut setups.clone()) * 1e3,
        setups[SETUP_STARTS - 1] * 1e3
    );
    // The peak counts the serving process, not the set-up servers that
    // already shut down.
    reset_peak_rss();
    let p = load::run_phase(server.local_addr(), spec, pools, window, spec.churn);
    drop(server);
    describe("load", &p);

    let n = p.rtt_ns.len();
    let slices = format!("median of {} 1 s slices", p.slice_packets.len());
    let mut m = Metrics::default();
    m.put(
        "server_cpu_ns_per_pkt",
        p.server_cpu_ns_per_pkt(),
        "ns",
        &format!("process CPU minus load threads, {slices}"),
    );
    m.put(
        "submit_p50_us",
        nearest_rank(&p.rtt_ns, 0.50) as f64 / 1e3,
        "us",
        &format!("n={n} submits"),
    );
    m.put(
        "setup_s",
        setups[0],
        "s",
        &format!("fastest of {SETUP_STARTS} starts"),
    );
    let Some(peak_rss) = p.peak_rss_mib else {
        let mut failures = p.failures;
        failures.add(format!(
            "the window ended before {} packets were answered, so peak_rss_mib was not read",
            spec.rss_after_packets
        ));
        return (m, p.attempted, failures);
    };
    m.put(
        "peak_rss_mib",
        peak_rss,
        "MiB",
        &format!("VmHWM after {} packets answered", spec.rss_after_packets),
    );
    println!(
        "  pkts_per_s (reported, not gated) {:>16.4} 1/s    {slices}",
        p.pkts_per_s()
    );
    println!(
        "  submit_p99_us (reported, not gated) {:>16.4} us     n={n}",
        nearest_rank(&p.rtt_ns, 0.99) as f64 / 1e3
    );
    if let Some(c) = &p.control {
        println!(
            "  swap_p50_ms / swap_p90_ms (reported, not gated) {:.4} / {:.4} ms  n={}",
            nearest_rank(&c.swap_ms, 0.5),
            nearest_rank(&c.swap_ms, 0.9),
            c.swap_ms.len()
        );
    }
    if p.stats.sim_cycles > 0 {
        println!(
            "  sim_cycles_per_pkt (exact count) {:.2} cycles  over {} packets",
            p.stats.sim_cycles as f64 / p.stats.packets as f64,
            p.stats.packets
        );
    }
    (m, p.attempted, p.failures)
}

/// The traced run splits `window` between the untraced and the traced
/// phase, so it costs about as much as an end-to-end run.
fn traced(
    spec: &Spec,
    pools: &[ConnPool],
    window: Duration,
    host: &HostStamp,
) -> (Metrics, u64, Failures) {
    let window = (window / 2).max(load::SLICE);
    let config = spec.config(false);
    let (_, server) = load::start(&config);
    let base = load::run_phase(server.local_addr(), spec, pools, window, spec.churn);
    describe("untraced", &base);
    let probe = (!spec.churn)
        .then(|| load::run_phase(server.local_addr(), spec, &pools[..1], PROBE_WINDOW, true));
    if let Some(p) = &probe {
        describe("swap probe", p);
    }
    drop(server);
    let (_, server) = load::start(&spec.config(true));
    let traced = load::run_phase(server.local_addr(), spec, pools, window, spec.churn);
    drop(server);
    describe("traced", &traced);

    println!("timing layers from outside on the workload's inputs");
    let mut m = Metrics::default();
    layers::serve_layers(spec, &config, &pools[0], &mut m);
    let descs: Vec<u32> = pools[0]
        .batches
        .iter()
        .flatten()
        .take(layers::SIM_SAMPLE)
        .map(|p| p.descriptor())
        .collect();
    let chunk = (spec.batch / config.shards).max(1);
    let sim = layers::sim_counts(&descs, config.egress, chunk);
    let pkts = sim.packets as f64;
    let highwater = base
        .stats
        .per_shard
        .iter()
        .map(|s| s.queue_depth_highwater)
        .max();
    let batch_p50 = base
        .stats_doc
        .get("batch_size")
        .and_then(|b| b.get("p50"))
        .and_then(memsync_trace::Json::as_f64);
    let control = base
        .control
        .as_ref()
        .or(probe.as_ref().and_then(|p| p.control.as_ref()))
        .expect("the churn phase or the probe ran the control schedule");
    let swaps = &control.swap_ms;
    let late = &control.lateness_ms;
    let exact = format!("exact, {} descriptors", sim.packets);
    let swap_from = if spec.churn {
        "churn schedule"
    } else {
        "3 s probe"
    };
    let swap_n = format!("{swap_from}, n={}", swaps.len());
    for (name, value, unit, how) in [
        (
            "queue.highwater",
            highwater.unwrap_or(0) as f64,
            "jobs",
            "stats frame",
        ),
        (
            "client.busy_retries",
            base.busy_retries as f64,
            "count",
            "replies",
        ),
        (
            "shard.batch_p50",
            batch_p50.unwrap_or(0.0),
            "pkt",
            "stats frame",
        ),
        (
            "swap.p50_ms",
            nearest_rank(swaps, 0.5),
            "ms",
            swap_n.as_str(),
        ),
        ("swap.p90_ms", nearest_rank(swaps, 0.9), "ms", swap_from),
        (
            "swap.lateness_max_ms",
            late.last().copied().unwrap_or(0.0),
            "ms",
            swap_from,
        ),
        (
            "swap.lateness_p90_ms",
            nearest_rank(late, 0.9),
            "ms",
            swap_from,
        ),
        (
            "serve.sim_cycles_per_pkt",
            base.stats.sim_cycles as f64 / base.stats.packets.max(1) as f64,
            "cycle",
            "stats frame (0 on the fast backend)",
        ),
        (
            "sim.cycles_per_pkt",
            sim.cycles as f64 / pkts,
            "cycle",
            exact.as_str(),
        ),
        (
            "sim.arb_stall_per_pkt",
            sim.arb_stalls as f64 / pkts,
            "count",
            "exact",
        ),
        (
            "sim.dep_wait_per_pkt",
            sim.dep_waits as f64 / pkts,
            "count",
            "exact",
        ),
        (
            "sim.deplist_hit_per_pkt",
            sim.deplist_hits as f64 / pkts,
            "count",
            "exact",
        ),
        (
            "sim.grant_wait_p50_cycles",
            sim.grant_wait_p50 as f64,
            "cycle",
            "exact",
        ),
        (
            "sim.grant_wait_p99_cycles",
            sim.grant_wait_p99 as f64,
            "cycle",
            "exact",
        ),
        (
            "sim.lost_updates",
            sim.lost_updates as f64,
            "count",
            "exact",
        ),
        (
            "sim.step_ns_per_cycle",
            layers::sim_step_ns_per_cycle(&descs, config.egress, chunk),
            "ns",
            "uninstrumented System::step",
        ),
        (
            "arbiter.grant_ns",
            layers::arbiter_grant_ns(&descs),
            "ns",
            "RoundRobin::grant",
        ),
        (
            "deplist.op_ns",
            layers::deplist_op_ns(&descs),
            "ns",
            "DependencyList ops",
        ),
    ] {
        m.put(name, value, unit, how);
    }
    for stage in STAGE_METRICS.map(|(stage, _)| stage) {
        let s = traced.stats.stages.iter().find(|s| s.stage == stage);
        let how = format!("traced stats frame, mean of {}", s.map_or(0, |s| s.count));
        m.put(
            &format!("stage.{stage}"),
            s.map_or(0.0, |s| s.mean),
            "ns",
            &how,
        );
    }

    // The budget: outside-in layer costs on the server's path, per packet,
    // against the server CPU time per packet of the untraced phase.
    let cpu = base.server_cpu_ns_per_pkt();
    let batch = spec.batch as f64;
    let mut terms = vec![
        ("frame.decode", m.get("frame.decode_ns_per_pkt")),
        ("router.split", m.get("router.split_ns_per_pkt")),
        (
            "shard.service (queue, backend, classify, verify, reply)",
            m.get("shard.service_ns_per_pkt"),
        ),
        (
            "frame.reply_encode / submit",
            m.get("frame.reply_encode_ns") / batch,
        ),
        (
            "net echo server CPU / submit",
            m.get("net.echo_server_cpu_ns") / batch,
        ),
    ];
    if let Some(c) = &base.control {
        let frames_per_pkt = c.frames as f64 / base.packets.max(1) as f64;
        terms.push((
            "tables.mutate x frames / packets",
            m.get("tables.mutate_ms") * 1e6 * frames_per_pkt,
        ));
    }
    let sum: f64 = terms.iter().map(|t| t.1).sum();
    println!(
        "budget for {} (ns per packet, share of server CPU per packet):",
        spec.name
    );
    for (name, ns) in &terms {
        println!("  {name:<56} {ns:>12.2} {:>7.1}%", 100.0 * ns / cpu);
    }
    println!("  {:<56} {sum:>12.2} {:>7.1}%", "sum", 100.0 * sum / cpu);
    println!(
        "  {:<56} {cpu:>12.2}",
        "server_cpu_ns_per_pkt (untraced e2e)"
    );
    let overhead = traced.server_cpu_ns_per_pkt() / cpu - 1.0;
    let p99 = nearest_rank(&base.rtt_ns, 0.99) as f64 / 1e3;
    let n = format!("untraced, n={}", base.rtt_ns.len());
    for (name, value, unit, how) in [
        ("budget.sum_ns_per_pkt", sum, "ns", "sum of the terms above"),
        ("budget.server_cpu_ns_per_pkt", cpu, "ns", "untraced phase"),
        (
            "budget.explained_frac",
            sum / cpu,
            "frac",
            "sum / server CPU",
        ),
        (
            "trace.overhead_frac",
            overhead,
            "frac",
            "traced / untraced CPU - 1",
        ),
        ("host.steal_frac", base.steal_frac, "frac", "untraced phase"),
        (
            "host.reference_kernel_us",
            host.reference_us,
            "us",
            "fastest of 64 runs, before any server starts",
        ),
        (
            "pkts_per_s",
            base.pkts_per_s(),
            "1/s",
            "untraced phase, median slice",
        ),
        ("submit_p99_us", p99, "us", n.as_str()),
    ] {
        m.put(name, value, unit, how);
    }

    let mut failures = base.failures;
    let mut attempted = base.attempted + traced.attempted;
    failures.absorb(traced.failures);
    if let Some(p) = probe {
        attempted += p.attempted;
        failures.absorb(p.failures);
    }
    (m, attempted, failures)
}
