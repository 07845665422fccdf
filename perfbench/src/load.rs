//! The end-to-end phase: in-process servers driven through the public
//! `Server`/`Client` API by closed-loop load threads (at most two, one
//! connection each) and, on `churn`, an open-loop control connection.
//!
//! Every reply is checked against the pre-computed oracle. CPU time the
//! load threads spend themselves is read per thread and subtracted from
//! the process total, which leaves the server's own CPU time: it moves far
//! less than throughput when the hypervisor steals the host.

use crate::host::{peak_rss_mib, process_cpu_ns, thread_cpu_ns, HostJiffies};
use crate::workload::{churn_routes, ConnPool, Spec, CHURN_PERIOD, CHURN_ROUTES};
use memsync_serve::snapshot::FibSnapshot;
use memsync_serve::{Client, ClientError, ServeConfig, Server, StatsSnapshot, SubmitOptions};
use memsync_trace::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Busy answers a submit absorbs before it counts as failed. With two
/// connections and 64-job queues a shard queue never fills, so any Busy
/// at all is unexpected; the budget only keeps one from failing the run.
const BUSY_RETRIES: u32 = 8;

/// Throughput and server CPU time are counted in slices of this length
/// and report the median slice, so a burst of host noise shorter than
/// half the window moves neither.
pub const SLICE: Duration = Duration::from_secs(1);

/// A reply slower than this fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How many failure messages a run keeps for its report.
const KEEP_FAILURES: usize = 8;

/// Starts a server and waits for the first settled hello.
pub fn start(config: &ServeConfig) -> (Duration, Server) {
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", config.clone()).expect("server starts");
    let client = connect(server.local_addr());
    let setup = t0.elapsed();
    drop(client);
    (setup, server)
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::builder()
        .retries(BUSY_RETRIES)
        .read_timeout(READ_TIMEOUT)
        .connect(addr)
        .expect("connect to the in-process server")
}

#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < KEEP_FAILURES {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for n in other.notes {
            if self.notes.len() < KEEP_FAILURES {
                self.notes.push(n);
            }
        }
    }
}

/// What the control connection saw.
#[derive(Debug, Default)]
pub struct ControlOutcome {
    pub frames: u64,
    /// Ack latency of each frame from its due time, ms, sorted.
    pub swap_ms: Vec<f64>,
    /// How late each frame went out against its schedule, ms, sorted.
    pub lateness_ms: Vec<f64>,
    pub baseline_routes: u64,
    pub first_generation: u64,
}

impl ControlOutcome {
    /// A run whose generator fell a whole period behind was not steady.
    pub fn backlogged(&self) -> bool {
        self.lateness_ms
            .last()
            .is_some_and(|&l| l > CHURN_PERIOD.as_secs_f64() * 1e3)
    }
}

#[derive(Debug)]
pub struct Phase {
    pub elapsed_s: f64,
    pub packets: u64,
    pub submits: u64,
    pub busy_retries: u64,
    /// Client round trip of each successful submit answered within the
    /// window, ns, sorted.
    pub rtt_ns: Vec<u64>,
    /// Packets answered per full slice, in slice order.
    pub slice_packets: Vec<u64>,
    /// Server CPU time per full slice, ns, in slice order.
    pub slice_server_cpu_ns: Vec<u64>,
    /// Host steal share per full slice, in slice order.
    pub slice_steal: Vec<f64>,
    pub steal_frac: f64,
    /// `VmHWM` once `Spec::rss_after_packets` packets were answered, MiB.
    /// `None` when the window ended first.
    pub peak_rss_mib: Option<f64>,
    pub control: Option<ControlOutcome>,
    pub attempted: u64,
    pub failures: Failures,
    pub stats: StatsSnapshot,
    pub stats_doc: Json,
}

impl Phase {
    /// Median over the slices of `per_slice(k)`.
    fn median_slice(&self, per_slice: impl Fn(usize) -> f64) -> f64 {
        let mut v: Vec<f64> = (0..self.slice_packets.len()).map(per_slice).collect();
        crate::report::median(&mut v)
    }

    /// Packets answered per second, median slice.
    pub fn pkts_per_s(&self) -> f64 {
        self.median_slice(|k| self.slice_packets[k] as f64 / SLICE.as_secs_f64())
    }

    /// Server CPU time per packet answered, median slice.
    pub fn server_cpu_ns_per_pkt(&self) -> f64 {
        self.median_slice(|k| {
            self.slice_server_cpu_ns[k] as f64 / self.slice_packets[k].max(1) as f64
        })
    }
}

/// Reads `VmHWM` when the load threads together have had a fixed number
/// of packets answered.
struct RssCheckpoint {
    after: u64,
    answered: AtomicU64,
    peak_mib: OnceLock<f64>,
}

impl RssCheckpoint {
    fn answered(&self, n: u32) {
        let before = self.answered.fetch_add(u64::from(n), Ordering::Relaxed);
        if before < self.after && before + u64::from(n) >= self.after {
            let _ = self.peak_mib.set(peak_rss_mib());
        }
    }
}

#[derive(Default)]
struct DataResult {
    packets: u64,
    submits: u64,
    busy_retries: u64,
    /// (offset from the window start, packets, round trip ns) of each
    /// answered submit.
    done: Vec<(Duration, u32, u64)>,
    /// The thread's CPU time at the start and at each slice boundary.
    slice_cpu: Vec<u64>,
    failures: Failures,
}

/// Runs one load window of `window` (whole seconds, at least one slice)
/// against the server at `addr`, one closed-loop connection per pool, with
/// the control connection when `control` is set, then checks the server's
/// end-of-run counters. The final stats query reuses the first load
/// connection.
pub fn run_phase(
    addr: SocketAddr,
    spec: &Spec,
    pools: &[ConnPool],
    window: Duration,
    control: bool,
) -> Phase {
    let mut clients: Vec<Client> = pools.iter().map(|_| connect(addr)).collect();
    let mut ctl = control.then(|| {
        let mut client = connect(addr);
        let fib = client
            .stats()
            .expect("stats frame")
            .fib
            .expect("the server renders a fib section");
        (client, fib)
    });
    let options = SubmitOptions::new().verify(spec.verify);
    let threads = clients.len() + usize::from(control);
    let slices = (window.as_secs_f64() / SLICE.as_secs_f64()) as usize;
    assert!(slices >= 1, "a load window holds at least one slice");
    let start = Barrier::new(threads + 1);
    let rss = RssCheckpoint {
        after: spec.rss_after_packets,
        answered: AtomicU64::new(0),
        peak_mib: OnceLock::new(),
    };
    let (data, ctl_out, ctl_cpu, proc_cpu, slice_steal, run_steal, elapsed_s) =
        std::thread::scope(|s| {
            let data: Vec<_> = clients
                .iter_mut()
                .zip(pools)
                .map(|(client, pool)| {
                    let (start, rss) = (&start, &rss);
                    s.spawn(move || data_loop(client, pool, options, start, rss, window))
                })
                .collect();
            let ctl_h = ctl.as_mut().map(|(c, fib)| {
                let (start, fib) = (&start, *fib);
                s.spawn(move || control_loop(c, fib, start, window))
            });
            let j0 = HostJiffies::read();
            start.wait();
            let t0 = Instant::now();
            let mut proc_cpu = vec![process_cpu_ns()];
            let mut host = vec![HostJiffies::read()];
            for k in 1..=slices {
                if let Some(wait) = (t0 + SLICE * k as u32).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                proc_cpu.push(process_cpu_ns());
                host.push(HostJiffies::read());
            }
            let data: Vec<DataResult> = data
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect();
            let (ctl_out, ctl_cpu) = match ctl_h.map(|h| h.join().expect("control thread")) {
                Some((out, cpu, fails)) => (Some((out, fails)), cpu),
                None => (None, 0),
            };
            let elapsed_s = t0.elapsed().as_secs_f64();
            let run_steal = HostJiffies::read().steal_since(&j0);
            let steal: Vec<f64> = host.windows(2).map(|w| w[1].steal_since(&w[0])).collect();
            (
                data, ctl_out, ctl_cpu, proc_cpu, steal, run_steal, elapsed_s,
            )
        });

    let mut failures = Failures::default();
    let mut packets = 0;
    let mut submits = 0;
    let mut busy_retries = 0;
    let mut rtt_ns = Vec::new();
    let mut slice_packets = vec![0u64; slices];
    // The control thread mostly sleeps; its CPU time is spread evenly.
    let mut slice_server_cpu_ns: Vec<u64> = proc_cpu
        .windows(2)
        .map(|w| (w[1] - w[0]).saturating_sub(ctl_cpu / slices as u64))
        .collect();
    for d in data {
        packets += d.packets;
        submits += d.submits;
        busy_retries += d.busy_retries;
        for (k, w) in d.slice_cpu.windows(2).enumerate() {
            slice_server_cpu_ns[k] = slice_server_cpu_ns[k].saturating_sub(w[1] - w[0]);
        }
        for (at, n, rtt) in d.done {
            let slice = (at.as_secs_f64() / SLICE.as_secs_f64()) as usize;
            if slice < slices {
                slice_packets[slice] += u64::from(n);
                rtt_ns.push(rtt);
            }
        }
        failures.absorb(d.failures);
    }
    rtt_ns.sort_unstable();
    let mut attempted = submits;
    let control = ctl_out.map(|(out, fails)| {
        attempted += out.frames;
        failures.absorb(fails);
        out
    });

    let doc = clients[0].stats_raw().expect("stats frame");
    let stats = StatsSnapshot::decode(&doc).expect("stats frame decodes");
    let stats_doc = Json::parse(&doc).expect("stats frame parses");
    check_server(&stats, control.as_ref(), &mut failures);
    attempted += 1; // the end-of-run audit is one more checked operation

    Phase {
        elapsed_s,
        packets,
        submits,
        busy_retries,
        rtt_ns,
        slice_packets,
        slice_server_cpu_ns,
        slice_steal,
        steal_frac: run_steal,
        peak_rss_mib: rss.peak_mib.get().copied(),
        control,
        attempted,
        failures,
        stats,
        stats_doc,
    }
}

fn data_loop(
    client: &mut Client,
    pool: &ConnPool,
    options: SubmitOptions,
    start: &Barrier,
    rss: &RssCheckpoint,
    window: Duration,
) -> DataResult {
    let mut r = DataResult::default();
    start.wait();
    let t0 = Instant::now();
    r.slice_cpu.push(thread_cpu_ns());
    let deadline = t0 + window;
    let mut next_slice = t0 + SLICE;
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if now >= next_slice {
            r.slice_cpu.push(thread_cpu_ns());
            next_slice += SLICE;
        }
        if now >= deadline {
            break;
        }
        let k = i % pool.batches.len();
        i += 1;
        let batch = &pool.batches[k];
        let (lo, hi) = pool.forwarded[k];
        r.submits += 1;
        let sent = Instant::now();
        match client.submit(batch, options) {
            Ok(b) => {
                let now = Instant::now();
                r.busy_retries += u64::from(b.busy_retries);
                let answered = b.forwarded + b.dropped;
                r.packets += u64::from(answered);
                rss.answered(answered);
                r.done
                    .push((now - t0, answered, (now - sent).as_nanos() as u64));
                if b.mismatches != 0
                    || answered as usize != batch.len()
                    || b.forwarded < lo
                    || b.forwarded > hi
                {
                    r.failures.add(format!(
                        "batch {k}: forwarded {} dropped {} mismatches {}, oracle forwards {lo}..={hi} of {}",
                        b.forwarded,
                        b.dropped,
                        b.mismatches,
                        batch.len()
                    ));
                }
            }
            Err(e) => {
                let fatal = matches!(e, ClientError::Io(_) | ClientError::Protocol(_));
                r.failures.add(format!("submit of batch {k}: {e}"));
                if fatal {
                    break;
                }
            }
        }
    }
    r
}

/// The open-loop control schedule: frame `k` is due at `k * CHURN_PERIOD`
/// from the window start, alternating a 32-route add with its withdraw,
/// and is timed from its due time, so a stall also charges the frames
/// queued behind it. The schedule always ends on a withdraw, leaving the
/// table at its baseline.
fn control_loop(
    client: &mut Client,
    fib: FibSnapshot,
    start: &Barrier,
    window: Duration,
) -> (ControlOutcome, u64, Failures) {
    let routes = churn_routes();
    let prefixes: Vec<(u32, u8)> = routes.iter().map(|r| (r.prefix, r.len)).collect();
    let mut out = ControlOutcome {
        baseline_routes: fib.routes,
        first_generation: fib.generation,
        ..ControlOutcome::default()
    };
    let mut failures = Failures::default();
    start.wait();
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let deadline = t0 + window;
    for k in 0u32.. {
        let due = t0 + CHURN_PERIOD * k;
        let add = k % 2 == 0;
        if add && due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due);
        let reply = if add {
            client.route_add(&routes)
        } else {
            client.route_withdraw(&prefixes)
        };
        let ack = due.elapsed();
        out.frames += 1;
        match reply {
            Ok(u) if u.applied as usize == CHURN_ROUTES => {
                out.swap_ms.push(ack.as_secs_f64() * 1e3);
                out.lateness_ms.push(late.as_secs_f64() * 1e3);
            }
            Ok(u) => failures.add(format!(
                "control frame {k}: applied {} of {CHURN_ROUTES}",
                u.applied
            )),
            Err(e) => {
                failures.add(format!("control frame {k}: {e}"));
                break;
            }
        }
    }
    let cpu = thread_cpu_ns() - cpu0;
    out.swap_ms.sort_by(f64::total_cmp);
    out.lateness_ms.sort_by(f64::total_cmp);
    (out, cpu, failures)
}

/// The server must end every run clean: no mismatches, lost updates,
/// restarts or post-acceptance errors, and after churn the table back at
/// its baseline with every superseded generation retired.
fn check_server(s: &StatsSnapshot, control: Option<&ControlOutcome>, f: &mut Failures) {
    for (what, n) in [
        ("mismatches", s.mismatches),
        ("lost_updates", s.lost_updates),
        ("shard_restarts", s.shard_restarts),
        ("errors", s.errors),
    ] {
        if n != 0 {
            f.add(format!("server reports {what} = {n}"));
        }
    }
    if let Some(c) = control {
        let Some(fib) = s.fib else {
            f.add("stats frame has no fib section".into());
            return;
        };
        if fib.routes != c.baseline_routes {
            f.add(format!(
                "fib holds {} routes after churn, baseline {}",
                fib.routes, c.baseline_routes
            ));
        }
        if fib.retired + 1 != fib.generation {
            f.add(format!(
                "retired generation {} lags generation {}",
                fib.retired, fib.generation
            ));
        }
        if fib.generation < c.first_generation + c.frames {
            f.add(format!(
                "generation {} after {} frames from generation {}",
                fib.generation, c.frames, c.first_generation
            ));
        }
    }
}
