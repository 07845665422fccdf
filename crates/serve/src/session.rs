//! The protocol session: the one place that decides what a frame means.
//!
//! Both frontends drive one [`Session`] per connection and do nothing but
//! I/O around it. The session owns:
//!
//! * **handshake settlement** — nothing but `Hello` is served until a
//!   version settles; an unsupported range or a pre-handshake request is
//!   refused with a v1-decodable `Error` and a close at a frame boundary;
//! * **gating** — v3 control frames on a connection that settled below
//!   v3, control frames and submits while the server drains;
//! * **stats streaming** — the subscription, its push cadence and the
//!   idle read deadline, both reported by [`Session::tick`]; any complete
//!   client frame ends a stream;
//! * **the immediate answers** — stats, kill, and the empty submit;
//! * **the in-flight waits** — [`SubmitWait`] (router submit, counters,
//!   span, shard outcome folding), [`RouteWait`] (control-worker submit
//!   and `RouteUpdated` mapping) and [`QuiesceWait`] (drain/shutdown).
//!   Each is resolved either blocking (`wait`, the threads frontend) or
//!   by non-blocking `poll` (the reactor).
//!
//! Policy kept per frontend: a submit that finds a target shard queue
//! full comes back as [`Step::Full`]. The threads frontend answers
//! [`busy`] at once; the reactor parks the submit (its packets stay in
//! the session scratch) and retries [`Session::submit`] for up to
//! `job_timeout` before answering `Busy`.

use crate::backend;
use crate::frame::{
    decode_submit_into, is_submit, settle_version, Request, Response, ServerHello, SubmitOptions,
    CAP_CONTROL, CAP_TRACING, PROTOCOL_MIN_SUPPORTED, PROTOCOL_VERSION,
};
use crate::queue::{JobOutcome, Reply, ReplyWaker};
use crate::router::ShardSplitter;
use crate::server::Shared;
use crate::stats;
use crate::tables::{ControlOp, ControlOutcome, ControlReply};
use crate::tracing::PendingSpan;
use memsync_netapp::Ipv4Packet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the connection does once an answer is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Then {
    /// Keep serving.
    Serve,
    /// Close at this frame boundary.
    Close,
    /// Raise the service stop flag (the shutdown requester's `Ok`).
    Stop,
}

/// A response ready to write.
#[derive(Debug)]
pub(crate) struct Answer {
    response: Response,
    /// The submit's span, finished once the response is written.
    span: Option<PendingSpan>,
    pub(crate) then: Then,
}

impl Answer {
    fn serve(response: Response) -> Answer {
        Answer {
            response,
            span: None,
            then: Then::Serve,
        }
    }

    fn close(response: Response) -> Answer {
        Answer {
            then: Then::Close,
            ..Answer::serve(response)
        }
    }

    fn error(msg: impl Into<String>) -> Answer {
        Answer::serve(Response::Error(msg.into()))
    }

    /// Writes the response through `write` and, when the answer carries
    /// a submit's span, finishes it with the write as its last stage.
    pub(crate) fn write<E>(
        self,
        shared: &Shared,
        write: impl FnOnce(&Response) -> Result<(), E>,
    ) -> Result<Then, E> {
        let started = self.span.as_ref().map(|_| Instant::now());
        write(&self.response)?;
        if let (Some(span), Some(started)) = (self.span, started) {
            shared
                .tracer
                .finish(&span, started.elapsed().as_nanos() as u64);
        }
        Ok(self.then)
    }
}

/// A decoded submit whose packets sit in the session scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Submit {
    options: SubmitOptions,
    decode_ns: u64,
}

/// What a frame asks of the frontend.
#[derive(Debug)]
pub(crate) enum Step {
    /// Answered on the spot.
    Answer(Answer),
    /// Accepted by every target shard; collect the outcomes.
    Submit(SubmitWait),
    /// A target shard's queue is full (the frontend's policy decides).
    Full(Submit, u16),
    /// Queued on the control worker; collect its outcome.
    Route(RouteWait),
    /// Drain or shutdown; wait for the shard fleet to go quiescent.
    Quiesce(QuiesceWait),
}

/// What a periodic [`Session::tick`] asks of the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// Nothing due.
    Quiet,
    /// A stats-stream push is due.
    Push,
    /// The idle read deadline passed: drop the peer.
    Expired,
}

/// Per-connection protocol state plus the submit scratch (decoded
/// packets and the per-shard splitter), reused across requests.
#[derive(Debug)]
pub(crate) struct Session {
    /// Protocol version the Hello handshake settled (v3 gates the control
    /// frames); `None` until greeted.
    settled: Option<u16>,
    packets: Vec<Ipv4Packet>,
    splitter: ShardSplitter,
    /// Attached to every outcome channel, for frontends that park in a
    /// poller rather than on the channel.
    waker: Option<Arc<dyn ReplyWaker>>,
    /// While `Some`, the StatsStream push cadence.
    stream_every: Option<Duration>,
    last_push: Instant,
    /// A frame arrived since the last tick (activity, noted without a
    /// clock read on the request path).
    heard: bool,
    last_progress: usize,
    last_activity: Instant,
    read_timeout: Duration,
}

impl Session {
    pub(crate) fn new(shared: &Shared, waker: Option<Arc<dyn ReplyWaker>>) -> Session {
        let now = Instant::now();
        Session {
            settled: None,
            packets: Vec::new(),
            splitter: ShardSplitter::new(shared.router.shards()),
            waker,
            stream_every: None,
            last_push: now,
            heard: false,
            last_progress: 0,
            last_activity: now,
            read_timeout: shared.config.read_timeout,
        }
    }

    /// Interprets one complete client frame.
    pub(crate) fn on_frame(&mut self, shared: &Shared, payload: &[u8]) -> Step {
        self.heard = true;
        // Any complete client frame ends an active stats stream; the
        // StatsStream arm below re-arms it for a fresh subscription.
        self.stream_every = None;
        let decode_started = shared.tracer.enabled().then(Instant::now);
        let decode_ns = || decode_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Submit fast path: decode the batch straight into the packet
        // scratch. `Request::decode` would build a fresh `Vec` per batch
        // — at large batch sizes an mmap/munmap round trip per request.
        if self.settled.is_some() && is_submit(payload) {
            return match decode_submit_into(payload, &mut self.packets) {
                Ok(options) => self.start_submit(shared, options, decode_ns()),
                Err(e) => Step::Answer(Answer::error(e.to_string())),
            };
        }
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => return Step::Answer(Answer::error(e.to_string())),
        };
        let version = self.settled.unwrap_or(PROTOCOL_MIN_SUPPORTED);
        Step::Answer(match req {
            // Idempotent: a repeated Hello re-settles and re-states the
            // capability block.
            Request::Hello {
                min_version,
                max_version,
            } => match settle_version(min_version, max_version) {
                Some(v) => {
                    self.settled = Some(v);
                    Answer::serve(Response::Hello(server_hello(shared, v)))
                }
                None => Answer::close(Response::Error(format!(
                    "no common protocol version: client speaks \
                     {min_version}..={max_version}, server speaks \
                     {PROTOCOL_MIN_SUPPORTED}..={PROTOCOL_VERSION}"
                ))),
            },
            // A pre-handshake request means the peer does not speak
            // protocol v2 (or skipped the handshake). RSP_ERROR has existed
            // since v1, so even an old client decodes this cleanly.
            req if self.settled.is_none() => Answer::close(Response::Error(format!(
                "expected hello before {}: this server speaks protocol \
                 v{PROTOCOL_VERSION}, which negotiates at connect time",
                req.name()
            ))),
            // The capability is advertised server-wide, but the settled
            // version gates it: a connection negotiated down to v2 must
            // not send v3 frames.
            req if req.is_control() && version < 3 => Answer::error(format!(
                "{} is a protocol-v3 control frame; this connection settled v{version}",
                req.name()
            )),
            req if req.is_control() && shared.draining.load(Ordering::Acquire) => {
                Answer::error("draining: control plane refused")
            }
            Request::RouteAdd(routes) => return self.start_route(shared, ControlOp::Add(routes)),
            Request::RouteWithdraw(prefixes) => {
                return self.start_route(shared, ControlOp::Withdraw(prefixes))
            }
            Request::SwapDefault { next_hop } => {
                return self.start_route(shared, ControlOp::SwapDefault(next_hop))
            }
            Request::StatsStream { interval_ms: 0 } => {
                Answer::error("stats-stream interval must be nonzero")
            }
            Request::StatsStream { interval_ms } => {
                self.stream_every = Some(Duration::from_millis(u64::from(interval_ms)));
                self.last_push = Instant::now();
                // The first push rides the response; the cadence
                // continues from `tick`.
                Answer::serve(Response::StatsPush(render_stats(shared)))
            }
            Request::Submit { packets, options } => {
                self.packets = packets;
                return self.start_submit(shared, options, decode_ns());
            }
            Request::Stats => Answer::serve(Response::Stats(render_stats(shared))),
            Request::Drain => {
                shared.draining.store(true, Ordering::Release);
                shared.tracer.flush();
                return Step::Quiesce(QuiesceWait::new(false));
            }
            Request::Shutdown => {
                shared.draining.store(true, Ordering::Release);
                return Step::Quiesce(QuiesceWait::new(true));
            }
            Request::Kill(shard) => match shared.supervisor.shards().get(shard as usize) {
                Some(s) => {
                    s.die.store(true, Ordering::Release);
                    Answer::serve(Response::Ok)
                }
                None => Answer::error(format!("no shard {shard}")),
            },
        })
    }

    /// The submit refusals (draining, the empty batch), then the router
    /// submit.
    fn start_submit(&mut self, shared: &Shared, options: SubmitOptions, decode_ns: u64) -> Step {
        if shared.draining.load(Ordering::Acquire) {
            return Step::Answer(Answer::error("draining: new submits refused"));
        }
        if self.packets.is_empty() {
            return Step::Answer(Answer::serve(Response::Batch {
                forwarded: 0,
                dropped: 0,
                mismatches: 0,
            }));
        }
        let submit = Submit { options, decode_ns };
        match self.submit(shared, submit) {
            Ok(wait) => Step::Submit(wait),
            Err(shard) => Step::Full(submit, shard),
        }
    }

    /// Enqueues the scratch packets on every target shard, all or
    /// nothing; `Err(shard)` names a full target queue.
    pub(crate) fn submit(&mut self, shared: &Shared, submit: Submit) -> Result<SubmitWait, u16> {
        let (tx, rx) = channel();
        let reply = match &self.waker {
            Some(w) => Reply::with_waker(tx, Arc::clone(w)),
            None => Reply::new(tx),
        };
        let jobs =
            shared
                .router
                .submit(&mut self.splitter, &self.packets, submit.options, &reply)?;
        drop(reply); // the shard-held clones are now the only senders
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // With tracing off a client-tagged span id is simply ignored: the
        // shards produce no timings, so there is nothing to build.
        let span = shared.tracer.enabled().then(|| {
            let (span_id, client_assigned) = shared.tracer.assign(submit.options.span_id);
            PendingSpan {
                span_id,
                client_assigned,
                decode_ns: submit.decode_ns,
                timings: Vec::new(),
            }
        });
        Ok(SubmitWait {
            rx,
            jobs_left: jobs,
            forwarded: 0,
            dropped: 0,
            mismatches: 0,
            span,
            deadline: None,
        })
    }

    /// Hands a route mutation to the control worker.
    fn start_route(&mut self, shared: &Shared, op: ControlOp) -> Step {
        let (tx, rx) = channel();
        let reply = match &self.waker {
            Some(w) => ControlReply::with_waker(tx, Arc::clone(w)),
            None => ControlReply::new(tx),
        };
        if !shared.control.submit(op, reply) {
            return Step::Answer(Answer::error("control plane stopped"));
        }
        Step::Route(RouteWait { rx, deadline: None })
    }

    /// The periodic duty both frontends share: the stats-stream cadence
    /// and the idle read deadline. `busy` means the frontend has a request
    /// in flight or unwritten egress — that counts as activity, and no
    /// push is stacked behind it. The deadline budgets *stalls*: frame
    /// progress counts as activity, so only a peer idle (or frozen
    /// mid-frame) for the whole `read_timeout` expires.
    pub(crate) fn tick(&mut self, now: Instant, frame_progress: usize, busy: bool) -> Tick {
        // A streaming subscriber is deliberately quiet: the pushes are
        // the liveness signal (a dead peer surfaces as a write error).
        if self.heard || busy || frame_progress != self.last_progress || self.stream_every.is_some()
        {
            self.heard = false;
            self.last_progress = frame_progress;
            self.last_activity = now;
        }
        match self.stream_every {
            _ if busy => Tick::Quiet,
            Some(every) if now.duration_since(self.last_push) >= every => {
                self.last_push = now;
                Tick::Push
            }
            None if now.duration_since(self.last_activity) >= self.read_timeout => Tick::Expired,
            _ => Tick::Quiet,
        }
    }
}

/// The immediate `Busy` answer to a full shard queue.
pub(crate) fn busy(shared: &Shared, shard: u16) -> Answer {
    shared.counters.busy.fetch_add(1, Ordering::Relaxed);
    Answer::serve(Response::Busy(shard))
}

/// Renders the current stats document (the Stats response and every
/// StatsPush share it).
pub(crate) fn render_stats(shared: &Shared) -> String {
    stats::collect(
        shared.supervisor.shards(),
        &shared.counters,
        shared.config.backend,
        shared.supervisor.restarts(),
        shared.draining.load(Ordering::Acquire),
        shared.started,
        &shared.tracer,
        (shared.config.frontend, &shared.frontend),
        &shared.control.tables,
    )
    .render()
}

fn server_hello(shared: &Shared, version: u16) -> ServerHello {
    ServerHello {
        // The settled version for *this* connection — a v2 client reads
        // back v2 and never sends control frames.
        version,
        // Tracing (span-tagged submits, StatsStream) and the live control
        // plane are protocol capabilities of this server build,
        // advertised alongside the backend bits.
        capabilities: backend::capability_bits() | CAP_TRACING | CAP_CONTROL,
        backend: shared.config.backend,
        shards: shared.config.shards as u16,
        egress: shared.config.egress as u16,
        routes: shared.config.routes as u32,
    }
}

/// Whether a non-blocking wait has outlived `timeout`. The clock starts
/// at the first poll, so blocking waits never read it.
fn expired(deadline: &mut Option<Instant>, now: Instant, timeout: Duration) -> bool {
    now >= *deadline.get_or_insert(now + timeout)
}

/// A non-blocking receive shaped like a blocking one: `None` while
/// nothing arrived and the deadline has not passed.
fn try_recv_until<T>(
    rx: &Receiver<T>,
    deadline: &mut Option<Instant>,
    now: Instant,
    timeout: Duration,
) -> Option<Result<T, RecvTimeoutError>> {
    match rx.try_recv() {
        Ok(v) => Some(Ok(v)),
        Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
        Err(TryRecvError::Empty) if expired(deadline, now, timeout) => {
            Some(Err(RecvTimeoutError::Timeout))
        }
        Err(TryRecvError::Empty) => None,
    }
}

/// A degraded in-flight outcome: counted, and answered with `msg`.
fn failed(shared: &Shared, msg: &str) -> Answer {
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    Answer::error(msg)
}

/// A submit accepted by its shards, folding their outcomes.
#[derive(Debug)]
pub(crate) struct SubmitWait {
    rx: Receiver<JobOutcome>,
    jobs_left: usize,
    forwarded: u32,
    dropped: u32,
    mismatches: u32,
    span: Option<PendingSpan>,
    deadline: Option<Instant>,
}

impl SubmitWait {
    /// Blocks for every outcome (each within `job_timeout`).
    pub(crate) fn wait(mut self, shared: &Shared) -> Answer {
        while self.jobs_left > 0 {
            let got = self.rx.recv_timeout(shared.config.job_timeout);
            if let Err(e) = self.fold(got) {
                return Self::failed(shared, e);
            }
        }
        self.finish()
    }

    /// Folds whatever outcomes have arrived; `None` while some are
    /// outstanding and `job_timeout` has not passed since the first poll.
    pub(crate) fn poll(&mut self, shared: &Shared, now: Instant) -> Option<Answer> {
        while self.jobs_left > 0 {
            let got = try_recv_until(&self.rx, &mut self.deadline, now, shared.config.job_timeout)?;
            if let Err(e) = self.fold(got) {
                return Some(Self::failed(shared, e));
            }
        }
        Some(self.finish())
    }

    fn fold(&mut self, got: Result<JobOutcome, RecvTimeoutError>) -> Result<(), RecvTimeoutError> {
        let out = got?;
        self.jobs_left -= 1;
        self.forwarded += out.forwarded;
        self.dropped += out.dropped;
        self.mismatches += out.mismatches;
        if let (Some(span), Some(t)) = (self.span.as_mut(), out.timings) {
            span.timings.push(t);
        }
        Ok(())
    }

    fn failed(shared: &Shared, e: RecvTimeoutError) -> Answer {
        match e {
            // A shard died mid-batch and the supervisor is restarting it:
            // the submit is reported failed and the client resubmits — no
            // silent loss, no double processing of the lost job.
            RecvTimeoutError::Disconnected => failed(shared, "shard failed mid-batch; resubmit"),
            RecvTimeoutError::Timeout => failed(shared, "job timed out"),
        }
    }

    fn finish(&mut self) -> Answer {
        Answer {
            span: self.span.take(),
            ..Answer::serve(Response::Batch {
                forwarded: self.forwarded,
                dropped: self.dropped,
                mismatches: self.mismatches,
            })
        }
    }
}

/// A route mutation queued on the control worker. Its outcome arrives
/// only after the worker published the new generation and ran the shard
/// drain barrier.
#[derive(Debug)]
pub(crate) struct RouteWait {
    rx: Receiver<ControlOutcome>,
    deadline: Option<Instant>,
}

impl RouteWait {
    /// Blocks for the outcome (within `job_timeout`).
    pub(crate) fn wait(self, shared: &Shared) -> Answer {
        Self::answer(shared, self.rx.recv_timeout(shared.config.job_timeout))
    }

    /// The outcome if it arrived (or the wait timed out); `None` before.
    pub(crate) fn poll(&mut self, shared: &Shared, now: Instant) -> Option<Answer> {
        let got = try_recv_until(&self.rx, &mut self.deadline, now, shared.config.job_timeout)?;
        Some(Self::answer(shared, got))
    }

    fn answer(shared: &Shared, got: Result<ControlOutcome, RecvTimeoutError>) -> Answer {
        match got {
            Ok(out) => Answer::serve(Response::RouteUpdated {
                generation: out.generation,
                routes: out.routes,
                applied: out.applied,
            }),
            Err(RecvTimeoutError::Disconnected) => failed(shared, "control worker died; retry"),
            Err(RecvTimeoutError::Timeout) => failed(shared, "control op timed out"),
        }
    }
}

/// A drain or shutdown waiting for every shard queue to empty, every
/// shard to idle, and no submit to be parked anywhere.
#[derive(Debug)]
pub(crate) struct QuiesceWait {
    shutdown: bool,
    deadline: Option<Instant>,
}

impl QuiesceWait {
    fn new(shutdown: bool) -> QuiesceWait {
        QuiesceWait {
            shutdown,
            deadline: None,
        }
    }

    /// Blocks (polling every 2 ms) until quiescent or `job_timeout`.
    pub(crate) fn wait(mut self, shared: &Shared) -> Answer {
        loop {
            if let Some(answer) = self.poll(shared, Instant::now()) {
                return answer;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `Drained` or a timed-out error; for shutdown, either way, an
    /// `Ok` that stops the service once written; `None` while waiting.
    pub(crate) fn poll(&mut self, shared: &Shared, now: Instant) -> Option<Answer> {
        let quiesced = shared.supervisor.quiescent()
            && shared.frontend.deferred_now.load(Ordering::Relaxed) == 0;
        if !quiesced && !expired(&mut self.deadline, now, shared.config.job_timeout) {
            return None;
        }
        Some(if self.shutdown {
            shared.tracer.flush();
            Answer {
                then: Then::Stop,
                ..Answer::serve(Response::Ok)
            }
        } else if quiesced {
            Answer::serve(Response::Drained)
        } else {
            Answer::error("drain timed out")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ_TIMEOUT: Duration = Duration::from_millis(100);

    fn session(t0: Instant) -> Session {
        Session {
            settled: Some(PROTOCOL_VERSION),
            packets: Vec::new(),
            splitter: ShardSplitter::new(1),
            waker: None,
            stream_every: None,
            last_push: t0,
            heard: false,
            last_progress: 0,
            last_activity: t0,
            read_timeout: READ_TIMEOUT,
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn idle_deadline_budgets_silence_not_progress_or_work() {
        let t0 = Instant::now();
        let mut s = session(t0);
        assert_eq!(s.tick(t0 + ms(99), 0, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(100), 0, false), Tick::Expired);

        // Bytes of a partial frame restart the budget.
        let mut s = session(t0);
        assert_eq!(s.tick(t0 + ms(60), 7, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(159), 7, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(160), 7, false), Tick::Expired);

        // So does a complete frame, noted at the next tick.
        let mut s = session(t0);
        s.heard = true;
        assert_eq!(s.tick(t0 + ms(60), 0, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(159), 0, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(160), 0, false), Tick::Expired);

        // Work in flight or unwritten egress is not silence.
        let mut s = session(t0);
        assert_eq!(s.tick(t0 + ms(500), 0, true), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(599), 0, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(600), 0, false), Tick::Expired);
    }

    #[test]
    fn stats_stream_pushes_on_cadence_and_never_expires() {
        let t0 = Instant::now();
        let mut s = session(t0);
        s.stream_every = Some(ms(30));
        assert_eq!(s.tick(t0 + ms(29), 0, false), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(30), 0, false), Tick::Push);
        assert_eq!(s.tick(t0 + ms(59), 0, false), Tick::Quiet);
        // A busy connection gets no push stacked behind its work.
        assert_eq!(s.tick(t0 + ms(70), 0, true), Tick::Quiet);
        assert_eq!(s.tick(t0 + ms(71), 0, false), Tick::Push);
        // Far past the read deadline, a subscriber is still served.
        assert_eq!(s.tick(t0 + ms(1_000), 0, false), Tick::Push);
    }
}
