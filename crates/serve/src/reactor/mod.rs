//! The readiness-driven frontend: a few reactor threads multiplex every
//! connection through an epoll (or `poll(2)`) event loop.
//!
//! The blocking frontend burns one OS thread (and its stack) per
//! connection; at thousands of connections the scheduler, not the
//! forwarding backend, becomes the bottleneck. This module drives the
//! same per-connection `Session` — which alone decides what a frame
//! means — from `config.reactor_threads` event loops. It is the
//! process-level analogue of the paper's multi-port memory controller:
//! many requesters multiplexed onto a fixed set of banked service ports,
//! with per-requester flow control instead of unbounded buffering.
//!
//! What stays here is I/O only:
//!
//! * **reads** go through the resumable [`FrameReader`] — its partial-
//!   frame resume across `WouldBlock` is exactly the nonblocking-read
//!   contract — and each complete frame goes straight to the session;
//! * **waits** are the session's own in-flight types, held in `Work`
//!   and resolved with non-blocking `poll`s instead of blocking `wait`s;
//! * **writes** go through the [`FrameWriter`] egress queue, resuming
//!   partial writes on writable events;
//! * **backpressure** is by interest, not by buffering: a connection
//!   with work in flight or more than [`EGRESS_HIGH_WATER`] bytes of
//!   unread responses has its read interest dropped — the bytes back up
//!   into the peer's socket, and server-side memory stays bounded. Read
//!   interest re-arms when the egress queue falls under
//!   [`EGRESS_LOW_WATER`] (hysteresis, so interest doesn't flap).
//!
//! The reactor's own policy: a submit that finds a shard queue full is
//! *deferred* (at most one per connection — the packets stay in the
//! session scratch) and retried when shard outcomes wake the loop; only
//! a defer that outlives `job_timeout` becomes a `Busy` response. That
//! turns the blocking frontend's Busy-storm under fan-in into flow
//! control, with the same all-or-nothing router semantics.
//!
//! Shard threads and the control worker wake the loop through the
//! session's reply waker (a self-pipe registered at token 0), so outcome
//! collection is event-driven; a periodic sweep catches what wakes
//! cannot (deadlines, idle peers, stats pushes, and shard death noticed
//! via channel disconnect).

use crate::frame::{FrameReader, FrameWriter, Response};
use crate::queue::ReplyWaker;
use crate::server::{accept_loop, Shared, POLL};
use crate::session::{
    busy, render_stats, Answer, QuiesceWait, RouteWait, Session, Step, Submit, SubmitWait, Then,
    Tick,
};
use std::convert::Infallible;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) mod poller;
pub(crate) mod sys;

use poller::{Event, Interest, WakeReceiver, Waker};

/// Egress bytes at which a connection's read interest is dropped: the
/// peer is not consuming responses, so the server stops consuming its
/// requests rather than buffering without bound.
pub const EGRESS_HIGH_WATER: usize = 256 * 1024;

/// Egress bytes under which read interest re-arms after a high-water
/// pause (must be well under [`EGRESS_HIGH_WATER`] so interest changes
/// don't flap around a single threshold).
pub const EGRESS_LOW_WATER: usize = EGRESS_HIGH_WATER / 4;

/// Sweep cadence for everything wakes can't deliver: work deadlines,
/// idle-peer deadlines, stats-stream pushes, and shard-death channel
/// disconnects.
const TICK: Duration = Duration::from_millis(25);

/// Poller token of the wake pipe; connection tokens are `slot + 1`.
const WAKE_TOKEN: u64 = 0;

/// Spawns the reactor frontend: `config.reactor_threads` event loops
/// (0 = one per available CPU) plus the accept thread that deals
/// connections round-robin across them. Returns every spawned handle;
/// they all exit once `shared.stop` is raised.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> io::Result<Vec<JoinHandle<()>>> {
    let threads = match shared.config.reactor_threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let mut handles = Vec::with_capacity(threads + 1);
    let mut inboxes = Vec::with_capacity(threads);
    for i in 0..threads {
        let (tx, rx) = channel::<TcpStream>();
        let (waker, wake_rx) = poller::waker_pair()?;
        let waker = Arc::new(waker);
        let mut reactor = Reactor::new(Arc::clone(&shared), rx, Arc::clone(&waker), wake_rx)?;
        inboxes.push((tx, waker));
        handles.push(
            std::thread::Builder::new()
                .name(format!("memsync-reactor-{i}"))
                .spawn(move || reactor.run())
                .map_err(|e| io::Error::new(e.kind(), "reactor thread spawn failed"))?,
        );
    }
    let mut next = 0usize;
    handles.push(
        std::thread::Builder::new()
            .name("memsync-accept".into())
            .spawn(move || {
                accept_loop(&listener, &shared, |stream| {
                    // Accepted sockets do not inherit the listener's
                    // nonblocking flag; set it before the reactor ever
                    // touches the stream.
                    if stream.set_nonblocking(true).is_err() {
                        return false;
                    }
                    let _ = stream.set_nodelay(true);
                    let (tx, waker) = &inboxes[next % inboxes.len()];
                    next = next.wrapping_add(1);
                    tx.send(stream).map(|()| waker.wake()).is_ok()
                });
            })
            .map_err(|e| io::Error::new(e.kind(), "accept thread spawn failed"))?,
    );
    Ok(handles)
}

/// A submit parked on a full shard queue, retried on shard-completion
/// wakes until its deadline.
#[derive(Debug)]
struct Deferred {
    submit: Submit,
    blocked_shard: u16,
    deadline: Instant,
}

/// What a connection is waiting on. While non-`Idle`, reads are paused:
/// one request is in flight per connection at a time, which is what
/// bounds server-side memory per connection.
#[derive(Debug)]
enum Work {
    Idle,
    Submit(SubmitWait),
    Deferred(Deferred),
    Quiesce(QuiesceWait),
    Route(RouteWait),
}

/// Per-connection I/O state around its [`Session`].
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    out: FrameWriter,
    encoded: Vec<u8>,
    session: Session,
    work: Work,
    /// In the reactor's work list (dedup flag).
    queued: bool,
    /// Close once the egress queue drains.
    closing: bool,
    /// Raise the service stop flag once the egress queue drains (the
    /// connection that requested shutdown gets its `Ok` first).
    shutdown_after: bool,
    /// Current registered interest (to skip no-op poller syscalls).
    read_on: bool,
    write_on: bool,
    /// Read interest dropped for egress high-water (hysteresis state).
    read_paused_hw: bool,
}

impl Conn {
    fn idle(&self) -> bool {
        matches!(self.work, Work::Idle)
    }
}

/// One event-loop thread: owns a poller, its deal of the connections,
/// and the wake pipe shard threads signal through.
struct Reactor {
    shared: Arc<Shared>,
    poller: poller::Poller,
    waker: Arc<Waker>,
    wake_rx: WakeReceiver,
    inbox: Receiver<TcpStream>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots with outstanding work, deduplicated via `Conn::queued`.
    work: Vec<usize>,
    last_sweep: Instant,
    /// Sweep scratch: connections whose tick asked for something.
    due: Vec<(usize, Tick)>,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        inbox: Receiver<TcpStream>,
        waker: Arc<Waker>,
        wake_rx: WakeReceiver,
    ) -> io::Result<Reactor> {
        let mut poller = poller::Poller::new()?;
        poller.register(
            wake_rx.raw_fd(),
            WAKE_TOKEN,
            Interest {
                readable: true,
                writable: false,
            },
        )?;
        Ok(Reactor {
            shared,
            poller,
            waker,
            wake_rx,
            inbox,
            conns: Vec::new(),
            free: Vec::new(),
            work: Vec::new(),
            last_sweep: Instant::now(),
            due: Vec::new(),
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            // With work outstanding, cap the park so deadlines and
            // missed wakes are still observed promptly.
            let timeout = if self.work.is_empty() { POLL } else { TICK };
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable for this thread; back
                // off so a persistent failure doesn't spin.
                std::thread::sleep(POLL);
            }
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                let idx = (ev.token - 1) as usize;
                if ev.writable {
                    self.drive_write(idx);
                }
                if ev.readable {
                    self.drive_read(idx);
                }
            }
            self.adopt_new_conns();
            self.process_work();
            self.sweep();
        }
        self.shutdown_all();
    }

    /// Moves accepted connections from the inbox into poller slots.
    fn adopt_new_conns(&mut self) {
        while let Ok(stream) = self.inbox.try_recv() {
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let token = idx as u64 + 1;
            let registered = self.poller.register(
                stream.as_raw_fd(),
                token,
                Interest {
                    readable: true,
                    writable: false,
                },
            );
            if registered.is_err() {
                self.free.push(idx);
                self.shared.frontend.conn_closed();
                continue;
            }
            let waker = Arc::clone(&self.waker) as Arc<dyn ReplyWaker>;
            self.conns[idx] = Some(Conn {
                stream,
                frames: FrameReader::new(),
                out: FrameWriter::new(),
                encoded: Vec::new(),
                session: Session::new(&self.shared, Some(waker)),
                work: Work::Idle,
                queued: false,
                closing: false,
                shutdown_after: false,
                read_on: true,
                write_on: false,
                read_paused_hw: false,
            });
        }
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.conns.get_mut(idx).and_then(Option::as_mut)
    }

    /// Reads and dispatches frames until the connection blocks, closes,
    /// pauses (in-flight work / egress high-water), or fails.
    fn drive_read(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing || !conn.idle() || conn.out.pending() >= EGRESS_HIGH_WATER {
                break;
            }
            let Conn {
                frames,
                stream,
                session,
                ..
            } = conn;
            let step = match frames.read(&mut &*stream) {
                Ok(Some(payload)) => session.on_frame(&self.shared, payload),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    break
                }
                Ok(None) | Err(_) => return self.close_conn(idx),
            };
            self.dispatch(idx, step);
        }
        self.update_interest(idx);
    }

    /// Flushes pending egress on a writable event.
    fn drive_write(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.out.is_empty() {
            return;
        }
        match conn.out.write(&mut &conn.stream) {
            Ok(_) => self.after_io(idx),
            Err(_) => self.close_conn(idx),
        }
    }

    /// Maps the session's answer to a frame onto this connection: write
    /// it now, or park the wait it returned as [`Work`].
    fn dispatch(&mut self, idx: usize, step: Step) {
        let work = match step {
            Step::Answer(answer) => return self.answer(idx, answer),
            Step::Submit(wait) => Work::Submit(wait),
            Step::Full(submit, shard) => {
                // Full target shard: defer instead of answering Busy.
                // Reads stay paused (the Work state gates them), so the
                // server holds exactly one parked batch per connection.
                let frontend = &self.shared.frontend;
                frontend.deferred_submits.fetch_add(1, Ordering::Relaxed);
                frontend.deferred_now.fetch_add(1, Ordering::Relaxed);
                frontend.read_pauses.fetch_add(1, Ordering::Relaxed);
                Work::Deferred(Deferred {
                    submit,
                    blocked_shard: shard,
                    deadline: Instant::now() + self.shared.config.job_timeout,
                })
            }
            Step::Route(wait) => Work::Route(wait),
            Step::Quiesce(wait) => Work::Quiesce(wait),
        };
        if let Some(conn) = self.conn_mut(idx) {
            conn.work = work;
        }
        self.enqueue_work(idx);
    }

    fn enqueue_work(&mut self, idx: usize) {
        // Field-path access keeps the `conns` borrow disjoint from the
        // `work` push below.
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if !conn.queued {
                conn.queued = true;
                self.work.push(idx);
            }
        }
    }

    /// Drives every parked connection one step; connections whose work
    /// is still outstanding stay in the list.
    fn process_work(&mut self) {
        if self.work.is_empty() {
            return;
        }
        let list = std::mem::take(&mut self.work);
        for idx in list {
            let Some(conn) = self.conn_mut(idx) else {
                continue;
            };
            conn.queued = false;
            if let Some(answer) = self.poll_work(idx) {
                self.answer(idx, answer);
            }
            if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
                if !conn.idle() && !conn.queued {
                    conn.queued = true;
                    self.work.push(idx);
                }
            }
        }
    }

    /// Polls a connection's parked work; `Some` once it resolved (the
    /// connection is then idle again).
    fn poll_work(&mut self, idx: usize) -> Option<Answer> {
        let shared = &self.shared;
        let conn = self.conns.get_mut(idx).and_then(Option::as_mut)?;
        let now = Instant::now();
        let answer = match &mut conn.work {
            Work::Idle => return None,
            Work::Submit(wait) => wait.poll(shared, now)?,
            Work::Route(wait) => wait.poll(shared, now)?,
            Work::Quiesce(wait) => wait.poll(shared, now)?,
            Work::Deferred(d) => {
                if now < d.deadline {
                    match conn.session.submit(shared, d.submit) {
                        Ok(wait) => {
                            shared.frontend.deferred_now.fetch_sub(1, Ordering::Relaxed);
                            conn.work = Work::Submit(wait);
                        }
                        Err(shard) => d.blocked_shard = shard,
                    }
                    return None;
                }
                // Past its deadline the defer becomes the `Busy` the
                // blocking frontend would have answered at once.
                shared.frontend.deferred_now.fetch_sub(1, Ordering::Relaxed);
                busy(shared, d.blocked_shard)
            }
        };
        conn.work = Work::Idle;
        Some(answer)
    }

    /// Writes a session answer, honoring its close/stop once the egress
    /// queue drains.
    fn answer(&mut self, idx: usize, answer: Answer) {
        if let Some(conn) = self.conn_mut(idx) {
            match answer.then {
                Then::Serve => {}
                Then::Close => conn.closing = true,
                Then::Stop => conn.shutdown_after = true,
            }
        }
        let shared = Arc::clone(&self.shared);
        let _ = answer.write(&shared, |rsp| {
            self.respond(idx, rsp);
            Ok::<(), Infallible>(())
        });
    }

    /// Enqueues a response, opportunistically flushes, and re-evaluates
    /// interest. Write failures close the connection.
    fn respond(&mut self, idx: usize, rsp: &Response) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        rsp.encode_into(&mut conn.encoded);
        conn.out.enqueue(&conn.encoded);
        let sent = conn.out.write(&mut &conn.stream);
        self.shared
            .frontend
            .egress_highwater
            .fetch_max(conn.out.high_water() as u64, Ordering::Relaxed);
        if sent.is_err() {
            self.close_conn(idx);
            return;
        }
        self.after_io(idx);
    }

    /// Post-I/O bookkeeping: finish closes/shutdowns whose egress has
    /// drained, then recompute poller interest.
    fn after_io(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.out.is_empty() && (conn.closing || conn.shutdown_after) {
            // `close_conn` honors a pending shutdown.
            self.close_conn(idx);
            return;
        }
        self.update_interest(idx);
    }

    /// Recomputes and applies this connection's poller interest.
    ///
    /// Read interest is the backpressure valve: off while a request is
    /// in flight (or deferred), off while the peer lets `out` back up
    /// past the high-water mark, back on under the low-water mark.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let pending = conn.out.pending();
        if pending >= EGRESS_HIGH_WATER {
            conn.read_paused_hw = true;
        } else if pending < EGRESS_LOW_WATER {
            conn.read_paused_hw = false;
        }
        let want_read = !conn.closing && conn.idle() && !conn.read_paused_hw;
        let want_write = pending > 0;
        if want_read == conn.read_on && want_write == conn.write_on {
            return;
        }
        if conn.read_on && !want_read && !conn.closing {
            self.shared
                .frontend
                .read_pauses
                .fetch_add(1, Ordering::Relaxed);
        }
        let fd = conn.stream.as_raw_fd();
        let token = idx as u64 + 1;
        let applied = self.poller.modify(
            fd,
            token,
            Interest {
                readable: want_read,
                writable: want_write,
            },
        );
        match applied {
            Ok(()) => {
                conn.read_on = want_read;
                conn.write_on = want_write;
            }
            Err(_) => self.close_conn(idx),
        }
    }

    /// Time-driven duties wakes can't cover: each session's tick (stats
    /// pushes, idle deadlines); work deadlines run from `process_work`.
    fn sweep(&mut self) {
        if self.last_sweep.elapsed() < TICK {
            return;
        }
        let now = Instant::now();
        self.last_sweep = now;
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        for (idx, conn) in self.conns.iter_mut().enumerate() {
            let Some(conn) = conn.as_mut() else {
                continue;
            };
            let busy = !conn.idle() || conn.closing || !conn.out.is_empty();
            match conn.session.tick(now, conn.frames.progress(), busy) {
                Tick::Quiet => {}
                tick => due.push((idx, tick)),
            }
        }
        // One stats document serves every push due this sweep.
        let mut doc = None;
        for &(idx, tick) in &due {
            if tick == Tick::Push {
                let doc = doc.get_or_insert_with(|| render_stats(&self.shared));
                self.respond(idx, &Response::StatsPush(doc.clone()));
            } else {
                self.close_conn(idx);
            }
        }
        self.due = due;
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if matches!(conn.work, Work::Deferred(_)) {
            self.shared
                .frontend
                .deferred_now
                .fetch_sub(1, Ordering::Relaxed);
        }
        if conn.shutdown_after {
            // Raised once the Ok drained — or, if the requester vanished
            // first, anyway.
            self.shared.stop();
        }
        self.shared.frontend.conn_closed();
        self.free.push(idx);
    }

    fn shutdown_all(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_marks_leave_hysteresis_room() {
        const { assert!(EGRESS_LOW_WATER * 2 <= EGRESS_HIGH_WATER) };
        const { assert!(EGRESS_LOW_WATER > 0) };
    }
}
