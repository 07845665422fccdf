//! The service: [`Server::start`], the one accept loop both frontends
//! share, and the threads frontend's blocking per-connection loop.
//!
//! What a frame means is decided by the per-connection `Session`; this
//! file only moves bytes. The accept loop applies admission (the
//! connection cap, answered with an `Error` frame) and fd-exhaustion
//! backoff, then hands each stream to its frontend: the threads frontend
//! spawns one blocking connection thread, the reactor deals the stream
//! to an event-loop inbox. The connection thread reads frames with a
//! short socket timeout (so the stop flag and the session's
//! `Session::tick` duties are observed), hands each frame to the
//! session, blocks on whatever wait the session returns, and writes the
//! answer. Shutdown drains, stops the shard fleet and the accept loop,
//! and unblocks [`Server::wait`] so the `serve` bin can exit 0.

use crate::frame::{write_frame, FrameReader, Response};
use crate::router::Router;
use crate::session::{busy, render_stats, Session, Step, Then, Tick};
use crate::shard::ShardTables;
use crate::stats::{FrontendStats, ServerCounters};
use crate::supervisor::{Supervisor, SupervisorHandle};
use crate::tables::{spawn_control_worker, ControlHandle, EpochTables, ShardGate};
use crate::tracing::ServeTracer;
use crate::{FrontendKind, ServeConfig};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared state every frontend (acceptor thread or reactor) sees.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) router: Router,
    pub(crate) supervisor: SupervisorHandle,
    pub(crate) counters: ServerCounters,
    pub(crate) config: ServeConfig,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) draining: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) tracer: ServeTracer,
    pub(crate) frontend: FrontendStats,
    pub(crate) control: ControlHandle,
}

impl Shared {
    /// Raises the service stop flag (frame or host request).
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.tracer.flush();
    }
}

/// A running service instance.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

/// Granularity of the accept/read polling loops: short enough that stop
/// and drain flags are observed promptly, long enough to stay cheap.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// First pause after an fd-exhaustion accept failure; doubles up to
/// [`ACCEPT_BACKOFF_MAX`] while the condition persists.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Longest fd-exhaustion accept pause.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Whether an accept failure means the process (`EMFILE`) or system
/// (`ENFILE`) is out of file descriptors. Retrying immediately cannot
/// succeed — the accept loop must pause and let connections close.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    #[cfg(unix)]
    {
        matches!(e.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
    }
    #[cfg(not(unix))]
    {
        let _ = e;
        false
    }
}

/// Tells an over-cap client why it is being dropped: a best-effort
/// blocking write of the `Error` response frame (decodable by every
/// protocol version — `RSP_ERROR` has existed since v1) before close,
/// so the peer sees a reason instead of a bare RST.
fn reject_over_capacity(stream: TcpStream, shared: &Shared) {
    shared.frontend.conn_rejects.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut payload = Vec::new();
    Response::Error(format!(
        "connection limit reached ({} open); retry later",
        shared.config.max_conns
    ))
    .encode_into(&mut payload);
    let mut stream = stream;
    let _ = write_frame(&mut stream, &payload);
}

/// Decrements the open-connection gauge when a connection ends, however
/// it ends (including an acceptor thread unwinding).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.frontend.conn_closed();
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the shard
    /// fleet, the supervisor, and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and span-export file creation failures.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        assert!(config.shards > 0, "at least one shard");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let tracer = ServeTracer::new(config.tracing.clone(), config.shards)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tables = Arc::new(EpochTables::new(ShardTables::build(config.routes)));
        let supervisor = Supervisor::start(&config, Arc::clone(&stop), Arc::clone(&tables))
            .monitor_in_background();
        let router = Router::new(
            supervisor
                .shards()
                .iter()
                .map(|s| Arc::clone(&s.queue))
                .collect(),
        );
        // The control worker's drain barrier watches every shard's
        // generation acknowledgement through these gates. The queue Arcs
        // and gen_seen Arcs survive shard restarts, so the gates stay
        // valid for the server's lifetime.
        let gates: Vec<ShardGate> = supervisor
            .shards()
            .iter()
            .map(|s| ShardGate {
                queue: Arc::clone(&s.queue),
                gen_seen: Arc::clone(&s.gen_seen),
            })
            .collect();
        let (control, control_thread) = spawn_control_worker(tables, gates, Arc::clone(&stop));
        let frontend = config.frontend;
        let shared = Arc::new(Shared {
            router,
            supervisor,
            counters: ServerCounters::default(),
            config,
            stop: Arc::clone(&stop),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            tracer,
            frontend: FrontendStats::default(),
            control,
        });
        let mut threads = match frontend {
            FrontendKind::Threads => {
                let accept_shared = Arc::clone(&shared);
                vec![std::thread::Builder::new()
                    .name("memsync-accept".into())
                    .spawn(move || {
                        let mut conns: Vec<JoinHandle<()>> = Vec::new();
                        accept_loop(&listener, &accept_shared, |stream| {
                            let conn_shared = Arc::clone(&accept_shared);
                            let spawned = std::thread::Builder::new()
                                .name("memsync-conn".into())
                                .spawn(move || {
                                    let _guard = ConnGuard(Arc::clone(&conn_shared));
                                    let _ = serve_connection(stream, &conn_shared);
                                });
                            conns.retain(|c| !c.is_finished());
                            spawned.map(|h| conns.push(h)).is_ok()
                        });
                        for c in conns {
                            let _ = c.join();
                        }
                    })
                    .expect("accept thread spawns")]
            }
            FrontendKind::Reactor => {
                #[cfg(unix)]
                {
                    crate::reactor::spawn(listener, Arc::clone(&shared))?
                }
                #[cfg(not(unix))]
                {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "the reactor frontend requires a unix platform",
                    ));
                }
            }
        };
        threads.push(control_thread);
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Total shard restarts so far.
    pub fn shard_restarts(&self) -> u64 {
        self.shared.supervisor.restarts()
    }

    /// Whether a shutdown has been requested (frame or [`Server::stop`]).
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Blocks until the service shuts down (via a shutdown frame or
    /// [`Server::stop`]), then joins every thread.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Requests shutdown from the host process (equivalent to a shutdown
    /// frame, minus the drain).
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// The request tracer (span rings, live stage histograms). Always
    /// present; disabled unless [`crate::TracingConfig::enabled`] was set.
    pub fn tracer(&self) -> &ServeTracer {
        &self.shared.tracer
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The accept loop both frontends run. Admission is common: a client
/// over the connection cap gets an `Error` frame and a close, and fd
/// exhaustion pauses with exponential backoff instead of hot-spinning
/// (which would burn the CPU the open connections need to finish and
/// free fds). `hand_off` is the frontend's: it takes the admitted stream
/// and returns whether it found a home for it — a refusal (thread or
/// inbox exhaustion) backs off like fd exhaustion.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    mut hand_off: impl FnMut(TcpStream) -> bool,
) {
    let mut wait_readable = listener_wait(listener);
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !shared.stop.load(Ordering::Acquire) {
        wait_readable();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    if shared.frontend.conns_open.load(Ordering::Relaxed)
                        >= shared.config.max_conns as u64
                    {
                        reject_over_capacity(stream, shared);
                        continue;
                    }
                    shared.frontend.conn_opened();
                    if hand_off(stream) {
                        continue;
                    }
                    shared.frontend.conn_closed();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if is_fd_exhaustion(&e) => {}
                Err(_) => {
                    std::thread::sleep(POLL);
                    break;
                }
            }
            // Out of fds, or the hand-off out of threads: pause and let
            // open connections finish.
            shared
                .frontend
                .accept_pauses
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            break;
        }
    }
}

/// Parks until the (nonblocking) listener may have a connection, or for
/// at most [`POLL`], so the stop flag is still observed. Without a
/// readiness poller it degrades to plain `POLL` sleeps.
fn listener_wait(listener: &TcpListener) -> impl FnMut() {
    #[cfg(unix)]
    {
        use crate::reactor::poller::{Interest, Poller};
        use std::os::unix::io::AsRawFd;
        let readable = Interest {
            readable: true,
            writable: false,
        };
        let mut poller = Poller::new().ok().and_then(|mut p| {
            p.register(listener.as_raw_fd(), 0, readable)
                .ok()
                .map(|()| p)
        });
        let mut events = Vec::new();
        move || match poller.as_mut() {
            Some(p) => {
                events.clear();
                let _ = p.wait(&mut events, POLL);
            }
            None => std::thread::sleep(POLL),
        }
    }
    #[cfg(not(unix))]
    {
        let _ = listener;
        || std::thread::sleep(POLL)
    }
}

/// The threads frontend's connection loop: read a frame, let the
/// session decide, block on its wait, write the answer — until EOF, the
/// idle deadline, or service stop.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    // A short socket timeout makes reads poll, so the stop flag and the
    // session's tick duties (stats pushes, idle deadline) are observed.
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    // Request/response over small frames: Nagle only adds latency here
    // (the client side disables it too).
    stream.set_nodelay(true)?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = io::BufWriter::new(stream);
    // The decoder keeps partial-frame state across read timeouts, so a
    // client that pauses mid-frame resumes cleanly — never a desync.
    let mut frames = FrameReader::new();
    let mut session = Session::new(shared, None);
    // Response encode buffer, reused across requests.
    let mut encoded = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let payload = match frames.read(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean close
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                match session.tick(Instant::now(), frames.progress(), false) {
                    Tick::Quiet => {}
                    Tick::Push => {
                        Response::StatsPush(render_stats(shared)).encode_into(&mut encoded);
                        write_frame(&mut writer, &encoded)?;
                    }
                    Tick::Expired => return Ok(()),
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let answer = match session.on_frame(shared, payload) {
            Step::Answer(answer) => answer,
            Step::Submit(wait) => wait.wait(shared),
            Step::Full(_, shard) => busy(shared, shard),
            Step::Route(wait) => wait.wait(shared),
            Step::Quiesce(wait) => wait.wait(shared),
        };
        let then = answer.write(shared, |rsp| {
            rsp.encode_into(&mut encoded);
            write_frame(&mut writer, &encoded)
        })?;
        match then {
            Then::Serve => {}
            Then::Close => return Ok(()),
            Then::Stop => {
                shared.stop();
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_exhaustion_codes_classify_and_others_do_not() {
        assert!(
            is_fd_exhaustion(&io::Error::from_raw_os_error(24)),
            "EMFILE"
        );
        assert!(
            is_fd_exhaustion(&io::Error::from_raw_os_error(23)),
            "ENFILE"
        );
        for kind in [
            io::ErrorKind::WouldBlock,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::PermissionDenied,
        ] {
            assert!(!is_fd_exhaustion(&io::Error::from(kind)), "{kind:?}");
        }
    }
}
