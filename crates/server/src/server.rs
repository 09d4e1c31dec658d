//! The TCP front door: blocking accept loop, per-connection sessions,
//! and mutations logged before they become visible.
//!
//! Threading model, chosen for a std-only build:
//!
//! * **Accept loop** (one thread): blocks in `accept()`;
//!   [`Server::stop`] wakes it with a loopback connect. Connections
//!   over [`ServerConfig::max_connections`] receive a typed
//!   [`ErrorCode::Overloaded`] frame and are closed — never silently
//!   dropped.
//! * **One reader thread per connection**, owning the session state
//!   (prepared-statement table, live subscriptions) and reading frames
//!   through a buffer. Solves run on the reader thread; the solver
//!   itself fans out on the global [`adp_runtime`](adp_core) pool, and
//!   admission control bounds how many requests solve concurrently
//!   across all connections.
//! * **One writer lock per connection**: responses and pushed
//!   subscription frames share the socket, serialized frame-at-a-time
//!   by a mutex so they never interleave mid-frame.
//! * **Mutations run on the connection thread that received them**,
//!   through [`Service::apply_logged`]: the batch is validated, its
//!   effective entries are appended to the [`crate::persist::Store`]'s
//!   mutation log under the service's mutation lock, and only then is
//!   the new epoch installed and fanned out. Log order is therefore
//!   apply order, and a batch the log refuses is never visible (the
//!   client gets an [`ErrorCode::Internal`] frame). Readers never wait
//!   on a writer: the next epoch is built outside the snapshot lock.
//!
//! Per-request deadlines (`budget_micros`) map onto
//! [`AdpOptions::deadline`](adp_core::solver::AdpOptions) inside the
//! service, so an over-budget solve returns a truncated outcome instead
//! of stalling the connection.

use crate::persist::{PersistError, Store};
use crate::protocol::{
    is_timeout, read_frame, ErrorCode, ProtoError, Request, Response, MAX_PAYLOAD,
};
use adp_service::{Service, ServiceError, SolveRequest, SubscribeOptions, SubscriptionId};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections accepted concurrently; the excess get an
    /// [`ErrorCode::Overloaded`] error frame and a close.
    pub max_connections: usize,
    /// Per-frame payload cap enforced on reads.
    pub max_frame_bytes: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_frame_bytes: MAX_PAYLOAD,
        }
    }
}

/// What the accept loop and every connection thread share.
struct Shared {
    svc: Arc<Service>,
    /// The mutation log, locked only inside [`Service::apply_logged`]'s
    /// log call (which the service's mutation lock already serializes).
    store: Option<Mutex<Store>>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// A running server: owns the accept thread and the shutdown flag.
/// Dropping (or [`stop`](Server::stop)ping) shuts it down and joins
/// every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `svc`. When `store` is given, every effective
    /// mutation batch is appended to its log before any client can see
    /// the new epoch.
    pub fn start(
        svc: Arc<Service>,
        store: Option<Store>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            svc,
            store: store.map(Mutex::new),
            shutdown: AtomicBool::new(false),
            config,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("adp-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown was requested (locally or by a client's
    /// `Shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested (a client `Shutdown` frame or
    /// another thread calling [`stop`](Server::stop) via a clone of the
    /// flag), polling at a coarse interval.
    pub fn wait(&self) {
        while !self.is_shutting_down() {
            thread::sleep(Duration::from_millis(100));
        }
    }

    /// Requests shutdown and joins the accept and connection threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in `accept()`: a loopback connect
            // wakes it to see the flag.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Out of descriptors and the like: back off, do not spin.
            thread::sleep(Duration::from_millis(50));
            continue;
        };
        conns.retain(|h| !h.is_finished());
        if live.load(Ordering::Relaxed) >= shared.config.max_connections.max(1) {
            let _ = reject_overloaded(&stream, live.load(Ordering::Relaxed), &shared.config);
            continue;
        }
        live.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let conn_live = Arc::clone(&live);
        let spawned = thread::Builder::new()
            .name("adp-conn".into())
            .spawn(move || {
                let _ = stream.set_nodelay(true);
                serve_connection(&shared, &stream);
                conn_live.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(h) => conns.push(h),
            Err(_) => {
                live.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Tells an over-limit client *why* it is being closed, instead of a
/// bare RST.
fn reject_overloaded(stream: &TcpStream, live: usize, config: &ServerConfig) -> io::Result<()> {
    let response = Response::Error {
        code: ErrorCode::Overloaded,
        message: format!(
            "connection limit reached ({live}/{} connections)",
            config.max_connections
        ),
    };
    if let Ok(frame) = response.to_frame(0) {
        let mut w = stream;
        let _ = w.write_all(&frame);
    }
    stream.shutdown(std::net::Shutdown::Both)
}

/// A [`Read`] over a non-blockingly-timed-out socket that keeps waiting
/// through timeouts until data, EOF, or server shutdown (which reads as
/// EOF). The read timeout is only a polling interval, never a protocol
/// deadline — a frame split across timeout boundaries is reassembled
/// intact.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(0);
            }
            let mut raw = self.stream;
            match raw.read(buf) {
                Err(e) if is_timeout(&e) => continue,
                other => return other,
            }
        }
    }
}

/// One live subscription owned by a session: the server-side id plus
/// the forwarder thread streaming its updates onto the socket.
struct LiveSub {
    id: SubscriptionId,
    forwarder: JoinHandle<()>,
}

fn serve_connection(shared: &Shared, stream: &TcpStream) {
    let svc = &shared.svc;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(PatientReader {
        stream,
        shutdown: &shared.shutdown,
    });

    // Session state: prepared statements and subscriptions live exactly
    // as long as the connection. Wire subscription ids are even
    // (client request ids are odd by convention) so a pushed frame's id
    // can never collide with an in-flight request's.
    let mut statements: HashMap<u64, adp_service::Statement<'_>> = HashMap::new();
    let mut next_handle: u64 = 1;
    let mut subs: BTreeMap<u64, LiveSub> = BTreeMap::new();
    let mut next_sub: u64 = 2;

    loop {
        let frame = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // clean close or shutdown
            Err(ProtoError::Io(_)) => break,
            Err(e) => {
                // Framing failure: the stream position is no longer
                // trustworthy. Say why, then close.
                send(
                    &writer,
                    0,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        let id = frame.request_id;
        let request = match Request::decode(frame.opcode, &frame.payload) {
            Ok(req) => req,
            Err(e) => {
                send(
                    &writer,
                    id,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };
        match request {
            Request::Ping => {
                send(&writer, id, &Response::Pong);
            }
            Request::Solve {
                query,
                target,
                budget_micros,
            } => {
                let mut req = SolveRequest {
                    query,
                    target,
                    opts: None,
                    budget: None,
                };
                if budget_micros > 0 {
                    req = req.with_budget(Duration::from_micros(budget_micros));
                }
                match svc.solve(&req) {
                    Ok(resp) => {
                        send(&writer, id, &Response::Solve(resp.into()));
                    }
                    Err(e) => send_service_error(&writer, id, &e),
                }
            }
            Request::Prepare { query } => match svc.prepare(&query) {
                Ok(stmt) => {
                    let handle = next_handle;
                    next_handle += 1;
                    statements.insert(handle, stmt);
                    send(&writer, id, &Response::Prepared { handle });
                }
                Err(e) => send_service_error(&writer, id, &e),
            },
            Request::SolveStmt {
                handle,
                target,
                budget_micros,
            } => match statements.get(&handle) {
                None => send_unknown_handle(&writer, id, handle),
                Some(stmt) => {
                    let budget = (budget_micros > 0).then(|| Duration::from_micros(budget_micros));
                    match stmt.solve_with(target, None, budget) {
                        Ok(resp) => {
                            send(&writer, id, &Response::Solve(resp.into()));
                        }
                        Err(e) => send_service_error(&writer, id, &e),
                    }
                }
            },
            Request::Mutate { delete, entries } => {
                let batch: Vec<(&str, u32)> = entries
                    .iter()
                    .map(|(name, idx)| (name.as_str(), *idx))
                    .collect();
                match svc.apply_logged(&batch, delete, |effective| match &shared.store {
                    None => Ok(()),
                    Some(store) => store
                        .lock()
                        .map_err(|_| PersistError::Io(io::Error::other("log lock poisoned")))?
                        .append_batch(delete, effective),
                }) {
                    Ok(epoch) => {
                        send(&writer, id, &Response::Mutated { epoch });
                    }
                    Err(e) => send_service_error(&writer, id, &e),
                }
            }
            Request::Subscribe {
                handle,
                target,
                buffer,
                projection,
            } => match statements.get(&handle) {
                None => send_unknown_handle(&writer, id, handle),
                Some(stmt) => {
                    let mut opts = SubscribeOptions::default().with_buffer(buffer.max(1) as usize);
                    if let Some(cols) = projection {
                        opts = opts.with_projection(cols.into_iter().map(|c| c as usize).collect());
                    }
                    match svc.subscribe(stmt, target, opts) {
                        Ok((sub_id, rx)) => {
                            let wire_id = next_sub;
                            next_sub += 2;
                            let fwd_writer = Arc::clone(&writer);
                            let forwarder = thread::Builder::new()
                                .name("adp-push".into())
                                .spawn(move || forward_updates(&fwd_writer, wire_id, &rx));
                            match forwarder {
                                Ok(forwarder) => {
                                    subs.insert(
                                        wire_id,
                                        LiveSub {
                                            id: sub_id,
                                            forwarder,
                                        },
                                    );
                                    send(&writer, id, &Response::Subscribed { sub: wire_id });
                                }
                                Err(_) => {
                                    svc.unsubscribe(sub_id);
                                    send(
                                        &writer,
                                        id,
                                        &Response::Error {
                                            code: ErrorCode::Internal,
                                            message: "failed to spawn push forwarder".into(),
                                        },
                                    );
                                }
                            }
                        }
                        Err(e) => send_service_error(&writer, id, &e),
                    }
                }
            },
            Request::Unsubscribe { sub } => {
                let found = match subs.remove(&sub) {
                    None => false,
                    Some(live) => {
                        let found = svc.unsubscribe(live.id);
                        // Dropping the registration closed the channel;
                        // the forwarder drains and exits.
                        let _ = live.forwarder.join();
                        found
                    }
                };
                send(&writer, id, &Response::Unsubscribed { found });
            }
            Request::Stats => {
                send(&writer, id, &Response::Stats(svc.stats()));
            }
            Request::Shutdown => {
                send(&writer, id, &Response::ShutdownAck);
                shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        }
    }

    // Session teardown: deregister subscriptions (closing each channel)
    // and join the forwarders, in subscription-id order.
    for live in std::mem::take(&mut subs).into_values() {
        svc.unsubscribe(live.id);
        let _ = live.forwarder.join();
    }
}

/// Streams one subscription's updates onto the shared socket. An update
/// carrying a [`Lagged`](adp_service::Lagged) marker is preceded by a
/// typed [`ErrorCode::Lagged`] error frame, so thin clients can react
/// to overflow without decoding the update body. Exits when the
/// subscription is dropped or the socket dies.
fn forward_updates(
    writer: &Mutex<TcpStream>,
    wire_id: u64,
    rx: &mpsc::Receiver<adp_service::ViewUpdate>,
) {
    while let Ok(update) = rx.recv() {
        if let Some(lagged) = &update.lagged {
            let warn = Response::Error {
                code: ErrorCode::Lagged,
                message: format!(
                    "{} update(s) dropped on a full buffer",
                    lagged.missed_seqs.len()
                ),
            };
            if !send(writer, wire_id, &warn) {
                return;
            }
        }
        if !send(writer, wire_id, &Response::Push(update)) {
            return;
        }
    }
}

/// Encodes one frame, then writes it under the connection's writer
/// lock. Returns false when the socket is gone (callers stop sending).
fn send(writer: &Mutex<TcpStream>, request_id: u64, response: &Response) -> bool {
    let Ok(frame) = response.to_frame(request_id) else {
        return false;
    };
    let Ok(mut stream) = writer.lock() else {
        return false;
    };
    stream.write_all(&frame).is_ok()
}

fn send_service_error(writer: &Mutex<TcpStream>, id: u64, e: &ServiceError) {
    let code = match e {
        ServiceError::Admission(_) => ErrorCode::Overloaded,
        ServiceError::Query(_) => ErrorCode::Query,
        ServiceError::Solve(_) => ErrorCode::Solve,
        ServiceError::BadRequest(_) => ErrorCode::BadRequest,
        ServiceError::Log(_) => ErrorCode::Internal,
    };
    send(
        writer,
        id,
        &Response::Error {
            code,
            message: e.to_string(),
        },
    );
}

fn send_unknown_handle(writer: &Mutex<TcpStream>, id: u64, handle: u64) {
    send(
        writer,
        id,
        &Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("unknown statement handle {handle} (prepare first)"),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use adp_engine::database::Database;
    use adp_engine::schema::attrs;
    use adp_service::ServiceConfig;
    use std::time::Instant;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R1", attrs(&["A"]), &[&[1], &[2]]);
        db.add_relation("R2", attrs(&["A", "B"]), &[&[1, 1], &[1, 2], &[2, 1]]);
        db.add_relation("R3", attrs(&["B"]), &[&[1], &[2]]);
        db
    }

    fn start(store: Option<Store>) -> Server {
        let svc = Arc::new(Service::new(chain_db()));
        Server::start(svc, store, "127.0.0.1:0", ServerConfig::default()).expect("bind")
    }

    /// Stops `server` on another thread and returns how long it took,
    /// failing instead of hanging if it never returns.
    fn time_stop(server: Server) -> Duration {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let t = Instant::now();
            server.stop();
            let _ = tx.send(t.elapsed());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("stop() must return")
    }

    /// The accept loop blocks in `accept()`; `stop()` still returns
    /// promptly, with no client and with idle clients connected.
    #[test]
    fn stop_wakes_a_blocked_accept() {
        let idle = start(None);
        assert!(time_stop(idle) < Duration::from_secs(2));

        let server = start(None);
        let mut a = Client::connect(server.addr()).expect("connect");
        a.ping().expect("ping");
        let _b = Client::connect(server.addr()).expect("connect");
        assert!(time_stop(server) < Duration::from_secs(2));
        assert!(a.ping().is_err(), "a stopped server closes its sessions");
    }

    /// A client's `Shutdown`, then `wait()`, then `stop()` ends: the
    /// `adp-serverd --smoke` path.
    #[test]
    fn client_shutdown_then_wait_then_stop_ends() {
        let server = start(None);
        let mut c = Client::connect(server.addr()).expect("connect");
        c.shutdown_server().expect("shutdown ack");
        server.wait();
        assert!(server.is_shutting_down());
        assert!(time_stop(server) < Duration::from_secs(2));
    }

    /// A log append that fails reaches the client as an `Internal`
    /// frame, and the epoch stays where it was.
    #[test]
    fn failed_log_append_is_an_internal_error_frame() {
        let dir = std::env::temp_dir().join(format!("adp-server-ro-log-{}", std::process::id()));
        Store::init(&dir, &chain_db(), &ServiceConfig::default()).expect("init");
        let server = start(Some(Store::read_only(&dir).expect("open")));
        let mut c = Client::connect(server.addr()).expect("connect");
        match c.mutate(true, &[("R2", 0)]) {
            Err(ClientError::Server {
                code: ErrorCode::Internal,
                message,
            }) => assert!(message.contains("mutation log"), "{message}"),
            other => panic!("expected an Internal error frame, got {other:?}"),
        }
        let solve = c
            .solve(
                "Q(A,B) :- R1(A), R2(A,B), R3(B)",
                adp_service::Target::Outputs(0),
                None,
            )
            .expect("solve");
        assert_eq!(solve.epoch, 0, "a refused batch must not be visible");
        assert_eq!(solve.outcome.output_count, 3);
        // A no-op batch never reaches the log, so it still succeeds.
        assert_eq!(c.mutate(false, &[("R2", 0)]).expect("no-op restore"), 0);
        drop(c);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
