//! The TCP front door: bounded accept loop, per-connection sessions,
//! and the single mutation-ingest thread.
//!
//! Threading model, chosen for a std-only build:
//!
//! * **Accept loop** (one thread): non-blocking accept polled every
//!   ~50 ms against the shutdown flag. Connections over
//!   [`ServerConfig::max_connections`] receive a typed
//!   [`ErrorCode::Overloaded`] frame and are closed — never silently
//!   dropped.
//! * **One reader thread per connection**, owning the session state
//!   (prepared-statement table, live subscriptions). Solves run on the
//!   reader thread; the solver itself fans out on the global
//!   [`adp_runtime`](adp_core) pool, and admission control bounds how
//!   many requests solve concurrently across all connections.
//! * **One writer lock per connection**: responses and pushed
//!   subscription frames share the socket, serialized frame-at-a-time
//!   by a mutex so they never interleave mid-frame.
//! * **One mutation-ingest thread per server** (the Polynesia
//!   discipline: update propagation stays off the analytic path).
//!   Every `Mutate` request from every connection is forwarded to this
//!   thread, which applies the batch through the service's O(Δ) path
//!   and — when the batch was effective — appends it to the
//!   [`crate::persist::Store`]'s mutation log *before* replying,
//!   so the log order always matches the apply order.
//!
//! Per-request deadlines (`budget_micros`) map onto
//! [`AdpOptions::deadline`](adp_core::solver::AdpOptions) inside the
//! service, so an over-budget solve returns a truncated outcome instead
//! of stalling the connection.

use crate::persist::Store;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, ProtoError, Request, Response, WireSolve, MAX_PAYLOAD,
};
use adp_engine::ids::dense_id;
use adp_service::{Service, ServiceError, SolveRequest, SubscribeOptions, SubscriptionId};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
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

/// A mutation job en route to the ingest thread.
struct MutJob {
    delete: bool,
    entries: Vec<(String, u32)>,
    reply: SyncSender<Result<u64, ServiceError>>,
}

/// A running server: owns the accept thread and the shutdown flag.
/// Dropping (or [`stop`](Server::stop)ping) shuts it down and joins
/// every thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `svc`. When `store` is given, every effective
    /// mutation batch is appended to its log before the client sees the
    /// new epoch.
    pub fn start(
        svc: Arc<Service>,
        store: Option<Store>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let (mut_tx, mut_rx) = mpsc::channel::<MutJob>();
        let ingest = {
            let svc = Arc::clone(&svc);
            thread::Builder::new()
                .name("adp-ingest".into())
                .spawn(move || ingest_loop(&svc, store, &mut_rx))?
        };

        let accept = {
            let svc = Arc::clone(&svc);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            thread::Builder::new()
                .name("adp-accept".into())
                .spawn(move || accept_loop(&svc, &listener, &mut_tx, &shutdown, &config))?
        };

        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            ingest: Some(ingest),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown was requested (locally or by a client's
    /// `Shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until shutdown is requested (a client `Shutdown` frame or
    /// another thread calling [`stop`](Server::stop) via a clone of the
    /// flag), polling at a coarse interval.
    pub fn wait(&self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(100));
        }
    }

    /// Requests shutdown and joins the accept, connection, and ingest
    /// threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Applies mutation batches in arrival order and logs effective ones.
/// Exits when every connection (and the accept loop) has dropped its
/// sender.
fn ingest_loop(svc: &Service, mut store: Option<Store>, jobs: &Receiver<MutJob>) {
    let (mut last_epoch, db) = svc.snapshot();
    let slot_of: HashMap<String, u32> = db
        .relations()
        .iter()
        .enumerate()
        .map(|(slot, rel)| (rel.name().to_string(), dense_id(slot, "relation slots")))
        .collect();
    drop(db);
    while let Ok(job) = jobs.recv() {
        let batch: Vec<(&str, u32)> = job
            .entries
            .iter()
            .map(|(name, idx)| (name.as_str(), *idx))
            .collect();
        let result = if job.delete {
            svc.delete_tuples(&batch)
        } else {
            svc.restore_tuples(&batch)
        };
        if let Ok(epoch) = result {
            if epoch > last_epoch {
                last_epoch = epoch;
                if let Some(store) = store.as_mut() {
                    let entries: Vec<(u32, u32)> = job
                        .entries
                        .iter()
                        .filter_map(|(name, idx)| slot_of.get(name).map(|&s| (s, *idx)))
                        .collect();
                    // The batch is already applied; a log failure is a
                    // durability loss, not a serving failure. Surface it
                    // loudly and keep serving.
                    if let Err(e) = store.append_batch(job.delete, &entries) {
                        eprintln!("adp-server: mutation log append failed: {e}");
                    }
                }
            }
        }
        // A dropped reply receiver just means the connection died.
        let _ = job.reply.send(result);
    }
}

fn accept_loop(
    svc: &Arc<Service>,
    listener: &TcpListener,
    mut_tx: &Sender<MutJob>,
    shutdown: &Arc<AtomicBool>,
    config: &ServerConfig,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.retain(|h| !h.is_finished());
                if live.load(Ordering::Relaxed) >= config.max_connections.max(1) {
                    let _ = reject_overloaded(&stream, live.load(Ordering::Relaxed), config);
                    continue;
                }
                live.fetch_add(1, Ordering::Relaxed);
                let svc = Arc::clone(svc);
                let mut_tx = mut_tx.clone();
                let shutdown = Arc::clone(shutdown);
                let conn_live = Arc::clone(&live);
                let config = config.clone();
                let spawned = thread::Builder::new()
                    .name("adp-conn".into())
                    .spawn(move || {
                        let _ = stream.set_nodelay(true);
                        serve_connection(&svc, &stream, &mut_tx, &shutdown, &config);
                        conn_live.fetch_sub(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
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
    if let Ok((opcode, payload)) = response.encode() {
        let mut w = stream;
        let _ = write_frame(&mut w, opcode, 0, &payload);
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
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
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

fn serve_connection(
    svc: &Arc<Service>,
    stream: &TcpStream,
    mut_tx: &Sender<MutJob>,
    shutdown: &Arc<AtomicBool>,
    config: &ServerConfig,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let writer: Arc<Mutex<TcpStream>> = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = PatientReader {
        stream,
        shutdown: shutdown.as_ref(),
    };

    // Session state: prepared statements and subscriptions live exactly
    // as long as the connection. Wire subscription ids are even
    // (client request ids are odd by convention) so a pushed frame's id
    // can never collide with an in-flight request's.
    let mut statements: HashMap<u64, adp_service::Statement<'_>> = HashMap::new();
    let mut next_handle: u64 = 1;
    let mut subs: BTreeMap<u64, LiveSub> = BTreeMap::new();
    let mut next_sub: u64 = 2;

    loop {
        let frame = match read_frame(&mut reader, config.max_frame_bytes) {
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
                        send(&writer, id, &Response::Solve(WireSolve::from(&resp)));
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
                            send(&writer, id, &Response::Solve(WireSolve::from(&resp)));
                        }
                        Err(e) => send_service_error(&writer, id, &e),
                    }
                }
            },
            Request::Mutate { delete, entries } => {
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                let job = MutJob {
                    delete,
                    entries,
                    reply: reply_tx,
                };
                if mut_tx.send(job).is_err() {
                    send(
                        &writer,
                        id,
                        &Response::Error {
                            code: ErrorCode::Internal,
                            message: "mutation ingest is gone".into(),
                        },
                    );
                    continue;
                }
                match reply_rx.recv() {
                    Ok(Ok(epoch)) => {
                        send(&writer, id, &Response::Mutated { epoch });
                    }
                    Ok(Err(e)) => send_service_error(&writer, id, &e),
                    Err(_) => {
                        send(
                            &writer,
                            id,
                            &Response::Error {
                                code: ErrorCode::Internal,
                                message: "mutation ingest died mid-batch".into(),
                            },
                        );
                    }
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
                shutdown.store(true, Ordering::Relaxed);
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

/// Encodes and writes one frame under the connection's writer lock.
/// Returns false when the socket is gone (callers stop sending).
fn send(writer: &Mutex<TcpStream>, request_id: u64, response: &Response) -> bool {
    let Ok((opcode, payload)) = response.encode() else {
        return false;
    };
    let Ok(mut stream) = writer.lock() else {
        return false;
    };
    write_frame(&mut *stream, opcode, request_id, &payload).is_ok()
}

fn send_service_error(writer: &Mutex<TcpStream>, id: u64, e: &ServiceError) {
    let code = match e {
        ServiceError::Admission(_) => ErrorCode::Overloaded,
        ServiceError::Query(_) => ErrorCode::Query,
        ServiceError::Solve(_) => ErrorCode::Solve,
        ServiceError::BadRequest(_) => ErrorCode::BadRequest,
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
