//! Drives a real in-process `adp_server::Server` through client
//! connections: set-up, the closed-loop read phase, the write phase with
//! its push subscriber, and log recovery.

use crate::data::{Batch, Spec, CONNS, PUSH_K, QUERIES};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use adp_core::solver::AdpOutcome;
use adp_server::protocol::{encode_frame, read_frame, MAX_PAYLOAD};
use adp_server::{Client, PushEvent, Request, Response, Server, ServerConfig, Store, WireSolve};
use adp_service::{Service, ServiceConfig, ServiceStats, Target, ViewUpdate};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Subscription buffer: large enough that a run never lags.
const PUSH_BUFFER: u32 = 1 << 16;

/// Pause between batches when no solve follows them. Back to back, the
/// sub-millisecond mutations of a run would all fall into one
/// fraction of a second, and a moment of host noise would move every
/// sample at once; spread over seconds, the medians hold steady.
const THINK: Duration = Duration::from_millis(15);
/// Solves per connection between yardstick samples in the read phase
/// (rounded to whole cycles of the workload's requests, at least one).
const YARDSTICK_SOLVES: usize = 16;
/// Batches between yardstick samples in the write phase.
const YARDSTICK_BATCHES: usize = 4;
/// What one traced solve measured, besides its spans.
#[derive(Clone, Copy, Debug)]
pub struct TraceSample {
    /// Client-observed latency, ns.
    pub latency_ns: u64,
    /// `plan_micros` from the response.
    pub plan_us: u64,
    /// `solve_micros` from the response.
    pub solve_us: u64,
    /// Encoded response payload size.
    pub response_bytes: u64,
}

/// A protocol connection that records a span around each call into the
/// protocol layer, in place of `Client::call`'s single opaque call.
pub struct RawConn {
    stream: TcpStream,
    next_id: u64,
    next_trace: u32,
    /// The spans of every traced solve on this connection.
    pub tracer: Tracer,
    /// One entry per traced solve, in order.
    pub samples: Vec<TraceSample>,
}

impl RawConn {
    fn connect(addr: SocketAddr, origin: Instant) -> Result<RawConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(RawConn {
            stream,
            next_id: 1,
            next_trace: 0,
            tracer: Tracer::new(origin),
            samples: Vec::new(),
        })
    }

    /// An untraced request/response exchange.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 2;
        let (op, payload) = req.encode().map_err(|e| e.to_string())?;
        let frame = encode_frame(op, id, &payload).map_err(|e| e.to_string())?;
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        self.read_reply(id)
    }

    fn read_reply(&mut self, id: u64) -> Result<Response, String> {
        loop {
            let frame = read_frame(&mut self.stream, MAX_PAYLOAD)
                .map_err(|e| e.to_string())?
                .ok_or("server closed the connection")?;
            let resp = Response::decode(frame.opcode, &frame.payload).map_err(|e| e.to_string())?;
            if frame.request_id == id {
                return match resp {
                    Response::Error { code, message } => Err(format!("{code:?}: {message}")),
                    other => Ok(other),
                };
            }
        }
    }

    /// A prepared solve with one span per protocol step. The server's
    /// request decode and response encode run in another thread, so they
    /// are timed by replaying the same calls on the same bytes after the
    /// exchange; together with the response's plan and solve times they
    /// become children of the wire-read span they happened inside.
    fn traced_solve(&mut self, handle: u64, target: Target) -> Result<WireSolve, String> {
        let trace = self.next_trace;
        self.next_trace += 1;
        let id = self.next_id;
        self.next_id += 2;
        let req = Request::SolveStmt {
            handle,
            target,
            budget_micros: 0,
        };
        let tr = &mut self.tracer;
        let t0 = tr.now();
        let root = tr.record(trace, None, "client.call", t0, t0);
        let (op, payload) = req.encode().map_err(|e| e.to_string())?;
        let frame = encode_frame(op, id, &payload).map_err(|e| e.to_string())?;
        let t1 = tr.now();
        tr.record(trace, Some(root), "server.request_encode", t0, t1);
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        let t2 = tr.now();
        tr.record(trace, Some(root), "wire.write", t1, t2);
        let got = read_frame(&mut self.stream, MAX_PAYLOAD)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let t3 = tr.now();
        let read = tr.record(trace, Some(root), "wire.read", t2, t3);
        let resp = Response::decode(got.opcode, &got.payload).map_err(|e| e.to_string())?;
        let t4 = tr.now();
        tr.record(trace, Some(root), "server.response_decode", t3, t4);
        tr.close(root, t4);

        let r0 = Instant::now();
        let decoded = Request::decode(op, &payload).map_err(|e| e.to_string())?;
        let req_decode = r0.elapsed().as_nanos() as u64;
        let r1 = Instant::now();
        let encoded = resp.encode().map_err(|e| e.to_string())?;
        let resp_encode = r1.elapsed().as_nanos() as u64;
        debug_assert_eq!(decoded, req);
        debug_assert_eq!(encoded.1, got.payload);

        let ws = match resp {
            Response::Solve(ws) if got.request_id == id => ws,
            Response::Error { code, message } => return Err(format!("{code:?}: {message}")),
            _ => return Err("unexpected response to a solve".into()),
        };
        let mut at = t2;
        for (name, dur) in [
            ("server.request_decode", req_decode),
            ("service.plan", ws.plan_micros * 1_000),
            ("service.solve", ws.solve_micros * 1_000),
            ("server.response_encode", resp_encode),
        ] {
            tr.record(trace, Some(read), name, at, at + dur);
            at += dur;
        }
        self.samples.push(TraceSample {
            latency_ns: t4 - t0,
            plan_us: ws.plan_micros,
            solve_us: ws.solve_micros,
            response_bytes: got.payload.len() as u64,
        });
        Ok(ws)
    }
}

/// A benchmark connection: the library client, or the traced one.
pub enum Conn {
    /// `adp_server::Client`, as applications use it.
    Plain(Client),
    /// [`RawConn`], for the traced run.
    Traced(RawConn),
}

impl Conn {
    fn prepare(&mut self, query: &str) -> Result<u64, String> {
        match self {
            Conn::Plain(c) => c.prepare(query).map_err(|e| e.to_string()),
            Conn::Traced(c) => match c.roundtrip(&Request::Prepare {
                query: query.to_string(),
            })? {
                Response::Prepared { handle } => Ok(handle),
                _ => Err("unexpected response to a prepare".into()),
            },
        }
    }

    /// Solves a prepared statement. A traced connection records spans
    /// only when `spans` is set, so one pass can interleave traced and
    /// untraced solves on the same server.
    pub fn solve(&mut self, handle: u64, target: Target, spans: bool) -> Result<WireSolve, String> {
        match self {
            Conn::Plain(c) => c
                .solve_stmt(handle, target, None)
                .map_err(|e| e.to_string()),
            Conn::Traced(c) if spans => c.traced_solve(handle, target),
            Conn::Traced(c) => match c.roundtrip(&Request::SolveStmt {
                handle,
                target,
                budget_micros: 0,
            })? {
                Response::Solve(ws) => Ok(ws),
                _ => Err("unexpected response to a solve".into()),
            },
        }
    }

    /// Whether this is a traced connection.
    pub fn is_traced(&self) -> bool {
        matches!(self, Conn::Traced(_))
    }

    fn mutate(&mut self, batch: &Batch) -> Result<u64, String> {
        match self {
            Conn::Plain(c) => c
                .mutate(batch.delete, &batch.entries())
                .map_err(|e| e.to_string()),
            Conn::Traced(c) => match c.roundtrip(&Request::Mutate {
                delete: batch.delete,
                entries: batch
                    .entries()
                    .into_iter()
                    .map(|(r, i)| (r.to_string(), i))
                    .collect(),
            })? {
                Response::Mutated { epoch } => Ok(epoch),
                _ => Err("unexpected response to a mutate".into()),
            },
        }
    }

    /// The service's counters.
    pub fn stats(&mut self) -> Result<ServiceStats, String> {
        match self {
            Conn::Plain(c) => c.stats().map_err(|e| e.to_string()),
            Conn::Traced(c) => match c.roundtrip(&Request::Stats)? {
                Response::Stats(s) => Ok(s),
                _ => Err("unexpected response to stats".into()),
            },
        }
    }

    fn client(&mut self) -> &mut Client {
        match self {
            Conn::Plain(c) => c,
            Conn::Traced(_) => panic!("the push subscriber is always a plain client"),
        }
    }
}

/// Epoch-0 answers seen per cell: the first served outcome of each cell,
/// and how many later ones differed from it. Comparing every answer to
/// the first, and the first to the reference, compares every answer to
/// the reference.
#[derive(Default)]
pub struct SeenAnswers {
    /// Per cell: first outcome served.
    pub first: Vec<Option<AdpOutcome>>,
    /// Human-readable mismatches.
    pub problems: Vec<String>,
}

impl SeenAnswers {
    /// Nothing seen yet, for `cells` cells.
    pub fn new(cells: usize) -> SeenAnswers {
        SeenAnswers {
            first: vec![None; cells],
            problems: Vec::new(),
        }
    }

    fn observe(&mut self, cell: usize, ws: &WireSolve) {
        if ws.epoch != 0 {
            self.problems
                .push(format!("cell {cell}: read at epoch {}, want 0", ws.epoch));
        }
        match &self.first[cell] {
            None => self.first[cell] = Some(ws.outcome.clone()),
            Some(first) if *first == ws.outcome => {}
            Some(_) => self
                .problems
                .push(format!("cell {cell}: answers differ between requests")),
        }
    }

    /// Folds another connection's observations in.
    pub fn merge(&mut self, other: SeenAnswers) {
        self.problems.extend(other.problems);
        for (cell, o) in other.first.into_iter().enumerate() {
            if let Some(o) = o {
                match &self.first[cell] {
                    None => self.first[cell] = Some(o),
                    Some(f) if *f == o => {}
                    Some(_) => self
                        .problems
                        .push(format!("cell {cell}: connections got different answers")),
                }
            }
        }
    }
}

/// A running server with its client connections.
pub struct Live {
    /// The server.
    pub server: Server,
    /// One per client connection; `conns[1]` is the push subscriber of
    /// the write phase.
    pub conns: Vec<Conn>,
    /// `handles[c][q]`: connection `c`'s statement handle for
    /// `QUERIES[q]`, if prepared.
    pub handles: Vec<Vec<Option<u64>>>,
    /// Whether connection 1 holds its subscription yet.
    pub subscribed: bool,
}

/// How the connections of a set-up are made.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Library clients.
    Plain,
    /// Traced solver connections (the subscriber stays a plain client).
    Traced(Instant),
}

/// Builds the workload's server from scratch: datagen, `Store::init`,
/// `Service::with_config` (sealing), `Server::start`, connect, prepare,
/// and warm-up (first plan of every cell, and for `read_write` the
/// subscription). Warm-up answers go to `seen`. Returns the server and
/// the set-up time in seconds.
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    mode: Mode,
    seen: &mut SeenAnswers,
) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let db = crate::data::database(spec.n, seed);
    let config = ServiceConfig::default();
    let store = Store::init(dir, &db, &config).map_err(|e| e.to_string())?;
    let svc = Arc::new(Service::with_config(db, config));
    let server = Server::start(svc, Some(store), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let mut conns = Vec::with_capacity(CONNS);
    for c in 0..CONNS {
        let subscriber = spec.solve_after_batch && c == 1;
        conns.push(match mode {
            Mode::Traced(origin) if !subscriber => Conn::Traced(RawConn::connect(addr, origin)?),
            _ => Conn::Plain(Client::connect(addr).map_err(|e| format!("connect: {e}"))?),
        });
    }
    let mut handles = vec![vec![None; QUERIES.len()]; CONNS];
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut wanted: Vec<usize> = spec.cells.iter().map(|cell| cell.query).collect();
        wanted.push(0);
        for q in wanted {
            if handles[c][q].is_none() {
                handles[c][q] = Some(conn.prepare(QUERIES[q])?);
            }
        }
    }
    let mut live = Live {
        server,
        conns,
        handles,
        subscribed: false,
    };
    // Warm-up: each cell's first (cold) solve, dealt over the
    // connections, so the timed span starts on warm plans.
    for (i, cell) in spec.cells.iter().enumerate() {
        let c = if spec.solve_after_batch { 0 } else { i % CONNS };
        let handle = live.handles[c][cell.query].ok_or("statement not prepared")?;
        seen.observe(i, &live.conns[c].solve(handle, cell.target, true)?);
    }
    if spec.solve_after_batch {
        subscribe(&mut live)?;
    }
    Ok((live, t0.elapsed().as_secs_f64()))
}

fn subscribe(live: &mut Live) -> Result<(), String> {
    let handle = live.handles[1][0].ok_or("statement not prepared")?;
    live.conns[1]
        .client()
        .subscribe(handle, Target::Outputs(PUSH_K), PUSH_BUFFER, None)
        .map_err(|e| e.to_string())?;
    live.subscribed = true;
    Ok(())
}

/// Closes the connections and stops the server, joining its threads.
pub fn teardown(mut live: Live) {
    live.conns.clear();
    live.server.stop();
}

/// Timed solves and failures of one phase.
#[derive(Default)]
pub struct PhaseOut {
    /// Client-observed solve latencies, ms; on a traced connection, of
    /// the solves that recorded spans.
    pub solve_ms: Vec<f64>,
    /// On a traced connection, the latencies of the solves it sent
    /// without spans, interleaved with the traced ones. Empty otherwise.
    pub untraced_ms: Vec<f64>,
    /// Wall time of the phase, first request sent to last answer in,
    /// without the yardstick samples taken inside it.
    pub span_s: f64,
    /// Yardstick samples taken between the phase's operations, ms.
    pub yardstick_ms: Vec<f64>,
    /// Operations attempted (solves and mutations).
    pub attempted: u64,
    /// Operations that failed (typed errors, sheds, transport errors).
    pub failed: u64,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
}

impl PhaseOut {
    fn solved(&mut self, ms: f64, untraced: bool) {
        if untraced {
            self.untraced_ms.push(ms);
        } else {
            self.solve_ms.push(ms);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The closed-loop read phase: every connection cycles through the
/// workload's cells, out of phase with the other, waiting for each
/// answer before sending the next request. The connections start each
/// cycle together: every cycle carries the same work on every
/// connection, so they seldom wait at the start, and each cycle's slow
/// cells overlap much the same cells of the other connection as in the
/// previous cycle and run. Free-running, that overlap drifted from run
/// to run and moved the tail with it. Answers go to `seen`. A traced connection
/// records spans on every other cycle, so traced and untraced solves
/// cover the same cells at the same moments. Every few cycles both
/// connections stop while connection 0 takes a yardstick sample.
pub fn read_phase(
    live: &mut Live,
    spec: &Spec,
    seen: &mut SeenAnswers,
    ys: &Yardstick,
) -> PhaseOut {
    let per_conn = spec.read_ops / CONNS;
    let cells = &spec.cells;
    let ys_cycles = (YARDSTICK_SOLVES / cells.len()).max(1);
    let handles = &live.handles;
    let step = &Barrier::new(CONNS);
    let results: Vec<(PhaseOut, SeenAnswers, Instant, Instant)> = thread::scope(|s| {
        let workers: Vec<_> = live
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut out = PhaseOut::default();
                    let mut seen = SeenAnswers::new(cells.len());
                    let offset = c * cells.len() / CONNS;
                    let start = Instant::now();
                    for i in 0..per_conn {
                        let ci = (i + offset) % cells.len();
                        let cell = cells[ci];
                        if i % cells.len() == 0 {
                            step.wait();
                            if (i / cells.len()).is_multiple_of(ys_cycles) {
                                if c == 0 {
                                    out.yardstick_ms.push(ys.sample());
                                }
                                step.wait();
                            }
                        }
                        let Some(handle) = handles[c][cell.query] else {
                            out.fail("statement not prepared".into());
                            continue;
                        };
                        out.attempted += 1;
                        let spans = (i / cells.len()).is_multiple_of(2);
                        let untraced = conn.is_traced() && !spans;
                        let t = Instant::now();
                        match conn.solve(handle, cell.target, spans) {
                            Ok(ws) => {
                                out.solved(t.elapsed().as_secs_f64() * 1e3, untraced);
                                seen.observe(ci, &ws);
                            }
                            Err(e) => out.fail(e),
                        }
                    }
                    (out, seen, start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("read worker"))
            .collect()
    });
    let start = results.iter().map(|r| r.2).min().expect("connections");
    let end = results.iter().map(|r| r.3).max().expect("connections");
    let mut total = PhaseOut::default();
    for (out, conn_seen, _, _) in results {
        total.yardstick_ms.extend(out.yardstick_ms);
        total.solve_ms.extend(out.solve_ms);
        total.untraced_ms.extend(out.untraced_ms);
        total.attempted += out.attempted;
        total.failed += out.failed;
        total.errors.extend(out.errors);
        seen.merge(conn_seen);
    }
    total.span_s = (end - start).as_secs_f64() - total.yardstick_ms.iter().sum::<f64>() / 1e3;
    total
}

/// Result of the write phase.
#[derive(Default)]
pub struct WriteOut {
    /// Solves after batches (`read_write` only), latencies and failures.
    pub phase: PhaseOut,
    /// `Client::mutate` ack latencies, ms.
    pub mutate_ms: Vec<f64>,
    /// Send-to-push-arrival latencies, ms, one per update received.
    pub push_ms: Vec<f64>,
    /// Epoch acked for each batch.
    pub acked: Vec<u64>,
    /// `(epoch, answer)` of each solve after a batch.
    pub solves: Vec<(u64, AdpOutcome)>,
    /// Pushed updates in arrival order.
    pub updates: Vec<ViewUpdate>,
    /// Lagged warnings received (must stay empty).
    pub lagged: Vec<String>,
    /// The `k = PUSH_K` answer after the last batch: `(epoch, outcome)`.
    pub last_answer: Option<(u64, AdpOutcome)>,
}

/// The write phase: connection 0 sends the batch stream (each batch
/// followed by a `PUSH_K` solve when the workload says so) while
/// connection 1 holds a `PUSH_K` subscription and timestamps each push.
/// Every few batches the writer takes a yardstick sample first.
pub fn write_phase(
    live: &mut Live,
    spec: &Spec,
    stream: &[Batch],
    ys: &Yardstick,
) -> Result<WriteOut, String> {
    if !live.subscribed {
        subscribe(live)?;
    }
    let handle = live.handles[0][0].ok_or("statement not prepared")?;
    let done = AtomicBool::new(false);
    let (writer_conn, rest) = live.conns.split_at_mut(1);
    let writer_conn = &mut writer_conn[0];
    let sub = rest[0].client();
    let mut out = WriteOut::default();
    let (sends, arrivals) = thread::scope(|s| {
        let done = &done;
        let collector = s.spawn(move || {
            let mut got: Vec<(Instant, ViewUpdate)> = Vec::with_capacity(stream.len());
            let mut lagged = Vec::new();
            let mut quiet_since: Option<Instant> = None;
            while got.len() < stream.len() {
                match sub.poll_push(Duration::from_millis(20)) {
                    Ok(Some((_, PushEvent::Update(u)))) => {
                        got.push((Instant::now(), u));
                        quiet_since = None;
                    }
                    Ok(Some((_, PushEvent::Lagged(m)))) => lagged.push(m),
                    Ok(None) => {
                        // Once the writer is done, give stragglers 5 s.
                        if done.load(Ordering::Acquire) {
                            let since = *quiet_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > Duration::from_secs(5) {
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        lagged.push(format!("push stream failed: {e}"));
                        break;
                    }
                }
            }
            (got, lagged)
        });

        let mut sends = Vec::with_capacity(stream.len());
        let start = Instant::now();
        for (i, batch) in stream.iter().enumerate() {
            if i.is_multiple_of(YARDSTICK_BATCHES) {
                out.phase.yardstick_ms.push(ys.sample());
            }
            out.phase.attempted += 1;
            let t = Instant::now();
            sends.push(t);
            match writer_conn.mutate(batch) {
                Ok(epoch) => {
                    out.mutate_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    out.acked.push(epoch);
                }
                Err(e) => out.phase.fail(format!("mutate: {e}")),
            }
            if spec.solve_after_batch {
                out.phase.attempted += 1;
                let spans = i.is_multiple_of(2);
                let untraced = writer_conn.is_traced() && !spans;
                let t = Instant::now();
                match writer_conn.solve(handle, Target::Outputs(PUSH_K), spans) {
                    Ok(ws) => {
                        out.phase.solved(t.elapsed().as_secs_f64() * 1e3, untraced);
                        out.solves.push((ws.epoch, ws.outcome));
                    }
                    Err(e) => out.phase.fail(format!("solve: {e}")),
                }
            } else {
                thread::sleep(THINK);
            }
        }
        out.phase.span_s = start.elapsed().as_secs_f64()
            - out.phase.yardstick_ms.iter().sum::<f64>() / 1e3;
        // The last live answer, outside the timed span.
        out.last_answer = writer_conn
            .solve(handle, Target::Outputs(PUSH_K), false)
            .ok()
            .map(|ws| (ws.epoch, ws.outcome));
        done.store(true, Ordering::Release);
        let (got, lagged) = collector.join().expect("push collector");
        out.lagged = lagged;
        (sends, got)
    });
    let first_epoch = out.acked.first().copied().unwrap_or(1);
    for (at, u) in arrivals {
        let i = u.epoch.checked_sub(first_epoch).map(|i| i as usize);
        match i.and_then(|i| sends.get(i)) {
            Some(sent) => out.push_ms.push((at - *sent).as_secs_f64() * 1e3),
            None => out
                .lagged
                .push(format!("push for unknown epoch {}", u.epoch)),
        }
        out.updates.push(u);
    }
    Ok(out)
}

/// `Store::recover` of `dir`, with its wall time in seconds.
pub fn recover(dir: &Path) -> Result<(adp_server::Recovery, f64), String> {
    let t = Instant::now();
    let rec = Store::recover(dir, ServiceConfig::default()).map_err(|e| e.to_string())?;
    Ok((rec, t.elapsed().as_secs_f64()))
}

/// The `PUSH_K` answer of the recovered service.
pub fn recovered_answer(svc: &Service) -> Result<(u64, AdpOutcome), String> {
    let stmt = svc.prepare(QUERIES[0]).map_err(|e| e.to_string())?;
    let resp = stmt
        .solve(Target::Outputs(PUSH_K))
        .map_err(|e| e.to_string())?;
    Ok((resp.stats.epoch, resp.outcome))
}
