//! The wire protocol: length-prefixed, crc-trailed binary frames.
//!
//! Every message — request, response, or server-push — travels as one
//! frame:
//!
//! ```text
//! ┌────────┬─────────┬────────┬───────┬────────────┬─────────────┬─────────┬───────────┐
//! │ magic  │ version │ opcode │ flags │ request id │ payload len │ payload │ crc32     │
//! │ "ADPW" │ u16     │ u8     │ u8    │ u64        │ u32         │ bytes   │ (payload) │
//! └────────┴─────────┴────────┴───────┴────────────┴─────────────┴─────────┴───────────┘
//!   4B       2B        1B       1B      8B           4B            …         4B
//! ```
//!
//! All integers are little-endian. The client picks the `request id`;
//! the server echoes it on the response, so responses can be matched to
//! in-flight requests in any order. Push frames ([`PUSH`]) reuse the
//! slot for the *subscription* id they belong to. The crc32 (IEEE,
//! [`adp_core::wire::crc32`]) covers the payload only — the fixed
//! header is validated structurally (magic, version, plausible length).
//!
//! Requests and responses are modelled as the [`Request`] / [`Response`]
//! enums with a single encode/decode implementation shared by the
//! server and the [`Client`](crate::client::Client), so the two sides
//! cannot drift. Decoding is strict: unknown opcodes, bad tags, length
//! overruns, and trailing bytes are all typed [`WireError`]s.

use adp_core::solver::AdpOutcome;
use adp_core::wire::{
    self, crc32, len_u32, put_bool, put_i64, put_str, put_u32, put_u64, put_u8, WireError,
    WireReader,
};
use adp_service::{
    DeletionChurn, Lagged, OutputRow, ServiceStats, SolveResponse, Target, ViewUpdate,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `b"ADPW"` (ADP wire).
pub const MAGIC: [u8; 4] = *b"ADPW";
/// Protocol version carried in every frame header.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 4 + 2 + 1 + 1 + 8 + 4;
/// Default cap on a single frame's payload (16 MiB); both sides refuse
/// larger frames instead of allocating unboundedly.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Request opcodes (client → server).
pub mod op {
    /// Liveness probe; responds [`PONG`](super::resp::PONG).
    pub const PING: u8 = 0x01;
    /// One-shot solve of a query text.
    pub const SOLVE: u8 = 0x02;
    /// Prepare a statement; responds with a server-side handle.
    pub const PREPARE: u8 = 0x03;
    /// Solve a prepared statement by handle.
    pub const SOLVE_STMT: u8 = 0x04;
    /// Apply a delete/restore batch of base tuples.
    pub const MUTATE: u8 = 0x05;
    /// Subscribe a prepared statement; pushes flow on the connection.
    pub const SUBSCRIBE: u8 = 0x06;
    /// Cancel a subscription by id.
    pub const UNSUBSCRIBE: u8 = 0x07;
    /// Fetch the service counter snapshot.
    pub const STATS: u8 = 0x08;
    /// Ask the server process to shut down (smoke/test hook).
    pub const SHUTDOWN: u8 = 0x09;
}

/// Response opcodes (server → client). `0xF0`/`0xF1` are out-of-band.
pub mod resp {
    /// Reply to [`PING`](super::op::PING).
    pub const PONG: u8 = 0x81;
    /// A solve result (for both one-shot and prepared solves).
    pub const SOLVE: u8 = 0x82;
    /// A prepared-statement handle.
    pub const PREPARED: u8 = 0x83;
    /// The epoch a mutation batch installed (or left in place).
    pub const MUTATED: u8 = 0x85;
    /// A subscription id; pushes follow as [`PUSH`] frames.
    pub const SUBSCRIBED: u8 = 0x86;
    /// Whether an unsubscribed id was live.
    pub const UNSUBSCRIBED: u8 = 0x87;
    /// A counter snapshot.
    pub const STATS: u8 = 0x88;
    /// Shutdown acknowledged; the server exits after flushing.
    pub const SHUTDOWN: u8 = 0x89;
    /// A typed error; `request id` names the failed request (or the
    /// subscription, for [`ErrorCode::Lagged`](super::ErrorCode)).
    pub const ERROR: u8 = 0xF0;
    /// A pushed [`ViewUpdate`](adp_service::ViewUpdate); `request id`
    /// is the subscription id.
    pub const PUSH: u8 = 0xF1;
}
pub use resp::{ERROR, PUSH};

/// Typed error codes carried by [`resp::ERROR`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or invalid request (unknown handle, bad target, …).
    BadRequest = 1,
    /// The query text failed to parse or validate.
    Query = 2,
    /// The solver failed (infeasible target, over-budget build, …).
    Solve = 3,
    /// Admission control shed the request; retry later.
    Overloaded = 4,
    /// Subscription updates were dropped on a full buffer; the next
    /// push frame names the missed sequence numbers.
    Lagged = 5,
    /// Unexpected server-side failure.
    Internal = 6,
}

impl ErrorCode {
    /// The code's wire tag; [`from_u8`](Self::from_u8) is its inverse.
    fn tag(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Query => 2,
            ErrorCode::Solve => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::Lagged => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Query,
            3 => ErrorCode::Solve,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::Lagged,
            6 => ErrorCode::Internal,
            tag => {
                return Err(WireError::BadTag {
                    what: "error code",
                    tag,
                })
            }
        })
    }
}

/// Anything that can go wrong receiving a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// Structurally invalid payload.
    Wire(WireError),
    /// The stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Version the receiver does not speak.
    BadVersion(u16),
    /// Payload checksum mismatch: the frame was corrupted in flight.
    Crc {
        /// Checksum the sender wrote.
        expected: u32,
        /// Checksum of the bytes received.
        got: u32,
    },
    /// Declared payload length above the receiver's cap.
    TooLarge(u32),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol: io: {e}"),
            ProtoError::Wire(e) => write!(f, "protocol: {e}"),
            ProtoError::BadMagic(m) => write!(f, "protocol: bad magic {m:?}"),
            ProtoError::BadVersion(v) => write!(f, "protocol: unsupported version {v}"),
            ProtoError::Crc { expected, got } => {
                write!(
                    f,
                    "protocol: payload crc mismatch ({expected:#x} vs {got:#x})"
                )
            }
            ProtoError::TooLarge(n) => write!(f, "protocol: payload of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

/// One received frame, header fields unpacked and payload crc-verified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The opcode byte (see [`op`] / [`resp`]).
    pub opcode: u8,
    /// Echoed request id (subscription id for [`resp::PUSH`]).
    pub request_id: u64,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Serializes one frame into a fresh buffer (header, payload, crc).
pub fn encode_frame(opcode: u8, request_id: u64, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    build_frame(request_id, payload.len(), |buf| {
        buf.extend_from_slice(payload);
        Ok(opcode)
    })
}

/// Builds one frame in a single buffer: the header, then the payload
/// that `fill` appends in place (returning its opcode), then the crc.
/// `capacity` is the expected payload size, reserved up front.
fn build_frame(
    request_id: u64,
    capacity: usize,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<u8, WireError>,
) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + capacity + 4);
    buf.extend_from_slice(&MAGIC);
    wire::put_u16(&mut buf, VERSION);
    put_u8(&mut buf, 0); // opcode, set once `fill` returns it
    put_u8(&mut buf, 0); // flags, reserved
    put_u64(&mut buf, request_id);
    put_u32(&mut buf, 0); // payload len, set once the payload is in
    buf[6] = fill(&mut buf)?;
    let len = len_u32("frame payload", buf.len() - HEADER_LEN)?;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&buf[HEADER_LEN..]);
    put_u32(&mut buf, crc);
    Ok(buf)
}

/// Writes one frame to `w` as a single `write_all` (callers serialize
/// concurrent writers; frames must not interleave).
pub fn write_frame(
    w: &mut impl Write,
    opcode: u8,
    request_id: u64,
    payload: &[u8],
) -> Result<(), ProtoError> {
    let buf =
        encode_frame(opcode, request_id, payload).map_err(|_| ProtoError::TooLarge(u32::MAX))?;
    w.write_all(&buf)?;
    Ok(())
}

/// True for the errors a socket read returns when its read timeout
/// fires (or a signal interrupts it): nothing was read, so the read can
/// be retried without losing bytes.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Reads one frame from `r`, verifying magic, version, length cap, and
/// payload crc. Returns `Ok(None)` on a clean EOF *at a frame boundary*
/// (the peer closed between frames); EOF mid-frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Frame>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte decides clean-EOF vs mid-frame-EOF.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r, max_payload),
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])?;
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(ProtoError::BadMagic(m));
    }
    let mut rd = WireReader::new(&header[4..]);
    let version = rd.u16("frame version")?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let opcode = rd.u8("frame opcode")?;
    let _flags = rd.u8("frame flags")?;
    let request_id = rd.u64("frame request id")?;
    let len = rd.u32("frame payload len")?;
    if len > max_payload {
        return Err(ProtoError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let expected = u32::from_le_bytes(trailer);
    let got = crc32(&payload);
    if expected != got {
        return Err(ProtoError::Crc { expected, got });
    }
    Ok(Some(Frame {
        opcode,
        request_id,
        payload,
    }))
}

// ---------------------------------------------------------------------
// Shared sub-encodings.
// ---------------------------------------------------------------------

fn put_target(buf: &mut Vec<u8>, target: Target) {
    match target {
        Target::Outputs(k) => {
            put_u8(buf, 0);
            put_u64(buf, k);
        }
        Target::Ratio(rho) => {
            put_u8(buf, 1);
            wire::put_f64(buf, rho);
        }
    }
}

fn get_target(r: &mut WireReader<'_>) -> Result<Target, WireError> {
    match r.u8("target tag")? {
        0 => Ok(Target::Outputs(r.u64("target outputs")?)),
        1 => Ok(Target::Ratio(r.f64("target ratio")?)),
        tag => Err(WireError::BadTag {
            what: "target tag",
            tag,
        }),
    }
}

fn put_rows(buf: &mut Vec<u8>, rows: &[OutputRow]) -> Result<(), WireError> {
    put_u32(buf, len_u32("output rows", rows.len())?);
    for row in rows {
        put_u32(buf, row.id);
        put_u32(buf, len_u32("row values", row.values.len())?);
        for &v in row.values.iter() {
            put_u64(buf, v);
        }
    }
    Ok(())
}

fn get_rows(r: &mut WireReader<'_>) -> Result<Vec<OutputRow>, WireError> {
    let n = r.count("output rows", 8)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32("row id")?;
        let m = r.count("row values", 8)?;
        let mut values = Vec::with_capacity(m);
        for _ in 0..m {
            values.push(r.u64("row value")?);
        }
        rows.push(OutputRow {
            id,
            values: values.into_boxed_slice(),
        });
    }
    Ok(rows)
}

/// Encodes a pushed [`ViewUpdate`] (the [`resp::PUSH`] payload).
pub fn put_update(buf: &mut Vec<u8>, u: &ViewUpdate) -> Result<(), WireError> {
    put_u64(buf, u.epoch);
    put_u64(buf, u.seq);
    match &u.lagged {
        None => put_u8(buf, 0),
        Some(l) => {
            put_u8(buf, 1);
            put_u32(buf, len_u32("missed seqs", l.missed_seqs.len())?);
            for &s in &l.missed_seqs {
                put_u64(buf, s);
            }
        }
    }
    put_rows(buf, &u.outputs_gained)?;
    put_rows(buf, &u.outputs_lost)?;
    put_i64(buf, u.cost_drift);
    wire::put_tuple_refs(buf, &u.deletion_set_churn.added)?;
    wire::put_tuple_refs(buf, &u.deletion_set_churn.removed)?;
    Ok(())
}

/// Decodes a pushed [`ViewUpdate`] written by [`put_update`].
pub fn get_update(r: &mut WireReader<'_>) -> Result<ViewUpdate, WireError> {
    let epoch = r.u64("update epoch")?;
    let seq = r.u64("update seq")?;
    let lagged = match r.u8("lagged tag")? {
        0 => None,
        1 => {
            let n = r.count("missed seqs", 8)?;
            let mut missed_seqs = Vec::with_capacity(n);
            for _ in 0..n {
                missed_seqs.push(r.u64("missed seq")?);
            }
            Some(Lagged { missed_seqs })
        }
        tag => {
            return Err(WireError::BadTag {
                what: "lagged tag",
                tag,
            })
        }
    };
    let outputs_gained = get_rows(r)?;
    let outputs_lost = get_rows(r)?;
    let cost_drift = r.i64("cost drift")?;
    let added = wire::get_tuple_refs(r)?;
    let removed = wire::get_tuple_refs(r)?;
    Ok(ViewUpdate {
        epoch,
        seq,
        lagged,
        outputs_gained,
        outputs_lost,
        cost_drift,
        deletion_set_churn: DeletionChurn { added, removed },
    })
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One-shot solve; `budget_micros == 0` means no deadline.
    Solve {
        /// Query text.
        query: String,
        /// Removal target.
        target: Target,
        /// Wall-clock budget in µs, mapped onto `AdpOptions::deadline`.
        budget_micros: u64,
    },
    /// Prepare a statement for repeated solving/subscribing.
    Prepare {
        /// Query text.
        query: String,
    },
    /// Solve a previously prepared statement.
    SolveStmt {
        /// Handle from a [`Response::Prepared`].
        handle: u64,
        /// Removal target.
        target: Target,
        /// Wall-clock budget in µs, 0 = none.
        budget_micros: u64,
    },
    /// Apply a delete (`delete == true`) or restore batch of base
    /// tuples, named by `(relation, base index)`.
    Mutate {
        /// Delete vs restore.
        delete: bool,
        /// The batch entries.
        entries: Vec<(String, u32)>,
    },
    /// Register a push subscription on a prepared statement.
    Subscribe {
        /// Handle from a [`Response::Prepared`].
        handle: u64,
        /// Removal target to track.
        target: Target,
        /// Bounded buffer size (server clamps to ≥ 1).
        buffer: u32,
        /// Optional head-column projection.
        projection: Option<Vec<u32>>,
    },
    /// Cancel a subscription.
    Unsubscribe {
        /// Id from a [`Response::Subscribed`].
        sub: u64,
    },
    /// Fetch the service counter snapshot.
    Stats,
    /// Ask the server to exit (smoke/test hook).
    Shutdown,
}

impl Request {
    /// Encodes to `(opcode, payload)`.
    pub fn encode(&self) -> Result<(u8, Vec<u8>), WireError> {
        let mut buf = Vec::new();
        let opcode = match self {
            Request::Ping => op::PING,
            Request::Solve {
                query,
                target,
                budget_micros,
            } => {
                put_str(&mut buf, query)?;
                put_target(&mut buf, *target);
                put_u64(&mut buf, *budget_micros);
                op::SOLVE
            }
            Request::Prepare { query } => {
                put_str(&mut buf, query)?;
                op::PREPARE
            }
            Request::SolveStmt {
                handle,
                target,
                budget_micros,
            } => {
                put_u64(&mut buf, *handle);
                put_target(&mut buf, *target);
                put_u64(&mut buf, *budget_micros);
                op::SOLVE_STMT
            }
            Request::Mutate { delete, entries } => {
                put_bool(&mut buf, *delete);
                put_u32(&mut buf, len_u32("mutation batch", entries.len())?);
                for (name, idx) in entries {
                    put_str(&mut buf, name)?;
                    put_u32(&mut buf, *idx);
                }
                op::MUTATE
            }
            Request::Subscribe {
                handle,
                target,
                buffer,
                projection,
            } => {
                put_u64(&mut buf, *handle);
                put_target(&mut buf, *target);
                put_u32(&mut buf, *buffer);
                match projection {
                    None => put_u8(&mut buf, 0),
                    Some(cols) => {
                        put_u8(&mut buf, 1);
                        put_u32(&mut buf, len_u32("projection", cols.len())?);
                        for &c in cols {
                            put_u32(&mut buf, c);
                        }
                    }
                }
                op::SUBSCRIBE
            }
            Request::Unsubscribe { sub } => {
                put_u64(&mut buf, *sub);
                op::UNSUBSCRIBE
            }
            Request::Stats => op::STATS,
            Request::Shutdown => op::SHUTDOWN,
        };
        Ok((opcode, buf))
    }

    /// Decodes a request payload for `opcode` (strict: trailing bytes
    /// are rejected).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let req = match opcode {
            op::PING => Request::Ping,
            op::SOLVE => Request::Solve {
                query: r.str("solve query")?,
                target: get_target(&mut r)?,
                budget_micros: r.u64("solve budget")?,
            },
            op::PREPARE => Request::Prepare {
                query: r.str("prepare query")?,
            },
            op::SOLVE_STMT => Request::SolveStmt {
                handle: r.u64("statement handle")?,
                target: get_target(&mut r)?,
                budget_micros: r.u64("solve budget")?,
            },
            op::MUTATE => {
                let delete = r.bool("mutate op")?;
                let n = r.count("mutation batch", 8)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str("relation name")?;
                    let idx = r.u32("tuple index")?;
                    entries.push((name, idx));
                }
                Request::Mutate { delete, entries }
            }
            op::SUBSCRIBE => {
                let handle = r.u64("statement handle")?;
                let target = get_target(&mut r)?;
                let buffer = r.u32("subscribe buffer")?;
                let projection = match r.u8("projection tag")? {
                    0 => None,
                    1 => {
                        let n = r.count("projection", 4)?;
                        let mut cols = Vec::with_capacity(n);
                        for _ in 0..n {
                            cols.push(r.u32("projection column")?);
                        }
                        Some(cols)
                    }
                    tag => {
                        return Err(WireError::BadTag {
                            what: "projection tag",
                            tag,
                        })
                    }
                };
                Request::Subscribe {
                    handle,
                    target,
                    buffer,
                    projection,
                }
            }
            op::UNSUBSCRIBE => Request::Unsubscribe {
                sub: r.u64("subscription id")?,
            },
            op::STATS => Request::Stats,
            op::SHUTDOWN => Request::Shutdown,
            tag => {
                return Err(WireError::BadTag {
                    what: "request opcode",
                    tag,
                })
            }
        };
        r.finish("request payload")?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// A solve result as it travels the wire: the request-level stats plus
/// the full [`AdpOutcome`], byte-identical to the in-process answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSolve {
    /// Epoch the solve ran against.
    pub epoch: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Microseconds spent planning.
    pub plan_micros: u64,
    /// Microseconds spent solving.
    pub solve_micros: u64,
    /// Solver label ("trivial", "exact", "greedy", "drastic-greedy").
    pub solver: String,
    /// The solver's full answer.
    pub outcome: AdpOutcome,
}

impl From<SolveResponse> for WireSolve {
    /// Moves the answer over: the deletion set is not copied.
    fn from(resp: SolveResponse) -> Self {
        WireSolve {
            epoch: resp.stats.epoch,
            cache_hit: resp.stats.cache_hit,
            plan_micros: resp.stats.plan_micros,
            solve_micros: resp.stats.solve_micros,
            solver: resp.stats.solver.to_string(),
            outcome: resp.outcome,
        }
    }
}

/// The counter-snapshot order on the wire. Encoded count-prefixed so a
/// newer server can append counters without breaking older clients.
const STATS_FIELDS: usize = 15;

fn put_stats(buf: &mut Vec<u8>, s: &ServiceStats) -> Result<(), WireError> {
    put_u32(buf, len_u32("stats fields", STATS_FIELDS)?);
    for v in [
        s.requests,
        s.cache_hits,
        s.cache_misses,
        s.shed,
        s.epoch_bumps,
        s.invalidated,
        s.evicted,
        s.updates_pushed,
        s.lagged_drops,
        s.shared_delta_applications,
        s.subscriptions_live,
        s.solved,
        s.truncated,
        s.queue_depth_now,
        s.peak_queue_depth,
    ] {
        put_u64(buf, v);
    }
    Ok(())
}

fn get_stats(r: &mut WireReader<'_>) -> Result<ServiceStats, WireError> {
    let n = r.count("stats fields", 8)?;
    let mut fields = [0u64; STATS_FIELDS];
    for i in 0..n {
        let v = r.u64("stats field")?;
        if let Some(slot) = fields.get_mut(i) {
            *slot = v; // unknown trailing counters are skipped
        }
    }
    Ok(ServiceStats {
        requests: fields[0],
        cache_hits: fields[1],
        cache_misses: fields[2],
        shed: fields[3],
        epoch_bumps: fields[4],
        invalidated: fields[5],
        evicted: fields[6],
        updates_pushed: fields[7],
        lagged_drops: fields[8],
        shared_delta_applications: fields[9],
        subscriptions_live: fields[10],
        solved: fields[11],
        truncated: fields[12],
        queue_depth_now: fields[13],
        peak_queue_depth: fields[14],
    })
}

/// A decoded server response (or push).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A solve result.
    Solve(WireSolve),
    /// A prepared-statement handle.
    Prepared {
        /// Use in [`Request::SolveStmt`] / [`Request::Subscribe`].
        handle: u64,
    },
    /// The epoch after a mutation batch.
    Mutated {
        /// New (or unchanged, for no-op batches) epoch.
        epoch: u64,
    },
    /// A registered subscription.
    Subscribed {
        /// Id for [`Request::Unsubscribe`]; push frames carry it as
        /// their request id.
        sub: u64,
    },
    /// Reply to [`Request::Unsubscribe`].
    Unsubscribed {
        /// Whether the id was live.
        found: bool,
    },
    /// A counter snapshot.
    Stats(ServiceStats),
    /// Shutdown acknowledged.
    ShutdownAck,
    /// A typed failure.
    Error {
        /// Machine-readable kind.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A pushed [`ViewUpdate`] (frame request id = subscription id).
    Push(ViewUpdate),
}

impl Response {
    /// Encodes to `(opcode, payload)`.
    pub fn encode(&self) -> Result<(u8, Vec<u8>), WireError> {
        let mut buf = Vec::new();
        let opcode = self.encode_into(&mut buf)?;
        Ok((opcode, buf))
    }

    /// Encodes the whole frame for `request_id` in one buffer: the same
    /// bytes as [`encode_frame`] of [`encode`](Self::encode)'s output,
    /// without copying the payload a second time.
    pub fn to_frame(&self, request_id: u64) -> Result<Vec<u8>, WireError> {
        // A solve's fixed fields take 60 bytes, its label and deletion
        // set the rest; other responses are small.
        let capacity = match self {
            Response::Solve(s) => {
                64 + s.solver.len() + 8 * s.outcome.solution.as_ref().map_or(0, Vec::len)
            }
            _ => 64,
        };
        build_frame(request_id, capacity, |buf| self.encode_into(buf))
    }

    /// Appends the payload to `buf` and returns the opcode.
    fn encode_into(&self, buf: &mut Vec<u8>) -> Result<u8, WireError> {
        let opcode = match self {
            Response::Pong => resp::PONG,
            Response::Solve(s) => {
                put_u64(buf, s.epoch);
                put_bool(buf, s.cache_hit);
                put_u64(buf, s.plan_micros);
                put_u64(buf, s.solve_micros);
                put_str(buf, &s.solver)?;
                wire::put_outcome(buf, &s.outcome)?;
                resp::SOLVE
            }
            Response::Prepared { handle } => {
                put_u64(buf, *handle);
                resp::PREPARED
            }
            Response::Mutated { epoch } => {
                put_u64(buf, *epoch);
                resp::MUTATED
            }
            Response::Subscribed { sub } => {
                put_u64(buf, *sub);
                resp::SUBSCRIBED
            }
            Response::Unsubscribed { found } => {
                put_bool(buf, *found);
                resp::UNSUBSCRIBED
            }
            Response::Stats(s) => {
                put_stats(buf, s)?;
                resp::STATS
            }
            Response::ShutdownAck => resp::SHUTDOWN,
            Response::Error { code, message } => {
                put_u8(buf, code.tag());
                put_str(buf, message)?;
                resp::ERROR
            }
            Response::Push(update) => {
                put_update(buf, update)?;
                resp::PUSH
            }
        };
        Ok(opcode)
    }

    /// Decodes a response payload for `opcode` (strict).
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        let resp = match opcode {
            resp::PONG => Response::Pong,
            resp::SOLVE => Response::Solve(WireSolve {
                epoch: r.u64("solve epoch")?,
                cache_hit: r.bool("cache hit")?,
                plan_micros: r.u64("plan micros")?,
                solve_micros: r.u64("solve micros")?,
                solver: r.str("solver label")?,
                outcome: wire::get_outcome(&mut r)?,
            }),
            resp::PREPARED => Response::Prepared {
                handle: r.u64("statement handle")?,
            },
            resp::MUTATED => Response::Mutated {
                epoch: r.u64("epoch")?,
            },
            resp::SUBSCRIBED => Response::Subscribed {
                sub: r.u64("subscription id")?,
            },
            resp::UNSUBSCRIBED => Response::Unsubscribed {
                found: r.bool("found")?,
            },
            resp::STATS => Response::Stats(get_stats(&mut r)?),
            resp::SHUTDOWN => Response::ShutdownAck,
            resp::ERROR => Response::Error {
                code: ErrorCode::from_u8(r.u8("error code")?)?,
                message: r.str("error message")?,
            },
            resp::PUSH => Response::Push(get_update(&mut r)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "response opcode",
                    tag,
                })
            }
        };
        r.finish("response payload")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_engine::provenance::TupleRef;

    fn sample_update() -> ViewUpdate {
        ViewUpdate {
            epoch: 7,
            seq: 3,
            lagged: Some(Lagged {
                missed_seqs: vec![1, 2],
            }),
            outputs_gained: vec![OutputRow {
                id: 4,
                values: vec![10, 20].into_boxed_slice(),
            }],
            outputs_lost: vec![OutputRow {
                id: 0,
                values: Vec::new().into_boxed_slice(),
            }],
            cost_drift: -2,
            deletion_set_churn: DeletionChurn {
                added: vec![TupleRef::new(0, 5)],
                removed: vec![TupleRef::new(1, 9)],
            },
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Ping,
            Request::Solve {
                query: "Q(A) :- R(A)".into(),
                target: Target::Ratio(0.5),
                budget_micros: 1500,
            },
            Request::Prepare {
                query: "Q(A,B) :- R(A), S(A,B)".into(),
            },
            Request::SolveStmt {
                handle: 3,
                target: Target::Outputs(9),
                budget_micros: 0,
            },
            Request::Mutate {
                delete: true,
                entries: vec![("R".into(), 0), ("S".into(), 41)],
            },
            Request::Subscribe {
                handle: 3,
                target: Target::Outputs(1),
                buffer: 16,
                projection: Some(vec![1, 0]),
            },
            Request::Subscribe {
                handle: 4,
                target: Target::Ratio(1.0),
                buffer: 64,
                projection: None,
            },
            Request::Unsubscribe { sub: 12 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let (opcode, payload) = req.encode().unwrap();
            assert_eq!(Request::decode(opcode, &payload).unwrap(), req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Pong,
            Response::Solve(WireSolve {
                epoch: 2,
                cache_hit: true,
                plan_micros: 11,
                solve_micros: 22,
                solver: "greedy".into(),
                outcome: AdpOutcome {
                    cost: 3,
                    achieved: 4,
                    exact: false,
                    truncated: true,
                    output_count: 10,
                    solution: Some(vec![TupleRef::new(2, 7)]),
                },
            }),
            Response::Prepared { handle: 5 },
            Response::Mutated { epoch: 9 },
            Response::Subscribed { sub: 6 },
            Response::Unsubscribed { found: false },
            Response::Stats(ServiceStats {
                requests: 1,
                shed: 2,
                solved: 3,
                truncated: 4,
                queue_depth_now: 5,
                peak_queue_depth: 6,
                ..Default::default()
            }),
            Response::ShutdownAck,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "82 in flight, limit 64".into(),
            },
            Response::Push(sample_update()),
        ];
        for resp in responses {
            let (opcode, payload) = resp.encode().unwrap();
            assert_eq!(Response::decode(opcode, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let (opcode, payload) = Request::Solve {
            query: "Q(A) :- R(A)".into(),
            target: Target::Outputs(2),
            budget_micros: 0,
        }
        .encode()
        .unwrap();
        let bytes = encode_frame(opcode, 42, &payload).unwrap();

        let frame = read_frame(&mut &bytes[..], MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!((frame.opcode, frame.request_id), (opcode, 42));
        assert_eq!(frame.payload, payload);

        // Clean EOF at a boundary is None, not an error.
        assert!(read_frame(&mut &[][..], MAX_PAYLOAD).unwrap().is_none());
        // EOF mid-frame is an UnexpectedEof error.
        assert!(matches!(
            read_frame(&mut &bytes[..bytes.len() - 3], MAX_PAYLOAD),
            Err(ProtoError::Io(_))
        ));
        // A payload bit flip is caught by the crc.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 2] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &corrupt[..], MAX_PAYLOAD),
            Err(ProtoError::Crc { .. })
        ));
        // Bad magic and foreign versions are refused before any alloc.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..], MAX_PAYLOAD),
            Err(ProtoError::BadMagic(_))
        ));
        let mut newer = bytes.clone();
        newer[4] = 0xFF;
        assert!(matches!(
            read_frame(&mut &newer[..], MAX_PAYLOAD),
            Err(ProtoError::BadVersion(_))
        ));
        // A declared length above the cap is refused up front.
        assert!(matches!(
            read_frame(&mut &bytes[..], 4),
            Err(ProtoError::TooLarge(_))
        ));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One `Solve` response frame, byte for byte: the header, the payload
    /// layout and the crc trailer are all pinned.
    #[test]
    fn solve_frame_bytes_are_pinned() {
        let resp = Response::Solve(WireSolve {
            epoch: 3,
            cache_hit: true,
            plan_micros: 5,
            solve_micros: 700,
            solver: "greedy".into(),
            outcome: AdpOutcome {
                cost: 3,
                achieved: 9,
                exact: false,
                truncated: false,
                output_count: 40,
                solution: Some(vec![
                    TupleRef::new(0, 4),
                    TupleRef::new(1, 0x0102_0304),
                    TupleRef::new(2, u32::MAX),
                ]),
            },
        });
        let (opcode, payload) = resp.encode().unwrap();
        let frame = encode_frame(opcode, 0x1122_3344_5566_7788, &payload).unwrap();
        assert_eq!(resp.to_frame(0x1122_3344_5566_7788).unwrap(), frame);
        assert_eq!(hex(&frame), "414450570100820088776655443322115a0000000300000000000000010500000000000000bc0200000000000006000000677265656479030000000000000009000000000000000000280000000000000001030000000000000004000000010000000403020102000000ffffffffd09282ec");
        let got = read_frame(&mut &frame[..], MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(got.request_id, 0x1122_3344_5566_7788);
        assert_eq!(Response::decode(got.opcode, &got.payload).unwrap(), resp);
    }

    #[test]
    fn stats_decoding_tolerates_future_extra_counters() {
        let s = ServiceStats {
            requests: 100,
            peak_queue_depth: 8,
            ..Default::default()
        };
        let mut buf = Vec::new();
        put_stats(&mut buf, &s).unwrap();
        // A future server appends one more counter and bumps the count.
        let n = STATS_FIELDS as u32 + 1;
        buf[..4].copy_from_slice(&n.to_le_bytes());
        put_u64(&mut buf, 999);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_stats(&mut r).unwrap(), s);
        r.finish("stats").unwrap();
    }
}
