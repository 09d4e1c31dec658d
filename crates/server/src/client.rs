//! A blocking client for the wire protocol, used by the loopback test
//! suites, the open-loop load generator, and the `--smoke` self-check.
//!
//! One [`Client`] owns one connection. Calls are synchronous: write the
//! request frame, read until the frame echoing its request id arrives.
//! Frames that arrive in between — pushed subscription updates and
//! their [`ErrorCode::Lagged`] warnings — are buffered and drained via
//! [`Client::poll_push`]. Request ids are odd and subscription ids even
//! (the server's convention), so the two can never collide. Frames are
//! read through a buffer, and a poll's timeout only bounds the wait for
//! a frame's first byte, so it can never cut a frame in two.

use crate::protocol::{
    is_timeout, read_frame, resp, write_frame, ErrorCode, Frame, ProtoError, Request, Response,
    WireSolve, MAX_PAYLOAD,
};
use adp_service::{ServiceStats, Target, ViewUpdate};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable kind.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The server answered with a frame of the wrong kind.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "client: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: wanted {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

impl ClientError {
    /// True for a typed [`ErrorCode::Overloaded`] shed.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }
}

/// An event pulled off the push stream.
#[derive(Clone, Debug, PartialEq)]
pub enum PushEvent {
    /// A view diff for the subscription.
    Update(ViewUpdate),
    /// The server warned that this subscription dropped updates.
    Lagged(String),
}

/// The client's read half. A read timeout (set by
/// [`Client::poll_push`]) surfaces as an error only while `give_up` is
/// set, that is while a poll waits for a frame's first byte; every
/// other read rides through it.
struct SocketReader {
    stream: TcpStream,
    give_up: bool,
}

impl Read for SocketReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if !self.give_up && is_timeout(&e) => continue,
                other => return other,
            }
        }
    }
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<SocketReader>,
    /// The socket's read timeout as last set, so it is set only on a
    /// change.
    read_timeout: Option<Duration>,
    next_id: u64,
    /// Push frames that arrived while a call was waiting for its reply.
    pushes: VecDeque<(u64, PushEvent)>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(SocketReader {
            stream: stream.try_clone()?,
            give_up: false,
        });
        Ok(Client {
            stream,
            reader,
            read_timeout: None,
            next_id: 1,
            pushes: VecDeque::new(),
        })
    }

    /// Sends `request` and blocks for its response, buffering any push
    /// frames that arrive first.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 2;
        let (opcode, payload) = request
            .encode()
            .map_err(|e| ClientError::Proto(ProtoError::Wire(e)))?;
        write_frame(&mut self.stream, opcode, id, &payload)?;
        loop {
            let frame = self.next_frame()?;
            let response = Response::decode(frame.opcode, &frame.payload)
                .map_err(|e| ClientError::Proto(ProtoError::Wire(e)))?;
            if frame.request_id == id {
                return match response {
                    Response::Error { code, message } => Err(ClientError::Server { code, message }),
                    other => Ok(other),
                };
            }
            self.buffer_push(frame.request_id, frame.opcode, response);
        }
    }

    fn next_frame(&mut self) -> Result<Frame, ClientError> {
        read_frame(&mut self.reader, MAX_PAYLOAD)?.ok_or_else(|| {
            ClientError::Proto(ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-call",
            )))
        })
    }

    fn buffer_push(&mut self, sub: u64, opcode: u8, response: Response) {
        match response {
            Response::Push(update) => self.pushes.push_back((sub, PushEvent::Update(update))),
            Response::Error {
                code: ErrorCode::Lagged,
                message,
            } if opcode == resp::ERROR => {
                self.pushes.push_back((sub, PushEvent::Lagged(message)));
            }
            // Anything else out-of-band is a protocol violation; drop
            // it rather than wedge the call.
            _ => {}
        }
    }

    /// Returns the next push event, waiting up to `timeout` for one to
    /// arrive on the socket. `Ok(None)` means the timeout elapsed.
    pub fn poll_push(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(u64, PushEvent)>, ClientError> {
        if let Some(ev) = self.pushes.pop_front() {
            return Ok(Some(ev));
        }
        let timeout = Some(timeout.max(Duration::from_millis(1)));
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        // Only the wait for a frame's first byte may time out; once it
        // is buffered, the rest of the frame is read to the end.
        self.reader.get_mut().give_up = true;
        let waited = self.reader.fill_buf().map(|buf| buf.is_empty());
        self.reader.get_mut().give_up = false;
        match waited {
            Ok(false) => {}
            Ok(true) => return Ok(None),
            Err(e) if is_timeout(&e) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let frame = self.next_frame()?;
        let response = Response::decode(frame.opcode, &frame.payload)
            .map_err(|e| ClientError::Proto(ProtoError::Wire(e)))?;
        self.buffer_push(frame.request_id, frame.opcode, response);
        Ok(self.pushes.pop_front())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("pong")),
        }
    }

    /// One-shot solve.
    pub fn solve(
        &mut self,
        query: &str,
        target: Target,
        budget: Option<Duration>,
    ) -> Result<WireSolve, ClientError> {
        let request = Request::Solve {
            query: query.to_string(),
            target,
            budget_micros: budget.map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
        };
        match self.call(&request)? {
            Response::Solve(s) => Ok(s),
            _ => Err(ClientError::Unexpected("solve result")),
        }
    }

    /// Prepares a statement, returning its server-side handle.
    pub fn prepare(&mut self, query: &str) -> Result<u64, ClientError> {
        match self.call(&Request::Prepare {
            query: query.to_string(),
        })? {
            Response::Prepared { handle } => Ok(handle),
            _ => Err(ClientError::Unexpected("statement handle")),
        }
    }

    /// Solves a prepared statement.
    pub fn solve_stmt(
        &mut self,
        handle: u64,
        target: Target,
        budget: Option<Duration>,
    ) -> Result<WireSolve, ClientError> {
        let request = Request::SolveStmt {
            handle,
            target,
            budget_micros: budget.map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
        };
        match self.call(&request)? {
            Response::Solve(s) => Ok(s),
            _ => Err(ClientError::Unexpected("solve result")),
        }
    }

    /// Applies a delete (`delete = true`) or restore batch; returns the
    /// (possibly unchanged) epoch.
    pub fn mutate(&mut self, delete: bool, entries: &[(&str, u32)]) -> Result<u64, ClientError> {
        let request = Request::Mutate {
            delete,
            entries: entries
                .iter()
                .map(|(name, idx)| (name.to_string(), *idx))
                .collect(),
        };
        match self.call(&request)? {
            Response::Mutated { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("epoch")),
        }
    }

    /// Registers a subscription on a prepared statement; pushed frames
    /// are drained via [`poll_push`](Client::poll_push).
    pub fn subscribe(
        &mut self,
        handle: u64,
        target: Target,
        buffer: u32,
        projection: Option<Vec<u32>>,
    ) -> Result<u64, ClientError> {
        let request = Request::Subscribe {
            handle,
            target,
            buffer,
            projection,
        };
        match self.call(&request)? {
            Response::Subscribed { sub } => Ok(sub),
            _ => Err(ClientError::Unexpected("subscription id")),
        }
    }

    /// Cancels a subscription; true when the id was live.
    pub fn unsubscribe(&mut self, sub: u64) -> Result<bool, ClientError> {
        match self.call(&Request::Unsubscribe { sub })? {
            Response::Unsubscribed { found } => Ok(found),
            _ => Err(ClientError::Unexpected("unsubscribe ack")),
        }
    }

    /// Fetches the service counter snapshot.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Asks the server process to shut down.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::Unexpected("shutdown ack")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_frame;
    use adp_service::{DeletionChurn, OutputRow};
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;
    use std::time::Instant;

    /// A poll whose timeout fires after a frame's first bytes arrived
    /// must not lose them: the frame is finished, and the stream stays
    /// in sync for the next one.
    #[test]
    fn poll_timeout_mid_frame_keeps_the_stream_in_sync() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let update = ViewUpdate {
            epoch: 3,
            seq: 0,
            lagged: None,
            outputs_gained: Vec::new(),
            outputs_lost: vec![OutputRow {
                id: 1,
                values: vec![7, 8].into_boxed_slice(),
            }],
            cost_drift: -1,
            deletion_set_churn: DeletionChurn {
                added: Vec::new(),
                removed: Vec::new(),
            },
        };
        let (opcode, payload) = Response::Push(update.clone()).encode().expect("encode");
        let frame = encode_frame(opcode, 2, &payload).expect("frame");
        let peer = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let half = frame.len() / 2;
            s.write_all(&frame[..half]).expect("first half");
            thread::sleep(Duration::from_millis(200));
            s.write_all(&frame[half..]).expect("second half");
            // A whole frame after the split one.
            s.write_all(&frame).expect("second frame");
            s
        });
        let mut client = Client::connect(addr).expect("connect");
        // Wait until the first half is on the socket, so the polls below
        // time out mid-frame rather than before it.
        thread::sleep(Duration::from_millis(50));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 2 && Instant::now() < deadline {
            match client.poll_push(Duration::from_millis(20)) {
                Ok(Some(ev)) => got.push(ev),
                Ok(None) => {}
                Err(e) => panic!("a timed-out poll desynced the stream: {e}"),
            }
        }
        let want = (2, PushEvent::Update(update));
        assert_eq!(got, vec![want.clone(), want]);
        drop(peer.join().expect("peer"));
    }
}
