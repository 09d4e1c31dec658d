//! Codec robustness: the wire decoders against hostile bytes, and the
//! encode/decode round trip for every frame type.
//!
//! * Decoding any payload under any opcode, as a request and as a
//!   response, returns a value or a typed `WireError` and never panics.
//!   The payloads are random bytes, and valid encodings with bytes
//!   flipped, cut off or appended, which reach the inner decoders.
//! * Every accepted payload is the canonical encoding of what it
//!   decodes to (re-encoding gives the same bytes). Stats frames are the
//!   exception: they tolerate a counter count other than their own.
//! * `decode(encode(x)) == x` for every `Request` and `Response`
//!   variant, `Push` included.

use adp_core::solver::AdpOutcome;
use adp_engine::provenance::TupleRef;
use adp_server::protocol::resp;
use adp_server::{ErrorCode, Request, Response, WireSolve};
use adp_service::{DeletionChurn, Lagged, OutputRow, ServiceStats, Target, ViewUpdate};
use proptest::prelude::*;

/// Deterministic value source (splitmix64) for the frame builders: the
/// vendored proptest offers integer strategies only, so each case draws
/// one seed and derives its whole frame from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn len(&mut self) -> usize {
        self.below(5) as usize
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.next() >> 32).unwrap_or(u32::MAX)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn string(&mut self) -> String {
        const CHARS: [char; 8] = ['Q', 'R', '(', ',', ' ', ':', 'é', '∀'];
        (0..self.below(12))
            .map(|_| CHARS[self.below(8) as usize])
            .collect()
    }

    /// Any bit pattern but NaN, which never equals itself.
    fn ratio(&mut self) -> f64 {
        let rho = f64::from_bits(self.next());
        if rho.is_nan() {
            0.5
        } else {
            rho
        }
    }

    fn target(&mut self) -> Target {
        if self.flag() {
            Target::Outputs(self.next())
        } else {
            Target::Ratio(self.ratio())
        }
    }

    fn refs(&mut self) -> Vec<TupleRef> {
        (0..self.len())
            .map(|_| TupleRef::new(self.u32() as usize, self.u32()))
            .collect()
    }

    fn rows(&mut self) -> Vec<OutputRow> {
        (0..self.len())
            .map(|_| OutputRow {
                id: self.u32(),
                values: (0..self.len()).map(|_| self.next()).collect(),
            })
            .collect()
    }

    fn update(&mut self) -> ViewUpdate {
        ViewUpdate {
            epoch: self.next(),
            seq: self.next(),
            lagged: self.flag().then(|| Lagged {
                missed_seqs: (0..self.len()).map(|_| self.next()).collect(),
            }),
            outputs_gained: self.rows(),
            outputs_lost: self.rows(),
            cost_drift: self.next() as i64,
            deletion_set_churn: DeletionChurn {
                added: self.refs(),
                removed: self.refs(),
            },
        }
    }

    fn request(&mut self) -> Request {
        match self.below(9) {
            0 => Request::Ping,
            1 => Request::Solve {
                query: self.string(),
                target: self.target(),
                budget_micros: self.next(),
            },
            2 => Request::Prepare {
                query: self.string(),
            },
            3 => Request::SolveStmt {
                handle: self.next(),
                target: self.target(),
                budget_micros: self.next(),
            },
            4 => Request::Mutate {
                delete: self.flag(),
                entries: (0..self.len())
                    .map(|_| (self.string(), self.u32()))
                    .collect(),
            },
            5 => Request::Subscribe {
                handle: self.next(),
                target: self.target(),
                buffer: self.u32(),
                projection: self
                    .flag()
                    .then(|| (0..self.len()).map(|_| self.u32()).collect()),
            },
            6 => Request::Unsubscribe { sub: self.next() },
            7 => Request::Stats,
            _ => Request::Shutdown,
        }
    }

    fn response(&mut self) -> Response {
        match self.below(10) {
            0 => Response::Pong,
            1 => Response::Solve(WireSolve {
                epoch: self.next(),
                cache_hit: self.flag(),
                plan_micros: self.next(),
                solve_micros: self.next(),
                solver: self.string(),
                outcome: AdpOutcome {
                    cost: self.next(),
                    achieved: self.next(),
                    exact: self.flag(),
                    truncated: self.flag(),
                    output_count: self.next(),
                    solution: self.flag().then(|| self.refs()),
                },
            }),
            2 => Response::Prepared {
                handle: self.next(),
            },
            3 => Response::Mutated { epoch: self.next() },
            4 => Response::Subscribed { sub: self.next() },
            5 => Response::Unsubscribed { found: self.flag() },
            6 => Response::Stats(ServiceStats {
                requests: self.next(),
                cache_hits: self.next(),
                cache_misses: self.next(),
                shed: self.next(),
                epoch_bumps: self.next(),
                invalidated: self.next(),
                evicted: self.next(),
                updates_pushed: self.next(),
                lagged_drops: self.next(),
                shared_delta_applications: self.next(),
                subscriptions_live: self.next(),
                solved: self.next(),
                truncated: self.next(),
                queue_depth_now: self.next(),
                peak_queue_depth: self.next(),
            }),
            7 => Response::ShutdownAck,
            8 => Response::Error {
                code: [
                    ErrorCode::BadRequest,
                    ErrorCode::Query,
                    ErrorCode::Solve,
                    ErrorCode::Overloaded,
                    ErrorCode::Lagged,
                    ErrorCode::Internal,
                ][self.below(6) as usize],
                message: self.string(),
            },
            _ => Response::Push(self.update()),
        }
    }

    /// A hostile payload: random bytes, or a valid encoding with bytes
    /// flipped, cut off or appended.
    fn payload(&mut self) -> Vec<u8> {
        let mut bytes = match self.below(3) {
            0 => return (0..self.below(48)).map(|_| self.next() as u8).collect(),
            1 => self.request().encode().unwrap().1,
            _ => self.response().encode().unwrap().1,
        };
        for _ in 0..=self.below(3) {
            match self.below(3) {
                0 if !bytes.is_empty() => {
                    let i = self.below(bytes.len() as u64) as usize;
                    bytes[i] = self.next() as u8;
                }
                1 => bytes.truncate(self.below(bytes.len() as u64 + 1) as usize),
                _ => bytes.push(self.next() as u8),
            }
        }
        bytes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoding_hostile_payloads_never_panics(seed in 0u64..u64::MAX) {
        let payload = Gen(seed).payload();
        for opcode in 0..=u8::MAX {
            if let Ok(req) = Request::decode(opcode, &payload) {
                prop_assert_eq!(req.encode().unwrap(), (opcode, payload.clone()));
            }
            if let Ok(resp) = Response::decode(opcode, &payload) {
                if opcode != resp::STATS {
                    prop_assert_eq!(resp.encode().unwrap(), (opcode, payload.clone()));
                }
            }
        }
    }

    #[test]
    fn every_frame_round_trips(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let req = g.request();
        let (opcode, payload) = req.encode().unwrap();
        prop_assert_eq!(Request::decode(opcode, &payload).unwrap(), req);
        let resp = g.response();
        let (opcode, payload) = resp.encode().unwrap();
        prop_assert_eq!(Response::decode(opcode, &payload).unwrap(), resp);
    }
}
