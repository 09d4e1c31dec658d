//! Hand-rolled binary (de)serialization for the network front door.
//!
//! The workspace's no-external-deps discipline rules out serde, so the
//! wire layer is built from three small pieces that live here — next to
//! the types they encode — instead of in `adp-server`, so any future
//! front door (a different protocol, a replication log) reuses the same
//! byte layout and the solver types can never drift from their encoding
//! unnoticed:
//!
//! * primitive little-endian writers ([`put_u32`], [`put_str`], …) and
//!   a bounds-checked [`WireReader`] whose every accessor returns a
//!   typed [`WireError`] instead of panicking or truncating;
//! * a [`crc32`] (IEEE, reflected) used by both the protocol's frame
//!   trailer and the persistence layer's record checksums. It is
//!   computed slicing-by-16 (sixteen 256-entry tables built at compile
//!   time, 16 input bytes per step); the polynomial and the output
//!   bits are zlib's, so every frame, log record and snapshot is the
//!   same bytes a byte-at-a-time loop would write;
//! * encode/decode hooks for the solver's response surface:
//!   [`TupleRef`] deletion sets ([`put_tuple_refs`] / [`get_tuple_refs`])
//!   and the full [`AdpOutcome`] ([`put_outcome`] / [`get_outcome`]).
//!
//! Layout conventions, shared by every user: integers are little-endian;
//! strings and lists are `u32`-length-prefixed; options are a `u8`
//! presence tag followed by the value. Decoding is strict — trailing
//! bytes, short buffers, and invalid tags all surface as [`WireError`] —
//! so a corrupted or truncated frame can never be half-read into a
//! plausible value.

use crate::solver::AdpOutcome;
use adp_engine::provenance::TupleRef;
use std::fmt;

/// Decoding failures: what was expected, and where the buffer fell
/// short or held an invalid tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value at `offset` could be read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Byte offset the read started at.
        offset: usize,
    },
    /// A tag byte held a value outside its enum's range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix or count does not fit the remaining buffer (or
    /// the platform's `usize`), so the value it guards cannot exist.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, offset } => {
                write!(f, "wire: buffer truncated reading {what} at byte {offset}")
            }
            WireError::BadTag { what, tag } => {
                write!(f, "wire: invalid tag {tag} for {what}")
            }
            WireError::BadLength { what, len } => {
                write!(f, "wire: implausible length {len} for {what}")
            }
            WireError::BadUtf8 { what } => write!(f, "wire: invalid UTF-8 in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Writers. Infallible except for lengths, which must fit their u32
// prefix — oversized values are a caller bug surfaced as a typed error
// by `len_u32`, never a silent `as` truncation.
// ---------------------------------------------------------------------

/// Converts a collection length to its `u32` wire prefix, or a typed
/// error when it cannot be represented (no `as` truncation).
pub fn len_u32(what: &'static str, len: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError::BadLength {
        what,
        len: len as u64,
    })
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (round-trips NaN
/// payloads byte-exactly).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a `bool` as one byte (0 or 1).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) -> Result<(), WireError> {
    put_u32(buf, len_u32("string", v.len())?);
    buf.extend_from_slice(v.as_bytes());
    Ok(())
}

/// Appends a `u32`-length-prefixed byte blob.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) -> Result<(), WireError> {
    put_u32(buf, len_u32("byte blob", v.len())?);
    buf.extend_from_slice(v);
    Ok(())
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// Bounds-checked sequential reader over a received byte buffer. Every
/// accessor advances the cursor and fails typed instead of panicking.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset (for error reporting by callers).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails unless the buffer was consumed exactly — strict decoders
    /// call this last so trailing garbage is never silently accepted.
    pub fn finish(self, what: &'static str) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::BadLength {
                what,
                len: self.remaining() as u64,
            })
        }
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadLength {
            what,
            len: n as u64,
        })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                what,
                offset: self.pos,
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(what, 1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(what, 2)?;
        // adp-lint note: infallible — take() returned exactly 2 bytes.
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Ok(u16::from_le_bytes(a))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(what, 4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(what, 8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        let b = self.take(what, 8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `bool` byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// Reads a `u32` list/collection count, pre-validating it against
    /// the bytes actually remaining (`min_item_bytes` per element) so a
    /// corrupted count cannot trigger a huge allocation.
    pub fn count(&mut self, what: &'static str, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32(what)? as usize;
        if n.checked_mul(min_item_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(WireError::BadLength {
                what,
                len: n as u64,
            });
        }
        Ok(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.count(what, 1)?;
        let b = self.take(what, n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let n = self.count(what, 1)?;
        self.take(what, n)
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected — the zlib polynomial), slicing-by-16
// (Kounavis & Berry, ISCC 2005): `CRC_TABLES[0]` is the classic
// byte-at-a-time table, and `CRC_TABLES[t][b]` is the crc of byte `b`
// followed by `t` zero bytes, so one step folds 16 input bytes with 16
// independent table reads instead of 16 dependent ones.
// ---------------------------------------------------------------------

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        // adp-lint: allow(truncating-cast) -- i ranges over 0..256, far below u32::MAX.
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE, reflected) of `bytes` — the checksum guarding protocol
/// frames and persistence records against truncation and bit flips.
/// Same polynomial and output bits as zlib's `crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        c = t[15][usize::from(x[0])]
            ^ t[14][usize::from(x[1])]
            ^ t[13][usize::from(x[2])]
            ^ t[12][usize::from(x[3])]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Solver-surface hooks.
// ---------------------------------------------------------------------

/// Encodes a deletion set: count, then `(atom: u32, index: u32)` pairs.
/// The `4 + 8·n` bytes are reserved up front, so a large set grows the
/// buffer once.
pub fn put_tuple_refs(buf: &mut Vec<u8>, refs: &[TupleRef]) -> Result<(), WireError> {
    let n = len_u32("deletion set", refs.len())?;
    buf.reserve(4 + 8 * refs.len());
    put_u32(buf, n);
    let start = buf.len();
    buf.resize(start + 8 * refs.len(), 0);
    for (pair, t) in buf[start..].chunks_exact_mut(8).zip(refs) {
        pair[..4].copy_from_slice(&len_u32("tuple-ref atom", t.atom)?.to_le_bytes());
        pair[4..].copy_from_slice(&t.index.to_le_bytes());
    }
    Ok(())
}

/// Decodes a deletion set written by [`put_tuple_refs`]: the count is
/// checked against the remaining bytes, then the pairs are read from
/// one bounds-checked slice.
pub fn get_tuple_refs(r: &mut WireReader<'_>) -> Result<Vec<TupleRef>, WireError> {
    let n = r.count("deletion set", 8)?;
    let pairs = r.take("tuple-ref pairs", 8 * n)?;
    Ok(pairs
        .chunks_exact(8)
        .map(|p| {
            let atom = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
            let index = u32::from_le_bytes([p[4], p[5], p[6], p[7]]);
            TupleRef::new(atom as usize, index)
        })
        .collect())
}

/// Encodes a full [`AdpOutcome`]: the solver's entire answer surface,
/// so a remote client sees byte-for-byte what an in-process caller
/// would.
pub fn put_outcome(buf: &mut Vec<u8>, out: &AdpOutcome) -> Result<(), WireError> {
    put_u64(buf, out.cost);
    put_u64(buf, out.achieved);
    put_bool(buf, out.exact);
    put_bool(buf, out.truncated);
    put_u64(buf, out.output_count);
    match &out.solution {
        None => put_u8(buf, 0),
        Some(refs) => {
            put_u8(buf, 1);
            put_tuple_refs(buf, refs)?;
        }
    }
    Ok(())
}

/// Decodes an [`AdpOutcome`] written by [`put_outcome`].
pub fn get_outcome(r: &mut WireReader<'_>) -> Result<AdpOutcome, WireError> {
    let cost = r.u64("outcome cost")?;
    let achieved = r.u64("outcome achieved")?;
    let exact = r.bool("outcome exact")?;
    let truncated = r.bool("outcome truncated")?;
    let output_count = r.u64("outcome output_count")?;
    let solution = match r.u8("outcome solution tag")? {
        0 => None,
        1 => Some(get_tuple_refs(r)?),
        tag => {
            return Err(WireError::BadTag {
                what: "outcome solution tag",
                tag,
            })
        }
    };
    Ok(AdpOutcome {
        cost,
        achieved,
        exact,
        truncated,
        output_count,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, 0.25);
        put_bool(&mut buf, true);
        put_str(&mut buf, "héllo").unwrap();
        put_bytes(&mut buf, &[1, 2, 3]).unwrap();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("e").unwrap(), -42);
        assert_eq!(r.f64("f").unwrap(), 0.25);
        assert!(r.bool("g").unwrap());
        assert_eq!(r.str("h").unwrap(), "héllo");
        assert_eq!(r.bytes("i").unwrap(), &[1, 2, 3]);
        r.finish("tail").unwrap();
    }

    #[test]
    fn truncated_buffers_fail_typed_at_every_accessor() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 9);
        let mut r = WireReader::new(&buf[..5]);
        assert_eq!(
            r.u64("value"),
            Err(WireError::Truncated {
                what: "value",
                offset: 0
            })
        );
        // A count that claims more elements than bytes remain.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            r.count("list", 8),
            Err(WireError::BadLength { len: 1000, .. })
        ));
    }

    #[test]
    fn strict_decoding_rejects_trailing_bytes_and_bad_tags() {
        let mut buf = Vec::new();
        put_bool(&mut buf, false);
        put_u8(&mut buf, 3);
        let mut r = WireReader::new(&buf);
        assert!(!r.bool("flag").unwrap());
        assert!(r.clone().finish("frame").is_err());
        assert_eq!(
            r.bool("flag"),
            Err(WireError::BadTag {
                what: "flag",
                tag: 3
            })
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.str("name"), Err(WireError::BadUtf8 { what: "name" }));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors (zlib's crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop the sliced [`crc32`] replaced, kept as
    /// its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..600u32 + 16)
            .map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
            .collect();
        for off in 0..16 {
            for len in 0..=600 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {off}, length {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        #[test]
        fn crc32_matches_bytewise_reference_on_random_buffers(
            buf in (0usize..=4096).prop_flat_map(|len| {
                proptest::collection::vec(0u8..=255, len + 16)
            })
        ) {
            let len = buf.len() - 16;
            for off in 0..16 {
                let s = &buf[off..off + len];
                proptest::prop_assert_eq!(crc32(s), crc32_bytewise(s), "offset {}", off);
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"epoch snapshot payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn outcome_round_trips_both_solution_variants() {
        for solution in [
            None,
            Some(vec![]),
            Some(vec![TupleRef::new(0, 3), TupleRef::new(2, u32::MAX)]),
        ] {
            let out = AdpOutcome {
                cost: 11,
                achieved: 12,
                exact: true,
                truncated: false,
                output_count: 99,
                solution,
            };
            let mut buf = Vec::new();
            put_outcome(&mut buf, &out).unwrap();
            let mut r = WireReader::new(&buf);
            let got = get_outcome(&mut r).unwrap();
            r.finish("outcome").unwrap();
            assert_eq!(got, out);
        }
    }

    #[test]
    fn outcome_decode_rejects_corruption() {
        let out = AdpOutcome {
            cost: 1,
            achieved: 1,
            exact: false,
            truncated: true,
            output_count: 2,
            solution: Some(vec![TupleRef::new(1, 2)]),
        };
        let mut buf = Vec::new();
        put_outcome(&mut buf, &out).unwrap();
        // Truncate anywhere: always a typed error, never a panic.
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(get_outcome(&mut r).is_err(), "cut at {cut} decoded");
        }
        // Corrupt the solution tag.
        let tag_pos = 8 + 8 + 1 + 1 + 8;
        let mut bad = buf.clone();
        bad[tag_pos] = 9;
        let mut r = WireReader::new(&bad);
        assert!(matches!(
            get_outcome(&mut r),
            Err(WireError::BadTag { tag: 9, .. })
        ));
    }
}
