//! Snapshot persistence and log recovery.
//!
//! A store directory holds exactly two files:
//!
//! * **`snapshot.adp`** — the epoch-0 base database (every relation's
//!   schema and rows) plus the two [`ServiceConfig`] knobs that shape
//!   physical layout (`segment_target_rows`, `compact_tombstone_pct`),
//!   written once at [`Store::init`]. Versioned, length-prefixed, and
//!   crc-trailed; written to a temp file and atomically renamed so a
//!   crash mid-init never leaves a torn snapshot.
//! * **`wal.adp`** — the mutation log: one crc-checked record per
//!   *effective* batch (batches that bumped the epoch), carrying the
//!   delete/restore flag and the `(relation slot, base index)` pairs in
//!   stable base coordinates.
//!
//! [`Store::recover`] loads the snapshot, rebuilds the [`Service`] with
//! the persisted layout knobs (so compaction decisions — and therefore
//! snapshot-coordinate answers — replay identically), and replays the
//! longest valid log prefix through the service's ordinary O(Δ)
//! [`delete_tuples`](Service::delete_tuples) /
//! [`restore_tuples`](Service::restore_tuples) path. Replay never
//! re-ingests or re-sorts anything: each record is one epoch bump, so a
//! recovered server resumes at exactly the pre-crash epoch. A truncated
//! or bit-flipped tail is detected by record crc / length framing;
//! recovery stops at the last valid record, truncates the garbage, and
//! reports it — later appends extend the *valid* prefix.

use adp_core::wire::{crc32, len_u32, put_str, put_u32, put_u64, put_u8, WireError, WireReader};
use adp_engine::database::Database;
use adp_engine::schema::Attr;
use adp_engine::value::Value;
use adp_service::{Service, ServiceConfig, ServiceError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const SNAPSHOT_MAGIC: [u8; 4] = *b"ADPS";
const LOG_MAGIC: [u8; 4] = *b"ADPL";
const FORMAT_VERSION: u16 = 1;
/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.adp";
/// Mutation-log file name inside a store directory.
pub const LOG_FILE: &str = "wal.adp";
/// `magic + version` prefix both files start with.
const FILE_HEADER_LEN: u64 = 6;
/// Cap on a single log record (a mutation batch), matching the wire
/// frame cap: a corrupted length field must not trigger a huge read.
const MAX_RECORD: u32 = 16 << 20;

/// Failures loading or writing a store.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file failed structural validation (magic, crc, framing).
    Corrupt(String),
    /// A format version this build does not read.
    Version(u16),
    /// Replaying a log record through the service failed — the log
    /// does not match the snapshot it sits next to.
    Replay(ServiceError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist: io: {e}"),
            PersistError::Corrupt(what) => write!(f, "persist: corrupt store: {what}"),
            PersistError::Version(v) => write!(f, "persist: unsupported format version {v}"),
            PersistError::Replay(e) => write!(f, "persist: log replay failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

/// An open store: the directory plus the log file positioned at its
/// valid end, ready to append.
pub struct Store {
    dir: PathBuf,
    wal: File,
}

/// The result of [`Store::recover`].
pub struct Recovery {
    /// The rebuilt service, resumed at the pre-crash epoch.
    pub service: Service,
    /// The epoch the service resumed at (== effective batches replayed).
    pub epoch: u64,
    /// Log records replayed.
    pub replayed: u64,
    /// Whether a corrupt/truncated tail was detected (and cut off).
    pub truncated_tail: bool,
    /// The store, ready for further [`append_batch`](Store::append_batch)
    /// calls.
    pub store: Store,
}

impl Store {
    /// Creates (or overwrites) a store: writes `db` as the epoch-0
    /// snapshot together with the layout-shaping `config` knobs, and
    /// starts an empty mutation log. `db` must be the *base* data —
    /// call this before handing the database to [`Service::with_config`]
    /// (which seals it using the same knobs, making replay
    /// deterministic).
    pub fn init(dir: &Path, db: &Database, config: &ServiceConfig) -> Result<Store, PersistError> {
        std::fs::create_dir_all(dir)?;
        let mut payload = Vec::new();
        put_u64(&mut payload, config.segment_target_rows as u64);
        put_u32(&mut payload, config.compact_tombstone_pct);
        put_u32(
            &mut payload,
            len_u32("relation count", db.relations().len())?,
        );
        for rel in db.relations() {
            put_str(&mut payload, rel.name())?;
            let attrs = rel.schema().attrs();
            put_u32(&mut payload, len_u32("relation arity", attrs.len())?);
            for attr in attrs {
                put_str(&mut payload, attr.name())?;
            }
            let rows = rel.to_rows();
            put_u64(&mut payload, rows.len() as u64);
            for row in &rows {
                for &v in row {
                    put_u64(&mut payload, v);
                }
            }
        }

        let mut buf = Vec::with_capacity(payload.len() + 16);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_u32(&mut buf, len_u32("snapshot payload", payload.len())?);
        buf.extend_from_slice(&payload);
        put_u32(&mut buf, crc32(&payload));

        // Temp-write + rename: a crash mid-write never tears the
        // snapshot a later recovery will trust.
        let tmp = dir.join("snapshot.adp.tmp");
        let final_path = dir.join(SNAPSHOT_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &final_path)?;

        let mut wal = File::create(dir.join(LOG_FILE))?;
        wal.write_all(&LOG_MAGIC)?;
        wal.write_all(&FORMAT_VERSION.to_le_bytes())?;
        wal.flush()?;
        Ok(Store {
            dir: dir.to_path_buf(),
            wal,
        })
    }

    /// Appends one *effective* mutation batch: `delete` vs restore plus
    /// `(relation slot, base tuple index)` pairs. Callers must append
    /// in apply order and only for batches that bumped the epoch, so
    /// replay reproduces the epoch counter exactly.
    pub fn append_batch(
        &mut self,
        delete: bool,
        entries: &[(u32, u32)],
    ) -> Result<(), PersistError> {
        let mut payload = Vec::with_capacity(5 + entries.len() * 8);
        put_u8(&mut payload, u8::from(delete));
        put_u32(&mut payload, len_u32("batch entries", entries.len())?);
        for &(slot, idx) in entries {
            put_u32(&mut payload, slot);
            put_u32(&mut payload, idx);
        }
        let mut record = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut record, len_u32("log record", payload.len())?);
        put_u32(&mut record, crc32(&payload));
        record.extend_from_slice(&payload);
        // One write per record: a crash can truncate the tail record
        // but never interleave two.
        self.wal.write_all(&record)?;
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync_data()?;
        Ok(())
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads the snapshot, rebuilds the service (persisted layout knobs
    /// override the same fields of `config`), and replays the longest
    /// valid log prefix through the ordinary O(Δ) apply path. A
    /// corrupt or truncated tail is cut off and reported via
    /// [`Recovery::truncated_tail`].
    pub fn recover(dir: &Path, mut config: ServiceConfig) -> Result<Recovery, PersistError> {
        // --- Snapshot ---
        let bytes = std::fs::read(dir.join(SNAPSHOT_FILE))?;
        if bytes.len() < 10 || bytes[..4] != SNAPSHOT_MAGIC {
            return Err(PersistError::Corrupt("snapshot magic".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(PersistError::Version(version));
        }
        let payload_len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
        let end = 10usize
            .checked_add(payload_len)
            .filter(|&end| end.checked_add(4) == Some(bytes.len()))
            .ok_or_else(|| PersistError::Corrupt("snapshot length framing".into()))?;
        let payload = &bytes[10..end];
        let stored_crc =
            u32::from_le_bytes([bytes[end], bytes[end + 1], bytes[end + 2], bytes[end + 3]]);
        if crc32(payload) != stored_crc {
            return Err(PersistError::Corrupt("snapshot crc mismatch".into()));
        }

        let mut rd = WireReader::new(payload);
        config.segment_target_rows = usize::try_from(rd.u64("segment target rows")?)
            .map_err(|_| PersistError::Corrupt("segment target rows overflows usize".into()))?;
        config.compact_tombstone_pct = rd.u32("compact tombstone pct")?;
        let rel_count = rd.count("relation count", 1)?;
        let mut db = Database::new();
        let mut slot_names = Vec::with_capacity(rel_count);
        for _ in 0..rel_count {
            let name = rd.str("relation name")?;
            let arity = rd.count("relation arity", 1)?;
            let mut attrs = Vec::with_capacity(arity);
            for _ in 0..arity {
                attrs.push(Attr::new(&rd.str("attribute name")?));
            }
            let rows_n = usize::try_from(rd.u64("row count")?)
                .map_err(|_| PersistError::Corrupt("row count overflows usize".into()))?;
            let mut rows: Vec<Vec<Value>> = Vec::with_capacity(rows_n.min(1 << 20));
            for _ in 0..rows_n {
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(rd.u64("row value")?);
                }
                rows.push(row);
            }
            let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
            db.add_relation(&name, attrs, &refs);
            slot_names.push(name);
        }
        rd.finish("snapshot payload")?;
        let service = Service::with_config(db, config);

        // --- Log replay ---
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(LOG_FILE))?;
        let mut header = [0u8; FILE_HEADER_LEN as usize];
        let mut truncated_tail = false;
        let mut valid_end = FILE_HEADER_LEN;
        match wal.read_exact(&mut header) {
            Ok(()) => {
                if header[..4] != LOG_MAGIC {
                    return Err(PersistError::Corrupt("log magic".into()));
                }
                let v = u16::from_le_bytes([header[4], header[5]]);
                if v != FORMAT_VERSION {
                    return Err(PersistError::Version(v));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // Crash before the header finished: an empty log.
                truncated_tail = true;
                valid_end = 0;
            }
            Err(e) => return Err(e.into()),
        }

        let mut replayed = 0u64;
        if valid_end == FILE_HEADER_LEN {
            loop {
                let mut prefix = [0u8; 8];
                match wal.read_exact(&mut prefix) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        // A partial length/crc prefix is a torn tail;
                        // exact EOF here is a clean end.
                        let pos = wal.stream_position()?;
                        truncated_tail |= pos != valid_end;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
                let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
                let rec_crc = u32::from_le_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]);
                if len > MAX_RECORD {
                    truncated_tail = true;
                    break;
                }
                let mut payload = vec![0u8; len as usize];
                match wal.read_exact(&mut payload) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        truncated_tail = true;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
                if crc32(&payload) != rec_crc {
                    truncated_tail = true;
                    break;
                }
                // A structurally valid record that fails to decode or
                // apply is not a torn tail — the log contradicts its
                // snapshot, which is worth a hard error.
                let mut r = WireReader::new(&payload);
                let delete = r.bool("record op").map_err(PersistError::from)?;
                let n = r.count("record entries", 8)?;
                let mut batch: Vec<(&str, u32)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let slot = r.u32("record slot")? as usize;
                    let idx = r.u32("record index")?;
                    let name = slot_names.get(slot).ok_or_else(|| {
                        PersistError::Corrupt(format!("log names unknown relation slot {slot}"))
                    })?;
                    batch.push((name.as_str(), idx));
                }
                r.finish("log record")?;
                let result = if delete {
                    service.delete_tuples(&batch)
                } else {
                    service.restore_tuples(&batch)
                };
                result.map_err(PersistError::Replay)?;
                replayed += 1;
                valid_end = wal.stream_position()?;
            }
        }

        if truncated_tail {
            if valid_end == 0 {
                // Rebuild the header too.
                wal.set_len(0)?;
                wal.seek(SeekFrom::Start(0))?;
                wal.write_all(&LOG_MAGIC)?;
                wal.write_all(&FORMAT_VERSION.to_le_bytes())?;
            } else {
                wal.set_len(valid_end)?;
            }
        }
        wal.seek(SeekFrom::End(0))?;

        let (epoch, _) = service.snapshot();
        Ok(Recovery {
            epoch,
            replayed,
            truncated_tail,
            service,
            store: Store {
                dir: dir.to_path_buf(),
                wal,
            },
        })
    }
}

#[cfg(test)]
impl Store {
    /// `dir`'s store with its log opened read-only, so every append
    /// fails.
    pub(crate) fn read_only(dir: &Path) -> io::Result<Store> {
        Ok(Store {
            dir: dir.to_path_buf(),
            wal: File::open(dir.join(LOG_FILE))?,
        })
    }
}
