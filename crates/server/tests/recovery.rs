//! Crash-consistency suite for snapshot + mutation-log recovery.
//!
//! The invariants under test:
//!
//! * recovery resumes at exactly the pre-crash epoch and answers
//!   byte-identically to a service that never crashed;
//! * a torn (truncated) log tail is detected and cut at the last valid
//!   record;
//! * a bit-flipped record is caught by its crc, and recovery stops at
//!   the last record *before* it;
//! * a recovered store keeps accepting appends, and a second recovery
//!   sees the extended log.

use adp_core::wire::put_outcome;
use adp_datagen::zipf::ZipfConfig;
use adp_server::client::Client;
use adp_server::persist::{Store, LOG_FILE};
use adp_server::server::{Server, ServerConfig};
use adp_service::{Service, ServiceConfig, Target};
use std::path::PathBuf;
use std::sync::Arc;

fn demo_db(n: usize, seed: u64) -> adp_engine::database::Database {
    adp_datagen::zipf_pair(&ZipfConfig::new(n, 0.5, seed, true))
}

fn q_text() -> String {
    format!("{}", adp_datagen::queries::qpath())
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn outcome_bytes(svc: &Service, q: &str, target: Target) -> Vec<u8> {
    let resp = svc
        .solve(&adp_service::SolveRequest {
            query: q.to_string(),
            target,
            opts: None,
            budget: None,
        })
        .expect("solve");
    let mut buf = Vec::new();
    put_outcome(&mut buf, &resp.outcome).expect("encode");
    buf
}

/// Applies a delete batch to the service, then logs it and syncs the
/// log (R1 is slot 0, R2 slot 1, R3 slot 2 — creation order in the
/// zipf generator). The server logs before it installs, through
/// `Service::apply_logged`; for the single-threaded suites here the
/// order does not change what the log holds.
fn apply_and_log(svc: &Service, store: &mut Store, batch: &[(&str, u32)]) -> u64 {
    let epoch = svc.delete_tuples(batch).expect("delete");
    let entries: Vec<(u32, u32)> = batch
        .iter()
        .map(|&(name, idx)| {
            let slot = match name {
                "R1" => 0,
                "R2" => 1,
                "R3" => 2,
                other => panic!("unknown relation {other}"),
            };
            (slot, idx)
        })
        .collect();
    store.append_batch(true, &entries).expect("append");
    store.sync().expect("sync");
    epoch
}

/// Round trip: snapshot + log replay lands on the pre-crash epoch and
/// answers byte-identically to the never-crashed twin across targets.
#[test]
fn recovery_matches_never_crashed_service() {
    let dir = scratch_dir("roundtrip");
    let db = demo_db(1_000, 0x0EC0);
    let config = ServiceConfig::default();
    let mut store = Store::init(&dir, &db, &config).expect("init");
    let never_crashed = Service::with_config(db, config.clone());

    let batches: [&[(&str, u32)]; 3] = [&[("R2", 0), ("R2", 5)], &[("R1", 1)], &[("R2", 7)]];
    let mut epoch = 0;
    for batch in batches {
        epoch = apply_and_log(&never_crashed, &mut store, batch);
    }
    assert_eq!(epoch, 3);
    drop(store); // the "crash": nothing graceful happens after the last sync

    let rec = Store::recover(&dir, config).expect("recover");
    assert_eq!(
        rec.epoch, epoch,
        "recovery must land on the pre-crash epoch"
    );
    assert_eq!(rec.replayed, 3);
    assert!(!rec.truncated_tail, "a clean log has no torn tail");

    let q = q_text();
    for target in [Target::Outputs(1), Target::Outputs(4), Target::Ratio(0.3)] {
        assert_eq!(
            outcome_bytes(&rec.service, &q, target),
            outcome_bytes(&never_crashed, &q, target),
            "recovered answers diverge at {target:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append tears the last record; recovery stops at the last
/// valid one, truncates the garbage, and the store stays appendable.
#[test]
fn truncated_tail_is_cut_at_last_valid_record() {
    let dir = scratch_dir("torn");
    let db = demo_db(800, 0x7EA2);
    let config = ServiceConfig::default();
    let mut store = Store::init(&dir, &db, &config).expect("init");
    let svc = Service::with_config(db, config.clone());
    for batch in [&[("R2", 0u32)][..], &[("R2", 1)], &[("R2", 2)]] {
        apply_and_log(&svc, &mut store, batch);
    }
    drop(store);

    // Tear 5 bytes off the last record (header 6 + 3 × 21-byte records).
    let wal = dir.join(LOG_FILE);
    let len = std::fs::metadata(&wal).expect("stat").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open");
    f.set_len(len - 5).expect("truncate");
    drop(f);

    let rec = Store::recover(&dir, config.clone()).expect("recover");
    assert!(rec.truncated_tail, "the torn tail must be reported");
    assert_eq!(rec.replayed, 2, "replay stops at the last intact record");
    assert_eq!(rec.epoch, 2);
    assert_eq!(
        std::fs::metadata(&wal).expect("stat").len(),
        len - 21,
        "the torn record is cut, the valid prefix kept"
    );

    // The recovered store extends the valid prefix.
    let mut store = rec.store;
    apply_and_log(&rec.service, &mut store, &[("R2", 9)]);
    drop(store);
    let again = Store::recover(&dir, config).expect("second recover");
    assert!(!again.truncated_tail);
    assert_eq!(again.replayed, 3);
    assert_eq!(again.epoch, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped bit in the middle of the log is caught by the record crc;
/// recovery keeps everything before it and drops it and the records
/// after it (they may depend on the corrupt state).
#[test]
fn bit_flip_is_detected_by_record_crc() {
    let dir = scratch_dir("bitflip");
    let db = demo_db(800, 0xF117);
    let config = ServiceConfig::default();
    let mut store = Store::init(&dir, &db, &config).expect("init");
    let svc = Service::with_config(db, config.clone());
    for batch in [&[("R2", 0u32)][..], &[("R2", 1)], &[("R2", 2)]] {
        apply_and_log(&svc, &mut store, batch);
    }
    drop(store);

    // Records are 21 bytes (4 len + 4 crc + 13 payload) after the
    // 6-byte header; flip one bit inside record 2's payload.
    let wal = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&wal).expect("read");
    let victim = 6 + 21 + 8 + 3; // header + record 1 + record 2 prefix + 3
    bytes[victim] ^= 0x10;
    std::fs::write(&wal, &bytes).expect("write");

    let rec = Store::recover(&dir, config).expect("recover");
    assert!(rec.truncated_tail, "the corrupt record must be reported");
    assert_eq!(rec.replayed, 1, "only the prefix before the flip replays");
    assert_eq!(rec.epoch, 1);
    assert_eq!(
        std::fs::metadata(&wal).expect("stat").len(),
        6 + 21,
        "everything from the corrupt record on is cut"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full kill-and-restart over the wire: a server is stopped with no
/// graceful store finalization, restarted from disk, and must answer
/// byte-identically at the pre-crash epoch without re-ingesting.
#[test]
fn kill_and_restart_resumes_over_the_wire() {
    let dir = scratch_dir("restart");
    let db = demo_db(900, 0xDEAD);
    let config = ServiceConfig::default();
    let store = Store::init(&dir, &db, &config).expect("init");
    let svc = Arc::new(Service::with_config(db, config.clone()));
    let server =
        Server::start(svc, Some(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let q = q_text();

    let mut c = Client::connect(server.addr()).expect("connect");
    let e1 = c.mutate(true, &[("R2", 0), ("R2", 3)]).expect("mutate");
    let e2 = c.mutate(true, &[("R1", 2)]).expect("mutate");
    assert!(e2 > e1);
    let pre = c
        .solve(&q, Target::Outputs(3), None)
        .expect("pre-crash solve");
    assert_eq!(pre.epoch, e2);
    drop(c);
    server.stop(); // kill: no snapshot rewrite, no log finalization

    let rec = Store::recover(&dir, config).expect("recover");
    assert_eq!(rec.epoch, e2, "restart must resume at the pre-crash epoch");
    let server = Server::start(
        Arc::new(rec.service),
        Some(rec.store),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("re-bind");
    let mut c = Client::connect(server.addr()).expect("reconnect");
    let post = c
        .solve(&q, Target::Outputs(3), None)
        .expect("post-crash solve");
    assert_eq!(post.epoch, pre.epoch);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    put_outcome(&mut a, &pre.outcome).expect("encode");
    put_outcome(&mut b, &post.outcome).expect("encode");
    assert_eq!(a, b, "post-restart answers must be byte-identical");

    // And the restarted server keeps logging: mutate, re-recover, check.
    let e3 = c.mutate(true, &[("R2", 11)]).expect("mutate after restart");
    assert_eq!(e3, e2 + 1);
    drop(c);
    server.stop();
    let again = Store::recover(&dir, ServiceConfig::default()).expect("final recover");
    assert_eq!(again.epoch, e3, "appends after a restart must be durable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four connections mutate concurrently, each batch effective: the
/// server acks every epoch from 1 to 100 exactly once, and the log it
/// wrote, one record per batch in apply order, recovers to epoch 100
/// with answers byte-identical to the live service.
#[test]
fn concurrent_mutators_log_in_apply_order() {
    let dir = scratch_dir("concurrent");
    let db = demo_db(900, 0xC0C0);
    let config = ServiceConfig::default();
    let store = Store::init(&dir, &db, &config).expect("init");
    let svc = Arc::new(Service::with_config(db, config.clone()));
    let server = Server::start(
        Arc::clone(&svc),
        Some(store),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.addr();
    let mut acked: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4u32)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Disjoint tuples per connection, alternately
                    // deleted and restored: every batch is effective.
                    let batch = [("R2", 10 + c), ("R1", c)];
                    (0..25)
                        .map(|i| client.mutate(i % 2 == 0, &batch).expect("mutate"))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker"))
            .collect()
    });
    acked.sort_unstable();
    assert_eq!(acked, (1..=100).collect::<Vec<u64>>());
    server.stop();

    let rec = Store::recover(&dir, config).expect("recover");
    assert_eq!(rec.epoch, 100);
    assert_eq!(rec.replayed, 100);
    assert!(!rec.truncated_tail);
    let q = q_text();
    for target in [Target::Outputs(1), Target::Outputs(4), Target::Ratio(0.3)] {
        assert_eq!(
            outcome_bytes(&rec.service, &q, target),
            outcome_bytes(&svc, &q, target),
            "recovered answers diverge at {target:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The on-disk formats, byte for byte: a small snapshot and one WAL
/// record must be written exactly as these bytes (so stores written by
/// earlier builds keep recovering), and recovery must read them back.
#[test]
fn store_bytes_are_pinned() {
    let dir = scratch_dir("golden");
    let mut db = adp_engine::database::Database::new();
    let a = || adp_engine::schema::Attr::new("A");
    let b = || adp_engine::schema::Attr::new("B");
    db.add_relation("R1", vec![a()], &[&[1], &[2], &[3]]);
    db.add_relation(
        "R2",
        vec![a(), b()],
        &[&[1, 10], &[2, 20], &[3, 30], &[3, 31]],
    );
    db.add_relation("R3", vec![b()], &[&[10], &[20], &[30], &[31]]);
    let config = ServiceConfig {
        segment_target_rows: 1 << 16,
        compact_tombstone_pct: 50,
        ..ServiceConfig::default()
    };
    let mut store = Store::init(&dir, &db, &config).expect("init");
    store
        .append_batch(true, &[(1, 3), (0, 0), (2, 1)])
        .expect("append");
    store.sync().expect("sync");
    drop(store);

    let snapshot = std::fs::read(dir.join(adp_server::persist::SNAPSHOT_FILE)).expect("read");
    assert_eq!(hex(&snapshot), "414450530100d20000000000010000000000320000000300000002000000523101000000010000004103000000000000000100000000000000020000000000000003000000000000000200000052320200000001000000410100000042040000000000000001000000000000000a000000000000000200000000000000140000000000000003000000000000001e0000000000000003000000000000001f0000000000000002000000523301000000010000004204000000000000000a0000000000000014000000000000001e000000000000001f00000000000000c69441d8");
    let wal = std::fs::read(dir.join(LOG_FILE)).expect("read");
    assert_eq!(
        hex(&wal),
        "4144504c01001d000000d05398be0103000000010000000300000000000000000000000200000001000000"
    );

    let rec = Store::recover(&dir, config).expect("recover");
    assert_eq!((rec.epoch, rec.replayed, rec.truncated_tail), (1, 1, false));
    let _ = std::fs::remove_dir_all(&dir);
}
