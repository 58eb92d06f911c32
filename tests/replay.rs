//! Replay-plane integration tests: the checked-in corpus replays
//! byte-identically, and corrupted logs fail *structurally* — a
//! [`replay::ReplayDivergence`] or [`replay::LogError`] naming the
//! damage, never a panic.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bench::rr;
use replay::{kind, LogError, RecordLog};

/// Every log in `replay-corpus/`, decoded, with its path.
fn corpus() -> Vec<(PathBuf, RecordLog)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("replay-corpus");
    let mut logs = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("replay-corpus/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rlog") {
            continue;
        }
        let log = RecordLog::read_from(&path)
            .expect("corpus log readable")
            .expect("corpus log decodes");
        logs.push((path, log));
    }
    assert!(
        logs.len() >= 5,
        "expected at least 5 corpus logs, saw {}",
        logs.len()
    );
    logs
}

/// Every log in `replay-corpus/` replays byte-identically. The digests
/// the verdict compares against live in each log's metadata block, so
/// this holds across processes and machines.
#[test]
fn corpus_logs_replay_byte_identically() {
    for (path, log) in corpus() {
        let report = rr::replay(&log).expect("corpus log carries scenario meta");
        assert!(
            report.is_identical(),
            "{} no longer replays identically: divergence={:?} unconsumed={} mismatches={:?}",
            path.display(),
            report.divergence,
            report.unconsumed,
            report.mismatches
        );
    }
}

/// Re-recording each log's scenario reproduces the committed log: the
/// same decision streams and the same metadata entries. Replay answers
/// resolved decisions (fault draws) from the log, so it cannot see them
/// drift; a fresh recording draws them live and can.
#[test]
fn corpus_logs_match_a_fresh_recording() {
    let mut differing = Vec::new();
    for (path, log) in corpus() {
        let sc = rr::scenario_of(&log).expect("corpus log carries scenario meta");
        let fresh = rr::record(sc).log;
        let mut diffs = Vec::new();
        let names: BTreeSet<_> = log.streams.keys().chain(fresh.streams.keys()).collect();
        for name in names {
            let (old, new) = (log.streams.get(name), fresh.streams.get(name));
            if old != new {
                let len = |s: Option<&Vec<_>>| s.map_or(0, Vec::len);
                diffs.push(format!(
                    "stream {name}: {} vs {} events",
                    len(old),
                    len(new)
                ));
            }
        }
        let keys: BTreeSet<_> = log.meta.keys().chain(fresh.meta.keys()).collect();
        for key in keys {
            let (old, new) = (log.meta.get(key), fresh.meta.get(key));
            if old != new {
                diffs.push(format!("meta {key}: {old:?} vs {new:?}"));
            }
        }
        if !diffs.is_empty() {
            differing.push(format!("{}: {}", path.display(), diffs.join("; ")));
        }
    }
    assert!(
        differing.is_empty(),
        "corpus logs differ from a fresh recording (committed vs fresh):\n{}",
        differing.join("\n")
    );
}

/// Flipping one recorded *checked* decision (a clock charge) surfaces
/// as a structured divergence naming the exact site and sequence
/// number — not a panic, not a wrong-but-green replay.
#[test]
fn corrupted_checked_decision_is_a_structured_divergence() {
    let rec = rr::record(rr::Scenario::chaos(42, 60));
    let mut log = rec.log.clone();
    let clock = log
        .streams
        .get_mut("clock:cpu0")
        .expect("chaos run charges cpu0");
    assert_eq!(clock[0].kind, kind::CLOCK_CHARGE);
    clock[0].payload += 1;
    let corrupted = clock[0].payload;

    let report = rr::replay(&log).expect("scenario meta intact");
    assert!(!report.is_identical());
    let d = report.divergence.expect("payload flip must diverge");
    assert_eq!(d.site, "clock:cpu0");
    assert_eq!(d.seq, 0);
    assert_eq!(
        d.expected.expect("log has an event here").payload,
        corrupted
    );
    assert_eq!(d.got.payload, corrupted - 1);
}

/// Flipping a *resolved* decision (a fault draw the replay obeys)
/// steers the run down a different path; the byte-equality verdict
/// still refuses it, via a later divergence or artifact mismatch.
#[test]
fn corrupted_resolved_decision_fails_the_verdict() {
    let rec = rr::record(rr::Scenario::chaos(42, 60));
    let mut log = rec.log.clone();
    let dispatch = log
        .streams
        .get_mut("fault:dispatch:RrChaos")
        .expect("chaos run draws dispatch faults");
    // Toggle the panic bit of the first dispatch draw.
    dispatch[0].payload ^= 1;

    let report = rr::replay(&log).expect("scenario meta intact");
    assert!(
        !report.is_identical(),
        "an obeyed-but-wrong fault draw must not verify as identical"
    );
    assert!(
        report.divergence.is_some() || !report.mismatches.is_empty(),
        "expected a divergence or artifact mismatch, got a silently different run"
    );
}

/// Truncating a stream (the recording knows fewer decisions than the
/// run makes) diverges with `expected: None` — "log exhausted".
#[test]
fn truncated_stream_diverges_as_log_exhausted() {
    let rec = rr::record(rr::Scenario::fig2(10));
    let mut log = rec.log.clone();
    let clock = log
        .streams
        .get_mut("clock:cpu0")
        .expect("fig2 run charges cpu0");
    let recorded = clock.len();
    clock.pop();

    let report = rr::replay(&log).expect("scenario meta intact");
    let d = report.divergence.expect("missing tail event must diverge");
    assert_eq!(d.site, "clock:cpu0");
    assert_eq!(d.seq as usize, recorded - 1);
    assert!(
        d.expected.is_none(),
        "exhausted stream reports expected=None"
    );
    assert!(d.to_string().contains("log exhausted"));
}

/// A raw byte flip in the encoded file never panics: it decodes to a
/// structured [`LogError`], or decodes fine and then fails the replay
/// verdict at the damaged decision.
#[test]
fn raw_byte_flip_is_structured_all_the_way_down() {
    let rec = rr::record(rr::Scenario::chaos(7, 40));
    let bytes = rec.log.encode();

    // Flip the low bit of the last byte (the final varint of the last
    // stream's last event — or its count byte when empty).
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    match RecordLog::decode(&flipped) {
        Err(e) => {
            assert!(matches!(e, LogError::Truncated(_) | LogError::Malformed(_)));
        }
        Ok(log) => {
            let verdict = rr::replay(&log);
            match verdict {
                Err(msg) => assert!(!msg.is_empty(), "meta damage reports a reason"),
                Ok(report) => assert!(!report.is_identical()),
            }
        }
    }

    // Header damage is a structured LogError, before any replay runs.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(RecordLog::decode(&bad_magic), Err(LogError::BadMagic));
    let mut bad_version = bytes;
    bad_version[4] = 0xFF;
    assert!(matches!(
        RecordLog::decode(&bad_version),
        Err(LogError::UnsupportedVersion(_))
    ));
}

/// End-to-end file round trip: record to disk, read back, replay.
#[test]
fn record_to_disk_read_back_replay() {
    let dir = std::env::temp_dir().join("lrpc-replay-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.rlog");

    let rec = rr::record(rr::Scenario::chaos(99, 30));
    rec.log.write_to(&path).expect("write log");
    let log = RecordLog::read_from(&path)
        .expect("read log")
        .expect("decode log");
    assert_eq!(log, rec.log);

    let report = rr::replay(&log).expect("scenario meta intact");
    assert!(report.is_identical(), "divergence={:?}", report.divergence);
    let _ = std::fs::remove_file(&path);
}
