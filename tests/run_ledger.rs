//! Persistent run ledger, end to end on real co-analysis runs: append →
//! parse round-trip losslessness, the diff policy (self-diff clean,
//! synthetic slowdown flagged, verdict drift fatal), and verdict-digest
//! stability across every evaluation mode on a tier-1 pair.

use std::path::PathBuf;

use symsim_bench::{run_experiment, CpuKind};
use symsim_core::CoAnalysisConfig;
use symsim_obs::ledger::{self, DiffOpts, LedgerRecord};
use symsim_sim::{EvalMode, SimConfig};

fn record(kind: CpuKind, bench: &str, mode: EvalMode) -> LedgerRecord {
    let config = CoAnalysisConfig {
        workers: 1,
        sim: SimConfig {
            eval_mode: mode,
            ..SimConfig::default()
        },
        ..CoAnalysisConfig::default()
    };
    let result = run_experiment(kind, bench, config);
    result.report.ledger_record(
        "bench",
        &format!("{}/{bench}", kind.name()),
        result.design_hash,
        result.program_hash,
        &result.config,
    )
}

/// The digest is a function of the verdict alone: event, batch, hybrid,
/// and compiled runs of the same pair must produce the identical digest
/// (they have different config fingerprints — they are different runs —
/// but the exercisable-gate set may never move).
#[test]
fn verdict_digest_is_stable_across_eval_modes() {
    let event = record(CpuKind::Omsp16, "div", EvalMode::Event);
    for mode in [EvalMode::Batch, EvalMode::Hybrid, EvalMode::Compiled] {
        let other = record(CpuKind::Omsp16, "div", mode);
        assert_eq!(
            event.verdict_digest,
            other.verdict_digest,
            "{} mode drifted the verdict digest",
            mode.name()
        );
        assert_eq!(event.exercisable_gates, other.exercisable_gates);
        // same design and program, different config identity
        assert_eq!(event.design_hash, other.design_hash);
        assert_eq!(event.program_hash, other.program_hash);
        assert_ne!(event.fingerprint, other.fingerprint);
    }
    // a different pair must not collide on digest or fingerprint
    let other = record(CpuKind::Dr5, "binsearch", EvalMode::Event);
    assert_ne!(event.verdict_digest, other.verdict_digest);
    assert_ne!(event.fingerprint, other.fingerprint);
}

#[test]
fn append_read_diff_round_trip() {
    let tmp: PathBuf = std::env::temp_dir().join(format!(
        "symsim-run-ledger-test-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&tmp);
    let a = record(CpuKind::Omsp16, "div", EvalMode::Hybrid);
    let b = record(CpuKind::Omsp16, "div", EvalMode::Hybrid);
    ledger::append(&tmp, &a).unwrap();
    ledger::append(&tmp, &b).unwrap();
    let entries = ledger::read(&tmp).unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert_eq!(entries.len(), 2);

    // round-trip losslessness of everything the diff policy reads
    // (floats travel as {:.6}, so equality is within that print precision)
    let e = &entries[0];
    assert_eq!(e.kind, a.kind);
    assert_eq!(e.label, a.label);
    assert_eq!(e.design, a.design);
    assert_eq!(e.fingerprint, a.fingerprint);
    assert_eq!(e.config, a.config);
    assert_eq!(e.eval_mode, a.eval_mode);
    assert_eq!(e.verdict_digest, a.verdict_digest);
    assert_eq!(e.total_gates, a.total_gates);
    assert_eq!(e.exercisable_gates, a.exercisable_gates);
    assert_eq!(e.simulated_cycles, a.simulated_cycles);
    assert!((e.wall_seconds - a.wall_seconds).abs() < 1e-5);
    assert_eq!(e.env, a.env);
    assert_eq!(
        e.metrics.get("paths_created").and_then(|v| v.as_u64()),
        Some(a.paths_created)
    );

    // identical runs: no verdict drift, no counter deltas, perf in band
    let diff = ledger::compare(&entries[1], &[&entries[0]], &DiffOpts::default());
    assert!(
        !diff.failed(),
        "self-diff regressed: {:?}",
        diff.regressions()
    );
    assert!(diff.verdict_drift.is_none());
    assert!(!diff.fingerprint_mismatch);
    assert!(
        diff.counter_deltas.is_empty(),
        "deterministic single-worker runs must agree on every counter: {:?}",
        diff.counter_deltas
    );

    // a synthetically slowed record is flagged as a perf regression
    let mut slow = entries[1].clone();
    slow.wall_seconds = entries[0].wall_seconds * 4.0 + 1.0;
    slow.cycles_per_sec = entries[0].cycles_per_sec / 4.0;
    let diff = ledger::compare(&slow, &[&entries[0]], &DiffOpts::default());
    assert!(diff.failed());
    assert!(diff.verdict_drift.is_none());
    let metrics: Vec<&str> = diff
        .regressions()
        .iter()
        .map(|p| p.metric.as_str())
        .collect();
    assert!(metrics.contains(&"wall_seconds"), "{metrics:?}");

    // a drifted verdict is a hard failure even with perf in band
    let mut drifted = entries[1].clone();
    drifted.verdict_digest = "0000000000000bad".into();
    let diff = ledger::compare(&drifted, &[&entries[0]], &DiffOpts::default());
    assert!(diff.failed());
    assert!(diff.verdict_drift.is_some());
}
