//! Regression test for the observability contract: the counters in the
//! shared `MetricsRegistry` must equal the corresponding
//! `CoAnalysisReport` fields exactly — the report is assembled *from* the
//! registry snapshot, and any drift (a path counted in one place but not
//! the other, cycles double-counted by a worker) is a bug.
//!
//! Runs two (cpu, benchmark) pairs through all four evaluation modes.

use std::sync::Arc;

use symsim_bench::{run_experiment, CpuKind};
use symsim_core::CoAnalysisConfig;
use symsim_obs::{CounterId, GaugeId, MetricsRegistry};
use symsim_sim::{EvalMode, SimConfig};

const PAIRS: [(CpuKind, &str); 2] = [(CpuKind::Omsp16, "div"), (CpuKind::Bm32, "insort")];
const MODES: [EvalMode; 4] = [
    EvalMode::Event,
    EvalMode::Batch,
    EvalMode::Hybrid,
    EvalMode::Compiled,
];

#[test]
fn registry_counters_match_report_fields_across_eval_modes() {
    for (kind, bench) in PAIRS {
        for mode in MODES {
            // one registry serves exactly one run — a fresh one per
            // (pair, mode) keeps the totals attributable
            let registry = Arc::new(MetricsRegistry::new(1));
            let config = CoAnalysisConfig {
                workers: 1,
                sim: SimConfig {
                    eval_mode: mode,
                    ..SimConfig::default()
                },
                metrics: Some(Arc::clone(&registry)),
                ..CoAnalysisConfig::default()
            };
            let report = run_experiment(kind, bench, config).report;
            let ctx = format!("{}/{bench} ({})", kind.name(), mode.name());

            // live registry totals == report fields
            assert_eq!(
                registry.counter_total(CounterId::PathsCreated),
                report.paths_created as u64,
                "{ctx}: paths_created"
            );
            assert_eq!(
                registry.counter_total(CounterId::PathsDropped),
                report.paths_dropped as u64,
                "{ctx}: paths_dropped"
            );
            assert_eq!(
                registry.counter_total(CounterId::PathsSkipped),
                report.paths_skipped as u64,
                "{ctx}: paths_skipped"
            );
            assert_eq!(
                registry.counter_total(CounterId::PathsFinished),
                report.paths_finished as u64,
                "{ctx}: paths_finished"
            );
            assert_eq!(
                registry.counter_total(CounterId::PathsBudgetExhausted),
                report.paths_budget_exhausted as u64,
                "{ctx}: paths_budget_exhausted"
            );
            assert_eq!(
                registry.counter_total(CounterId::PathsSimulated),
                report.paths_simulated as u64,
                "{ctx}: paths_simulated"
            );
            assert_eq!(
                registry.counter_total(CounterId::Cycles),
                report.simulated_cycles,
                "{ctx}: cycles"
            );
            assert_eq!(
                registry.counter_total(CounterId::BatchedLevelEvals),
                report.batched_level_evals,
                "{ctx}: batched_level_evals"
            );
            assert_eq!(
                registry.counter_total(CounterId::EventEvals),
                report.event_evals,
                "{ctx}: event_evals"
            );
            assert_eq!(
                registry.counter_total(CounterId::CompiledEvals),
                report.compiled_evals,
                "{ctx}: compiled_evals"
            );
            match mode {
                EvalMode::Event => assert_eq!(
                    report.batched_level_evals, 0,
                    "{ctx}: event mode must not run level tapes"
                ),
                EvalMode::Batch | EvalMode::Hybrid => assert!(
                    report.batched_level_evals > 0,
                    "{ctx}: batched dispatch never engaged"
                ),
                // a compiled run either uses the native kernel (level tapes
                // only for the force-held settles the kernel cannot express)
                // or degraded to hybrid on this machine; `eval_mode` must
                // disclose which
                EvalMode::Compiled => {
                    if report.eval_mode == "compiled" {
                        assert!(report.compiled_evals > 0, "{ctx}: native kernel never ran");
                    } else {
                        assert_eq!(report.eval_mode, "hybrid", "{ctx}: fallback mode");
                        assert_eq!(
                            report.compiled_evals, 0,
                            "{ctx}: fallback must not count kernel runs"
                        );
                    }
                }
            }
            // sibling paths pack into lane cohorts in every mode but the
            // purely scalar event oracle
            assert_eq!(
                registry.counter_total(CounterId::CohortsFormed) > 0,
                mode != EvalMode::Event,
                "{ctx}: cohorts formed"
            );

            // the snapshot embedded in the report agrees with the registry
            assert_eq!(
                report.metrics.counter("paths_created"),
                report.paths_created as u64,
                "{ctx}: embedded snapshot"
            );
            assert_eq!(
                report.metrics.counter("cycles"),
                report.simulated_cycles,
                "{ctx}: embedded snapshot cycles"
            );

            // every claimed path was released, every queue drained, and the
            // CSM gauges carry the authoritative end-of-run values. This is
            // also the cohort-aware gauge regression: cohort work items add
            // their *member path* count to `paths_live`/`paths_queued`
            // (TaskWeight), so any work-item-vs-path mismatch in the
            // weighted accounting leaves a nonzero residue here.
            assert_eq!(
                registry.gauge_total(GaugeId::PathsLive),
                0,
                "{ctx}: paths_live at end of run"
            );
            assert_eq!(
                registry.gauge_total(GaugeId::PathsQueued),
                0,
                "{ctx}: paths_queued at end of run"
            );
            assert_eq!(
                registry.gauge_total(GaugeId::CsmDistinctPcs),
                report.distinct_pcs as i64,
                "{ctx}: csm_distinct_pcs"
            );

            // CSM accounting: every observation is either covered or widened
            let obs = registry.counter_total(CounterId::CsmObservations);
            assert_eq!(
                obs,
                registry.counter_total(CounterId::CsmCovered)
                    + registry.counter_total(CounterId::CsmWidenings),
                "{ctx}: csm observation dichotomy"
            );
            assert_eq!(
                registry.counter_total(CounterId::CsmCovered),
                report.paths_skipped as u64,
                "{ctx}: covered observations == skipped paths"
            );
        }
    }
}
