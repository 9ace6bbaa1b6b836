//! End-to-end evaluation-mode identity: the default mode (hybrid scalar
//! dispatch, sibling paths packed into lane cohorts and settled by the
//! levelized tape) and compiled mode must produce the *same analysis* as
//! event mode, the purely scalar oracle — identical path counts, CSM
//! decisions, cycle totals, and exercisable-gate results — on real CPU
//! workloads. The modes may only differ in throughput, never in results.
//!
//! With one worker the exploration order is deterministic, so every
//! statistic must match bit-for-bit. With more workers the interleaving
//! of CSM observations is racy by design (a path may be widened in one
//! schedule and covered in another), so only the order-independent
//! results — the verdict digest and the attributed net set — are asserted.
//!
//! The packing identity runs one branchy pair per CPU plus dr5/binsearch
//! (three split signals: 8-lane cohorts) x {1, 2, 4} workers.

use std::sync::Arc;

use symsim_bench::{run_experiment, CpuKind};
use symsim_core::{CoAnalysisConfig, CoAnalysisReport};
use symsim_obs::{CounterId, HistogramId, MetricsRegistry};
use symsim_sim::{EvalMode, SimConfig};

const PAIRS: [(CpuKind, &str); 4] = [
    (CpuKind::Omsp16, "div"),
    (CpuKind::Bm32, "insort"),
    (CpuKind::Dr5, "div"),
    (CpuKind::Dr5, "binsearch"),
];
const COMPILED_PAIRS: [(CpuKind, &str); 2] = [(CpuKind::Omsp16, "div"), (CpuKind::Bm32, "insort")];

fn run_with(
    kind: CpuKind,
    bench: &str,
    mode: EvalMode,
    workers: usize,
    attribution: bool,
) -> (CoAnalysisReport, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new(workers));
    let config = CoAnalysisConfig {
        workers,
        sim: SimConfig {
            eval_mode: mode,
            attribution,
            ..SimConfig::default()
        },
        metrics: Some(Arc::clone(&registry)),
        ..CoAnalysisConfig::default()
    };
    (run_experiment(kind, bench, config).report, registry)
}

fn run(
    kind: CpuKind,
    bench: &str,
    mode: EvalMode,
    workers: usize,
) -> (CoAnalysisReport, Arc<MetricsRegistry>) {
    run_with(kind, bench, mode, workers, false)
}

/// The attributed net set: order-independent, unlike the winners.
fn net_set(r: &CoAnalysisReport) -> Vec<u32> {
    let prov = r.provenance.as_ref().expect("attributed run");
    prov.attributions().iter().map(|a| a.net.0).collect()
}

#[test]
fn packed_default_reproduces_event_mode_results() {
    for (kind, bench) in PAIRS {
        // sequential: the DFS order is deterministic, so every statistic
        // that depends on exploration order must match exactly
        let (event, event_reg) = run(kind, bench, EvalMode::Event, 1);
        let (packed, reg) = run(kind, bench, EvalMode::default(), 1);
        let ctx = format!("{}/{bench} x1", kind.name());
        assert_eq!(event.paths_created, packed.paths_created, "{ctx}: created");
        assert_eq!(event.paths_skipped, packed.paths_skipped, "{ctx}: skipped");
        assert_eq!(
            event.paths_finished, packed.paths_finished,
            "{ctx}: finished"
        );
        assert_eq!(
            event.paths_simulated, packed.paths_simulated,
            "{ctx}: simulated"
        );
        assert_eq!(event.paths_dropped, packed.paths_dropped, "{ctx}: dropped");
        assert_eq!(
            event.simulated_cycles, packed.simulated_cycles,
            "{ctx}: cycles"
        );
        for counter in ["csm_observations", "csm_covered", "csm_widenings"] {
            assert_eq!(
                event.metrics.counter(counter),
                packed.metrics.counter(counter),
                "{ctx}: {counter}"
            );
        }
        for hist in [HistogramId::SegmentCycles, HistogramId::SplitFanout] {
            assert_eq!(
                event.metrics.histograms[hist as usize], packed.metrics.histograms[hist as usize],
                "{ctx}: {hist:?} distribution"
            );
        }
        assert_eq!(
            event.exercisable_gates, packed.exercisable_gates,
            "{ctx}: exercisable gates"
        );
        assert_eq!(event.verdict_digest, packed.verdict_digest, "{ctx}: digest");
        // the default run must actually have packed lanes — otherwise the
        // identity above is vacuous (everything fell back to scalar) — and
        // the oracle must not have
        let formed = reg.counter_total(CounterId::CohortsFormed);
        let members = reg.counter_total(CounterId::CohortMemberPaths);
        assert!(formed > 0, "{ctx}: no cohorts formed");
        assert!(
            members >= 2 * formed,
            "{ctx}: cohorts under-occupied ({members} members / {formed})"
        );
        assert_eq!(
            event_reg.counter_total(CounterId::CohortsFormed),
            0,
            "{ctx}: event mode packed a cohort"
        );
        if bench == "binsearch" {
            assert!(
                members >= 8 * formed,
                "{ctx}: expected 8-lane cohorts ({members} members / {formed})"
            );
        }

        // parallel: schedules race, but the verdict and the attributed net
        // set are the converged fixed point and must agree across modes
        for workers in [2, 4] {
            let (event_n, _) = run_with(kind, bench, EvalMode::Event, workers, true);
            let (packed_n, reg_n) = run_with(kind, bench, EvalMode::default(), workers, true);
            let ctx = format!("{}/{bench} x{workers}", kind.name());
            assert_eq!(
                event_n.verdict_digest, packed_n.verdict_digest,
                "{ctx}: digest"
            );
            assert_eq!(
                event.verdict_digest, packed_n.verdict_digest,
                "{ctx}: x1 digest"
            );
            assert_eq!(
                net_set(&event_n),
                net_set(&packed_n),
                "{ctx}: attributed nets"
            );
            assert!(
                reg_n.counter_total(CounterId::CohortsFormed) > 0,
                "{ctx}: no cohorts formed"
            );
        }
    }
}

#[test]
fn compiled_mode_reproduces_event_mode_results() {
    for (kind, bench) in COMPILED_PAIRS {
        let (event, _) = run(kind, bench, EvalMode::Event, 1);
        let (compiled, reg) = run(kind, bench, EvalMode::Compiled, 1);
        // without a toolchain the run degrades to hybrid — still identical
        // results, but the kernel assertions below would be vacuous
        let native = compiled.eval_mode == "compiled";
        let ctx = format!("{}/{bench} x1 (compiled)", kind.name());
        assert_eq!(
            event.paths_created, compiled.paths_created,
            "{ctx}: created"
        );
        assert_eq!(
            event.paths_skipped, compiled.paths_skipped,
            "{ctx}: skipped"
        );
        assert_eq!(
            event.paths_finished, compiled.paths_finished,
            "{ctx}: finished"
        );
        assert_eq!(
            event.paths_simulated, compiled.paths_simulated,
            "{ctx}: simulated"
        );
        assert_eq!(
            event.simulated_cycles, compiled.simulated_cycles,
            "{ctx}: cycles"
        );
        assert_eq!(
            event.metrics.counter("csm_widenings"),
            compiled.metrics.counter("csm_widenings"),
            "{ctx}: csm_widenings"
        );
        assert_eq!(
            event.exercisable_gates, compiled.exercisable_gates,
            "{ctx}: exercisable gates"
        );
        if native {
            // the identity must not be vacuous: the native kernel ran
            assert!(
                reg.counter_total(CounterId::CompiledEvals) > 0,
                "{ctx}: kernel never ran"
            );
            assert_eq!(compiled.eval_mode, "compiled", "{ctx}: eval_mode");
        } else {
            assert_eq!(compiled.eval_mode, "hybrid", "{ctx}: fallback eval_mode");
        }

        let (event4, _) = run(kind, bench, EvalMode::Event, 4);
        let (compiled4, _) = run(kind, bench, EvalMode::Compiled, 4);
        let ctx = format!("{}/{bench} x4 (compiled)", kind.name());
        assert_eq!(
            event4.exercisable_gates, compiled4.exercisable_gates,
            "{ctx}: exercisable gates"
        );
        assert_eq!(
            event4.total_gates, compiled4.total_gates,
            "{ctx}: total gates"
        );
    }
}
