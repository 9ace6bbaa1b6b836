//! Cross-mode provenance identity: first-exercise attribution must name
//! the *same winners* regardless of how the settle work was evaluated.
//! Event mode (purely scalar), the default hybrid mode (sibling paths
//! packed into lane cohorts), and compiled mode walk the same exploration
//! tree, so with one worker the winning `(net, path, cycle)` triples must
//! match bit-for-bit — the attribution hook sits on `mark_toggled`, and
//! the eval modes may only change how fast values arrive, never which
//! path first produces them.
//!
//! With four workers the *exploration* is still the same tree but the
//! coverage race is real: two paths can first-toggle a net in either
//! order across schedules, and the collector breaks ties by `(cycle,
//! path id)` only among the observations it actually received. The
//! order-independent result — the attributed net *set*, which equals the
//! toggled-net set — must still agree across modes.
//!
//! Runs two (cpu, benchmark) pairs x {1, 4} workers.

use std::sync::Arc;

use symsim_bench::{run_experiment, CpuKind};
use symsim_core::{CoAnalysisConfig, CoAnalysisReport};
use symsim_obs::MetricsRegistry;
use symsim_sim::{EvalMode, SimConfig};

const PAIRS: [(CpuKind, &str); 2] = [(CpuKind::Omsp16, "div"), (CpuKind::Bm32, "insort")];

fn run(kind: CpuKind, bench: &str, mode: EvalMode, workers: usize) -> CoAnalysisReport {
    let registry = Arc::new(MetricsRegistry::new(workers));
    let config = CoAnalysisConfig {
        workers,
        sim: SimConfig {
            eval_mode: mode,
            attribution: true,
            ..SimConfig::default()
        },
        metrics: Some(Arc::clone(&registry)),
        ..CoAnalysisConfig::default()
    };
    run_experiment(kind, bench, config).report
}

/// The full winner table as `(net, path, cycle, reset)` rows.
fn winners(r: &CoAnalysisReport) -> Vec<(u32, u64, u64, bool)> {
    r.provenance
        .as_ref()
        .expect("attributed run yields provenance")
        .attributions()
        .iter()
        .map(|a| (a.net.0, a.path, a.cycle, a.reset))
        .collect()
}

/// The attributed net set only.
fn net_set(r: &CoAnalysisReport) -> Vec<u32> {
    r.provenance
        .as_ref()
        .expect("attributed run yields provenance")
        .attributions()
        .iter()
        .map(|a| a.net.0)
        .collect()
}

#[test]
fn winners_are_identical_across_eval_modes() {
    for (kind, bench) in PAIRS {
        // sequential: exploration order is deterministic, so the winning
        // (net, path, cycle) triples must match exactly across modes
        let event = run(kind, bench, EvalMode::Event, 1);
        let reference = winners(&event);
        assert!(
            !reference.is_empty(),
            "{}/{bench}: no nets attributed",
            kind.name()
        );
        for mode in [EvalMode::Hybrid, EvalMode::Compiled] {
            let other = run(kind, bench, mode, 1);
            let ctx = format!("{}/{bench} x1 ({})", kind.name(), mode.name());
            assert_eq!(
                event.exercisable_gates, other.exercisable_gates,
                "{ctx}: exercisable gates"
            );
            assert_eq!(reference, winners(&other), "{ctx}: winner table diverged");
        }

        // every toggled net is attributed and vice versa — the provenance
        // map and the toggle profile are two views of the same facts
        let prov = event.provenance.as_ref().unwrap();
        assert_eq!(
            prov.attributed_count(),
            event.profile.toggled_count(),
            "{}/{bench}: attribution and toggle profile disagree",
            kind.name()
        );
    }
}

#[test]
fn attributed_net_set_is_schedule_independent() {
    for (kind, bench) in PAIRS {
        // parallel: schedules race, so winners may differ, but the
        // attributed net set is the converged toggle set and must agree
        let event = run(kind, bench, EvalMode::Event, 4);
        let reference = net_set(&event);
        for mode in [EvalMode::Hybrid, EvalMode::Compiled] {
            let other = run(kind, bench, mode, 4);
            let ctx = format!("{}/{bench} x4 ({})", kind.name(), mode.name());
            assert_eq!(
                event.exercisable_gates, other.exercisable_gates,
                "{ctx}: exercisable gates"
            );
            assert_eq!(reference, net_set(&other), "{ctx}: attributed net set");
        }
        // and the parallel net set matches the sequential one
        let sequential = run(kind, bench, EvalMode::Event, 1);
        assert_eq!(
            net_set(&sequential),
            reference,
            "{}/{bench}: x4 attributed different nets than x1",
            kind.name()
        );
    }
}
