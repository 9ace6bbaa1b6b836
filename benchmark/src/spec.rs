//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, and every per-layer metric with the end-to-end metric it
//! is predicted to move. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test keeps the two in step.

/// The three evaluation CPUs, in the paper's column order.
pub const CPUS: [&str; 3] = ["bm32", "omsp16", "dr5"];

/// The four branchy benchmarks whose path count depends on the inputs.
pub const BRANCHY: [&str; 4] = ["div", "insort", "binsearch", "thold"];

/// One workload: its name, worker count, and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub workers: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep18",
        workers: 1,
        why: "all 18 cpu x benchmark pairs of Tables 3-4 at one worker: what a user reproducing the paper waits for; fork, snapshot, CSM and settle all carry weight",
    },
    Workload {
        name: "pathstorm_w2",
        workers: 2,
        why: "the eight branchy bm32/dr5 pairs at two workers: the only workload with the scheduler, the CSM mutex and per-worker simulator construction on the blocking path",
    },
    Workload {
        name: "straightline",
        workers: 1,
        why: "tea8 on the three CPUs, one path each: settle plus per-run fixed cost; bypasses fork, CSM and scheduler, so an optimisation there must show no change",
    },
    Workload {
        name: "bespoke_validate",
        workers: 1,
        why: "the paper's 5.0.1 flow: bespoke generate, Verilog write+parse, seeded concrete vectors on original, bespoke and ISS; all-known values, and the only use of verilog and bespoke",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric a user of the system sees. `bound` is the share of the
/// baseline median by which it may worsen before it counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

/// All three are lower-is-better. Failed operations are the fourth
/// end-to-end number; they travel in the result's `failed`/`attempted`
/// because an end-to-end metric may never read 0.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.08,
        what: "median host wall time of one timed pass",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.08,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.10,
        what: "median of the repeated set-up: CPU build, assemble, CoAnalysis::new, and per pair Simulator::new + prepare + settle + save_state",
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// A fixed micro-scenario timed from outside; the same on every workload.
    Probe,
    /// Counted or timed in the workload's own passes.
    Workload,
}

/// A metric of one layer. `exact` counts repeat bit-for-bit on one-worker
/// workloads and must be identical between two runs of the same code.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub source: Source,
    pub exact: bool,
    /// The end-to-end metric (and workload) this number is predicted to move.
    pub moves: &'static str,
}

fn m(
    name: impl Into<String>,
    unit: &'static str,
    higher_is_better: bool,
    source: Source,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        higher_is_better,
        source,
        exact,
        moves,
    }
}

/// Every per-layer metric, in report order. The layers are the crates and
/// modules of the repo; `logic` is measured through `sim`, and `compile`,
/// `power` and `cli` are on no default path and have no metric.
pub fn per_layer() -> Vec<PerLayer> {
    use Source::{Probe, Workload};
    const SETUP: &str = "setup_s on every workload";
    const BV: &str = "bespoke_validate.wall_s only";
    const FORK: &str = "sweep18.wall_s, pathstorm_w2.wall_s; flat on the other two";
    const CSM: &str = "sweep18.wall_s, pathstorm_w2.wall_s";
    const SCHED: &str = "pathstorm_w2.wall_s only; sweep18 must stay flat";
    const FIXED: &str = "straightline.wall_s (fixed cost per run)";
    let mut v = vec![
        m("cpu.build_ms", "ms", false, Probe, false, SETUP),
        m("cpu.assemble_ms", "ms", false, Probe, false, SETUP),
        m("cpu.iss_ms", "ms", false, Probe, false, BV),
        m("verilog.write_ms", "ms", false, Probe, false, BV),
        m("verilog.parse_ms", "ms", false, Probe, false, BV),
        m("verilog.bytes", "count", false, Probe, true, BV),
        m("bespoke.generate_ms", "ms", false, Probe, false, BV),
        m("bespoke.gates_out", "count", false, Probe, true, BV),
        m(
            "sim.new_ms",
            "ms",
            false,
            Probe,
            false,
            "setup_s, straightline.wall_s, bespoke_validate.wall_s",
        ),
        m(
            "sim.prepare_ms",
            "ms",
            false,
            Probe,
            false,
            "setup_s, straightline.wall_s, bespoke_validate.wall_s",
        ),
    ];
    for cpu in CPUS {
        v.push(m(
            format!("sim.sym_cycles_per_s.{cpu}"),
            "1/s",
            true,
            Probe,
            false,
            "straightline.wall_s",
        ));
    }
    for cpu in CPUS {
        v.push(m(
            format!("sim.path_cycles_per_s.{cpu}"),
            "1/s",
            true,
            Probe,
            false,
            "the per-cycle half of sweep18.wall_s and pathstorm_w2.wall_s",
        ));
    }
    for cpu in CPUS {
        v.push(m(
            format!("sim.conc_cycles_per_s.{cpu}"),
            "1/s",
            true,
            Probe,
            false,
            BV,
        ));
    }
    v.extend([
        m("sim.save_state_us", "us", false, Probe, false, FORK),
        m("sim.load_state_us", "us", false, Probe, false, FORK),
        m("sim.fork_child_us", "us", false, Probe, false, FORK),
        m("sim.state_covers_us", "us", false, Probe, false, FORK),
        m("sim.state_merge_us", "us", false, Probe, false, FORK),
        m(
            "sim.state_bytes",
            "count",
            false,
            Probe,
            true,
            "sweep18.peak_rss_mb",
        ),
        m(
            "sim.event_evals",
            "count",
            false,
            Workload,
            true,
            "wall_s of the same workload",
        ),
        m(
            "sim.batched_level_evals",
            "count",
            false,
            Workload,
            true,
            "wall_s of the same workload",
        ),
        m(
            "sim.ns_per_eval",
            "ns",
            false,
            Workload,
            false,
            "wall_s of the same workload",
        ),
        m("csm.observe_covered_us", "us", false, Probe, false, CSM),
        m("csm.observe_widen_us", "us", false, Probe, false, CSM),
        m("csm.observations", "count", false, Workload, true, CSM),
        m("csm.covered", "count", true, Workload, true, CSM),
        m("csm.widenings", "count", false, Workload, true, CSM),
        m("csm.stored_states", "count", false, Workload, true, CSM),
        m("csm.cover_ratio", "ratio", true, Workload, true, CSM),
        m("sched.roundtrip_ns", "ns", false, Probe, false, SCHED),
        m("sched.steals", "count", false, Workload, false, SCHED),
        m("sched.parks", "count", false, Workload, false, SCHED),
        m("sched.cpu_util", "ratio", true, Workload, false, SCHED),
        m("sched.speedup_w2", "ratio", true, Probe, false, SCHED),
    ]);
    for cpu in CPUS {
        for bench in symsim_cpu::BENCHMARK_NAMES {
            v.push(m(
                format!("explore.pair_ms.{cpu}.{bench}"),
                "ms",
                false,
                Probe,
                false,
                "sweep18.wall_s",
            ));
        }
    }
    for cpu in CPUS {
        v.push(m(
            format!("explore.fixed_ms.{cpu}"),
            "ms",
            false,
            Probe,
            false,
            FIXED,
        ));
    }
    v.extend([
        m(
            "explore.paths_created",
            "count",
            false,
            Workload,
            true,
            "sweep18.wall_s",
        ),
        m(
            "explore.paths_skipped",
            "count",
            true,
            Workload,
            true,
            "sweep18.wall_s",
        ),
        m(
            "explore.simulated_cycles",
            "count",
            false,
            Workload,
            true,
            "sweep18.wall_s",
        ),
        m(
            "explore.us_per_path",
            "us",
            false,
            Workload,
            false,
            "sweep18.wall_s",
        ),
        m(
            "explore.cycles_per_s",
            "1/s",
            true,
            Workload,
            false,
            "sweep18.wall_s",
        ),
        m(
            "explore.first_pass_s",
            "s",
            false,
            Workload,
            false,
            "what a one-shot CLI user pays; no end-to-end metric",
        ),
        m("report.to_json_ms", "ms", false, Probe, false, FIXED),
        m("report.ledger_record_ms", "ms", false, Probe, false, FIXED),
        m("obs.ledger_append_ms", "ms", false, Probe, false, FIXED),
    ]);
    const BUDGET: &str = "wall_s of the same workload, as its breakdown";
    for part in ["sim_run", "sim_fork", "csm", "fixed", "unattributed"] {
        v.push(m(
            format!("budget.{part}_pct"),
            "%",
            false,
            Workload,
            false,
            BUDGET,
        ));
    }
    v.push(m(
        "trace.overhead_pct",
        "%",
        false,
        Workload,
        false,
        "nothing: the cost of the traced run itself",
    ));
    v
}

/// A metric or workload name as the benchmark contract allows it.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|e| e.name.to_string()))
            .chain(per_layer().into_iter().map(|p| p.name));
        for name in names {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
