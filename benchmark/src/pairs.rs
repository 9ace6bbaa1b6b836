//! The cpu x benchmark pairs and everything that happens before the first
//! `CoAnalysis::run` — the work `setup_s` times. Only public library
//! functions and default configurations are used: the harness names no
//! evaluation mode and no CSM policy, so it measures whatever the repo
//! ships as its default and keeps compiling when those sets change.

use std::panic::{catch_unwind, AssertUnwindSafe};

use symsim_core::{CoAnalysis, CoAnalysisConfig, CoAnalysisReport};
use symsim_cpu::{bm32, dr5, omsp16, Benchmark, Cpu};
use symsim_sim::{SimConfig, SimState, Simulator};

use crate::spec::{BRANCHY, CPUS};
use crate::trace::Tracer;

/// A pair by name: `cpu` indexes [`CPUS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSpec {
    pub cpu: usize,
    pub bench: &'static str,
}

impl PairSpec {
    pub fn label(&self) -> String {
        format!("{}/{}", CPUS[self.cpu], self.bench)
    }
}

/// All 18 pairs of Tables 3-4, cpu-major in the paper's order.
pub fn all_pairs() -> Vec<PairSpec> {
    (0..CPUS.len())
        .flat_map(|cpu| symsim_cpu::BENCHMARK_NAMES.map(|bench| PairSpec { cpu, bench }))
        .collect()
}

/// The pairs a workload analyses, before the seed shuffles them.
pub fn pairs_of(workload: &str) -> Vec<PairSpec> {
    let all = all_pairs();
    match workload {
        "pathstorm_w2" => all
            .into_iter()
            .filter(|p| CPUS[p.cpu] != "omsp16" && BRANCHY.contains(&p.bench))
            .collect(),
        "straightline" => all.into_iter().filter(|p| p.bench == "tea8").collect(),
        _ => all,
    }
}

pub fn build_cpu(cpu: usize) -> Cpu {
    match CPUS[cpu] {
        "bm32" => bm32::build(),
        "omsp16" => omsp16::build(),
        _ => dr5::build(),
    }
}

pub fn benchmark(cpu: usize, name: &str) -> Benchmark {
    match CPUS[cpu] {
        "bm32" => bm32::benchmark(name),
        "omsp16" => omsp16::benchmark(name),
        _ => dr5::benchmark(name),
    }
}

pub fn assemble(cpu: usize, source: &str) -> Vec<u32> {
    match CPUS[cpu] {
        "bm32" => bm32::assemble(source),
        "omsp16" => omsp16::assemble(source),
        _ => dr5::assemble(source),
    }
    .expect("the shipped benchmark sources assemble")
}

/// The CPUs a set of pairs needs, indexed like [`CPUS`]; the others stay
/// unbuilt so set-up pays only for what the workload uses.
pub fn build_cpus(specs: &[PairSpec], t: &mut Tracer) -> Vec<Option<Cpu>> {
    (0..CPUS.len())
        .map(|cpu| {
            specs
                .iter()
                .any(|p| p.cpu == cpu)
                .then(|| t.span("cpu.build", |_| build_cpu(cpu)))
        })
        .collect()
}

/// One pair, ready to analyse.
pub struct Pair<'c> {
    pub spec: PairSpec,
    pub cpu: &'c Cpu,
    pub bench: Benchmark,
    pub program: Vec<u32>,
    pub analysis: CoAnalysis<'c>,
    /// The start-of-application snapshot: program loaded, inputs `X`,
    /// settled. The probes fork from it.
    pub root: SimState,
}

/// The default configuration with only the two values a caller has to set.
pub fn config(workers: usize, max_cycles: u64) -> CoAnalysisConfig {
    CoAnalysisConfig {
        workers,
        max_cycles_per_segment: max_cycles,
        ..CoAnalysisConfig::default()
    }
}

pub fn build_pairs<'c>(
    cpus: &'c [Option<Cpu>],
    specs: &[PairSpec],
    workers: usize,
    t: &mut Tracer,
) -> Vec<Pair<'c>> {
    specs
        .iter()
        .map(|&spec| {
            let cpu = cpus[spec.cpu].as_ref().expect("built for this workload");
            let bench = benchmark(spec.cpu, spec.bench);
            let program = t.span("cpu.assemble", |_| assemble(spec.cpu, bench.source));
            let analysis = t.span("core.new", |_| {
                CoAnalysis::new(
                    &cpu.netlist,
                    cpu.interface(),
                    config(workers, bench.max_cycles),
                )
                .expect("the default configuration has no constraints to reject")
            });
            let mut sim = t.span("sim.new", |_| {
                Simulator::new(&cpu.netlist, SimConfig::default())
            });
            t.span("sim.prepare", |_| {
                cpu.prepare_symbolic(&mut sim, &program, &bench.data);
                sim.settle();
            });
            let root = t.span("sim.save_state", |_| sim.save_state());
            Pair {
                spec,
                cpu,
                bench,
                program,
                analysis,
                root,
            }
        })
        .collect()
}

impl Pair<'_> {
    /// One co-analysis with the shipped defaults.
    pub fn run(&self) -> CoAnalysisReport {
        self.analysis.run(|sim| {
            self.cpu
                .prepare_symbolic(sim, &self.program, &self.bench.data)
        })
    }
}

/// Runs one operation; a panic inside it is caught and reported as that
/// operation's failure, never as the end of the run.
pub fn guarded<T>(what: &str, op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// A pair analysis counts as done only when it converged (no path ran out
/// of budget, none was dropped) and reached the blessed verdict.
pub fn check_report(label: &str, report: &CoAnalysisReport, golden: u64) -> Result<(), String> {
    if !report.converged() {
        return Err(format!(
            "{label}: did not converge ({} paths out of budget, {} dropped)",
            report.paths_budget_exhausted, report.paths_dropped
        ));
    }
    if report.verdict_digest != golden {
        return Err(format!(
            "{label}: verdict digest {:016x}, golden {golden:016x}",
            report.verdict_digest
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_pick_their_pairs() {
        assert_eq!(pairs_of("sweep18").len(), 18);
        assert_eq!(pairs_of("bespoke_validate").len(), 18);
        let storm = pairs_of("pathstorm_w2");
        assert_eq!(storm.len(), 8);
        assert!(storm.iter().all(|p| CPUS[p.cpu] != "omsp16"));
        let straight = pairs_of("straightline");
        assert_eq!(straight.len(), 3);
        assert!(straight.iter().all(|p| p.bench == "tea8"));
        assert_eq!(all_pairs()[0].label(), "bm32/div");
    }

    #[test]
    fn a_panicking_operation_is_a_failed_operation() {
        let r: Result<(), String> = guarded("op", || panic!("expected in this test"));
        assert!(r.unwrap_err().contains("panicked: expected in this test"));
        assert_eq!(guarded("op", || Ok(3)), Ok(3));
    }
}
