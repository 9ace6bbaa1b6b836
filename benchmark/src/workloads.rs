//! The four workloads as closed loops of identical passes: the next
//! operation starts when the previous one returns, all load comes from this
//! one process, and the only threads are the library's own workers.

use std::time::Instant;

use symsim_core::CoAnalysisReport;
use symsim_cpu::Cpu;
use symsim_obs::JsonValue;

use crate::pairs::{check_report, guarded, Pair, PairSpec};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::validate::{rebind, run_gates, run_iss};

/// The blessed verdict digest of every pair, embedded at build time so the
/// binary needs no path to find it. `--bless` rewrites the file.
const GOLDEN: &str = include_str!("../golden.json");

/// The golden digests of `specs`, in their order. A pair that was never
/// blessed gets 0, which no analysis produces, so its operations fail with
/// both digests shown.
pub fn golden_digests(specs: &[PairSpec]) -> Vec<u64> {
    let doc = JsonValue::parse(GOLDEN).unwrap_or(JsonValue::Null);
    specs
        .iter()
        .map(|spec| {
            doc.get(&spec.label())
                .and_then(JsonValue::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .unwrap_or(0)
        })
        .collect()
}

/// Simulated statistics of one pass, summed over its operations. At one
/// worker they repeat exactly from pass to pass and run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// `CoAnalysis::run` calls.
    pub runs: u64,
    pub paths_created: u64,
    pub paths_skipped: u64,
    pub paths_simulated: u64,
    pub cycles: u64,
    /// `CoAnalysis::run` calls per CPU, indexed like [`crate::spec::CPUS`].
    pub runs_by_cpu: [u64; 3],
    /// Cycles of analyses that never forked (one path), per CPU.
    pub straight_cycles: [u64; 3],
    /// Cycles of analyses that forked, per CPU.
    pub forked_cycles: [u64; 3],
    /// Concretely simulated cycles, original and bespoke netlist, per CPU.
    pub conc_cycles: [u64; 3],
    pub event_evals: u64,
    pub batched_level_evals: u64,
    pub csm_observations: u64,
    pub csm_covered: u64,
    pub csm_widenings: u64,
    pub csm_stored_states: u64,
    pub sched_steals: u64,
    pub sched_parks: u64,
}

impl Counts {
    pub fn add_report(&mut self, cpu: usize, r: &CoAnalysisReport) {
        self.runs += 1;
        self.paths_created += r.paths_created as u64;
        self.paths_skipped += r.paths_skipped as u64;
        self.paths_simulated += r.paths_simulated as u64;
        self.cycles += r.simulated_cycles;
        self.runs_by_cpu[cpu] += 1;
        if r.paths_created > 1 {
            self.forked_cycles[cpu] += r.simulated_cycles;
        } else {
            self.straight_cycles[cpu] += r.simulated_cycles;
        }
        self.event_evals += r.event_evals;
        self.batched_level_evals += r.batched_level_evals;
        self.csm_observations += r.metrics.counter("csm_observations");
        self.csm_covered += r.metrics.counter("csm_covered");
        self.csm_widenings += r.metrics.counter("csm_widenings");
        self.csm_stored_states += r.metrics.gauge("csm_stored_states").max(0) as u64;
        self.sched_steals += r.metrics.counter("sched_steals");
        self.sched_parks += r.metrics.counter("sched_parks");
    }
}

/// One pass: how long it took, how many operations it attempted and how
/// many of those failed, and what was simulated.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub counts: Counts,
}

impl Pass {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.ops += 1;
        match result {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                eprintln!("benchmark: operation failed: {why}");
                None
            }
        }
    }
}

/// The seeded order in which a pass visits `n` pairs.
pub fn pair_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// One pass of a co-analysis workload: every pair analysed once, in
/// `order`. An operation is one pair analysis; `keep` receives each report
/// that passed its checks (the timed passes drop them at once, so a pass
/// never holds more than one report).
pub fn analysis_pass(
    pairs: &[Pair<'_>],
    golden: &[u64],
    order: &[usize],
    t: &mut Tracer,
    mut keep: impl FnMut(usize, CoAnalysisReport),
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    t.span("pass", |t| {
        for (op, &i) in order.iter().enumerate() {
            let pair = &pairs[i];
            let label = pair.spec.label();
            t.set_op(op as u64);
            let report = guarded(&label, || {
                let report = t.span("core.run", |_| pair.run());
                check_report(&label, &report, golden[i])?;
                Ok(report)
            });
            if let Some(report) = pass.record(report) {
                pass.counts.add_report(pair.spec.cpu, &report);
                keep(i, report);
            }
        }
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// What `bespoke_validate` keeps of a pair between passes: the report of
/// the one untimed analysis and the seeded vectors.
pub struct Validated {
    pub report: Option<CoAnalysisReport>,
    pub vectors: Vec<Vec<u64>>,
}

/// One pass of `bespoke_validate`: per pair, generate the bespoke netlist,
/// write it as Verilog and parse it back, then run each vector on the
/// original, the reparsed bespoke netlist and the ISS. An operation is one
/// vector; a pair whose downstream flow breaks fails all of its vectors.
pub fn validate_pass(pairs: &[Pair<'_>], state: &[Validated], t: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    t.span("pass", |t| {
        let mut op = 0u64;
        for (pair, v) in pairs.iter().zip(state) {
            let label = pair.spec.label();
            t.set_op(op);
            let ready = v
                .report
                .as_ref()
                .ok_or_else(|| format!("{label}: no analysis to validate"))
                .and_then(|report| {
                    guarded(&label, || downstream(pair, report, t)).map(|cpu| (cpu, report))
                });
            for inputs in &v.vectors {
                t.set_op(op);
                op += 1;
                let result = match &ready {
                    Ok((bespoke, report)) => guarded(&label, || {
                        one_vector(pair, bespoke, report, inputs, &mut pass.counts, t)
                    }),
                    Err(why) => Err(why.clone()),
                };
                pass.record(result);
            }
        }
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// generate -> write -> parse -> rebind: the bespoke CPU as a downstream
/// tool would load it.
fn downstream(pair: &Pair<'_>, report: &CoAnalysisReport, t: &mut Tracer) -> Result<Cpu, String> {
    let label = pair.spec.label();
    let bespoke = t.span("bespoke.generate", |_| {
        symsim_bespoke::generate(&pair.cpu.netlist, &report.profile)
    });
    let text = t.span("verilog.write", |_| {
        symsim_verilog::write_netlist(&bespoke.netlist)
    });
    let reparsed = t
        .span("verilog.parse", |_| symsim_verilog::parse_netlist(&text))
        .map_err(|e| format!("{label}: bespoke netlist does not parse back: {e}"))?;
    t.span("harness.rebind", |_| rebind(pair.cpu, reparsed))
}

fn one_vector(
    pair: &Pair<'_>,
    bespoke: &Cpu,
    report: &CoAnalysisReport,
    inputs: &[u64],
    counts: &mut Counts,
    t: &mut Tracer,
) -> Result<(), String> {
    let label = pair.spec.label();
    let original = run_gates(pair.cpu, &pair.program, &pair.bench, inputs, t)?;
    let pruned = run_gates(bespoke, &pair.program, &pair.bench, inputs, t)?;
    let golden = t.span("cpu.iss", |_| {
        run_iss(pair.spec, &pair.program, &pair.bench, inputs)
    })?;
    counts.conc_cycles[pair.spec.cpu] += original.cycles + pruned.cycles;
    counts.cycles += original.cycles + pruned.cycles;
    counts.event_evals += original.event_evals + pruned.event_evals;
    counts.batched_level_evals += original.batched_level_evals + pruned.batched_level_evals;
    if original.arch != golden {
        return Err(format!("{label}: netlist and ISS disagree on {inputs:?}"));
    }
    if pruned.arch != original.arch {
        return Err(format!("{label}: bespoke netlist diverges on {inputs:?}"));
    }
    if !report.profile.covers_activity(&original.profile) {
        return Err(format!(
            "{label}: {inputs:?} toggles a gate the analysis called unexercisable"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_order_follows_the_seed() {
        let order = |seed| pair_order(18, &mut Rng::new(seed));
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn every_pair_is_blessed() {
        let digests = golden_digests(&crate::pairs::all_pairs());
        assert_eq!(digests.len(), 18);
        assert!(digests.iter().all(|&d| d != 0));
    }
}
