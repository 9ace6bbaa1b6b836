//! One benchmark run: set-up (repeated and timed), a cold pass, timed
//! passes until the time budget is spent, and — in the traced run — the
//! same passes again under spans, the layer probes and the layer budget.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::pairs::{all_pairs, build_cpus, build_pairs, pairs_of};
use crate::probes::{self, Metrics};
use crate::rng::Rng;
use crate::spec::{self, Workload, CPUS};
use crate::stats::{median, quartiles};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::validate::{vectors, VECTORS_PER_PAIR};
use crate::workloads::{
    analysis_pass, golden_digests, pair_order, validate_pass, Counts, Pass, Validated,
};

/// Set-up is repeated this often and `setup_s` is the median.
const SETUP_REPS: usize = 20;
/// A run times at least this many passes, however short its budget.
const MIN_PASSES: usize = 3;
/// Where the traced run leaves its trace and the probes their scratch file,
/// relative to the repo root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Append this run's record to an NDJSON file for `report`/`compare`.
    pub out: Option<PathBuf>,
}

impl Args {
    pub fn parse(args: &[String]) -> Option<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out = None;
        for pair in args.chunks(2) {
            let [flag, value] = pair else { return None };
            match flag.as_str() {
                "--workload" => workload = Some(spec::workload(value)?),
                "--seed" => seed = Some(value.parse().ok()?),
                "--seconds" => seconds = Some(value.parse().ok().filter(|s| *s > 0.0)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    })
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return None,
            }
        }
        Some(Args {
            workload: workload?,
            seed: seed?,
            seconds: seconds?,
            trace: trace?,
            out,
        })
    }
}

/// Runs passes until `seconds` are spent (at least [`MIN_PASSES`]).
fn timed_passes(seconds: f64, mut one_pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(one_pass());
    }
    passes
}

fn walls(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

pub fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.workers > nproc {
        eprintln!(
            "benchmark: {} wants {} workers but the host offers {nproc}; its numbers say nothing about parallel speed-up here",
            w.name, w.workers
        );
    }
    let specs = pairs_of(w.name);
    let mut rng = Rng::new(args.seed);
    let mut t = Tracer::new(false);

    // ---- set-up, repeated; the last repetition is the one the run uses ----
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let cpus = build_cpus(&specs, &mut t);
        let _pairs = build_pairs(&cpus, &specs, w.workers, &mut t);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    t.set_on(args.trace);
    let start = Instant::now();
    let cpus = t.span("setup.cpus", |t| build_cpus(&specs, t));
    let pairs = t.span("setup.pairs", |t| build_pairs(&cpus, &specs, w.workers, t));
    setup_s.push(start.elapsed().as_secs_f64());
    t.set_on(false);

    let golden = golden_digests(&specs);
    let order = pair_order(pairs.len(), &mut rng);
    let mut ops = 0;
    let mut failed = 0;
    let mut tally = |pass: &Pass| {
        ops += pass.ops;
        failed += pass.failed;
    };

    // ---- the cold pass: what a one-shot user pays ----
    // bespoke_validate analyses once, here, untimed; its passes are the
    // downstream flow on these profiles, one warm-up first
    let validating = w.name == "bespoke_validate";
    let mut reports: Vec<_> = pairs.iter().map(|_| None).collect();
    let first = analysis_pass(&pairs, &golden, &order, &mut t, |i, report| {
        if validating {
            reports[i] = Some(report);
        }
    });
    tally(&first);
    let validated = validating.then(|| {
        // the vectors of every pair, drawn in pair order from the seed
        let state: Vec<Validated> = reports
            .into_iter()
            .zip(&pairs)
            .map(|(report, pair)| Validated {
                report,
                vectors: vectors(&pair.bench, &mut rng, VECTORS_PER_PAIR),
            })
            .collect();
        tally(&validate_pass(&pairs, &state, &mut t));
        state
    });
    let one_pass = |t: &mut Tracer| match &validated {
        Some(state) => validate_pass(&pairs, state, t),
        None => analysis_pass(&pairs, &golden, &order, t, |_, _| ()),
    };

    // ---- timed passes; the traced run spends half its budget under spans ----
    let budget_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let cpu_before = sys::cpu_seconds();
    let loop_start = Instant::now();
    let passes = timed_passes(budget_s, || one_pass(&mut t));
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds()
        .zip(cpu_before)
        .map(|(after, before)| after - before);
    passes.iter().for_each(&mut tally);
    // the second quartile is the median pass
    let [q1, wall_s, q3] = quartiles(&walls(&passes));

    let mut metrics = Metrics::new();
    if args.trace {
        t.set_on(true);
        let traced = timed_passes(budget_s, || one_pass(&mut t));
        traced.iter().for_each(&mut tally);
        let out_dir = Path::new(OUT_DIR);
        fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        metrics = probes::run_all(out_dir, &mut t)?;
        let counts = &passes.last().expect("at least MIN_PASSES").counts;
        let analysed = if validating {
            (&first.counts, first.wall_s)
        } else {
            (counts, wall_s)
        };
        workload_metrics(&mut metrics, w, counts, wall_s, analysed, first.wall_s);
        metrics.insert(
            "sched.cpu_util".into(),
            cpu_s.map_or(0.0, |cpu| cpu / loop_s),
        );
        metrics.insert(
            "trace.overhead_pct".into(),
            100.0 * (median(&walls(&traced)) / wall_s - 1.0),
        );
        let trace_file = out_dir.join(format!("trace-{}.json", w.name));
        fs::write(&trace_file, trace::to_json(w.name, t.spans()))
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    } else {
        metrics.insert("wall_s".into(), wall_s);
        metrics.insert("setup_s".into(), median(&setup_s));
        let rss = sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.insert("peak_rss_mb".into(), rss);
    }

    eprintln!(
        "benchmark: {} seed {} trace {}: {} passes, wall_s median {wall_s:.4} quartiles {q1:.4}..{q3:.4}, {failed} of {ops} operations failed, {nproc} cores",
        w.name,
        args.seed,
        u8::from(args.trace),
        passes.len(),
    );
    let result = result_json(args.trace, ops, failed, &metrics)?;
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\"wall_q1_s\":{q1},\"wall_q3_s\":{q3},\"nproc\":{nproc},\"result\":{result}}}\n",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            passes.len(),
        );
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        file.write_all(record.as_bytes())
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(true)
}

/// The per-layer numbers that come from the workload's own passes: counts
/// of one pass, rates derived from them, and the layer budget.
///
/// `counts` and `wall_s` are those of one timed pass; `analysed` are the
/// counts and host time of the co-analyses behind it (the same pass, except
/// for `bespoke_validate`, whose analyses happen once before its passes).
fn workload_metrics(
    m: &mut Metrics,
    w: &Workload,
    counts: &Counts,
    wall_s: f64,
    (analysed, analysed_s): (&Counts, f64),
    first_pass_s: f64,
) {
    let evals = counts.event_evals + counts.batched_level_evals;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    set("sim.event_evals", counts.event_evals as f64);
    set("sim.batched_level_evals", counts.batched_level_evals as f64);
    set(
        "sim.ns_per_eval",
        ratio(wall_s * 1e9 * w.workers as f64, evals as f64),
    );
    set("csm.observations", analysed.csm_observations as f64);
    set("csm.covered", analysed.csm_covered as f64);
    set("csm.widenings", analysed.csm_widenings as f64);
    set("csm.stored_states", analysed.csm_stored_states as f64);
    set(
        "csm.cover_ratio",
        ratio(
            analysed.csm_covered as f64,
            analysed.csm_observations as f64,
        ),
    );
    set("sched.steals", analysed.sched_steals as f64);
    set("sched.parks", analysed.sched_parks as f64);
    set("explore.paths_created", analysed.paths_created as f64);
    set("explore.paths_skipped", analysed.paths_skipped as f64);
    set("explore.simulated_cycles", analysed.cycles as f64);
    set(
        "explore.us_per_path",
        ratio(analysed_s * 1e6, analysed.paths_created as f64),
    );
    set(
        "explore.cycles_per_s",
        ratio(analysed.cycles as f64, analysed_s),
    );
    set("explore.first_pass_s", first_pass_s);

    // ---- the layer budget: count x probe time, as a share of the pass ----
    // An estimate from outside: the probes time each step in isolation, with
    // warm caches. What the steps do not explain is reported, not hidden.
    let probe = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let mut sim_run_s = 0.0;
    let mut fixed_s = 0.0;
    for (i, cpu) in CPUS.iter().enumerate() {
        for (cycles, rate) in [
            (counts.straight_cycles[i], "sim.sym_cycles_per_s"),
            (counts.forked_cycles[i], "sim.path_cycles_per_s"),
            (counts.conc_cycles[i], "sim.conc_cycles_per_s"),
        ] {
            sim_run_s += ratio(cycles as f64, probe(&format!("{rate}.{cpu}")));
        }
        fixed_s += counts.runs_by_cpu[i] as f64 * probe(&format!("explore.fixed_ms.{cpu}")) / 1e3;
    }
    let forks = counts.paths_simulated.saturating_sub(counts.runs) as f64;
    let sim_fork_s = (forks * probe("sim.fork_child_us")
        + counts.csm_observations as f64 * probe("sim.save_state_us"))
        / 1e6;
    let csm_s = (counts.csm_covered as f64 * probe("csm.observe_covered_us")
        + counts.csm_widenings as f64 * probe("csm.observe_widen_us"))
        / 1e6;
    // with several workers the steps overlap; the share is of worker time
    let whole_s = wall_s * w.workers as f64;
    let mut unattributed = 100.0;
    for (name, part_s) in [
        ("budget.sim_run_pct", sim_run_s),
        ("budget.sim_fork_pct", sim_fork_s),
        ("budget.csm_pct", csm_s),
        ("budget.fixed_pct", fixed_s),
    ] {
        let pct = 100.0 * part_s / whole_s;
        unattributed -= pct;
        m.insert(name.to_string(), pct);
    }
    m.insert("budget.unattributed_pct".into(), unattributed);
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every end-to-end metric (untraced) or every per-layer metric
/// (traced), each with its unit and all its digits.
fn result_json(traced: bool, ops: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    let names: Vec<(String, &str)> = if traced {
        spec::per_layer()
            .into_iter()
            .map(|p| (p.name, p.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|e| (e.name.to_string(), e.unit))
            .collect()
    };
    let mut body = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = metrics
            .get(&name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{ops},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    ))
}

/// Analyses every pair at one and at two workers and, when the verdicts
/// agree, rewrites `benchmark/golden.json`. Only a `benchmark` PR runs this.
pub fn bless() -> Result<bool, String> {
    let specs = all_pairs();
    let cpus = build_cpus(&specs, &mut Tracer::new(false));
    let digests = |workers| -> Vec<u64> {
        build_pairs(&cpus, &specs, workers, &mut Tracer::new(false))
            .iter()
            .map(|p| p.run().verdict_digest)
            .collect()
    };
    let (one, two) = (digests(1), digests(2));
    let mut lines = Vec::new();
    for ((spec, one), two) in specs.iter().zip(one).zip(two) {
        if one != two {
            return Err(format!(
                "{}: verdict {one:016x} at one worker, {two:016x} at two; nothing written",
                spec.label()
            ));
        }
        lines.push(format!("  \"{}\": \"{one:016x}\"", spec.label()));
    }
    let path = Path::new("benchmark/golden.json");
    fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "benchmark: blessed {} pairs into {}; rebuild to use them",
        specs.len(),
        path.display()
    );
    Ok(true)
}
