//! `symsim trace` — offline analysis of run traces recorded with
//! `--trace-out`.
//!
//! Five actions over a parsed [`Trace`]:
//!
//! * `summarize`    — run overview: outcomes, cycles, phase-time table,
//!   per-worker utilization, and the sink's own event/drop accounting.
//! * `lineage`      — the path-lineage tree reconstructed from the fork
//!   records, one line per path with its outcome and cycle count.
//! * `hotspots`     — fork sites ranked by children spawned, plus the
//!   phase-time table (where did the wall-clock go).
//! * `coverage`     — the coverage timeline of an attributed run
//!   (`--attribution yes`) as TSV: one row per growth step of the
//!   covered-net count, with the paths/cycles invested to reach it.
//! * `export-chrome` — the Chrome Trace Event (Perfetto-loadable) JSON
//!   rendering of the trace (coverage becomes a counter track).

use std::collections::HashMap;
use std::fs;

use symsim_obs::{export_chrome, info, Trace, TraceRecord};

use crate::args::Args;

pub fn trace_cmd(args: &Args) -> Result<(), String> {
    let action = args.positional.first().ok_or(
        "trace: expected an action: summarize, lineage, hotspots, coverage, or export-chrome",
    )?;
    let path = args
        .positional
        .get(1)
        .ok_or("trace: expected a trace file (recorded with --trace-out)")?;
    let trace = Trace::read_file(path)?;
    match action.as_str() {
        "summarize" => summarize(&trace),
        "lineage" => lineage(&trace, args.get_usize("max-lines", 200)?),
        "hotspots" => hotspots(&trace, args.get_usize("top", 10)?),
        "coverage" => coverage(&trace),
        "export-chrome" => {
            let doc = export_chrome(&trace);
            match args.get("out") {
                Some(out) => {
                    fs::write(out, doc).map_err(|e| format!("cannot write {out}: {e}"))?;
                    info!("trace", "wrote Chrome trace to {out}");
                }
                None => println!("{doc}"),
            }
            Ok(())
        }
        other => Err(format!(
            "trace: unknown action \"{other}\" (expected summarize, lineage, hotspots, \
             coverage, or export-chrome)"
        )),
    }
}

fn summarize(trace: &Trace) -> Result<(), String> {
    match trace.meta() {
        Some((design, workers)) => println!(
            "trace: {design}, {workers} worker(s), {} record(s), wall {:.3} ms",
            trace.records.len(),
            trace.wall_us() as f64 / 1_000.0
        ),
        None => println!(
            "trace: (no meta record), {} record(s), wall {:.3} ms",
            trace.records.len(),
            trace.wall_us() as f64 / 1_000.0
        ),
    }
    let oc = trace.outcome_counts();
    println!(
        "paths:  {} simulated — {} finished, {} covered, {} split, {} budget-exhausted",
        oc.total(),
        oc.finished,
        oc.covered,
        oc.split,
        oc.budget
    );
    println!(
        "        {} created over {} fork(s)",
        trace.paths_created(),
        trace
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Fork { .. }))
            .count()
    );
    println!("cycles: {} simulated", trace.total_cycles());
    print_phase_table(trace);
    let workers = trace.worker_stats();
    if !workers.is_empty() {
        println!();
        println!("worker  segments      cycles     busy_us     wait_us");
        for w in &workers {
            let label = if w.worker < 0 {
                "main".to_owned()
            } else {
                w.worker.to_string()
            };
            println!(
                "{label:>6}  {:>8}  {:>10}  {:>10}  {:>10}",
                w.segments, w.cycles, w.busy_us, w.wait_us
            );
        }
    }
    if let Some(stats) = trace.summary() {
        println!();
        println!(
            "sink:   {} event(s), {} dropped, {} byte(s)",
            stats.events, stats.dropped, stats.bytes
        );
    }
    Ok(())
}

fn print_phase_table(trace: &Trace) {
    let table = trace.phase_table();
    let total = trace.attributed_us();
    if table.is_empty() {
        return;
    }
    println!();
    println!("phase             total_us       %");
    for (name, us) in &table {
        let pct = if total > 0 {
            *us as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        println!("{name:<16}  {us:>8}  {pct:>5.1}");
    }
    println!("{:<16}  {total:>8}  100.0", "segment total");
}

fn lineage(trace: &Trace, max_lines: usize) -> Result<(), String> {
    let lin = trace.lineage();
    // outcome/cycles per ended path, and the roots (paths nobody forked)
    let mut ends: HashMap<u64, (&str, u64)> = HashMap::new();
    let mut roots: Vec<u64> = Vec::new();
    for r in &trace.records {
        if let TraceRecord::PathEnd {
            path,
            outcome,
            cycles,
            ..
        } = r
        {
            ends.insert(*path, (outcome.name(), *cycles));
            if !lin.parent.contains_key(path) {
                roots.push(*path);
            }
        }
    }
    roots.sort_unstable();
    let sizes = lin.subtree_sizes();
    let mut printed = 0usize;
    // explicit stack of (path, depth); children pushed in reverse keeps
    // the printed order depth-first and ascending
    let mut stack: Vec<(u64, usize)> = roots.iter().rev().map(|&p| (p, 0)).collect();
    while let Some((path, depth)) = stack.pop() {
        if printed >= max_lines {
            println!("... (truncated at {max_lines} lines; raise --max-lines)");
            break;
        }
        let (outcome, cycles) = ends.get(&path).copied().unwrap_or(("?", 0));
        let fork = lin
            .fork_pc
            .get(&path)
            .map(|pc| format!(" fork@{pc}"))
            .unwrap_or_default();
        let subtree = sizes.get(&path).copied().unwrap_or(1);
        println!(
            "{:indent$}path {path}: {outcome}, {cycles} cycle(s), subtree {subtree}{fork}",
            "",
            indent = depth * 2
        );
        printed += 1;
        if let Some(children) = lin.children.get(&path) {
            for &c in children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
    }
    Ok(())
}

/// The coverage timeline as TSV (`paths  cycles  covered  total  pct`),
/// one row per growth step, followed by the per-net first-exercise dump
/// when the trace carries `cover_first` records.
fn coverage(trace: &Trace) -> Result<(), String> {
    let curve = trace.coverage_curve();
    if curve.is_empty() {
        return Err(
            "trace has no coverage records — record it from an --attribution yes run".into(),
        );
    }
    println!("paths\tcycles\tcovered\ttotal\tpct");
    for p in &curve {
        let pct = if p.total > 0 {
            p.covered as f64 * 100.0 / p.total as f64
        } else {
            0.0
        };
        println!(
            "{}\t{}\t{}\t{}\t{pct:.2}",
            p.paths, p.cycles, p.covered, p.total
        );
    }
    let firsts = trace.cover_firsts();
    if !firsts.is_empty() {
        println!();
        println!("net\tpath\tcycle\tpc");
        for f in &firsts {
            println!("{}\t{}\t{}\t{}", f.net, f.path, f.cycle, f.pc);
        }
    }
    Ok(())
}

fn hotspots(trace: &Trace, top: usize) -> Result<(), String> {
    let sites = trace.fork_hotspots();
    if sites.is_empty() {
        println!("no forks recorded");
    } else {
        println!("fork pc               forks  children");
        for site in sites.iter().take(top) {
            println!("{:<20}  {:>5}  {:>8}", site.pc, site.forks, site.children);
        }
        if sites.len() > top {
            println!("... ({} more fork site(s); raise --top)", sites.len() - top);
        }
    }
    print_phase_table(trace);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = concat!(
        "{\"ev\":\"meta\",\"ts_us\":0,\"w\":-1,\"version\":1,\"design\":\"dr5\",\"workers\":1}\n",
        "{\"ev\":\"path_start\",\"ts_us\":2,\"w\":0,\"path\":0,\"cycle\":0}\n",
        "{\"ev\":\"fork\",\"ts_us\":4,\"w\":0,\"parent\":0,\"pc\":\"0x10\",\"first\":1,\"n\":1,\"want\":2,\"signals\":[5]}\n",
        "{\"ev\":\"path_end\",\"ts_us\":5,\"w\":0,\"path\":0,\"outcome\":\"split\",\"cycles\":9,\"children\":1,\"seg_us\":3}\n",
        "{\"ev\":\"path_start\",\"ts_us\":6,\"w\":0,\"path\":1,\"cycle\":9}\n",
        "{\"ev\":\"coverage\",\"ts_us\":7,\"w\":0,\"paths\":1,\"cycles\":9,\"covered\":30,\"total\":64}\n",
        "{\"ev\":\"path_end\",\"ts_us\":8,\"w\":0,\"path\":1,\"outcome\":\"finished\",\"cycles\":4,\"seg_us\":2}\n",
        "{\"ev\":\"cover_first\",\"ts_us\":9,\"w\":-1,\"net\":5,\"path\":1,\"cycle\":12,\"pc\":\"0x10\"}\n",
    );

    #[test]
    fn actions_run_on_a_fixture_trace() {
        let trace = Trace::parse(FIXTURE).unwrap();
        summarize(&trace).unwrap();
        lineage(&trace, 100).unwrap();
        hotspots(&trace, 5).unwrap();
        coverage(&trace).unwrap();
    }

    #[test]
    fn coverage_requires_an_attributed_trace() {
        // first line only: a trace with no coverage records
        let head = FIXTURE.lines().next().unwrap();
        let trace = Trace::parse(head).unwrap();
        let err = coverage(&trace).unwrap_err();
        assert!(err.contains("--attribution"), "{err}");
    }

    #[test]
    fn trace_cmd_rejects_unknown_actions_and_missing_files() {
        let args = Args::parse(&["frobnicate".into(), "nope.trace".into()]).unwrap();
        assert!(trace_cmd(&args).is_err());
        let args = Args::parse(&["summarize".into(), "/no/such/file.trace".into()]).unwrap();
        assert!(trace_cmd(&args).is_err());
    }
}
