//! Reading run records back: `report` prints every metric by name,
//! `compare` holds a candidate set of runs against a baseline set with the
//! bounds of `BENCHMARK.json`, and `spec` prints `BENCHMARK.json` itself.

use std::collections::BTreeMap;
use std::fs;

use symsim_obs::JsonValue;

use crate::spec::{self, Source, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// How long one run measures under the driver, seconds.
const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, generated from the tables in [`crate::spec`].
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                e.name, e.unit, e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = spec::per_layer()
        .iter()
        .map(|p| {
            let better = if p.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                p.name, p.unit
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One run as `--out` recorded it.
struct Run {
    workload: String,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = JsonValue::parse(line).map_err(|e| bad(&e))?;
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        let count = |key: &str| result.get(key).and_then(JsonValue::as_u64);
        let JsonValue::Object(members) = result.get("metrics").ok_or_else(|| bad("no metrics"))?
        else {
            return Err(bad("metrics is not an object"));
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(JsonValue::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| bad("metric without a value"))
            })
            .collect::<Result<_, _>>()?;
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            traced: doc.get("trace").and_then(JsonValue::as_u64) == Some(1),
            attempted: count("attempted").ok_or_else(|| bad("no attempted"))?,
            failed: count("failed").ok_or_else(|| bad("no failed"))?,
            metrics,
        });
    }
    Ok(runs)
}

/// `(workload, metric)` to the values its runs reported.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples(runs: &[Run], traced: bool) -> Samples {
    let mut out = Samples::new();
    for run in runs.iter().filter(|r| r.traced == traced) {
        for (name, value) in &run.metrics {
            out.entry((run.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    out
}

/// `(failed, attempted)` per workload, over all its runs.
fn failures(runs: &[Run]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for run in runs {
        let entry = out.entry(run.workload.clone()).or_default();
        entry.0 += run.failed;
        entry.1 += run.attempted;
    }
    out
}

/// Prints every end-to-end and per-layer metric by name, with unit,
/// workload, sample count, median and quartiles.
pub fn report(paths: &[String]) -> Result<bool, String> {
    let mut runs = Vec::new();
    for path in paths {
        runs.extend(load(path)?);
    }
    let end_to_end = samples(&runs, false);
    let per_layer = samples(&runs, true);
    let failures = failures(&runs);
    let row = |workload: &str, name: &str, unit: &str, note: &str, values: Option<&Vec<f64>>| {
        let Some(values) = values else { return };
        let [q1, q2, q3] = quartiles(values);
        println!(
            "{workload:<17} {name:<34} {:>4} {q2:>16.4} {q1:>16.4} {q3:>16.4} {unit:<6} {note}",
            values.len()
        );
    };
    println!(
        "{:<17} {:<34} {:>4} {:>16} {:>16} {:>16} {:<6} note",
        "workload", "metric", "n", "median", "q1", "q3", "unit"
    );
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let key = (w.name.to_string(), e.name.to_string());
            let note = format!("bound {:.0}%; {}", e.bound * 100.0, e.what);
            row(w.name, e.name, e.unit, &note, end_to_end.get(&key));
        }
        if let Some((failed, attempted)) = failures.get(w.name) {
            println!(
                "{:<17} {:<34} {failed} of {attempted}",
                w.name, "failed_ops"
            );
        }
    }
    for w in &WORKLOADS {
        for p in spec::per_layer() {
            let key = (w.name.to_string(), p.name.clone());
            let kind = if p.source == Source::Probe {
                "probe"
            } else {
                "workload"
            };
            let note = format!("{kind}; moves {}", p.moves);
            row(w.name, &p.name, p.unit, &note, per_layer.get(&key));
        }
    }
    Ok(true)
}

/// What `compare` concludes for one workload x end-to-end metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Unchanged,
    Improved,
    /// The runs of one side differ among themselves by more than the bound:
    /// the metric cannot be called unchanged.
    Unresolved,
    Regression,
}

/// Applies `bound` to a lower-is-better metric measured `baseline` and
/// `candidate` times.
pub fn judge(baseline: &[f64], candidate: &[f64], bound: f64) -> Verdict {
    let (base, cand) = (median(baseline), median(candidate));
    let worse = (cand - base) / base;
    if worse > bound {
        Verdict::Regression
    } else if spread(baseline).max(spread(candidate)) > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Holds the runs in `candidate` against those in `baseline`: one row per
/// workload and end-to-end metric, then the failed share and the exact
/// counts. `Ok(false)` — a non-zero exit — on a regression, a larger failed
/// share, or a drifted count.
pub fn compare(baseline: &str, candidate: &str) -> Result<bool, String> {
    let (a, b) = (load(baseline)?, load(candidate)?);
    let (a_e2e, b_e2e) = (samples(&a, false), samples(&b, false));
    let mut ok = true;
    println!(
        "{:<17} {:<12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "spread", "bound"
    );
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let key = (w.name.to_string(), e.name.to_string());
            let (Some(base), Some(cand)) = (a_e2e.get(&key), b_e2e.get(&key)) else {
                continue;
            };
            let verdict = judge(base, cand, e.bound);
            ok &= verdict != Verdict::Regression;
            println!(
                "{:<17} {:<12} {:>12.4} {:>12.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {verdict:?}",
                w.name,
                e.name,
                median(base),
                median(cand),
                100.0 * (median(cand) - median(base)) / median(base),
                100.0 * spread(base).max(spread(cand)),
                100.0 * e.bound,
            );
        }
    }
    let (a_failed, b_failed) = (failures(&a), failures(&b));
    for w in &WORKLOADS {
        let (Some(&(fa, na)), Some(&(fb, nb))) = (a_failed.get(w.name), b_failed.get(w.name))
        else {
            continue;
        };
        // shares compared by cross-multiplying: no rounding
        let larger = u128::from(fb) * u128::from(na) > u128::from(fa) * u128::from(nb);
        ok &= !larger;
        println!(
            "{:<17} failed_ops   {fa} of {na} -> {fb} of {nb}  {}",
            w.name,
            if larger { "LARGER FAILED SHARE" } else { "ok" }
        );
    }
    // a count the program makes repeats exactly at one worker, so between
    // two runs of the same code it may not differ at all
    let (a_layers, b_layers) = (samples(&a, true), samples(&b, true));
    for w in &WORKLOADS {
        for p in spec::per_layer().iter().filter(|p| p.exact) {
            if p.source == Source::Workload && w.workers > 1 {
                continue;
            }
            let key = (w.name.to_string(), p.name.clone());
            let (Some(base), Some(cand)) = (a_layers.get(&key), b_layers.get(&key)) else {
                continue;
            };
            let first = base[0];
            if base.iter().chain(cand).any(|&v| v != first) {
                ok = false;
                println!(
                    "{:<17} {:<34} COUNT DRIFTED: {base:?} -> {cand:?}",
                    w.name, p.name
                );
            }
        }
    }
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_and_flags_noise() {
        let steady = [1.00, 1.01, 1.00, 0.99, 1.00];
        assert_eq!(
            judge(&steady, &[1.02, 1.03, 1.02], 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &[1.10, 1.11, 1.10], 0.05),
            Verdict::Regression
        );
        assert_eq!(judge(&steady, &[0.90, 0.91, 0.90], 0.05), Verdict::Improved);
        // medians agree, but one side's own runs are 20% apart
        let noisy = [0.9, 1.0, 1.1, 0.9, 1.1];
        assert_eq!(judge(&steady, &noisy, 0.05), Verdict::Unresolved);
        // noise never hides a regression
        assert_eq!(judge(&steady, &[1.2, 1.4, 1.6], 0.05), Verdict::Regression);
    }

    #[test]
    fn generated_benchmark_json_is_the_committed_one() {
        assert_eq!(benchmark_json(), include_str!("../../BENCHMARK.json"));
    }
}
