//! `symsim-benchmark`: the repo benchmark.
//!
//! ```text
//! symsim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! symsim-benchmark report <runs.ndjson>...
//! symsim-benchmark compare <baseline.ndjson> <candidate.ndjson>
//! symsim-benchmark spec
//! symsim-benchmark --bless
//! ```
//!
//! A run executes one workload in this process as a closed loop of
//! identical passes and prints one JSON object as its last line. See
//! `benchmark/README.md`.

mod pairs;
mod probes;
mod report;
mod rng;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod validate;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: symsim-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n\
         \x20      symsim-benchmark report <runs.ndjson>...\n\
         \x20      symsim-benchmark compare <baseline.ndjson> <candidate.ndjson>\n\
         \x20      symsim-benchmark spec\n\
         \x20      symsim-benchmark --bless",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("report") if args.len() >= 2 => report::report(&args[1..]),
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        Some("spec") if args.len() == 1 => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        Some("--bless") if args.len() == 1 => run::bless(),
        Some("--workload") => match run::Args::parse(&args) {
            Some(parsed) => run::run(&parsed),
            None => return usage(),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("symsim-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
