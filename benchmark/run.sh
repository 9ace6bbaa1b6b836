#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the result is the last line of standard output. Any other
#       arguments (report, compare, spec, --bless) also go to the binary.
#
#   bash benchmark/run.sh
#       the suite: every workload on seeds 1 and 2 untraced plus one traced
#       run, RUN_SECONDS (default: run_seconds of BENCHMARK.json) each. Run
#       records go to benchmark/out/latest.ndjson, the library's log to
#       benchmark/out/stderr.log, the metric table to benchmark/RESULTS.txt.
#       The records of the suite before are kept and compared against.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# the root target/ keeps incremental builds short; the driver names its own
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/symsim-benchmark"

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

out=benchmark/out
mkdir -p "$out"
seconds="${RUN_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
if [ -f "$out/latest.ndjson" ]; then
    mv "$out/latest.ndjson" "$out/previous.ndjson"
fi
: > "$out/stderr.log"
for workload in sweep18 pathstorm_w2 straightline bespoke_validate; do
    for run in "1 0" "2 0" "1 1"; do
        set -- $run
        echo "benchmark: $workload seed $1 trace $2" >&2
        "$bin" --workload "$workload" --seed "$1" --seconds "$seconds" --trace "$2" \
            --out "$out/latest.ndjson" 2>> "$out/stderr.log" > /dev/null
    done
done
"$bin" report "$out/latest.ndjson" | tee benchmark/RESULTS.txt
if [ -f "$out/previous.ndjson" ]; then
    "$bin" compare "$out/previous.ndjson" "$out/latest.ndjson"
fi
