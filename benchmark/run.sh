#!/usr/bin/env bash
# One command for the SEBDB end-to-end benchmark: builds the benchmark
# package against the engine crates of this checkout, then runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--strict]
#   benchmark/run.sh repeat N DIR [run arguments]   # N runs, results copied to DIR
#   benchmark/run.sh compare A B                    # two such directories
#
# Run from the repository root (BENCHMARK.json names this script by
# that path). Results go to benchmark/out/; the last line of standard
# output is the result object of the (last) workload run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The fixed engine configuration: no knob may leak in from the caller.
# (The binary refuses to start if one is still set.)
for v in $(env | sed -n 's/^\(SEBDB_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/sebdb-benchmark"

if [[ "${1:-}" == "repeat" ]]; then
    runs="$2"
    dest="$3"
    shift 3
    mkdir -p "$dest" benchmark/out
    for i in $(seq 1 "$runs"); do
        stamp="$(mktemp benchmark/out/.stamp.XXXXXX)"
        "$bin" "$@"
        # Only what this run wrote; span files stay where they are.
        find benchmark/out -maxdepth 1 -name '*.json' ! -name '*.trace.json' -newer "$stamp" |
            while read -r f; do cp "$f" "$dest/$(basename "${f%.json}").$i.json"; done
        rm -f "$stamp"
    done
    exit 0
fi

exec "$bin" "$@"
