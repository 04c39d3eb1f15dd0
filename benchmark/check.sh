#!/usr/bin/env bash
# Gate for the benchmark package itself (ci.sh does not know about it):
# format, lints, unit tests, then a smoke run of every workload —
# untraced and traced — and the schema loop over what they emitted.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
target="${CARGO_TARGET_DIR:-benchmark/target}"
here_flags=(--offline --release --manifest-path benchmark/Cargo.toml --target-dir "$target")

cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy "${here_flags[@]}" --all-targets -- -D warnings
cargo test "${here_flags[@]}"

start=$(date +%s)
benchmark/run.sh --smoke --strict >/dev/null
echo "smoke, untraced: $(( $(date +%s) - start )) s for all four workloads"
benchmark/run.sh --smoke --strict --trace >/dev/null
benchmark/run.sh check-schema benchmark/out
