#!/usr/bin/env bash
# Tier-1 gate: formatting, lints (deny warnings), full test suite.
# Run locally before pushing; the GitHub workflow runs this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Repo-wide concurrency/robustness lint: thread-spawn discipline,
# no sleep-polling, unwrap/expect ban in the hot crates, single
# wall-clock site, single environment read, the std-sync lock ban
# (engine locks must go through the parking_lot shim so the model
# checker and lock-order detector cover them — DESIGN §14), and
# `unsafe` only in crates/crypto/src/sha256.rs, each use with its
# `# Safety` doc or `// SAFETY:` comment. Allowlist:
# tools/lint/allowlist.txt. Rule `loc` holds the non-test Rust lines
# under crates/ + tools/ to tools/lint/loc_budget.txt.
echo "==> cargo run -q -p sebdb-lint"
cargo run -q -p sebdb-lint

echo "==> cargo test -q"
cargo test -q

# sebdb-crypto holds the repository's only unsafe code (the SHA-256
# kernel on the CPU's SHA extensions): its tests run optimized too,
# where the kernel is unrolled and inlined as it ships.
echo "==> cargo test --release -q -p sebdb-crypto"
cargo test --release -q -p sebdb-crypto

# A frozen block's proof cuts its leaves into fanout-sized pages and
# indexes stored digest levels by that arithmetic: the index crate's
# tests run optimized too, as the page arithmetic ships.
echo "==> cargo test --release -q -p sebdb-index"
cargo test --release -q -p sebdb-index

# Index checkpoints checksum every level-1 block and their tail with
# XXH64, whose lanes are wrapping 64-bit arithmetic: the storage crate's
# tests (the published vectors, the exhaustive bit-flip sweep) run
# optimized too, as the kernel ships.
echo "==> cargo test --release -q -p sebdb-storage"
cargo test --release -q -p sebdb-storage

# The join phase splits EXPERIMENTS.md quotes (Q5's hash join, Q6's
# on-off hash arm) check that their phases add up to `execute`'s rows:
# that row check runs on the optimized build, as the engine ships and
# as the quoted timings were taken.
echo "==> cargo test --release -q -p sebdb --lib q5_phase_split"
cargo test --release -q -p sebdb --lib q5_phase_split
echo "==> cargo test --release -q -p sebdb --lib q6_phase_split"
cargo test --release -q -p sebdb --lib q6_phase_split
# The authenticated range's split (probe, proofs, payload, auxiliary,
# client checks) checks that its VO, payload and digest are the served
# ones and verify, on the optimized build its quoted timings come from.
echo "==> cargo test --release -q -p sebdb --lib auth_phase_split"
cargo test --release -q -p sebdb --lib auth_phase_split

# Deterministic interleaving checker: exhaustively explores schedules
# of the pipeline/view/mempool/index-cache/segment/partition
# models with the happens-before race detector active on every
# schedule (DESIGN §14), and must find zero invariant violations and
# zero data races — while still *finding* the seeded negative-test
# bugs, including the two seeded races in race_model.rs.
echo "==> cargo test -q -p sebdb-model"
cargo test -q -p sebdb-model

# Second pass pinned to one worker: the relation-run map, the
# `sync_writes` fsyncs and the applier thread must be observably
# equivalent to sequential execution (for the applier: to the direct
# ledger path).
echo "==> SEBDB_THREADS=1 cargo test -q"
SEBDB_THREADS=1 cargo test -q

# Applier equivalence at 4 workers: the one applier thread must stay
# byte-identical and query-equivalent to the direct ledger path
# (`Ledger::append_ordered`, one block at a time on the caller's
# thread) when the relation-run map and the `sync_writes` fsyncs
# actually fan out (the threads=1 case is covered by the full-suite
# pass above).
echo "==> SEBDB_THREADS=4 cargo test -q -p sebdb --test pipeline_equivalence"
SEBDB_THREADS=4 cargo test -q -p sebdb --test pipeline_equivalence

# Paged-index equivalence at both worker counts: queries answered
# through on-disk index checkpoints (fence-pointer top level + bounded
# index-block cache) must stay byte-identical to the fully-resident
# reference whether the relation-run map fans out or not.
echo "==> SEBDB_THREADS=1 cargo test -q -p sebdb --test paged_equivalence"
SEBDB_THREADS=1 cargo test -q -p sebdb --test paged_equivalence
echo "==> SEBDB_THREADS=4 cargo test -q -p sebdb --test paged_equivalence"
SEBDB_THREADS=4 cargo test -q -p sebdb --test paged_equivalence

# Join equivalence at both worker counts: the late-materialized hash
# arms must return the nested-loop rows, in order, whether their
# projected relation scans run inline or fan out (cap 4 is the only
# pass in which they fan out on a 1-2-CPU host).
echo "==> SEBDB_THREADS=1 cargo test -q -p sebdb --test join_equivalence"
SEBDB_THREADS=1 cargo test -q -p sebdb --test join_equivalence
echo "==> SEBDB_THREADS=4 cargo test -q -p sebdb --test join_equivalence"
SEBDB_THREADS=4 cargo test -q -p sebdb --test join_equivalence

# TRACE's arms at 4 workers: Scan, Bitmap, Layered and Auto must return
# the whole-block oracle's rows, in chain order, when the projected
# relation scans under Scan/Bitmap fan out (the full-suite passes above
# run them at the default cap and at 1).
echo "==> SEBDB_THREADS=4 cargo test -q -p sebdb --test trace_arms"
SEBDB_THREADS=4 cargo test -q -p sebdb --test trace_arms

# Third pass with the parking_lot shim's lock-order cycle detector
# compiled in: any lock-acquisition-order inversion anywhere in the
# suite panics with both witness stacks.
echo "==> cargo test -q --workspace --features parking_lot/lock-order"
cargo test -q --workspace --features parking_lot/lock-order

# Disk-resident index bench smoke: the open-time × cache-capacity
# sweep must run end to end and emit a well-formed JSON (schema
# spot-checks below).
echo "==> SEBDB_BENCH_SMOKE=1 cargo bench -p sebdb-bench --bench index_resident"
SEBDB_BENCH_SMOKE=1 cargo bench -q -p sebdb-bench --bench index_resident >/dev/null
smoke=target/BENCH_indexresident_smoke.json
for key in '"bench": "index_resident"' '"cpus":' '"blocks"' '"checkpoint"' \
           '"cache_blocks"' '"open_ms"' '"store_open_ms"' '"resident_index_bytes"' \
           '"store_resident_bytes"' '"cache_resident_bytes"' '"cache_hits"' \
           '"cache_misses"'; do
  grep -q "$key" "$smoke" || { echo "ci: $smoke missing $key"; exit 1; }
done

# Materialized-view bench smoke: the mode=rescan|view sweep must run
# end to end, emit a well-formed JSON (schema spot-checks below), and
# its built-in assertion must hold — serving the view, which each read
# extends over the blocks applied since the last, beats re-running the
# trace on repeat queries, at 1 CPU.
echo "==> SEBDB_BENCH_SMOKE=1 cargo bench -p sebdb-bench --bench tracking"
SEBDB_BENCH_SMOKE=1 cargo bench -q -p sebdb-bench --bench tracking >/dev/null
smoke=target/BENCH_views_smoke.json
for key in '"bench": "views"' '"cpus":' '"blocks"' '"mode"' \
           '"repeat_query_us"' '"append_us_per_block"' '"result_rows"'; do
  grep -q "$key" "$smoke" || { echo "ci: $smoke missing $key"; exit 1; }
done

# Every committed bench JSON must record the host core count, so the
# 1-CPU caveat in ROADMAP stays machine-checkable.
for j in BENCH_*.json; do
  grep -q '"cpus":' "$j" || { echo "ci: $j missing \"cpus\""; exit 1; }
done

# The two-phase authenticated protocol on real nodes (three of them on
# one orderer): an honest answer must verify against two auxiliary
# digests and a hidden result must be refused.
echo "==> cargo run --release --example thin_client_verify -p sebdb"
out="$(cargo run -q --release --example thin_client_verify -p sebdb)"
for line in 'verification passed ✓' 'tampered response rejected ✓'; do
  grep -qF "$line" <<<"$out" || { echo "ci: thin_client_verify did not print '$line'"; exit 1; }
done

# Every orderer end to end on the production clock (wall time, the
# event loop's condvar): PBFT with an equivocating replica under a node,
# then Kafka and Tendermint through Fig. 7's smoke sweep.
echo "==> cargo run --release --example supply_chain -p sebdb"
out="$(cargo run -q --release --example supply_chain -p sebdb)"
grep -qF 'chain verified over PBFT' <<<"$out" || { echo "ci: supply_chain did not verify its chain"; exit 1; }
echo "==> cargo run --release -p sebdb-bench --bin figures -- fig7 smoke"
cargo run -q --release -p sebdb-bench --bin figures -- fig7 smoke

# The join figures' smoke sweeps run Q5 and Q6 under every arm — the
# `Layered` ones included (Algorithm 2's per-side block pruning,
# Algorithm 3's range test) — optimized, as the engine ships.
for fig in fig13 fig15; do
  echo "==> cargo run --release -p sebdb-bench --bin figures -- $fig smoke"
  cargo run -q --release -p sebdb-bench --bin figures -- "$fig" smoke
done

# The end-to-end benchmark package builds against the engine's public
# surface through one adapter (benchmark/src/engine.rs); a reshaped
# engine must fail here, not in the measuring pipeline.
echo "==> benchmark/check.sh"
benchmark/check.sh

echo "ci: all green"
