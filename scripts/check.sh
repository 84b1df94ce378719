#!/usr/bin/env bash
# Full local gate: formatting, the workspace static-analysis suite,
# clippy (warning-free by policy), and the tier-1 build + tests.
# Everything here is what CI runs; a clean exit means the tree is
# mergeable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo xtask lint --format json (gate on the summary block)"
# The JSON report is the machine contract (schema automodel-lint/v2):
# CI archives it, and the gate below fails on any new finding, regressed
# bucket, or stale baseline bucket — mirroring the lint's own exit code
# but proving the report itself stays parseable.
lint_report="$(mktemp)"
cargo xtask lint --format json > "$lint_report" || true
python3 - "$lint_report" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
if doc["schema"] != "automodel-lint/v2":
    sys.exit(f"lint gate: unexpected schema {doc['schema']!r}")
s = doc["summary"]
if s["new"] or s["regressed_buckets"] or s["stale_buckets"] or not s["clean"]:
    for f in doc["findings"]:
        if not f["baselined"]:
            print(f"  {f['file']}:{f['line']}:{f['col']}: "
                  f"[{f['code']}/{f['rule']}] {f['message']}")
    sys.exit(f"lint gate: {s['new']} new finding(s), "
             f"{s['regressed_buckets']} regressed / {s['stale_buckets']} stale bucket(s)")
print(f"lint gate: clean ({s['baselined']} grandfathered, {s['suppressed']} suppressed)")
PY
rm -f "$lint_report"

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (default parallelism)"
cargo test -q

echo "==> cargo test (AUTOMODEL_THREADS=1 — serial determinism replay)"
AUTOMODEL_THREADS=1 cargo test -q

echo "==> fault-injection suite (AUTOMODEL_FAULTS unset)"
cargo test -q --test fault_injection

echo "==> fault-injection drill (AUTOMODEL_FAULTS set — retries must absorb every fault)"
# Faults fire on attempt 0 only, so the default retry policy recovers each
# one and every search path must reproduce its clean results byte for byte.
AUTOMODEL_FAULTS="seed=3,panic=0.1,nan=0.1,delay=0.05" cargo test -q --test fault_injection
AUTOMODEL_FAULTS="seed=3,panic=0.1,nan=0.1,delay=0.05" cargo test -q --test determinism

echo "==> cargo test (AUTOMODEL_CACHE=0 — evaluation cache disabled)"
# The trial cache must be invisible in results: the whole suite passes with
# it forced off and forced on, and the determinism/golden tests assert the
# two modes byte-identical explicitly.
AUTOMODEL_CACHE=0 cargo test -q

echo "==> cargo test (AUTOMODEL_CACHE=1 — evaluation cache enabled)"
AUTOMODEL_CACHE=1 cargo test -q

echo "==> structured-trace gate (byte-identical traces at 1/2/8 threads, trace-on == trace-off)"
# The binary asserts the full contract itself: enabling the tracer must not
# change the trial history, and the captured trace must not depend on the
# worker thread count. Any violation aborts the run.
cargo run --release -q -p automodel-bench --bin exp_trace_overhead -- --scale tiny

echo "==> AUTOMODEL_TRACE capture (JSONL sink, cross-thread diff)"
# The file sink must produce byte-identical JSONL regardless of
# AUTOMODEL_THREADS (the manual clock stamps t=0, so no wall-clock leaks).
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
AUTOMODEL_TRACE="$trace_dir/threads1.jsonl" AUTOMODEL_THREADS=1 \
    cargo run --release -q -p automodel-bench --bin exp_hpo_choice -- --scale tiny >/dev/null
AUTOMODEL_TRACE="$trace_dir/threads8.jsonl" AUTOMODEL_THREADS=8 \
    cargo run --release -q -p automodel-bench --bin exp_hpo_choice -- --scale tiny >/dev/null
test -s "$trace_dir/threads1.jsonl"
grep -q '"ev"' "$trace_dir/threads1.jsonl"
diff "$trace_dir/threads1.jsonl" "$trace_dir/threads8.jsonl"

echo "==> warm-start gate (dmd build -> dmd load --rerun, byte-identical histories)"
# The persisted artifact must verify, and a rebuild warm-started from its
# trial-cache snapshot must reproduce the cold run's trial history byte
# for byte.
store_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$store_dir"' EXIT
cargo run --release -q -- dmd build --out "$store_dir/dmd.store" \
    --history "$store_dir/cold.txt" >/dev/null
cargo run --release -q -- dmd load --artifact "$store_dir/dmd.store" --rerun \
    --history "$store_dir/warm.txt" >/dev/null
test -s "$store_dir/cold.txt"
diff "$store_dir/cold.txt" "$store_dir/warm.txt"

echo "==> dmd build thread gate (1-thread and 8-thread histories identical)"
# Both DMD meta searches score their generations on AUTOMODEL_THREADS
# workers; the trial history and the artifact must not depend on how
# many (tests/crash_recovery.rs also checks 2 threads and the trace).
AUTOMODEL_THREADS=1 cargo run --release -q -- dmd build --out "$store_dir/t1.store" \
    --history "$store_dir/t1.txt" >/dev/null
AUTOMODEL_THREADS=8 cargo run --release -q -- dmd build --out "$store_dir/t8.store" \
    --history "$store_dir/t8.txt" >/dev/null
test -s "$store_dir/t1.txt"
diff "$store_dir/t1.txt" "$store_dir/t8.txt"
cmp "$store_dir/t1.store" "$store_dir/t8.store"

echo "==> warm-start speedup gate (exp_warmstart, floor 1.5x)"
# The binary itself asserts history identity at 1/2/8 threads and that
# restored entries are consumed; the floor check below gates the speedup
# recorded in BENCH_warmstart.json.
cargo run --release -q -p automodel-bench --bin exp_warmstart -- --scale tiny >/dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_warmstart.json"))
if not doc["identical_history"]:
    raise SystemExit("warm-start gate: history diverged")
if doc["speedup"] < 1.5:
    raise SystemExit(f"warm-start gate: speedup {doc['speedup']:.2f}x below the 1.5x floor")
print(f"warm-start gate: {doc['speedup']:.2f}x, {doc['warm_hits']} warm hit(s) "
      f"of {doc['restored']} restored entr(ies)")
PY

echo "==> crash-recovery kill-drill (abort at a batch boundary, resume byte-identical)"
# tests/crash_recovery.rs spawns the CLI, kills it with process::abort
# after the third checkpoint write (AUTOMODEL_CRASH_AFTER), resumes with
# --resume and asserts the trial history is byte-identical to the
# uninterrupted run at 1/2/8 threads — with and without injected IO
# faults — plus the every-byte-offset corruption sweep over a
# checkpoint generation. The tests scrub inherited AUTOMODEL_* vars.
cargo test -q --test crash_recovery

echo "==> checkpoint overhead gate (exp_checkpoint_overhead, ceiling 5%)"
# The binary asserts the checkpointed history is byte-identical to the
# baseline; the ceiling check below gates the durability tax recorded in
# BENCH_checkpoint.json. Small scale: tiny batches make fsync cost look
# artificially large relative to the work it protects.
cargo run --release -q -p automodel-bench --bin exp_checkpoint_overhead -- --scale small >/dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_checkpoint.json"))
if not doc["identical_history"]:
    raise SystemExit("checkpoint gate: history diverged")
if doc["overhead_pct"] >= 5.0:
    raise SystemExit(f"checkpoint gate: overhead {doc['overhead_pct']:.2f}% at or above the 5% ceiling")
print(f"checkpoint gate: {doc['overhead_pct']:+.2f}% over {doc['checkpoints_written']} write(s)")
PY

echo "==> multi-fidelity promotion oracle (schedule re-derived from the trace)"
# tests/multifidelity_oracle.rs replays SHA/Hyperband traces, re-derives
# every promotion/elimination from recorded score bits, and asserts
# byte-identical histories AND traces at 1/2/8 threads under faults,
# trace-on == trace-off, cache-on == cache-off, plus golden histories
# for two seeds. The suite also runs under the env matrices above; this
# stage pins it in the default environment by name.
cargo test -q --test multifidelity_oracle

echo "==> multi-fidelity throughput gate (exp_multifidelity, floor 1.5x)"
# The binary asserts byte-identical SHA histories and identical unit
# spend at 1/2/8 threads; the floor check below gates configurations
# explored per budget unit vs full-fidelity random search as recorded
# in BENCH_multifidelity.json.
cargo run --release -q -p automodel-bench --bin exp_multifidelity -- --scale small >/dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_multifidelity.json"))
if not doc["identical_history"]:
    raise SystemExit("multi-fidelity gate: history diverged")
if doc["throughput_ratio"] < doc["throughput_floor"]:
    raise SystemExit(f"multi-fidelity gate: {doc['throughput_ratio']:.2f}x below "
                     f"the {doc['throughput_floor']}x floor")
print(f"multi-fidelity gate: {doc['throughput_ratio']:.2f}x "
      f"({doc['sha_trials']} SHA trials vs {doc['random_trials']} random at the same spend)")
PY

echo "==> session-oracle conformance suite (spawned server, real protocol)"
# tests/serve_oracle.rs drives a spawned `serve` over TCP: four
# concurrent sessions (one under injected faults) byte-identical to the
# same sessions run alone at 1/2/8 executor threads, warm replays
# bit-exact with cold, per-session budget ceilings enforced, malformed
# lines answered with typed errors on a surviving connection. The serve
# kill-drill in crash_recovery (already run above) covers checkpointed
# session resume.
cargo test -q --test serve_oracle

echo "==> served-answer golden at 1 and 8 executor threads"
# The golden sessions run on in-process servers, so AUTOMODEL_THREADS
# sets their executor width: the answer bytes must not depend on it.
for threads in 1 8; do
    AUTOMODEL_THREADS=$threads cargo test -q --test serve_oracle -- \
        --exact auto_session_answers_match_the_golden
done

echo "==> serve throughput gate (exp_serve, warm/cold floor 2x)"
# The binary asserts warm sessions byte-identical to cold and that warm
# sessions actually consume the shared context pools; the floor check
# below gates the warm/cold sessions-per-second ratio recorded in
# BENCH_serve.json.
cargo run --release -q -p automodel-bench --bin exp_serve -- --scale small >/dev/null
python3 - <<'PY'
import json
doc = json.load(open("BENCH_serve.json"))
if not doc["identical_history"]:
    raise SystemExit("serve gate: warm history diverged from cold")
if doc["warm_speedup"] < doc["speedup_floor"]:
    raise SystemExit(f"serve gate: warm speedup {doc['warm_speedup']:.2f}x below "
                     f"the {doc['speedup_floor']}x floor")
print(f"serve gate: {doc['warm_speedup']:.2f}x warm over cold "
      f"({doc['cold_sessions_per_s']:.1f} -> {doc['warm_sessions_per_s']:.1f} sessions/s)")
PY

echo "All checks passed."
