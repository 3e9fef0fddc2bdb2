#!/usr/bin/env bash
# Smoke test for the harmonyd daemon and harmonyctl client.
#
# Boots a release harmonyd on an ephemeral port with a snapshot path,
# drives one scripted provisioning session end to end, and verifies a
# clean shutdown:
#
#   submit-observations -> tick -> get-plan -> snapshot -> metrics
#     -> status (written to results/BENCH_harmonyd_smoke.json) -> shutdown
#
# Fails on any non-zero harmonyctl exit, a daemon that refuses to die,
# or leftover *.tmp snapshot files (which would mean the atomic
# tmp+rename checkpoint protocol was violated). The metrics response
# must be well-formed JSON carrying live request counters, and a
# follow-up `replay --metrics` run must leave a parseable
# results/BENCH_telemetry.json artifact.
set -euo pipefail

HARMONYD=${HARMONYD:-target/release/harmonyd}
HARMONYCTL=${HARMONYCTL:-target/release/harmonyctl}
REPLAY=${REPLAY:-target/release/harmony-bench replay}
HARMONY_LINT=${HARMONY_LINT:-target/release/harmony-lint}
RESULTS_DIR=${HARMONY_RESULTS_DIR:-results}

# Before booting anything: every metric name the smoke checks below
# key on must exist in the telemetry registry and DESIGN.md, or this
# script would probe counters that can never move. The drift rule is
# the cheap static version of that guarantee.
if [[ ! -x "$HARMONY_LINT" ]]; then
    cargo build --release -p harmony-lint
fi
"$HARMONY_LINT" --deny --rule metric-name-drift

workdir=$(mktemp -d "${TMPDIR:-/tmp}/harmonyd-smoke.XXXXXX")
daemon_pid=""
cleanup() {
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

snapshot="$workdir/harmonyd.ckpt.json"

# Boot under the dollar objective on the accelerator catalog so the
# cost.* telemetry keys move — the smoke then covers the priced LP
# path end to end through the daemon, not just the energy default.
"$HARMONYD" \
    --listen 127.0.0.1:0 \
    --snapshot "$snapshot" \
    --synthetic-seed 33 \
    --synthetic-span-hours 2 \
    --catalog table2-accel \
    --objective dollars-spot \
    --scale 100 \
    >"$workdir/harmonyd.out" 2>"$workdir/harmonyd.err" &
daemon_pid=$!

# The daemon prints exactly one banner line once it is accepting
# connections: "harmonyd listening on HOST:PORT".
addr=""
for _ in $(seq 1 100); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "harmonyd exited before accepting connections" >&2
        cat "$workdir/harmonyd.err" >&2
        exit 1
    fi
    addr=$(sed -n 's/^harmonyd listening on //p' "$workdir/harmonyd.out" | head -n1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "timed out waiting for the harmonyd banner" >&2
    cat "$workdir/harmonyd.err" >&2
    exit 1
fi
echo "harmonyd up at $addr (pid $daemon_pid)"

ctl() { "$HARMONYCTL" --addr "$addr" "$@"; }

ctl submit-observations --count 120 --seed 77
ctl tick
ctl get-plan
ctl snapshot

# A second observation batch and tick so the controller attempts an LP
# warm start from the basis the first tick left behind — that is what
# makes the lp.warm_start_* counters move.
ctl submit-observations --count 120 --seed 78
ctl tick

# The metrics verb must answer well-formed JSON whose counters reflect
# the requests this very session just made.
metrics_json="$workdir/metrics.json"
ctl --output "$metrics_json" metrics >/dev/null
python3 - "$metrics_json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
if m.get("type") != "metrics" or m.get("ok") is not True:
    sys.exit(f"malformed metrics response: {m}")
counters = m.get("counters")
if not isinstance(counters, dict):
    sys.exit(f"metrics response has no counters object: {m}")
# Two submit-observations, two ticks, get-plan, snapshot ran before
# this verb.
if counters.get("server.requests", 0) < 6:
    sys.exit(f"server.requests counter missing or too low: {counters}")
if counters.get("server.requests.tick", 0) < 2:
    sys.exit(f"per-verb request counter missing: {counters}")
# The second tick warm-starts from the first tick's basis. All three
# mutually exclusive outcome counters must exist in the snapshot (they
# are fetched eagerly so dashboards never see a missing key).
for key in (
    "lp.warm_start_hits",
    "lp.warm_start_repair_fallbacks",
    "lp.warm_start_structural_fallbacks",
):
    if key not in counters:
        sys.exit(f"warm-start counter {key} missing: {sorted(counters)}")
warm = counters.get("lp.warm_start_hits", 0)
repair = counters.get("lp.warm_start_repair_fallbacks", 0)
structural = counters.get("lp.warm_start_structural_fallbacks", 0)
# The LP's rows and columns depend only on (classes, types, horizon,
# compatibility), so the second tick's basis always fits: it must hit,
# and no tick may fall back for a dimension change.
if warm < 1:
    sys.exit(f"second tick did not warm-start: {counters}")
if structural != 0:
    sys.exit(f"structural warm-start fallback with a fixed class set: {counters}")
# The resilience counters are pre-registered at daemon start, so they
# must be present (zero is fine — this session sheds nothing).
for key in ("server.shed_total", "server.timeout_total", "server.ticker_restarts"):
    if key not in counters:
        sys.exit(f"resilience counter {key} missing: {sorted(counters)}")
gauges = m.get("gauges")
if not isinstance(gauges, dict):
    sys.exit(f"metrics response has no gauges object: {m}")
if gauges.get("pipeline.workers", 0) < 1:
    sys.exit(f"pipeline.workers gauge missing: {gauges}")
# The daemon booted with --objective dollars-spot: both ticks must
# have priced their plans and accrued real spend.
if counters.get("cost.dollar_solves", 0) < 2:
    sys.exit(f"cost.dollar_solves counter missing or too low: {counters}")
if gauges.get("cost.cumulative_dollars", 0) <= 0:
    sys.exit(f"cost.cumulative_dollars gauge missing or zero: {gauges}")
print(
    "metrics verb OK:", counters.get("server.requests"), "requests;",
    f"warm starts hit={warm} repair-fallback={repair} structural-fallback={structural};",
    "workers =", gauges.get("pipeline.workers"), ";",
    "spend = $%.2f" % gauges.get("cost.cumulative_dollars", 0.0),
)
PY

mkdir -p "$RESULTS_DIR"
ctl --output "$RESULTS_DIR/BENCH_harmonyd_smoke.json" status
ctl shutdown

# Graceful shutdown: the process must exit on its own, promptly.
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "harmonyd still running after shutdown verb" >&2
    exit 1
fi
wait "$daemon_pid" || {
    echo "harmonyd exited non-zero" >&2
    exit 1
}
daemon_pid=""

[[ -f "$snapshot" ]] || { echo "missing snapshot $snapshot" >&2; exit 1; }
tmp_files=$(find "$workdir" -name '*.tmp' -print)
if [[ -n "$tmp_files" ]]; then
    echo "leftover temp snapshot files:" >&2
    echo "$tmp_files" >&2
    exit 1
fi
[[ -s "$RESULTS_DIR/BENCH_harmonyd_smoke.json" ]] || {
    echo "missing $RESULTS_DIR/BENCH_harmonyd_smoke.json" >&2
    exit 1
}

# Offline telemetry artifact: a quick fault replay with --metrics must
# leave a parseable snapshot with the per-stage pipeline timings.
# ($REPLAY is a command plus its subcommand: split on purpose.)
# shellcheck disable=SC2086
HARMONY_SCALE=quick $REPLAY --faults crash-storm --metrics >/dev/null
python3 - "$RESULTS_DIR/BENCH_telemetry.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
names = {h["name"] for h in snap.get("histograms", [])}
want = {"pipeline.lp_seconds", "pipeline.period_seconds"}
if not want <= names:
    sys.exit(f"telemetry artifact missing stage timings {want - names}")
if snap.get("counters", {}).get("lp.pivots", 0) < 1:
    sys.exit(f"telemetry artifact missing pivot counters: {snap.get('counters')}")
# Simulator gauges: the replay ran real simulations, so the pending
# high-watermark and event-queue peak must have moved, and the bench
# harness must have attached the wall-clock event throughput (the
# simulator itself may not read clocks — wall-clock lint).
gauges = snap.get("gauges", {})
for key in ("sim.pending_peak", "sim.heap_peak"):
    if gauges.get(key, -1.0) < 0.0:
        sys.exit(f"simulator gauge {key} missing: {sorted(gauges)}")
if gauges.get("sim.events_per_sec", 0.0) <= 0.0:
    sys.exit(f"sim.events_per_sec gauge missing or zero: {sorted(gauges)}")
print(
    "telemetry artifact OK:", sorted(names), ";",
    "events/sec = %.0f" % gauges["sim.events_per_sec"], ";",
    "pending peak =", gauges["sim.pending_peak"], ";",
    "queue peak =", gauges["sim.heap_peak"],
)
PY

echo "harmonyd smoke test passed"
