#!/usr/bin/env bash
# Tier-1 verification for the SnackNoC reproduction — fully offline.
#
# The workspace owns all of its randomness (crates/prng) and vendors no
# third-party crates, so everything here must succeed with zero network
# and zero registry access. Run from anywhere; operates on the repo root.
#
#   ./scripts/verify.sh          # guard + build + test + clippy
#   ./scripts/verify.sh guard    # manifest guard only (fast)

set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------------
# Guard: no registry dependencies may be (re)introduced. Every entry in any
# dependency section of any manifest must be a path dependency or a
# `workspace = true` reference to one; `[workspace.dependencies]` itself
# may contain only path deps. A bare `name = "1.2"` or a `version =` key
# inside a dependency table is a registry dep and fails the build.
# ---------------------------------------------------------------------------
guard() {
  local bad=0
  for manifest in Cargo.toml crates/*/Cargo.toml snack_bench/Cargo.toml; do
    # awk: track the current [section]; inside dependency sections, flag
    # any non-blank, non-comment line that neither declares a path dep nor
    # opts into the workspace dep table.
    local offending
    offending=$(awk '
      /^\[/ {
        in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies(\.|\])/)
        next
      }
      in_deps && NF && $0 !~ /^[[:space:]]*#/ \
              && $0 !~ /path[[:space:]]*=/ \
              && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/ {
        print FILENAME ": " $0
      }
    ' "$manifest")
    if [ -n "$offending" ]; then
      echo "ERROR: non-path/non-workspace dependency in $manifest:" >&2
      echo "$offending" >&2
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "The SnackNoC workspace is hermetic: only path deps and" >&2
    echo "'workspace = true' references are allowed (see README §Building)." >&2
    exit 1
  fi
  echo "manifest guard: ok (all dependencies are in-repo)"
}

guard
if [ "${1:-}" = "guard" ]; then
  exit 0
fi

# The pairwise speed-comparison script is only run by hand; at least
# keep it parseable.
echo "+ bash -n scripts/pairwise.sh"
bash -n scripts/pairwise.sh

echo "+ cargo build --release --offline"
cargo build --release --offline

echo "+ cargo build --release --offline --workspace --examples"
cargo build --release --offline --workspace --examples

echo "+ cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "+ cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Docs build warning-free: a doc link to a renamed or deleted item fails
# here instead of going stale silently.
echo "+ RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The benchmark package (snack_bench/, its own workspace) builds against
# the simulator's public API: test and lint it here so an API change that
# breaks it fails this gate instead of the next benchmark run.
echo "+ cargo test --offline --manifest-path snack_bench/Cargo.toml"
cargo test --offline --manifest-path snack_bench/Cargo.toml

echo "+ cargo clippy --offline --manifest-path snack_bench/Cargo.toml --all-targets -- -D warnings"
cargo clippy --offline --manifest-path snack_bench/Cargo.toml --all-targets -- -D warnings

trace_json=$(mktemp)
perf_json=$(mktemp)
chaos_json=$(mktemp)
service_json=$(mktemp)
chaos_capture=$(mktemp)
service_capture=$(mktemp)
capture_dir=$(mktemp -d)
trap 'rm -f "$trace_json" "$perf_json" "$chaos_json" "$service_json" \
  "$chaos_capture" "$service_capture"; rm -rf "$capture_dir"' EXIT

# A report that cannot be written is an error, not a silent success: a
# write to a full device must exit 1 with a message naming the path.
echo "+ snack-chaos --smoke --json /dev/full (must exit 1)"
status=0
full_err=$(cargo run --release --offline -q -p snacknoc-bench --bin snack-chaos -- \
  --smoke --json /dev/full 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 1 ] || ! echo "$full_err" | grep -q "cannot write /dev/full"; then
  echo "ERROR: snack-chaos --json /dev/full exited $status (want 1 with an error):" >&2
  echo "$full_err" >&2
  exit 1
fi

# The same holds for the figure binaries' CSV series: a --csv prefix in a
# directory that does not exist must exit 1 naming the path.
echo "+ fig2_slack_timeseries --csv into a missing directory (must exit 1)"
missing_dir=$(mktemp -d)
rmdir "$missing_dir"
status=0
csv_err=$(cargo run --release --offline -q -p snacknoc-bench --bin fig2_slack_timeseries -- \
  --scale 0.001 --csv "$missing_dir/fig2" 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 1 ] || ! echo "$csv_err" | grep -q "cannot write $missing_dir/fig2"; then
  echo "ERROR: fig2_slack_timeseries --csv into a missing directory exited $status" \
    "(want 1 with an error):" >&2
  echo "$csv_err" >&2
  exit 1
fi

# Fault smoke: randomized permanent+transient fault schedules and fixed
# 5% drop/corrupt rates with the token-loss watchdog on, every cell run
# in both stepping modes; the binary exits non-zero unless every
# invariant holds (termination with a typed verdict, bit-exact outputs,
# transient recovery, consistent degradation reports, bounded retries,
# two-mode bit-identity) AND at least one cell completed through an
# actual remap/failover AND the fixed-rate cells detected a loss. The
# greps and awk passes re-assert these from the shell so a
# silently-broken self-check cannot pass CI.
echo "+ snack-chaos --smoke"
cargo run --release --offline -q -p snacknoc-bench --bin snack-chaos -- \
  --smoke --json "$chaos_json"
grep -q '"invariants_hold": true' "$chaos_json" || {
  echo "ERROR: snack-chaos JSON reports an invariant violation" >&2
  exit 1
}
grep -q '"modes_agree": true' "$chaos_json" || {
  echo "ERROR: snack-chaos JSON has no mode agreement rows" >&2
  exit 1
}
if grep -q '"modes_agree": false' "$chaos_json"; then
  echo "ERROR: a chaos cell diverged across stepping modes" >&2
  exit 1
fi
awk -v RS='}' '
  /"degraded_completions":/ {
    match($0, /"degraded_completions": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), kv, ": ")
    if (kv[2] + 0 < 1) {
      print "ERROR: chaos smoke never exercised remap/failover" > "/dev/stderr"
      exit 1
    }
    found = 1
  }
  END { if (!found) { print "ERROR: no degraded_completions field in chaos JSON" > "/dev/stderr"; exit 1 } }' \
  "$chaos_json"
# The fixed-rate rows (named kernel-size/clean|dropR|corruptR/sSEED)
# must have detected losses between them and recovered every one.
awk '
  /"name": "[^"]*\/(clean|drop[0-9.e-]+|corrupt[0-9.e-]+)\/s[0-9]+"/ {
    match($0, /"detected": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), detected, ": ")
    match($0, /"recovered": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), recovered, ": ")
    if (recovered[2] + 0 != detected[2] + 0) {
      print "ERROR: a fixed-rate fault cell recovered " recovered[2] " of " detected[2] \
            " detected losses" > "/dev/stderr"
      bad = 1
      exit 1
    }
    total += detected[2]
    rows++
  }
  END {
    if (bad) exit 1
    if (!rows) { print "ERROR: no fixed-rate rows in the chaos smoke JSON" > "/dev/stderr"; exit 1 }
    if (total == 0) { print "ERROR: the fixed-rate smoke cells detected no loss" > "/dev/stderr"; exit 1 }
  }' "$chaos_json"

# Tracing smoke: run a kernel under the RingTracer and demand (a) the
# emitted Chrome trace JSON parses, (b) at least one event per component
# class (router / rcu / cpm), and (c) the critical-path attribution sums
# exactly to the kernel latency. All three checks live inside the binary
# and --smoke makes them fatal; the greps below re-assert (a)+(b) from
# the shell so a silently-broken self-check cannot pass CI.
echo "+ snack-trace --smoke"
trace_out=$(cargo run --release --offline -q -p snacknoc-bench --bin snack-trace -- \
  --smoke --json "$trace_json")
echo "$trace_out"
echo "$trace_out" | grep -q "^validated: " || {
  echo "ERROR: snack-trace --smoke did not validate its own trace" >&2
  exit 1
}
for lane in router rcu cpm; do
  grep -q "\"name\":\"$lane\"" "$trace_json" || {
    echo "ERROR: trace JSON is missing the $lane lane" >&2
    exit 1
  }
done

# Stepping-mode hot-loop smoke: time Network::step + a closed-loop
# platform scenario + a kernel under the dense reference loop and serial
# stepping (active sets plus clock jumps), and demand the stats
# fingerprints are bit-identical across both (the binary exits non-zero
# on any mismatch; the greps re-assert the identity line and the JSON
# schema from the shell so a silently-broken self-check cannot pass CI).
# The serial rows must exist, and on the idle mesh serial stepping must
# beat the dense baseline — that ordering is structural (serial stepping
# jumps dead cycles the dense loop must walk), so even a loaded CI
# machine keeps it true.
echo "+ snack-perf --smoke"
perf_out=$(cargo run --release --offline -q -p snacknoc-bench --bin snack-perf -- \
  --smoke --json "$perf_json")
echo "$perf_out"
echo "$perf_out" | grep -q "^stats-identical: yes" || {
  echo "ERROR: snack-perf --smoke did not prove serial == dense stats" >&2
  exit 1
}
grep -q '"schema": "snacknoc-perf-v4"' "$perf_json" || {
  echo "ERROR: snack-perf JSON is missing the snacknoc-perf-v4 schema tag" >&2
  exit 1
}
grep -q '"stats_identical": true' "$perf_json" || {
  echo "ERROR: snack-perf JSON reports a stats mismatch" >&2
  exit 1
}
grep -q '"serial_cycles_per_sec"' "$perf_json" || {
  echo "ERROR: snack-perf JSON is missing the serial-stepping timing rows" >&2
  exit 1
}
# v2 loaded-path fields (DESIGN.md §16): every step row must carry the
# injected-flit count and the flits/sec throughput figure.
for field in '"injected_flits":' '"flits_per_sec":'; do
  grep -q "$field" "$perf_json" || {
    echo "ERROR: snack-perf JSON is missing the v2 field $field" >&2
    exit 1
  }
done
awk -v RS='}' '/"name": "idle/ {
  match($0, /"speedup": [0-9.]+/)
  split(substr($0, RSTART, RLENGTH), kv, ": ")
  if (kv[2] + 0 <= 1.0) {
    print "ERROR: idle serial speedup " kv[2] " is not above the dense baseline" > "/dev/stderr"
    exit 1
  }
  found = 1
}
END { if (!found) { print "ERROR: no idle row in snack-perf JSON" > "/dev/stderr"; exit 1 } }' \
  "$perf_json"

# Loaded-path gates on the committed full capture (DESIGN.md §16): the
# v4 schema, a saturation/32x32 scaling row, stats_identical on *every*
# row (step and kernel alike — a single false bit means a
# stepping mode diverged from the dense oracle), and the saturation
# 16x16 serial median beating the committed pre-PR capture
# (EXPERIMENTS.md "Simulator performance": 1 561 807 930 ns on the same
# container class; the PR-10 data-layout work targets >= 1.5x, the gate
# keeps margin for slower hosts).
if [ -f BENCH_perf.json ]; then
  grep -q '"schema": "snacknoc-perf-v4"' BENCH_perf.json || {
    echo "ERROR: committed BENCH_perf.json is not a snacknoc-perf-v4 capture" >&2
    exit 1
  }
  grep -q '"name": "saturation/32x32"' BENCH_perf.json || {
    echo "ERROR: committed BENCH_perf.json is missing the saturation/32x32 row" >&2
    exit 1
  }
  if grep -q '"stats_identical": false' BENCH_perf.json; then
    echo "ERROR: a committed BENCH_perf.json row is not bit-identical across modes" >&2
    exit 1
  fi
  awk -v RS='}' -v pre_pr_ns=1561807930 '/"name": "saturation\/16x16"/ {
    match($0, /"serial_median_ns": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), kv, ": ")
    speedup = pre_pr_ns / (kv[2] + 0)
    if (speedup < 1.2) {
      print "ERROR: saturation/16x16 serial median " kv[2] " ns is only " \
            speedup "x over the pre-PR baseline (need >= 1.2x)" > "/dev/stderr"
      exit 1
    }
    printf "loaded-path gate: saturation/16x16 %.2fx over pre-PR baseline\n", speedup
    found = 1
  }
  END { if (!found) { print "ERROR: no saturation/16x16 row in BENCH_perf.json" > "/dev/stderr"; exit 1 } }' \
    BENCH_perf.json
  # Flat router storage (DESIGN.md §16, "Router storage") pays where
  # router state outgrows L2: the saturation/32x32 serial median must
  # beat the capture taken before it (EXPERIMENTS.md "Simulator
  # performance": 5 217 001 235 ns, 2-vCPU host) by >= 1.25x.
  awk -v RS='}' -v pre_storage_ns=5217001235 '/"name": "saturation\/32x32"/ {
    match($0, /"serial_median_ns": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), kv, ": ")
    speedup = pre_storage_ns / (kv[2] + 0)
    if (speedup < 1.25) {
      print "ERROR: saturation/32x32 serial median " kv[2] " ns is only " \
            speedup "x over the pre-storage baseline (need >= 1.25x)" > "/dev/stderr"
      exit 1
    }
    printf "router-storage gate: saturation/32x32 %.2fx over pre-storage baseline\n", speedup
    found = 1
  }
  END { if (!found) { print "ERROR: no saturation/32x32 row in BENCH_perf.json" > "/dev/stderr"; exit 1 } }' \
    BENCH_perf.json
fi

# Service smoke (DESIGN.md §15): the multi-tenant SLO sweep at three
# load levels, every level in both stepping modes; the binary exits
# non-zero unless every level is violation-free and two-mode
# bit-identical, Guaranteed p99 < BestEffort p99 at peak, and the peak
# level tripped admission control. The greps re-assert the JSON schema
# from the shell so a silently-broken self-check cannot pass CI.
echo "+ snack-service --smoke"
cargo run --release --offline -q -p snacknoc-bench --bin snack-service -- \
  --smoke --json "$service_json"
grep -q '"schema": "snacknoc-service-v1"' "$service_json" || {
  echo "ERROR: snack-service JSON is missing the snacknoc-service-v1 schema tag" >&2
  exit 1
}
for field in '"p50":' '"p90":' '"p99":' '"fairness":' '"classes":' '"tenants":'; do
  grep -q "$field" "$service_json" || {
    echo "ERROR: snack-service JSON is missing the field $field" >&2
    exit 1
  }
done
grep -q '"invariants_hold": true' "$service_json" || {
  echo "ERROR: snack-service JSON reports an invariant violation" >&2
  exit 1
}
grep -q '"qos_protected": true' "$service_json" || {
  echo "ERROR: snack-service JSON says Guaranteed p99 was not protected at peak" >&2
  exit 1
}
if grep -q '"modes_identical": false' "$service_json"; then
  echo "ERROR: a snack-service load level diverged across stepping modes" >&2
  exit 1
fi
grep -q '"modes_identical": true' "$service_json" || {
  echo "ERROR: snack-service JSON has no mode identity rows" >&2
  exit 1
}
# Peak rejections must be nonzero and every fairness index in [0, 1].
awk '
  /"rejections_at_peak":/ {
    match($0, /"rejections_at_peak": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), kv, ": ")
    if (kv[2] + 0 == 0) {
      print "ERROR: peak load never tripped admission control" > "/dev/stderr"
      exit 1
    }
    peak = 1
  }
  /"fairness":/ {
    match($0, /"fairness": [0-9.]+/)
    split(substr($0, RSTART, RLENGTH), kv, ": ")
    if (kv[2] + 0 < 0 || kv[2] + 0 > 1) {
      print "ERROR: Jain fairness " kv[2] " is outside [0, 1]" > "/dev/stderr"
      exit 1
    }
    fair++
  }
  END {
    if (!peak) { print "ERROR: no rejections_at_peak in snack-service JSON" > "/dev/stderr"; exit 1 }
    if (!fair) { print "ERROR: no fairness fields in snack-service JSON" > "/dev/stderr"; exit 1 }
  }' "$service_json"

# Only a default run may write a committed capture: the three smokes,
# run without --json from an empty directory, must leave it empty, so a
# smoke or custom grid can never replace a BENCH_*.json the gates above
# and below compare against.
echo "+ snack-chaos / snack-service / snack-perf --smoke write no capture without --json"
repo_root=$PWD
for bin in snack-chaos snack-service snack-perf; do
  (cd "$capture_dir" && cargo run --release --offline -q --manifest-path "$repo_root/Cargo.toml" \
    -p snacknoc-bench --bin "$bin" -- --smoke >/dev/null)
done
written=$(find "$capture_dir" -name 'BENCH_*.json')
if [ -n "$written" ]; then
  echo "ERROR: a --smoke run without --json wrote a capture: $written" >&2
  exit 1
fi

# The served-system captures are pure functions of the code: snack-chaos
# and snack-service with default arguments must regenerate the committed
# BENCH_chaos.json and BENCH_service.json byte for byte, so a hot-path
# change that moves any chaos or SLO number fails here.
echo "+ snack-chaos / snack-service regenerate their committed captures"
cargo run --release --offline -q -p snacknoc-bench --bin snack-chaos -- \
  --json "$chaos_capture" >/dev/null
cmp "$chaos_capture" BENCH_chaos.json || {
  echo "ERROR: snack-chaos no longer reproduces BENCH_chaos.json byte for byte" >&2
  exit 1
}
# Watchdog retry bound: every retry belongs to a watchdog record counted
# once in `detected`, and a record retries at most max_retries times
# (16, RecoveryConfig::default().max_retries, which the chaos grid's
# RecoveryConfig::aggressive() keeps). snack-chaos checks the bound
# itself; this re-asserts it from the shell on every cell of the
# regenerated capture, so a broken in-binary check cannot pass CI.
awk -v RS='}' -v max_retries=16 '
  /"watchdog_retries":/ {
    match($0, /"watchdog_retries": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), retries, ": ")
    match($0, /"detected": [0-9]+/)
    split(substr($0, RSTART, RLENGTH), detected, ": ")
    if (retries[2] + 0 > max_retries * (detected[2] + 0)) {
      print "ERROR: a chaos cell made " retries[2] " watchdog retries for " detected[2] \
            " detected losses (bound: " max_retries " per loss)" > "/dev/stderr"
      bad = 1
      exit 1
    }
    cells++
  }
  END {
    if (bad) exit 1
    if (!cells) { print "ERROR: no watchdog_retries field in chaos JSON" > "/dev/stderr"; exit 1 }
  }' "$chaos_capture"
cargo run --release --offline -q -p snacknoc-bench --bin snack-service -- \
  --json "$service_capture" >/dev/null
cmp "$service_capture" BENCH_service.json || {
  echo "ERROR: snack-service no longer reproduces BENCH_service.json byte for byte" >&2
  exit 1
}

echo "verify: all green"
