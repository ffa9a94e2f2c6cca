#!/usr/bin/env bash
# Pairwise speed comparison of two commits on the snack_bench workloads,
# following snack_bench/README.md's "Comparing two commits" protocol.
#
#   scripts/pairwise.sh BASE [--workloads a,b,...] [--seed N] [--pairs N]
#                            [--seconds S]
#
# BASE is any git revision. The other side is this checkout's working
# tree ("head"), uncommitted edits included. BASE is exported with
# `git archive` into a temporary directory, and snack_bench is built on
# each side (release, offline, separate target directories). Then, per
# workload, the two builds run in alternating order, `--pairs` times:
# pair k runs head first when k is even and base first when k is odd.
#
# For each workload and end-to-end metric of BENCHMARK.json (setup_s,
# wall_s, sim_cycles_per_s, peak_rss_mb) it prints each side's median
# and [25th, 75th] percentiles, the head/base ratio of the medians, the
# pairs head won (higher cycles/s, lower time and memory) and a verdict
# against the metric's `bound`:
#
#   REGRESSED   the head median is worse than the base median by more
#               than the bound (a relative change);
#   unresolved  otherwise, but the base's interquartile range, relative
#               to its median, is wider than the bound, so the runs
#               cannot show a regression of that size;
#   ok          neither.
#
# Then it says whether every pair's `--json` counts and failed_frac
# matched. It exits 1 if any row is REGRESSED or any pair's counts differ.
#
# Defaults: every workload, seed 42, 10 pairs, 20 s per run (BENCHMARK.json's
# run_seconds). PAIRWISE_WORK=DIR keeps the builds and per-run JSON in DIR
# (reused by later runs) instead of a temporary directory removed at exit.
# Needs only git, tar, cargo and awk.

set -euo pipefail

usage() {
  echo "usage: $0 BASE [--workloads a,b,...] [--seed N] [--pairs N] [--seconds S]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workloads=mesh-saturated,idle-think,kernel-suite,kernel-faults,service-slo
seed=42
pairs=10
seconds=20
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workloads) workloads=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
  esac
  shift 2
done

repo=$(cd "$(dirname "$0")/.." && pwd)
base_sha=$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")
if [ -n "${PAIRWISE_WORK:-}" ]; then
  work=$PAIRWISE_WORK
  mkdir -p "$work"
else
  work=$(mktemp -d)
fi
tree="$work/base-tree"

cleanup() {
  rm -rf "$tree"
  [ -n "${PAIRWISE_WORK:-}" ] || rm -rf "$work"
}
trap cleanup EXIT

rm -rf "$tree"
mkdir -p "$tree"
git -C "$repo" archive "$base_sha" | tar -x -C "$tree"

# One line per end-to-end metric of BENCHMARK.json: its name, 1 when
# lower values are better (else 0), and its regression bound.
metrics=$(awk '
  /"end_to_end"/ { on = 1; next }
  on && /\]/ { exit }
  on && /"name"/ {
    match($0, /"name": "[^"]*"/); name = substr($0, RSTART + 9, RLENGTH - 10)
    match($0, /"bound": [0-9.]+/); bound = substr($0, RSTART + 9, RLENGTH - 9)
    print name, ($0 ~ /"better": "lower"/), bound
  }' "$repo/BENCHMARK.json")
[ -n "$metrics" ] || { echo "no end_to_end metrics in BENCHMARK.json" >&2; exit 2; }

build() { # SIDE SOURCE-ROOT
  echo "building $1 ($2)" >&2
  CARGO_TARGET_DIR="$work/$1-target" cargo build --quiet --release --offline \
    --manifest-path "$2/snack_bench/Cargo.toml"
}
build base "$tree"
build head "$repo"
bin_base="$work/base-target/release/snack_bench"
bin_head="$work/head-target/release/snack_bench"

# Prints a run's end-to-end value for metric $2 from its --json file $1.
metric() {
  awk -v key="\"$2\": {\"value\": " '{
    at = index($0, key)
    if (at) { rest = substr($0, at + length(key)); split(rest, v, /[,}]/); print v[1]; exit }
  }' "$1"
}

# Prints a run's simulated counts and failed_frac, the part of --json
# that must not differ between the two sides.
counts() {
  awk '{
    at = index($0, "\"counts\": {")
    rest = substr($0, at)
    f = index($0, "\"failed_frac\": ")
    print substr(rest, 1, index(rest, "}")) " " substr($0, f, index(substr($0, f), ",") - 1)
  }' "$1"
}

# Reads lines "base head" of metric $2 and prints the summary row for
# workload $1, ending in its verdict; $3 is 1 when lower values are
# better, $4 the metric's bound.
summarize() {
  awk -v w="$1" -v metric="$2" -v lower="$3" -v bound="$4" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    function q(a, n, p,   x, lo) { # linear interpolation, like numpy
      x = 1 + (n - 1) * p; lo = int(x)
      return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo + 1] - a[lo])
    }
    { n++; b[n] = $1; h[n] = $2; if (lower ? $2 < $1 : $2 > $1) won++ }
    END {
      sort(b, n); sort(h, n)
      base = q(b, n, .5); head = q(h, n, .5)
      worse = (lower ? head - base : base - head) / base
      verdict = worse > bound ? "REGRESSED" : (q(b, n, .75) - q(b, n, .25)) / base > bound ? "unresolved" : "ok"
      printf "%-16s %-16s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]  ratio %.3f  head won %d/%d  %s\n",
        w, metric, base, q(b, n, .25), q(b, n, .75), head, q(h, n, .25), q(h, n, .75),
        head / base, won + 0, n, verdict
    }'
}

status=0
for w in ${workloads//,/ }; do
  runs="$work/runs/$w-s$seed"
  mkdir -p "$runs"
  same=yes
  for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then order="head base"; else order="base head"; fi
    for side in $order; do
      bin=$bin_base
      [ "$side" = head ] && bin=$bin_head
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --json "$runs/$side-$k.json" >/dev/null 2>&1
    done
    if [ "$(counts "$runs/base-$k.json")" != "$(counts "$runs/head-$k.json")" ]; then
      same=no
      status=1
    fi
  done
  while read -r name lower bound; do
    row=$(for ((k = 0; k < pairs; k++)); do
      echo "$(metric "$runs/base-$k.json" "$name") $(metric "$runs/head-$k.json" "$name")"
    done | summarize "$w" "$name" "$lower" "$bound")
    echo "$row"
    if [[ $row == *REGRESSED ]]; then status=1; fi
  done <<< "$metrics"
  echo "$w: seed $seed, $pairs pairs of ${seconds}s, counts identical in every pair: $same"
done
exit "$status"
