#!/usr/bin/env bash
# e2e_smoke: runs every workload BENCHMARK.json names for 1 s at seed 7,
# untraced and traced, and fails unless each run reports zero failures and
# prints every end_to_end (untraced) or per_layer (traced) metric.
#
#   bash smoke.sh <iqlbench binary> <BENCHMARK.json>
set -uo pipefail

bench="$1"
spec="$2"
work="$PWD/e2e_smoke"
rm -rf "$work"
mkdir -p "$work"

check() {
  local workload="$1" trace="$2" kind="$3" line
  line="$("$bench" --workload "$workload" --seed 7 --seconds 1 --warmup 0.25 \
    --trace "$trace" --min-samples 1 --replay 16 --work-dir "$work" |
    tail -n 1)"
  if ! jq -e --slurpfile spec "$spec" --arg kind "$kind" \
    '.correct and .failed == 0 and
     ([$spec[0][$kind][].name] - (.metrics | keys) | length) == 0' \
    <<< "$line" > /dev/null 2>&1; then
    echo "e2e_smoke: $workload --trace $trace failed: $line" >&2
    return 1
  fi
}

# Workloads run side by side; each checks its untraced then traced run.
pids=()
for workload in $(jq -r '.workloads[].name' "$spec"); do
  (check "$workload" 0 end_to_end && check "$workload" 1 per_layer) &
  pids+=($!)
done
status=0
for pid in "${pids[@]}"; do wait "$pid" || status=1; done
rm -rf "$work"
exit "$status"
