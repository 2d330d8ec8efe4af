#!/usr/bin/env bash
# Runs every benchmark binary in JSON mode and merges the outputs into one
# BENCH_RESULTS.json at the repository root, so a single file records the
# numbers behind DESIGN.md's experiment table.
#
# Usage: bench/run_all.sh [build-dir] [min-time-seconds]
#
# Each google-benchmark binary is invoked with --benchmark_format=json and
# REPETITIONS (5) repetitions, reporting aggregates only. Per-binary
# results land in <build-dir>/bench/*.json; the merge keeps each series'
# median and cv (stddev / mean, a fraction) rows under "runs", with host
# context (cores, date, build type, repetitions).
# The summary blocks below read the median rows and record, as max_cv, the
# largest cv among the rows they used. Run it on a Release build directory.
# Pass a larger min-time for publication-quality numbers; the default 0.05s
# keeps a full sweep to minutes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.05}"
REPETITIONS=5
OUT="BENCH_RESULTS.json"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found; build the project first" >&2
  exit 1
fi

benches=()
for bin in "$BUILD_DIR"/bench/bench_*; do
  [[ -x "$bin" && ! "$bin" == *.json ]] || continue
  benches+=("$bin")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries under $BUILD_DIR/bench" >&2
  exit 1
fi

jsons=()
for bin in "${benches[@]}"; do
  name="$(basename "$bin")"
  json="$BUILD_DIR/bench/$name.json"
  echo "== $name"
  "$bin" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPETITIONS" \
    --benchmark_report_aggregates_only=true > "$json"
  jsons+=("$json")
done

# Merge: {"context": {...host facts...}, "runs": {bench name: output}}.
jq -n \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg cores "$(nproc)" \
  --arg build_type "$(grep -m1 CMAKE_BUILD_TYPE "$BUILD_DIR/CMakeCache.txt" \
                      | cut -d= -f2)" \
  --arg min_time "$MIN_TIME" \
  --arg repetitions "$REPETITIONS" \
  '{context: {date: $date, cores: ($cores | tonumber),
              build_type: $build_type,
              min_time_seconds: ($min_time | tonumber),
              repetitions: ($repetitions | tonumber)},
    runs: {}}' > "$OUT.tmp"
for json in "${jsons[@]}"; do
  name="$(basename "$json" .json)"
  jq --arg name "$name" --slurpfile run "$json" \
    '.runs[$name] = ($run[0] | .benchmarks |= map(select(
       (.aggregate_name // "median") | IN("median", "cv"))))' \
    "$OUT.tmp" > "$OUT.tmp2"
  mv "$OUT.tmp2" "$OUT.tmp"
done
# The summary blocks share two helpers: the median row of every series
# whose name starts with a prefix (keyed by its size argument), and the
# largest cv among a list of series names.
HELPERS='
  def medians($b; $prefix):
    [ $b[] | select(.aggregate_name == "median"
                    and (.run_name | startswith($prefix)))
      | {run: .run_name, size: (.run_name | split("/")[1]), t: .real_time} ];
  def max_cv($b; $runs):
    [ $b[] | select(.aggregate_name == "cv")
      | select(.run_name as $r | $runs | index([$r]))
      | .real_time ] | max;
'
# Governor overhead: mean governed/ungoverned median real-time ratio across
# the matched bench_governor datalog size points (the only with/without-
# polls pair on identical work). Recorded under .governor so regressions
# against the < 3% target show up in the merged file, not just in a CI log.
jq "$HELPERS"'
  (.runs.bench_governor.benchmarks // []) as $b
  | medians($b; "BM_Governor_Datalog_Governed/") as $gov
  | medians($b; "BM_Governor_Datalog_Ungoverned/") as $base
  | [ $gov[] as $g | $base[] | select(.size == $g.size)
      | {ratio: ($g.t / .t), runs: [$g.run, .run]} ] as $pairs
  | if ($pairs | length) > 0 then
      .governor = {overhead_ratio:
                     (([$pairs[].ratio] | add) / ($pairs | length)),
                   target_max_ratio: 1.03,
                   points: ($pairs | length),
                   max_cv: max_cv($b; [$pairs[].runs[]])}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Scheduler overhead: mean Scheduled(1-worker)/Direct median real-time
# ratio on matched bench_scheduler size points (identical
# parse+load+evaluate work, with vs without admission/governor/pool
# bookkeeping), plus the 16-query batch wall time per worker count.
# Recorded under .scheduler.
jq "$HELPERS"'
  (.runs.bench_scheduler.benchmarks // []) as $b
  | medians($b; "BM_Scheduler_Scheduled/") as $sched
  | medians($b; "BM_Scheduler_Direct/") as $direct
  | [ $sched[] as $s | $direct[] | select(.size == $s.size)
      | {ratio: ($s.t / .t), runs: [$s.run, .run]} ] as $pairs
  | medians($b; "BM_Scheduler_Throughput/") as $tp
  | [ $tp[] | {workers: .size, batch_ms: .t} ] as $throughput
  | if ($pairs | length) > 0 then
      .scheduler = {overhead_ratio:
                      (([$pairs[].ratio] | add) / ($pairs | length)),
                    target_max_ratio: 1.10,
                    points: ($pairs | length),
                    throughput: $throughput,
                    max_cv: max_cv($b; [$pairs[].runs[], $tp[].run])}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Register VM: per-workload speedup of the flat-IL VM over the
# tree-walker on matched bench_vm series (identical program + input; the
# _TreeWalk/_Vm name pairs differ only in EvalOptions::tree_walk_oracle),
# from median times. Recorded under .vm so the VM-vs-tree-walk trajectory
# lives in the merged file.
jq "$HELPERS"'
  (.runs.bench_vm.benchmarks // []) as $b
  | [ $b[] | select(.aggregate_name == "median"
                    and (.run_name | contains("_Vm/")))
      | {key: (.run_name | sub("_Vm/"; "/")), run: .run_name,
         t: .real_time} ] as $vm
  | [ $b[] | select(.aggregate_name == "median"
                    and (.run_name | contains("_TreeWalk/")))
      | {key: (.run_name | sub("_TreeWalk/"; "/")), run: .run_name,
         t: .real_time} ] as $tree
  | [ $vm[] as $v | $tree[] | select(.key == $v.key)
      | {workload: $v.key, speedup: (.t / $v.t), runs: [$v.run, .run]} ]
      as $pairs
  | if ($pairs | length) > 0 then
      .vm = {mean_speedup: (([$pairs[].speedup] | add) / ($pairs | length)),
             points: ($pairs | length),
             pairs: [$pairs[] | {workload, speedup}],
             max_cv: max_cv($b; [$pairs[].runs[]])}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Durability overhead: mean Durable(no-fsync)/Plain median real-time ratio
# on matched bench_durability size points (identical serial TC fixpoint;
# the durable run adds an input snapshot, one checksummed WAL frame per
# committed step, and a final snapshot + DONE marker). The fsync series is
# reported in the raw run but kept out of the ratio -- it measures the
# disk, not the encoder. Median Recover wall time rides along so recovery
# cost is tracked in the same entry. Recorded under .durability.
jq "$HELPERS"'
  (.runs.bench_durability.benchmarks // []) as $b
  | medians($b; "BM_Durability_Durable/") as $durable
  | medians($b; "BM_Durability_Plain/") as $plain
  | [ $durable[] as $d | $plain[] | select(.size == $d.size)
      | {ratio: ($d.t / .t), runs: [$d.run, .run]} ] as $pairs
  | [ $b[] | select(.aggregate_name == "median"
                    and (.run_name | startswith("BM_Durability_Recover/")))
      | {run: .run_name, size: (.run_name | split("/")[1]),
         recover_ms: (.real_time / 1e6), wal_frames: (.wal_frames // 0)} ]
      as $recover
  | if ($pairs | length) > 0 then
      .durability = {overhead_ratio:
                       (([$pairs[].ratio] | add) / ($pairs | length)),
                     target_max_ratio: 1.5,
                     points: ($pairs | length),
                     recover: [$recover[] | {size, recover_ms, wal_frames}],
                     max_cv: max_cv($b; [$pairs[].runs[], $recover[].run])}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "wrote $OUT ($(jq '.runs | length' "$OUT") benchmark binaries)"
if jq -e '.governor' "$OUT" > /dev/null; then
  echo "governor overhead ratio: $(jq '.governor.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.governor.target_max_ratio' "$OUT")," \
       "max cv $(jq '.governor.max_cv' "$OUT"))"
fi
if jq -e '.scheduler' "$OUT" > /dev/null; then
  echo "scheduler overhead ratio: $(jq '.scheduler.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.scheduler.target_max_ratio' "$OUT")," \
       "max cv $(jq '.scheduler.max_cv' "$OUT"))"
fi
if jq -e '.vm' "$OUT" > /dev/null; then
  echo "vm mean speedup over tree-walker: $(jq '.vm.mean_speedup' "$OUT")" \
       "($(jq '.vm.points' "$OUT") matched points," \
       "max cv $(jq '.vm.max_cv' "$OUT"))"
fi
if jq -e '.durability' "$OUT" > /dev/null; then
  echo "durability overhead ratio: $(jq '.durability.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.durability.target_max_ratio' "$OUT")," \
       "max cv $(jq '.durability.max_cv' "$OUT"))"
fi
