#!/usr/bin/env bash
# Runs every benchmark binary in JSON mode and merges the outputs into one
# BENCH_RESULTS.json at the repository root, so a single file records the
# numbers behind DESIGN.md's experiment table.
#
# Usage: bench/run_all.sh [build-dir] [min-time-seconds]
#
# Each google-benchmark binary is invoked with --benchmark_format=json;
# per-binary results land in <build-dir>/bench/*.json and are merged with
# host context (cores, date, build type) under "runs". Pass a larger
# min-time for publication-quality numbers; the default 0.05s keeps a full
# sweep under a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.05}"
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
    > "$json"
  jsons+=("$json")
done

# Merge: {"context": {...host facts...}, "runs": {bench name: output}}.
jq -n \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg cores "$(nproc)" \
  --arg build_type "$(grep -m1 CMAKE_BUILD_TYPE "$BUILD_DIR/CMakeCache.txt" \
                      | cut -d= -f2)" \
  --arg min_time "$MIN_TIME" \
  '{context: {date: $date, cores: ($cores | tonumber),
              build_type: $build_type,
              min_time_seconds: ($min_time | tonumber)},
    runs: {}}' > "$OUT.tmp"
for json in "${jsons[@]}"; do
  name="$(basename "$json" .json)"
  jq --arg name "$name" --slurpfile run "$json" \
    '.runs[$name] = $run[0]' "$OUT.tmp" > "$OUT.tmp2"
  mv "$OUT.tmp2" "$OUT.tmp"
done
# Governor overhead: mean governed/ungoverned real-time ratio across the
# matched bench_governor datalog size points (the only with/without-polls
# pair on identical work). Recorded under .governor so regressions against
# the < 3% target show up in the merged file, not just in a CI log.
jq '
  (.runs.bench_governor.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Governor_Datalog_Governed/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $gov
  | [ $b[] | select(.name | startswith("BM_Governor_Datalog_Ungoverned/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $base
  | [ $gov[] as $g | $base[] | select(.size == $g.size)
      | ($g.t / .t) ] as $ratios
  | if ($ratios | length) > 0 then
      .governor = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                   target_max_ratio: 1.03,
                   points: ($ratios | length)}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Scheduler overhead: mean Scheduled(1-worker)/Direct real-time ratio on
# matched bench_scheduler size points (identical parse+load+evaluate work,
# with vs without admission/governor/pool bookkeeping), plus the 16-query
# batch wall time per worker count. Recorded under .scheduler.
jq '
  (.runs.bench_scheduler.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Scheduler_Scheduled/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $sched
  | [ $b[] | select(.name | startswith("BM_Scheduler_Direct/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $direct
  | [ $sched[] as $s | $direct[] | select(.size == $s.size)
      | ($s.t / .t) ] as $ratios
  | [ $b[] | select(.name | startswith("BM_Scheduler_Throughput/"))
      | {workers: (.name | split("/")[1]), batch_ms: .real_time} ]
      as $throughput
  | if ($ratios | length) > 0 then
      .scheduler = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                    target_max_ratio: 1.10,
                    points: ($ratios | length),
                    throughput: $throughput}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Register VM: per-workload speedup of the flat-IL VM over the
# tree-walker on matched bench_vm series (identical program + input; the
# _TreeWalk/_Vm name pairs differ only in EvalOptions::tree_walk_oracle,
# or in EvalMode kSemiNaiveIndexed vs kVm for the Datalog pair). Recorded under
# .vm so the VM-vs-tree-walk trajectory lives in the merged file.
jq '
  (.runs.bench_vm.benchmarks // []) as $b
  | [ $b[] | select(.name | contains("_Vm/"))
      | {key: (.name | sub("_Vm/"; "/")), t: .real_time} ] as $vm
  | [ $b[] | select(.name | contains("_TreeWalk/"))
      | {key: (.name | sub("_TreeWalk/"; "/")), t: .real_time} ] as $tree
  | [ $vm[] as $v | $tree[] | select(.key == $v.key)
      | {workload: $v.key, speedup: (.t / $v.t)} ] as $pairs
  | if ($pairs | length) > 0 then
      .vm = {mean_speedup: (([$pairs[].speedup] | add) / ($pairs | length)),
             points: ($pairs | length),
             pairs: $pairs}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# IL optimizer: matched _Vm/_VmOpt bench_vm pairs (identical program,
# input, and engine; the only difference is EvalOptions::il_opt). Records
# the wall-clock speedup and, from the vm_instructions counter, the VM
# instructions retired per emitted fact with the optimizer off and on --
# the dispatch reduction is the optimizer's direct effect, visible even
# when wall time is noise-bound. Recorded under .vm_opt.
jq '
  (.runs.bench_vm.benchmarks // []) as $b
  | [ $b[] | select(.name | contains("_VmOpt/"))
      | {key: (.name | sub("_VmOpt/"; "/")), t: .real_time,
         ipe: (if (.rule_derivations // 0) > 0
               then (.vm_instructions / .rule_derivations) else null end)} ]
      as $opt
  | [ $b[] | select((.name | contains("_Vm/")) and
                    (.name | contains("_VmOpt/") | not))
      | {key: (.name | sub("_Vm/"; "/")), t: .real_time,
         ipe: (if (.rule_derivations // 0) > 0
               then (.vm_instructions / .rule_derivations) else null end)} ]
      as $plain
  | [ $opt[] as $o | $plain[] | select(.key == $o.key)
      | {workload: $o.key, speedup: (.t / $o.t),
         instructions_per_emit: .ipe,
         instructions_per_emit_opt: $o.ipe} ] as $pairs
  | if ($pairs | length) > 0 then
      .vm_opt = {mean_speedup:
                   (([$pairs[].speedup] | add) / ($pairs | length)),
                 points: ($pairs | length),
                 pairs: $pairs}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Fused execution tier: matched _VmFused bench_vm series (threaded
# dispatch + EvalOptions::il_fuse on top of il_opt) against the best
# non-fused baseline -- _VmOpt where that series exists, plain _Vm
# otherwise (powerset, Datalog). Also records fused superinstructions
# dispatched and constituent instructions per emitted fact, so the
# dispatch reduction is visible even when wall time is noise-bound.
# Recorded under .vm_fused.
jq '
  (.runs.bench_vm.benchmarks // []) as $b
  | [ $b[] | select(.name | contains("_VmFused/"))
      | {key: (.name | sub("_VmFused/"; "/")), t: .real_time,
         fused: (.vm_fused_dispatches // 0),
         ipe: (if (.rule_derivations // 0) > 0
               then (.vm_instructions / .rule_derivations) else null end)} ]
      as $fused
  | [ $b[] | select(.name | contains("_VmOpt/"))
      | {key: (.name | sub("_VmOpt/"; "/")), t: .real_time} ] as $opt
  | [ $b[] | select((.name | contains("_Vm/")) and
                    (.name | contains("_VmOpt/") | not))
      | {key: (.name | sub("_Vm/"; "/")), t: .real_time} ] as $plain
  | [ $fused[] as $f
      | [ $opt[] | select(.key == $f.key) ] as $o
      | (($o + [$plain[] | select(.key == $f.key)]) | first) as $base
      | select($base != null)
      | {workload: $f.key,
         baseline: (if ($o | length) > 0 then "vm_opt" else "vm" end),
         speedup: ($base.t / $f.t),
         fused_dispatches: $f.fused,
         instructions_per_emit: $f.ipe} ] as $pairs
  | if ($pairs | length) > 0 then
      .vm_fused = {mean_speedup:
                     (([$pairs[].speedup] | add) / ($pairs | length)),
                   points: ($pairs | length),
                   pairs: $pairs}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Durability overhead: mean Durable(no-fsync)/Plain real-time ratio on
# matched bench_durability size points (identical serial TC fixpoint; the
# durable run adds an input snapshot, one checksummed WAL frame per
# committed step, and a final snapshot + DONE marker). The fsync series is
# reported in the raw run but kept out of the ratio -- it measures the
# disk, not the encoder. Mean Recover wall time rides along so recovery
# cost is tracked in the same entry. Recorded under .durability.
jq '
  (.runs.bench_durability.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Durability_Durable/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $durable
  | [ $b[] | select(.name | startswith("BM_Durability_Plain/"))
      | {size: (.name | split("/")[1]), t: .real_time} ] as $plain
  | [ $durable[] as $d | $plain[] | select(.size == $d.size)
      | ($d.t / .t) ] as $ratios
  | [ $b[] | select(.name | startswith("BM_Durability_Recover/"))
      | {size: (.name | split("/")[1]), recover_ms: (.real_time / 1e6),
         wal_frames: (.wal_frames // 0)} ] as $recover
  | if ($ratios | length) > 0 then
      .durability = {overhead_ratio: (($ratios | add) / ($ratios | length)),
                     target_max_ratio: 1.5,
                     points: ($ratios | length),
                     recover: $recover}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
# Serving tier: sustained completed-queries-per-second from the simulated
# serve loop (per client count), and the wall-clock QUERY -> terminal-PAGE
# latency of a hand-pumped wire session (p50/p99 sampled inside
# bench_serve and exported as counters). Recorded under .serve.
jq '
  (.runs.bench_serve.benchmarks // []) as $b
  | [ $b[] | select(.name | startswith("BM_Serve_Qps/"))
      | {clients: (.name | split("/")[1] | split(":")[0]),
         qps: (.qps // 0)} ] as $qps
  | [ $b[] | select(.name | startswith("BM_Serve_FirstPage/"))
      | {size: (.name | split("/")[1] | split(":")[0]),
         p50_us: (.p50_us // 0), p99_us: (.p99_us // 0)} ] as $lat
  | if ($qps | length) > 0 then
      .serve = {qps: $qps,
                peak_qps: ([$qps[].qps] | max),
                first_page: $lat}
    else . end
' "$OUT.tmp" > "$OUT.tmp2"
mv "$OUT.tmp2" "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "wrote $OUT ($(jq '.runs | length' "$OUT") benchmark binaries)"
if jq -e '.governor' "$OUT" > /dev/null; then
  echo "governor overhead ratio: $(jq '.governor.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.governor.target_max_ratio' "$OUT"))"
fi
if jq -e '.scheduler' "$OUT" > /dev/null; then
  echo "scheduler overhead ratio: $(jq '.scheduler.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.scheduler.target_max_ratio' "$OUT"))"
fi
if jq -e '.vm' "$OUT" > /dev/null; then
  echo "vm mean speedup over tree-walker: $(jq '.vm.mean_speedup' "$OUT")" \
       "($(jq '.vm.points' "$OUT") matched points)"
fi
if jq -e '.vm_opt' "$OUT" > /dev/null; then
  echo "il_opt mean speedup over plain vm:" \
       "$(jq '.vm_opt.mean_speedup' "$OUT")" \
       "($(jq '.vm_opt.points' "$OUT") matched points)"
fi
if jq -e '.vm_fused' "$OUT" > /dev/null; then
  echo "fused tier mean speedup over non-fused baseline:" \
       "$(jq '.vm_fused.mean_speedup' "$OUT")" \
       "($(jq '.vm_fused.points' "$OUT") matched points)"
fi
if jq -e '.durability' "$OUT" > /dev/null; then
  echo "durability overhead ratio: $(jq '.durability.overhead_ratio' "$OUT")" \
       "(target <= $(jq '.durability.target_max_ratio' "$OUT"))"
fi
if jq -e '.serve' "$OUT" > /dev/null; then
  echo "serve peak sustained qps: $(jq '.serve.peak_qps' "$OUT");" \
       "first-page p50/p99 us:" \
       "$(jq -c '[.serve.first_page[] | {size, p50_us, p99_us}]' "$OUT")"
fi
