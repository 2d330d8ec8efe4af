#!/usr/bin/env bash
# Judges a change against its parent from two directories of iqlbench
# result files (the untraced `*.e2e.*.json` records that --out collects):
#
#   bash bench/e2e/compare.sh PARENT_DIR CHANGE_DIR [BENCHMARK.json]
#
# For every workload x end_to_end metric of BENCHMARK.json it prints each
# side's median and quartiles (Python's statistics.quantiles, n=4), the
# change of the median as a share of the parent's, the metric's bound, and,
# when both sides ran the same seeds, how many seed-matched pairs the change
# wins (ties count for neither side). Verdicts:
#   improved    at least 10 pairs, the change wins >= 9/10 of them, and the
#               medians differ, in the better direction, by more than the
#               parent's quartile range
#   unresolved  a side's spread (quartile range / median) exceeds the bound,
#               and neither side reads better than every run of the other
#   regressed   the change's median is worse than the parent's by more than
#               the bound
#   unchanged   otherwise
#   missing     one side has no runs of the workload
# Exit status: 1 when any row regressed, 2 on bad usage, 0 otherwise.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: compare.sh PARENT_DIR CHANGE_DIR [BENCHMARK.json]" >&2
  exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="${3:-$here/../../BENCHMARK.json}"

records() {
  local files=("$1"/*.e2e.*.json)
  if [[ ! -e "${files[0]}" ]]; then
    echo "compare.sh: no *.e2e.*.json result files in $1" >&2
    exit 2
  fi
  # File names sort in run order, so repeated seeds pair up in order.
  printf '%s\n' "${files[@]}" | sort | xargs cat | jq -s '.'
}

parent="$(records "$1")"
change="$(records "$2")"
rows="$(jq -n --slurpfile spec "$spec" \
  --argjson parent "$parent" --argjson change "$change" '
  # statistics.quantiles(data, n=4), method "exclusive".
  def quartiles:
    sort as $d | ($d | length) as $l |
    if $l == 1 then [$d[0], $d[0], $d[0]]
    else [range(1; 4) as $i
          | ((($i * ($l + 1)) / 4) | floor) as $j0
          | ([([$j0, 1] | max), $l - 1] | min) as $j
          | ($i * ($l + 1) - $j * 4) as $delta
          | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
    end;
  def runs($records; $workload; $metric):
    [$records[] | select(.workload == $workload)
     | {seed, value: .metrics[$metric].value}]
    | sort_by(.seed);

  [($parent + $change | map(.workload) | unique)[] as $workload
   | $spec[0].end_to_end[] as $m
   | runs($parent; $workload; $m.name) as $a
   | runs($change; $workload; $m.name) as $b
   | if ($a | length) == 0 or ($b | length) == 0 then
       {workload: $workload, metric: $m.name, unit: $m.unit,
        verdict: "missing"}
     else
       (if $m.better == "lower" then 1 else -1 end) as $sign
       | ($a | map(.value) | quartiles) as $qa
       | ($b | map(.value) | quartiles) as $qb
       | ($sign * ($qb[1] - $qa[1]) / $qa[1]) as $worse
       | (($qa[2] - $qa[0]) / $qa[1]) as $spread_a
       | (($qb[2] - $qb[0]) / $qb[1]) as $spread_b
       | (($a | map(.seed)) == ($b | map(.seed))) as $paired
       | (if $paired then
            [range(0; $a | length) as $i
             | select($sign * ($b[$i].value - $a[$i].value) < 0)] | length
          else null end) as $wins
       | ($a | map(.value)) as $av | ($b | map(.value)) as $bv
       | (if $sign == 1 then ($bv | max) < ($av | min)
          else ($bv | min) > ($av | max) end) as $all_better
       | (if $sign == 1 then ($bv | min) > ($av | max)
          else ($bv | max) < ($av | min) end) as $all_worse
       | {workload: $workload, metric: $m.name, unit: $m.unit,
          parent: $qa, change: $qb, n_parent: ($a | length),
          n_change: ($b | length), delta: ($worse * -1), bound: $m.bound,
          pairs: (if $paired then ($a | length) else null end), wins: $wins,
          verdict:
            (if $paired and ($a | length) >= 10
                and $wins >= 0.9 * ($a | length)
                and $sign * ($qb[1] - $qa[1]) < 0
                and (($qb[1] - $qa[1]) | fabs) > ($qa[2] - $qa[0])
             then "improved"
             elif ($spread_a > $m.bound or $spread_b > $m.bound)
                  and ($all_better or $all_worse | not)
             then "unresolved"
             elif $worse > $m.bound then "regressed"
             else "unchanged" end)}
     end]')"

jq -r '
  def num: . * 10000 | round / 10000 | tostring;
  def pct: . * 1000 | round / 10 | tostring + "%";
  def pad($n): . + (" " * ($n - length) // "");
  [["workload", "metric", "unit", "parent median [q1, q3] n",
    "change median [q1, q3] n", "better by", "bound", "wins", "verdict"]]
  + [.[] | if .verdict == "missing" then
             [.workload, .metric, .unit, "", "", "", "", "", .verdict]
           else
             [.workload, .metric, .unit,
              "\(.parent[1] | num) [\(.parent[0] | num), \(.parent[2] | num)] n=\(.n_parent)",
              "\(.change[1] | num) [\(.change[0] | num), \(.change[2] | num)] n=\(.n_change)",
              (.delta | pct), (.bound | pct),
              (if .pairs == null then "unpaired" else "\(.wins)/\(.pairs)" end),
              .verdict]
           end]
  | (transpose | map(map(length) | max)) as $width
  | .[] | [range(0; length) as $i | .[$i] | pad($width[$i])] | join("  ")
' <<< "$rows"

regressed="$(jq '[.[] | select(.verdict == "regressed")] | length' <<< "$rows")"
if [[ "$regressed" -gt 0 ]]; then
  echo "compare.sh: $regressed regressed row(s)" >&2
  exit 1
fi
