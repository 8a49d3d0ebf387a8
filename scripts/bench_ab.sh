#!/usr/bin/env bash
# Interleaved A/B runs of the repository benchmark (tdwpbench): a parent git
# ref against the working tree.
#
#   scripts/bench_ab.sh <parent-ref> <workload> <pairs>
#
# Exports <parent-ref> with `git archive` into a work directory, then lets
# tdwpbench/run.py build each side from its own sources (each checkout gets
# its own .bench_build/). After one short warm-up run per side it runs
# <pairs> pairs on fresh seeds — pair i uses seed AB_SEED+i on both sides —
# alternating which side goes first. Every timed run of both sides runs
# under `taskset -c` on one CPU, the highest-numbered in this script's own
# affinity, chosen once and printed in the header: the CPUs of one VM can
# differ in speed, and tdwpbench pins itself to whichever CPU it starts on.
# The warm-ups, which build, run unpinned so compiles keep every core.
# For every metric in the runs' JSON it prints each side's median and
# quartiles, the median difference, the parent's quartile spread, and how
# many pairs the working tree won. A gain is shown when the working tree
# wins at least 9 pairs in 10 and the median difference exceeds the
# parent's quartile spread. Below each scaled metric it prints the same for
# the unscaled `raw.*` note tdwpbench prints above its JSON, when there is
# one: host scaling divides by a probe measured in the same build, so a
# shift in the scaled value alone is the probe's, not the program's.
#
# Environment:
#   AB_SECONDS  --seconds per run (default 15)
#   AB_TRACE    --trace per run (default 0: end-to-end metrics; 1: per layer)
#   AB_SEED     first seed (default: from the clock; printed)
#   AB_WORKDIR  parent export and per-run logs (default: a new temp dir); a
#               directory that already holds the same parent commit is
#               reused, so its build is incremental
#
# Neither side's tdwpbench/ nor BENCHMARK.json is modified.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <parent-ref> <workload> <pairs>" >&2
  exit 2
fi
ref=$1
workload=$2
pairs=$3
seconds=${AB_SECONDS:-15}
trace=${AB_TRACE:-0}
seed=${AB_SEED:-$(( $(date +%s) % 1000000 * 100 ))}

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
workdir=${AB_WORKDIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")}
parent=$workdir/parent
mkdir -p "$workdir"
if [[ "$(cat "$parent/.ab_commit" 2>/dev/null)" != "$commit" ]]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git -C "$root" archive "$commit" | tar -x -C "$parent"
  echo "$commit" > "$parent/.ab_commit"
fi
logs=$workdir/runs-$workload-$seed
mkdir -p "$logs"
cpu=$(python3 -c 'import os; print(max(os.sched_getaffinity(0)))')

echo "bench_ab: parent $ref ($commit) vs working tree; workload $workload," \
     "$pairs pairs, seeds $seed..$((seed + pairs - 1)), --seconds $seconds," \
     "--trace $trace; timed runs on CPU $cpu; logs in $logs" >&2

# run <side> <checkout> <seed> <seconds> <log> [launcher ...]
run() {
  local side=$1 checkout=$2 s=$3 secs=$4 log=$5
  shift 5
  if ! (cd "$checkout" && "$@" python3 tdwpbench/run.py \
          --workload "$workload" --seed "$s" --seconds "$secs" \
          --trace "$trace") > "$log" 2> "$log.err"; then
    echo "bench_ab: $side run failed (seed $s); see $log.err" >&2
    exit 1
  fi
}
pinned=(taskset -c "$cpu")

# Warm-up: builds each side and touches its code paths once.
run parent "$parent" "$seed" 1 "$logs/warmup-parent.out"
run candidate "$root" "$seed" 1 "$logs/warmup-candidate.out"

for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$s" "$seconds" "$logs/parent-$i.out" "${pinned[@]}"
    run candidate "$root" "$s" "$seconds" "$logs/candidate-$i.out" \
      "${pinned[@]}"
  else
    run candidate "$root" "$s" "$seconds" "$logs/candidate-$i.out" \
      "${pinned[@]}"
    run parent "$parent" "$s" "$seconds" "$logs/parent-$i.out" "${pinned[@]}"
  fi
  echo "bench_ab: pair $((i + 1))/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$logs" "$pairs" <<'EOF'
import json
import os
import statistics
import sys

bench_path, logs, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(bench_path) as f:
    bench = json.load(f)
better = {m["name"]: m["better"]
          for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def load(side, i):
    with open(os.path.join(logs, "%s-%d.out" % (side, i))) as f:
        text = f.read().splitlines()
    result = json.loads([l for l in text if l.startswith("{")][-1])
    if not result.get("correct", False) or result.get("failed", 0):
        sys.exit("bench_ab: %s run %d was not correct" % (side, i))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The notes above the JSON: "  <name> <value> <unit>".
    for line in text:
        fields = line.split()
        if len(fields) == 3 and fields[0].startswith("raw."):
            values[fields[0]] = float(fields[1])
    return values


runs = {side: [load(side, i) for i in range(pairs)]
        for side in ("parent", "candidate")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def row(name, direction):
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["candidate"]]
    sign = -1 if direction == "lower" else 1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    rel = (cmed - pmed) / pmed if pmed else 0.0
    iqr = (pq3 - pq1) / pmed if pmed else 0.0
    gain = (wins * 10 >= pairs * 9 and sign * (cmed - pmed) > 0
            and abs(cmed - pmed) > pq3 - pq1)
    print("%-34s %8s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%% "
          "%8.1f%% %2d/%-2d%s" %
          (name, direction, pq1, pmed, pq3, cq1, cmed, cq3, 100 * rel,
           100 * iqr, wins, pairs, "  gain" if gain else ""))


def present(name):
    return all(name in r for side in runs.values() for r in side)


print("%-34s %8s %10s %10s %10s %10s %10s %10s %8s %9s %5s" %
      ("metric", "better", "par.q1", "par.med", "par.q3", "cand.q1",
       "cand.med", "cand.q3", "diff", "par.iqr", "wins"))
for name in runs["parent"][0]:
    if name not in better or not present(name):
        continue
    row(name, better[name])
    if present("raw." + name):
        row("raw." + name, better[name])
EOF
