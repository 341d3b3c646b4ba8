#!/usr/bin/env bash
# The timing gate: perfbench at a parent revision against perfbench in the
# working tree, run in alternating pairs on one host.
#
#   .github/perfbench-paired.sh PARENT_REV
#
# Builds perfbench from PARENT_REV (exported with `git archive` under
# .perfgate/) and from the working tree, then runs PAIRS pairs of every
# workload in BENCHMARK.json at one fixed --seconds, the parent first in odd
# pairs and the head first in even ones. It fails when a result line lacks
# "correct": true and "failed": 0, or when the head's median of an
# end-to-end metric is worse than the parent's by more than that metric's
# bound. Beside each verdict it prints the parent runs' spread (quartile
# distance over the median) and marks the metric "unresolved" where that
# spread is wider than the bound: such a comparison cannot tell a change
# of the bound's size apart from noise. It also prints how many of the
# pairs the head won, which tells a change every pair shows from a flip
# between two modes that moves the median; that count never decides the
# verdict.
set -euo pipefail

PAIRS=10
RUN_SECONDS=2
SEED=42

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_REV" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "perfgate: $1 is not a commit here (CI needs the full history)" >&2
  exit 2
}
work=.perfgate
parent_src="$work/parent-$parent"

# An exported tree is reused while complete: a commit's files never change.
if [ ! -f "$parent_src/.exported" ]; then
  rm -rf "$parent_src"
  mkdir -p "$parent_src"
  git archive "$parent" | tar -x -C "$parent_src"
  touch "$parent_src/.exported"
fi
if [ ! -f "$parent_src/perfbench/Cargo.toml" ]; then
  echo "perfgate: ${parent:0:7} has no perfbench/ to compare against" >&2
  exit 2
fi

mkdir -p "$work/bin"
for side in parent head; do
  src=.
  [ "$side" = parent ] && src="$parent_src"
  echo "perfgate: building perfbench ($side)" >&2
  cargo build --release --offline --quiet --manifest-path "$src/perfbench/Cargo.toml"
  cp "$src/perfbench/target/release/perfbench" "$work/bin/$side"
done

results="$work/results"
rm -rf "$results"
mkdir -p "$results"
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
for pair in $(seq 1 "$PAIRS"); do
  order="parent head"
  [ $((pair % 2)) -eq 0 ] && order="head parent"
  for workload in "${workloads[@]}"; do
    for side in $order; do
      echo "perfgate: pair $pair/$PAIRS $workload $side" >&2
      if ! "$work/bin/$side" --workload "$workload" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0 > "$results/run.out" 2> "$results/run.err"; then
        echo "perfgate: perfbench ($side, $workload) exited nonzero:" >&2
        tail -n 20 "$results/run.err" >&2
        exit 1
      fi
      tail -n 1 "$results/run.out" >> "$results/$workload.$side.jsonl"
    done
  done
done

echo "perfgate: parent ${parent:0:7} against the working tree; $PAIRS pairs per workload," \
  "--seconds $RUN_SECONDS, seed $SEED"
status=0
python3 - BENCHMARK.json "$results" <<'EOF' || status=1
import json
import math
import statistics
import sys
from pathlib import Path

bench = json.loads(Path(sys.argv[1]).read_text())
results = Path(sys.argv[2])
failed = False


def load(workload, side):
    """The metrics of each run of one side; flags runs that did not check out."""
    global failed
    runs = []
    lines = (results / f"{workload}.{side}.jsonl").read_text().splitlines()
    for i, line in enumerate(lines, 1):
        try:
            run = json.loads(line)
        except json.JSONDecodeError:
            run = {}
        if run.get("correct") is not True or run.get("failed") != 0:
            failed = True
            print(f"{workload}: {side} run {i} is not correct with 0 failed: {line[:160]}")
        runs.append(run.get("metrics", {}))
    return runs


def pairs_won(runs, name, better):
    """Pairs whose head run beat its parent run, ties, and pairs compared.

    The i-th run of each side is pair i: both files grow one line per pair.
    """
    won = tied = pairs = 0
    for parent, head in zip(runs["parent"], runs["head"]):
        if name not in parent or name not in head:
            continue
        p, h = parent[name]["value"], head[name]["value"]
        pairs += 1
        tied += h == p
        won += h < p if better == "lower" else h > p
    return won, tied, pairs


print(f"{'workload':<9} {'metric':<21} {'parent median (spread)':>25} {'head median':>12}"
      f" {'change':>8} {'bound':>6} {'head won':>9}  verdict")
for workload in (w["name"] for w in bench["workloads"]):
    runs = {side: load(workload, side) for side in ("parent", "head")}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {side: [r[name]["value"] for r in rs if name in r] for side, rs in runs.items()}
        if len(values["head"]) < len(runs["head"]):
            failed = True
            print(f"{workload:<9} {name:<21} missing from a head run: FAIL")
            continue
        if len(values["parent"]) < 2:
            print(f"{workload:<9} {name:<21} not measured at the parent: not compared")
            continue
        parent = statistics.median(values["parent"])
        head = statistics.median(values["head"])
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        spread = (q3 - q1) / parent if parent else 0.0
        change = (head - parent) / parent if parent else (0.0 if head == parent else math.inf)
        worse = change if metric["better"] == "lower" else -change
        verdict = "FAIL" if worse > bound else "ok"
        failed = failed or worse > bound
        if spread > bound:
            verdict += ", unresolved"
        won, tied, pairs = pairs_won(runs, name, metric["better"])
        if tied:
            verdict += f", {tied} pairs tied"
        print(f"{workload:<9} {name:<21} {parent:>14.4g} ({spread:6.1%}) {head:>12.4g}"
              f" {change:>+8.1%} {bound:>6.0%} {f'{won}/{pairs}':>9}  {verdict}")
sys.exit(1 if failed else 0)
EOF
echo "perfgate: $([ $status -eq 0 ] && echo passed || echo FAILED) in ${SECONDS}s"
exit $status
