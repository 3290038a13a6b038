#!/usr/bin/env bash
# Alternating loopback-benchmark pairs: a revision against the working tree.
#
#   scripts/perf_pairs.sh PARENT_REV SEED...
#
# Extracts PARENT_REV with `git archive` into a temporary directory, builds
# it there, then for every seed and every workload of BENCHMARK.json runs
# `python3 perfbench/run.py --workload W --seed S --seconds 21` once in the
# parent's copy and once in the working tree, alternating which side runs
# first from one seed to the next so a drift of the host does not favour
# either.  A seed may be repeated to get several pairs on one seed.  Each
# run's result line is echoed as it lands; at the end, for each workload,
# every end-to-end metric's median on both sides, the parent's
# interquartile range, the relative change of the medians, the number
# of pairs in which the working tree did better and a verdict, plus
# whether every run was correct with no failed op.  The verdict, with
# `bound` the metric's bound in BENCHMARK.json:
#   gain        at least 10 pairs, the tree did better in at least 9/10 of
#               them, and the medians differ by more than the parent's IQR
#               width;
#   worse       the tree's median is worse than the parent's by more than
#               `bound` (relative);
#   unresolved  neither, and the parent's IQR is wider than `bound`
#               (relative to the parent's median);
#   same        otherwise.
#
# Run from the repository root.  Takes about 2 x 25 s per seed and
# workload.  Nothing under perfbench/ is touched; the temporary copy is
# removed on exit.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_REV SEED..." >&2
  exit 2
fi
REV=$1
shift
ROOT=$(pwd)
[ -f "$ROOT/BENCHMARK.json" ] || { echo "run from the repository root" >&2; exit 2; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/parent"
git -C "$ROOT" archive "$REV" | tar -x -C "$WORK/parent"
echo "building $REV in $WORK/parent" >&2
(cd "$WORK/parent" && dune build ./perfbench/perfbench.exe)

WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
RESULTS="$WORK/results.tsv"
: >"$RESULTS"

run() { # side dir workload seed
  local line
  line=$(cd "$2" && python3 perfbench/run.py --workload "$3" --seed "$4" --seconds 21 | tail -n 1) || true
  printf '%s\t%s\t%s\t%s\t%s\n' "$i" "$1" "$3" "$4" "$line" | tee -a "$RESULTS" >&2
}

i=0
for seed in "$@"; do
  for w in $WORKLOADS; do
    if [ $((i % 2)) -eq 0 ]; then
      run parent "$WORK/parent" "$w" "$seed"
      run tree "$ROOT" "$w" "$seed"
    else
      run tree "$ROOT" "$w" "$seed"
      run parent "$WORK/parent" "$w" "$seed"
    fi
  done
  i=$((i + 1))
done

python3 - "$RESULTS" "$ROOT/BENCHMARK.json" <<'EOF'
import json, statistics, sys

rows = {}
for line in open(sys.argv[1]):
    pair, side, workload, seed, result = line.rstrip("\n").split("\t", 4)
    try:
        r = json.loads(result)
    except ValueError:
        r = None
    rows.setdefault(workload, {}).setdefault(pair, {})[side] = r
spec = json.load(open(sys.argv[2]))["end_to_end"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for workload, runs in rows.items():
    pairs = [(s["parent"], s["tree"]) for s in runs.values()
             if s.get("parent") and s.get("tree")]
    every = [r for s in runs.values() for r in s.values()]
    ok = all(r and r["correct"] and r["failed"] == 0 for r in every)
    print("%s: %d pairs, every run correct with 0 failed: %s"
          % (workload, len(pairs), "yes" if ok else "NO"))
    if not pairs:
        continue
    print("  %-16s %12s %25s %12s %8s %7s  %s"
          % ("metric", "parent", "parent IQR", "tree", "change", "better",
             "verdict"))
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        p = [a["metrics"][name]["value"] for a, _ in pairs]
        t = [b["metrics"][name]["value"] for _, b in pairs]
        pm, tm = statistics.median(p), statistics.median(t)
        q1, q3 = quartiles(sorted(p))
        better = sum((b < a) if lower else (b > a) for a, b in zip(p, t))
        change = (tm - pm) / pm * 100 if pm else float("nan")
        gain = (tm - pm) * (-1 if lower else 1)
        if len(pairs) >= 10 and better >= 0.9 * len(pairs) and gain > q3 - q1:
            verdict = "gain"
        elif -gain > m["bound"] * abs(pm):
            verdict = "worse"
        elif q3 - q1 > m["bound"] * abs(pm):
            verdict = "unresolved"
        else:
            verdict = "same"
        print("  %-16s %12.4f %12.4f..%-12.4f %12.4f %+7.1f%% %4d/%d  %s"
              % (name, pm, q1, q3, tm, change, better, len(pairs), verdict))
EOF
