#!/usr/bin/env bash
# Runs alternating pairs of untraced perfbench runs, a parent revision against
# the working tree, and reports each end-to-end metric of BENCHMARK.json by
# the pair rule of the benchmark's acceptance check.
#
#   bin/bench-pairs.sh <parent-rev> <workload> <seed>...
#   bin/bench-pairs.sh 4700940 acid_mixed 1 2 3 4 5 6 7 8 9 10
#
# Both sides run the same benchmark code: the parent side is
# `git archive <parent-rev>` exported to .bench_build/pairs/parent/, with the
# working tree's perfbench/ and BENCHMARK.json copied over it (a warning says
# when they differed); the change side is a copy of the working tree's
# tracked and unignored files in .bench_build/pairs/change/, so edits made
# while the pairs run do not reach them. Each seed is one pair; the parent
# runs first on odd seeds. Every raw result line is kept in
# .bench_build/pairs/<workload>-<time>.jsonl.
#
# For each metric it prints each side's median, q1 and q3; the pairs the
# change wins in the metric's `better` direction (ties count for neither);
# whether a gain is shown (at least 9/10 of the pairs won and a median gap
# wider than the parent's q3 - q1); whether the change's median stays
# within the metric's `bound` of the parent's; and whether the metric is
# unresolved: either side's (q3 - q1) / median exceeds the bound, so the
# runs spread too widely to tell a move within the bound from none, unless
# every run of the change beats every run of the parent. Such a metric is
# reported as unresolved, not as unchanged. Then `correct` and `failed`
# per side. Report-only: exits 0 unless a run fails.
set -u
cd "$(dirname "$0")/.."
if [ $# -lt 3 ]; then
  echo "usage: bin/bench-pairs.sh <parent-rev> <workload> <seed>..." >&2
  exit 2
fi
rev="$1" workload="$2"
shift 2
git rev-parse --verify -q "$rev^{commit}" >/dev/null || { echo "bench-pairs: unknown revision $rev" >&2; exit 2; }
pairs=.bench_build/pairs
rm -rf "$pairs/parent" "$pairs/change"
mkdir -p "$pairs/parent" "$pairs/change"
git archive "$rev" | tar -x -C "$pairs/parent"
# The working tree's files as git sees them: tracked and untracked, not
# ignored, and present on disk.
git ls-files -z -co --exclude-standard | xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' _ \
  | tar --null -T - -cf - | tar -x -C "$pairs/change"
if ! git diff --quiet "$rev" -- perfbench BENCHMARK.json ||
   [ -n "$(git ls-files -o --exclude-standard -- perfbench)" ]; then
  echo "bench-pairs: warning: perfbench/ or BENCHMARK.json differ from $rev; both sides run the working tree's" >&2
fi
rm -rf "$pairs/parent/perfbench" "$pairs/parent/BENCHMARK.json"
cp -r "$pairs/change/perfbench" "$pairs/change/BENCHMARK.json" "$pairs/parent/"

REV="$rev" WORKLOAD="$workload" PAIRS="$pairs" exec python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys, time

rev, workload, pairs = os.environ["REV"], os.environ["WORKLOAD"], os.environ["PAIRS"]
seeds = [int(s) for s in sys.argv[1:]]
with open(os.path.join(pairs, "change", "BENCHMARK.json")) as fh:
    bench = json.load(fh)
log = os.path.join(pairs, f"{workload}-{time.strftime('%Y%m%dT%H%M%S')}.jsonl")
results = {"parent": [], "change": []}
failed_runs = 0


def run(side, seed):
    global failed_runs
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=os.path.join(pairs, side), capture_output=True, text=True)
    if proc.returncode != 0:
        failed_runs += 1
        print(f"{side} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    line = proc.stdout.strip().splitlines()[-1]
    with open(log, "a") as fh:
        fh.write(json.dumps({"side": side, "seed": seed, "result": json.loads(line)}) + "\n")
    res = json.loads(line)
    print(f"{side} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
          f"p50={res['metrics'].get('query_p50_ms', {}).get('value')}", flush=True)
    return res


for seed in seeds:
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    pair = {side: run(side, seed) for side in order}
    for side, res in pair.items():
        results[side].append(res)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


print(f"\n{workload}: parent {rev} against the working tree, {len(seeds)} pairs, raw results in {log}")
print(f"{'metric':18} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} {'wins':>6} {'delta':>8}  gain  "
      f"{'in-bound':15} unresolved")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(results["parent"], results["change"])
            if p and c and name in p["metrics"] and name in c["metrics"]]
    if not both:
        print(f"{name:18} no complete pair")
        continue
    par, chg = [p for p, _ in both], [c for _, c in both]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
    wins = sum(1 for p, c in both if (c < p if lower else c > p))
    delta = (cmed - pmed) / pmed if pmed else 0.0
    better_gap = (pmed - cmed) if lower else (cmed - pmed)
    gain = wins * 10 >= 9 * len(both) and better_gap > pq3 - pq1
    worse = delta if lower else -delta
    wide = any(med and (q3 - q1) / med > m["bound"] for q1, med, q3 in ((pq1, pmed, pq3), (cq1, cmed, cq3)))
    dominates = max(chg) < min(par) if lower else min(chg) > max(par)
    in_bound = f"{'yes' if worse <= m['bound'] else 'NO'} (bound {m['bound']:.0%})"
    print(f"{name:18} {pq1:8.2f}/{pmed:8.2f}/{pq3:8.2f} {cq1:8.2f}/{cmed:8.2f}/{cq3:8.2f} "
          f"{wins:>3}/{len(both):<2} {delta:+8.1%}  {'yes' if gain else 'no ':4}  "
          f"{in_bound:15} {'yes' if wide and not dominates else 'no'}")
for side in ("parent", "change"):
    done = [r for r in results[side] if r]
    print(f"{side}: {len(done)} runs, correct={all(r['correct'] for r in done)}, "
          f"failed {sum(r['failed'] for r in done)}/{sum(r['attempted'] for r in done)} operations")
sys.exit(1 if failed_runs else 0)
EOF
