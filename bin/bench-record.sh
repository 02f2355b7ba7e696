#!/usr/bin/env bash
# Records the performance of this checkout in the committed trajectory files
# at the repo root:
#
#   BENCH_perfbench.json  perfbench/run.py on every workload of BENCHMARK.json,
#                         each seed once untraced and once traced, with the
#                         median and IQR (third minus first quartile) of every
#                         metric over the seeds;
#   BENCH_paper.json      bin/paperbench.sh (Table 1, Figure 7, Figure 8): the
#                         headline ratios, with and without the modelled
#                         container delay, and the measured and modelled ms of
#                         every query, as medians over the runs; for each run
#                         that failed, under `failures`, its exit code and each
#                         `*** FAILED ***` line with its assertion message,
#                         which are also printed to stderr.
#
# Each file is a JSON list with one record per source state. A record names
# the git sha of HEAD (suffixed "-dirty" when src/ or bench/ differ from
# it) and `src_tree`, the git tree id of src/ as it is on disk, which
# equals `git rev-parse <commit>:src` of the commit that holds these sources.
# A new record replaces an earlier one with the same sha and src_tree.
# The script only runs perfbench/; it changes nothing under it.
#
#   bin/bench-record.sh                  # seeds 1 2 3, one paperbench run
#   SEEDS="1 2 3 4 5" PAPER_RUNS=3 bin/bench-record.sh
#   SEEDS= PAPER_RUNS=3 bin/bench-record.sh   # paper benches only
#   PAPER_RUNS=0 bin/bench-record.sh     # perfbench only
#   BENCH_SF=0.1 bin/bench-record.sh     # paperbench scale factor (default 0.1)
set -u
cd "$(dirname "$0")/.."
export SEEDS="${SEEDS-1 2 3}" PAPER_RUNS="${PAPER_RUNS:-1}" BENCH_SF="${BENCH_SF:-0.1}"
exec python3 - <<'EOF'
import datetime, json, os, re, statistics, subprocess, sys, tempfile

ROOT = os.getcwd()
SEEDS = [int(s) for s in os.environ["SEEDS"].split()]
PAPER_RUNS = int(os.environ["PAPER_RUNS"])
SF = float(os.environ["BENCH_SF"])


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          env=env, check=True).stdout.strip()


def identity():
    head = git("rev-parse", "--short", "HEAD")
    dirty = git("status", "--porcelain", "--", "src", "bench") != ""
    # tree id of src/ on disk, written through a scratch index
    with tempfile.TemporaryDirectory() as d:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(d, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "--", "src", env=env)
        tree = git("write-tree", "--prefix=src/", env=env)
    return {"sha": head + ("-dirty" if dirty else ""), "src_tree": tree,
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "nproc": os.cpu_count()}


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "iqr": q[2] - q[0], "q1": q[0], "q3": q[2], "values": values}


def perfbench(ident):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = dict(ident, seeds=SEEDS, seconds=bench["run_seconds"], workloads={})
    for w in [x["name"] for x in bench["workloads"]]:
        entry = {}
        for trace in ("0", "1"):
            runs = []
            for seed in SEEDS:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", trace],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{w} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    continue
                lines = proc.stdout.strip().splitlines()
                res, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
                record["sf"] = prov["sf"]
                runs.append(res)
                print(f"{w} seed {seed} trace {trace}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} p50="
                      f"{res['metrics'].get('query_p50_ms', {}).get('value')}", flush=True)
            if not runs:
                continue
            entry["traced" if trace == "1" else "untraced"] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {n: spread([r["metrics"][n]["value"] for r in runs])
                            for n in runs[0]["metrics"]}}
        record["workloads"][w] = entry
    return record


TABLES = {"Table 1": "table1", "Figure 7": "fig7", "Figure 8": "fig8"}
RATIOS = [  # (bench, key, line prefix, regex on the line)
    ("table1", "ratio", "Measured: container", r"-> ([\d.]+)x"),
    ("table1", "ratio_measured", "Without the modelled container delay: container", r"-> ([\d.]+)x"),
    ("fig7", "avg_speedup", "Measured: v1.2", r"avg speedup ([\d.]+)x"),
    ("fig7", "avg_speedup_measured", "Without the modelled container delay: avg", r"avg speedup ([\d.]+)x"),
    ("fig7", "q88_shared_work_speedup", "Measured: q88", r"= ([\d.]+)x"),
    ("fig8", "ratio", "Measured: native", r"-> ([\d.]+)x"),
]


def parse_paper(out):
    """Per-query tables and headline ratios from one paperbench log."""
    res = {b: {"queries": {}} for b in TABLES.values()}
    bench, header = None, None
    for raw in out.splitlines():
        line = re.sub(r"^\[\w+\]\s?", "", raw)
        hit = next((v for k, v in TABLES.items() if line.startswith(k)), None)
        if hit:
            bench, header = hit, None
            continue
        if bench and line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if header is None:
                header = cells
            elif cells[0] != "TOTAL":
                cols = dict(zip(header[1:], cells[1:]))
                q = res[bench]["queries"].setdefault(cells[0], {})
                for col, v in cols.items():
                    if v == "-" or col.endswith(" measured (ms)"):
                        continue
                    mode = col[: -len(" (ms)")]
                    total = int(v)
                    measured = int(cols.get(f"{mode} measured (ms)", v))
                    q[mode] = {"measured_ms": measured, "modelled_ms": total - measured}
            continue
        for b, key, prefix, rx in RATIOS:
            if line.startswith(prefix):
                m = re.search(rx, line)
                if m:
                    res[b][key] = float(m.group(1))
    for b in res:
        res[b]["passed"] = None
    for raw in out.splitlines():
        line = re.sub(r"^\[\w+\]\s?", "", raw)
        for k, b in TABLES.items():
            if line.startswith(f"- {k}"):
                res[b]["passed"] = "FAILED" not in line
    return res


def failures(out):
    """Each `*** FAILED ***` line of a paperbench log with the assertion
    message that follows it (the lines indented below it)."""
    lines, found = out.splitlines(), []
    for i, line in enumerate(lines):
        if "*** FAILED ***" in line:
            msg = [line]
            for nxt in lines[i + 1:]:
                if not nxt.startswith("[info]   "):
                    break
                msg.append(nxt)
            found.append("\n".join(msg))
    return found


def paper(ident):
    runs, failed = [], []
    for i in range(PAPER_RUNS):
        proc = subprocess.run(["bin/paperbench.sh"], cwd=ROOT, capture_output=True, text=True)
        print(f"paperbench run {i + 1}: exit {proc.returncode}", flush=True)
        if proc.returncode != 0:
            why = failures(proc.stdout)
            print("\n".join(why) or proc.stdout[-2000:], file=sys.stderr, flush=True)
            failed.append({"run": i + 1, "exit": proc.returncode, "failures": why})
        runs.append(parse_paper(proc.stdout))
    record = dict(ident, sf=SF, runs=PAPER_RUNS)
    if failed:
        record["failures"] = failed
    for b in TABLES.values():
        passed = [r[b]["passed"] for r in runs]
        out = {"passed": None if None in passed else all(passed)}
        for key in sorted({k for r in runs for k in r[b] if k not in ("queries", "passed")}):
            out[key] = statistics.median([r[b][key] for r in runs if key in r[b]])
        queries = {}
        for q in runs[0][b]["queries"]:
            queries[q] = {mode: {f: statistics.median([r[b]["queries"][q][mode][f] for r in runs
                                                       if mode in r[b]["queries"].get(q, {})])
                                 for f in ("measured_ms", "modelled_ms")}
                          for mode in runs[0][b]["queries"][q]}
        out["queries"] = queries
        record[b] = out
    return record


def append(name, record):
    path = os.path.join(ROOT, name)
    records = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    records = [r for r in records
               if (r["sha"], r["src_tree"]) != (record["sha"], record["src_tree"])]
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"appended {record['sha']} (src {record['src_tree'][:12]}) to {name}", flush=True)


ident = identity()
if SEEDS:
    append("BENCH_perfbench.json", perfbench(ident))
if PAPER_RUNS:
    append("BENCH_paper.json", paper(ident))
EOF
