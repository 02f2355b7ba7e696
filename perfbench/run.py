#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tpcds_warm --seed 1 --seconds 10 --trace 0

The first run builds the harness together with the program's sources
(``sbt`` in ``perfbench/``, offline); later runs reuse the build while the
sources are unchanged. Every file the run writes stays inside the checkout,
under ``.bench_build/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's provenance.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["tpcds_warm", "tpcds_cold", "ssb_druid_mv", "acid_mixed"]
DEADLINE_S = 175
JVM_HEAP = "-Xmx3g"
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, subdirs, names in os.walk(r):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def build(sha):
    """Compiles the harness and program unless this source tree is built."""
    stamp = os.path.join(BUILD, "build.stamp")
    cp_file = os.path.join(HERE, "target", "runtime-classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh:
            if fh.read().strip() == sha:
                return cp_file
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "sbt.repository.config" not in opts and os.path.exists(repos):
        # resolve only from the repositories the local caches were filled from
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
             "compile", "writeClasspath"],
            cwd=HERE, env=env, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    if proc.returncode != 0 or not os.path.exists(cp_file):
        fail(f"build failed, see {os.path.join(BUILD, 'build.log')}", 1)
    with open(stamp, "w") as fh:
        fh.write(sha)
    return cp_file


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no program sources under {ROOT}; run from the root of a checkout")

    sha = source_sha()
    with open(build(sha)) as fh:
        classpath = fh.read().strip()

    source = git_sha() or "sources-" + sha[:16]
    run_id = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work = os.path.join(BUILD, "work", run_id)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(BUILD, "results", run_id + ".json")
    cmd = ["java", JVM_HEAP, f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", classpath, "perfbench.Bench",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work", work, "--out", out,
            "--t0-ms", str(int(time.time() * 1000)), "--source-sha", source]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    code = None
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # also on SIGTERM or an error: never leave the JVM running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {DEADLINE_S} s", 1)
    if code != 0 or not os.path.exists(out):
        fail(f"harness exited with code {code}", 1)
    with open(out) as fh:
        result = json.load(fh)
    print(json.dumps({"provenance": result["provenance"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
