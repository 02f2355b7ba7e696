#!/usr/bin/env bash
# Prints the test cases removed and added between a git revision (default
# HEAD) and the working tree: per suite, each `test("…")` case of the Tier-1
# sources (src/test/scala) that only one side has, marked "-" (removed) or
# "+" (added), then the totals. Suites are named package.Class, as the test
# report names them. Report-only: always exits 0.
#
#   bin/test-delta.sh              # against HEAD
#   bin/test-delta.sh c6a3af4      # against another revision
cd "$(dirname "$0")/.."
BASE="${1:-HEAD}" python3 - <<'EOF'
import os, re, subprocess

base = os.environ["BASE"]
ROOT_DIR = "src/test/scala"
PKG = re.compile(r"^package\s+([\w.]+)", re.M)
SUITE = re.compile(r"^(?:final\s+)?class\s+(\w+)\b[^\n{]*\bextends\b", re.M)
CASE = re.compile(r'\btest\(\s*"((?:[^"\\]|\\.)*)"')


def cases(text):
    """{suite: set of case names} of one Scala source."""
    pkg = PKG.search(text)
    prefix = pkg.group(1) + "." if pkg else ""
    suites = [(m.start(), prefix + m.group(1)) for m in SUITE.finditer(text)]
    out = {}
    for m in CASE.finditer(text):
        owner = [name for pos, name in suites if pos < m.start()]
        if owner:
            out.setdefault(owner[-1], set()).add(m.group(1))
    return out


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True).stdout


def collect(sources):
    out = {}
    for text in sources:
        for suite, names in cases(text).items():
            out.setdefault(suite, set()).update(names)
    return out


if subprocess.run(["git", "rev-parse", "--verify", "-q", base + "^{commit}"],
                  capture_output=True).returncode != 0:
    print(f"test-delta: unknown revision {base}")
    raise SystemExit(0)
before = collect(git("show", f"{base}:{p}")
                 for p in git("ls-tree", "-r", "--name-only", base, "--", ROOT_DIR).split()
                 if p.endswith(".scala"))
after = collect(open(os.path.join(d, f), encoding="utf-8").read()
                for d, _, fs in os.walk(ROOT_DIR) for f in fs if f.endswith(".scala"))

removed = added = 0
for suite in sorted(set(before) | set(after)):
    gone = sorted(before.get(suite, set()) - after.get(suite, set()))
    new = sorted(after.get(suite, set()) - before.get(suite, set()))
    if gone or new:
        print(suite)
        for n in gone:
            print(f"  - {n}")
        for n in new:
            print(f"  + {n}")
    removed += len(gone)
    added += len(new)
total = lambda d: sum(len(v) for v in d.values())
print(f"removed {removed}, added {added}; cases {total(before)} at {base} -> "
      f"{total(after)} in the working tree")
EOF
exit 0
