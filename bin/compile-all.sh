#!/usr/bin/env bash
# Compiles every sbt project that builds against the program's sources, with
# the settings of bin/env.sh: the root project and the `bench` project, tests
# included, then the benchmark harness in perfbench/ (a separate build, run
# offline the way perfbench/run.py runs it). Tier-1 compiles only the root
# project, so a public name that only `bench` or perfbench/ still uses
# surfaces here, not first when the benchmark runs.
#
#   bin/compile-all.sh
set -u
cd "$(dirname "$0")/.."
. bin/env.sh
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true Test/compile bench/Test/compile || exit $?
cd perfbench
timeout -k 10 2670 sbt --batch -Dsbt.server.autostart=false -Dsbt.log.noformat=true Test/compile
