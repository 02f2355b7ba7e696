#!/usr/bin/env bash
# Runs the Tier-1 verify command of ROADMAP.md: compile the tests, then run
# them offline, with the gate's CPU, Spark driver-memory and local-dir
# settings. The sbt repository config is read from $HOME/.sbt. Extra
# arguments replace the default `testOnly *` pattern, e.g.
#
#   bin/tier1.sh                       # every suite
#   bin/tier1.sh 'repro.acid.*'        # only the ACID suites
set -u
cd "$(dirname "$0")/.."
pattern="${*:-*}"
export COURSIER_MODE=offline SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true Test/compile || exit $?
export SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)" SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)" SPARK_LOCAL_DIRS=/tmp/spark-local
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "testOnly $pattern"
