#!/usr/bin/env bash
# Runs the paper-evaluation benches of the `bench` project (Table 1, Figure 7,
# Figure 8) offline, with the settings of bin/env.sh. `testOnly *` in the root
# project does not reach them. BENCH_SF sets the scale factor (default 0.1).
# Extra arguments replace the default `*` pattern, e.g.
#
#   bin/paperbench.sh                                # all three suites
#   BENCH_SF=0.01 bin/paperbench.sh '*Table1*'       # Table 1 only, smaller
set -u
cd "$(dirname "$0")/.."
. bin/env.sh
pattern="${*:-*}"
export BENCH_SF="${BENCH_SF:-0.1}"
# The benches keep the 64 shuffle partitions their recorded figures were
# measured with; Tier-1's default is 8 (src/test/scala/repro/SparkSpec.scala).
export SPARK_SHUFFLE_PARTITIONS="${SPARK_SHUFFLE_PARTITIONS:-64}"
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "bench/testOnly $pattern"
