#!/usr/bin/env bash
# Runs the Tier-1 verify command of ROADMAP.md: compile the tests, then run
# them offline, with the settings of bin/env.sh. Extra arguments replace the
# default `testOnly *` pattern, e.g.
#
#   bin/tier1.sh                       # every suite
#   bin/tier1.sh 'repro.acid.*'        # only the ACID suites
set -u
cd "$(dirname "$0")/.."
. bin/env.sh
pattern="${*:-*}"
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true Test/compile || exit $?
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "testOnly $pattern"
