#!/usr/bin/env bash
# Prints the line count of the main code of each repro.* package
# (src/main/scala/repro/<package>, subpackages included), then the `repro`
# row for the top-level files src/main/scala/repro/*.scala, then the
# `spark.sql.repro` row for src/main/scala/org/apache/spark/sql/repro (main
# code placed in Spark's package to reach its package-private API), then
# their sum. Lines are counted as `wc -l` counts them: comments and blank
# lines too.
#
#   bin/loc.sh                      # every package and the top-level files
#   bin/loc.sh core federation      # only these packages
set -eu
cd "$(dirname "$0")/../src/main/scala/repro"
pkgs="${*:-$(ls -d */ | tr -d /)}"
total=0
for p in $pkgs; do
  n=$(find "$p" -name '*.scala' -exec cat {} + | wc -l)
  printf 'repro.%-12s %6d\n' "$p" "$n"
  total=$((total + n))
done
if [ $# -eq 0 ]; then
  n=$(find . -maxdepth 1 -name '*.scala' -exec cat {} + | wc -l)
  printf '%-18s %6d\n' repro "$n"
  total=$((total + n))
  n=$(find ../org/apache/spark/sql/repro -name '*.scala' -exec cat {} + | wc -l)
  printf '%-18s %6d\n' spark.sql.repro "$n"
  total=$((total + n))
fi
printf '%-18s %6d\n' total "$total"
