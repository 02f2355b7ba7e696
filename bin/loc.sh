#!/usr/bin/env bash
# Prints the line count of the main code of each repro.* package
# (src/main/scala/repro/<package>, subpackages included), then their sum.
# Lines are counted as `wc -l` counts them: comments and blank lines too.
#
#   bin/loc.sh                      # every package
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
printf '%-18s %6d\n' total "$total"
