#!/usr/bin/env bash
# Lists the main-code files that nothing else refers to: a file under
# src/main/scala is printed, with its line count, when none of its top-level
# class/object/trait names occurs as a word in another .scala file under
# src/main/scala, bench/, jobs/ or perfbench/src. Tests do not count as
# callers, so such a file is reached by its own suite only. Files that refer
# only to each other are not caught. Report-only: always exits 0.
#
#   bin/spec-only.sh
cd "$(dirname "$0")/.."
mapfile -t scope < <(find src/main/scala bench jobs perfbench/src -name '*.scala' 2>/dev/null | sort)
decl='^((final|sealed|abstract|case|implicit|private|protected)(\[[A-Za-z_.]+\])? +)*(class|object|trait) +([A-Za-z_][A-Za-z0-9_]*).*'
for f in $(find src/main/scala -name '*.scala' | sort); do
  referenced=no
  for name in $(sed -nE "s/$decl/\\5/p" "$f" | sort -u); do
    if grep -lw -- "$name" "${scope[@]}" | grep -qvxF -- "$f"; then referenced=yes; break; fi
  done
  [ "$referenced" = no ] && printf '%6d  %s\n' "$(wc -l <"$f")" "$f"
done
exit 0
