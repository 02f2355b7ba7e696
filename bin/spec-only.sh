#!/usr/bin/env bash
# Lists the top-level classes, objects and traits of the main code that
# nothing else refers to. Each top-level name declared in a file under
# src/main/scala is checked on its own: it is printed when no code line of a
# .scala file under src/main/scala, bench/, jobs/ or perfbench/src names it
# as a word, apart from its own declarations. Comment lines (starting with
# //, /* or *) do not count as references, and neither do tests, so a name
# printed here is reached by its own suite only. Names that refer only to
# each other are not caught. Each line gives the declaration's line count
# (up to the next top-level declaration of its file), its file and line, and
# the name. Report-only: always exits 0.
#
# `Oracle` is listed by design: it is the tests' DuckDB reference, kept in
# the main code so that every suite can use it.
#
#   bin/spec-only.sh
cd "$(dirname "$0")/.."
mapfile -t scope < <(find src/main/scala bench jobs perfbench/src -name '*.scala' 2>/dev/null | sort)
mods='^((final|sealed|abstract|case|implicit|private|protected)(\[[A-Za-z_.]+\])? +)*(class|object|trait) +'
comment='^[[:space:]]*(//|/\*|\*)'
for f in $(find src/main/scala -name '*.scala' | sort); do
  total=$(wc -l <"$f")
  # "line name" of each top-level declaration, then the next one's line
  grep -nE "${mods}[A-Za-z_]" "$f" | sed -E "s/^([0-9]+):${mods#^}([A-Za-z_][A-Za-z0-9_]*).*/\\1 \\6/" |
    awk -v end="$((total + 1))" '{ l[NR] = $1; n[NR] = $2 } END { for (i = 1; i <= NR; i++) print l[i], (i < NR ? l[i + 1] : end), n[i] }' |
    while read -r line next name; do
      if ! grep -hw -- "$name" "${scope[@]}" | grep -vE "$comment" | grep -vqE "${mods}${name}\\b"; then
        printf '%6d  %s:%d  %s\n' "$((next - line))" "$f" "$line" "$name"
      fi
    done
done
exit 0
