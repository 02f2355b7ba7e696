#!/usr/bin/env bash
# Lists the main code that nothing else refers to, in two sections. Both
# search the code lines of the .scala files under src/main/scala, bench/
# and perfbench/src for a name as a word. Comment lines (starting with
# //, /* or *) do not count as references, and neither do tests, so a name
# printed here is reached by its own suite only. Names that refer only to
# each other are not caught.
#
# First section: the top-level classes, objects and traits declared in a
# file under src/main/scala, each checked on its own: it is printed when no
# code line names it apart from its own declarations. Each line gives the
# declaration's line count (up to the next top-level declaration of its
# file), its file and line, and the name.
#
# Second section: the public members (`def`, `val`, `var`) of the top-level
# classes and objects under src/main/scala that no code line names apart
# from the member's own declaration. Members declared `override` or
# `private` (qualified or not) are skipped, and so are the members of traits
# and of nested classes. A member whose name is also a word elsewhere
# (`read`, `get`) counts as named, so this section can miss dead members but
# does not list used ones. Each line gives the declaration's file and line
# and Owner.member.
#
# Report-only: always exits 0.
#
#   bin/spec-only.sh
cd "$(dirname "$0")/.."
mapfile -t scope < <(find src/main/scala bench perfbench/src -name '*.scala' 2>/dev/null | sort)
mods='^((final|sealed|abstract|case|implicit|private|protected)(\[[A-Za-z_.]+\])? +)*(class|object|trait) +'
comment='^[[:space:]]*(//|/\*|\*)'
echo "Top-level declarations that nothing else names:"
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
echo
echo "Public members that nothing else names:"
python3 - "${scope[@]}" <<'EOF'
import re, sys

COMMENT = re.compile(r"^\s*(//|/\*|\*)")
# a declaration keyword with the name(s) it declares: `def f`, `val a, b`
DECL = re.compile(r"\b(?:def|val|var)\s+\w+(?:\s*,\s*\w+)*")
OWNER = re.compile(r"^(?:(?:final|sealed|abstract|case|implicit|private|protected)(?:\[[\w.]+\])?\s+)*"
                   r"(class|object|trait)\s+(\w+)")
MEMBER = re.compile(r"^((?:(?:@\w+|final|lazy|implicit|override|private|protected)(?:\[[\w.]+\])?\s+)*)"
                    r"(?:def|val|var)\s+(\w+(?:\s*,\s*\w+)*)")

uses, members = {}, []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    owner = None  # the enclosing top-level class or object; None in a trait
    for no, line in enumerate(lines, 1):
        if COMMENT.match(line):
            continue
        for word in re.findall(r"\w+", DECL.sub(" ", line)):
            uses[word] = uses.get(word, 0) + 1
        if not path.startswith("src/main/scala/"):
            continue
        top = OWNER.match(line)
        if top:
            owner = top.group(2) if top.group(1) != "trait" else None
        elif owner and line.startswith("  ") and not line[2:3].isspace():
            for part in line.split(";"):
                m = MEMBER.match(part.strip())
                if m and not re.search(r"\b(override|private)\b", m.group(1)):
                    members += [(path, no, owner, n.strip()) for n in m.group(2).split(",")]
for path, no, owner, name in members:
    if uses.get(name, 0) == 0:
        print(f"  {path}:{no}  {owner}.{name}")
EOF
exit 0
