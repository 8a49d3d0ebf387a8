#!/usr/bin/env bash
# Size metrics of the source tree, tracked from change to change:
#
#   scripts/src_stats.sh [root]     # root defaults to the repository root
#
# Prints two lines:
#   src_lines       lines of src/**/*.{cc,h}
#   option_fields   settable option fields: the data members of every
#                   `struct *Options { ... }` under src/ (methods, static
#                   members and type aliases are not fields)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

lines=$(find src -name '*.cc' -o -name '*.h' | sort | xargs cat | wc -l)
echo "src_lines      ${lines}"

fields=$(find src -name '*.cc' -o -name '*.h' | sort | python3 -c '
import re, sys

def fields_of(body):
    """Data members declared at the top level of one struct body."""
    count, depth, stmt = 0, 0, ""
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            # A member function body closes: its declaration is no field.
            if depth == 0 and is_method(stmt):
                stmt = ""
            continue
        if depth > 0:
            continue
        if ch == ";":
            s = stmt.strip()
            if s and not re.match(r"(using|static|friend|enum|struct|class)\b", s) \
                    and not is_method(s):
                count += 1
            stmt = ""
        else:
            stmt += ch
    return count

def is_method(stmt):
    s = stmt
    while True:  # drop template arguments: std::function<void(int)>
        t = re.sub(r"<[^<>]*>", "", s)
        if t == s:
            break
        s = t
    paren = s.find("(")
    return paren >= 0 and "=" not in s[:paren]

total = 0
for path in sys.stdin.read().split():
    text = open(path, encoding="utf-8").read()
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"\"(\\.|[^\"\\])*\"", "\"\"", text)
    for m in re.finditer(r"\bstruct\s+\w*Options\s*(?::[^{;]*)?\{", text):
        depth, i = 1, m.end()
        while depth > 0:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        total += fields_of(text[m.end():i - 1])
print(total)
')
echo "option_fields  ${fields}"
