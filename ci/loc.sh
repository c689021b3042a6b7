#!/usr/bin/env bash
# Line counts of the library code: for every Rust file under `src/` and
# `crates/*/src/` (without `crates/bench` and `crates/shims`), its non-test
# lines and, of those, its code lines (neither blank nor a `//` comment);
# then the same per crate, and the total.
#
# A non-test line is one outside every item marked `#[cfg(test)]` at column
# 0 — a `mod tests`, or a test-only fn or `use` anywhere in the file — from
# the attribute to the item's closing `}` (or `;`) at column 0. An indented
# `#[cfg(test)]` inside a library fn does not end the count.
#
#   ci/loc.sh          # this checkout
#   ci/loc.sh DIR      # another checkout, e.g. the parent commit's
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

find src crates -path crates/bench -prune -o -path crates/shims -prune \
    -o -name '*.rs' \( -path 'src/*' -o -path '*/src/*' \) -print | LC_ALL=C sort |
    while read -r f; do
    awk -v file="$f" '
        # Past a column-0 #[cfg(test)]: `pending` until the item starts,
        # then until its closing brace at column 0.
        skip && pending {
            if ($0 ~ /^[^ \t#\/]/) {
                pending = 0
                if ($0 ~ /;[ \t]*$/ && $0 !~ /\{/ || $0 ~ /\{.*\}[ \t]*$/) skip = 0
            }
            next
        }
        skip { if ($0 ~ /^}/) skip = 0; next }
        /^#\[cfg\(test\)\]/ {
            skip = 1; pending = 1
            rest = $0; sub(/^#\[cfg\(test\)\][ \t]*/, "", rest)
            if (rest != "") {
                pending = 0
                if (rest ~ /;[ \t]*$/ && rest !~ /\{/ || rest ~ /\{.*\}[ \t]*$/) skip = 0
            }
            next
        }
        { lines++ }
        $0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\// { code++ }
        END { printf "%d\t%d\t%s\n", lines, code, file }
    ' "$f"
done | awk -F'\t' '
    function crate(f, parts) {
        if (f !~ /^crates\//) return "src (the root package)"
        split(f, parts, "/")
        return "crates/" parts[2]
    }
    BEGIN { printf "%9s %9s  %s\n", "non-test", "code", "file" }
    {
        printf "%9d %9d  %s\n", $1, $2, $3
        c = crate($3); if (!(c in lines)) order[n++] = c
        lines[c] += $1; code[c] += $2; tl += $1; tc += $2
    }
    END {
        printf "\n%9s %9s  %s\n", "non-test", "code", "crate"
        for (i = 0; i < n; i++) printf "%9d %9d  %s\n", lines[order[i]], code[order[i]], order[i]
        printf "%9d %9d  %s\n", tl, tc, "total"
    }
'
