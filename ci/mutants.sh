#!/usr/bin/env bash
# Recorded mutations as a standing suite. Each `ci/mutants/NN-name.patch` is
# a `git diff` against this tree that plants one defect a test once caught;
# its header names those tests, one line each:
#
#   # must fail: <cargo test arguments> -- <exact test name>
#
# For every patch the script copies the tree to one scratch directory,
# applies the patch there, builds the named test targets and runs each named
# test alone: the patch must apply cleanly, the mutant must build, and every
# named test must fail. A patch that no longer applies is an error — a
# refactor re-expresses the mutation against the new code rather than
# dropping it. The copy keeps one path, and the builds one target directory
# (`target/mutants`), across patches and runs, so a mutant rebuilds only the
# crates its patch touches and their dependents.
#
#   ci/mutants.sh                   # every patch
#   ci/mutants.sh ci/mutants/03-*   # some of them
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -gt 0 ]; then
    patches=()
    for patch in "$@"; do patches+=("$(realpath "$patch")"); done
else
    patches=("$root"/ci/mutants/*.patch)
fi
cd "$root"
work="${TMPDIR:-/tmp}/sensjoin-mutants"
export CARGO_TARGET_DIR="$root/target/mutants"
[ -e "${patches[0]}" ] || { echo "no mutant patches" >&2; exit 1; }

failed=0
for patch in "${patches[@]}"; do
    name="$(basename "$patch")"
    # A fresh copy of the tree: tracked and untracked files, no ignored ones.
    rm -rf "$work"
    mkdir -p "$work"
    git ls-files -z --cached --others --exclude-standard |
        tar --null -T - -cf - | tar -xf - -C "$work"
    if ! (cd "$work" && git apply "$patch"); then
        echo "error: $name no longer applies: re-express the mutation" >&2
        failed=1
        continue
    fi
    mapfile -t checks < <(sed -n 's/^# must fail: //p' "$patch")
    if [ ${#checks[@]} -eq 0 ]; then
        echo "error: $name names no test that must fail" >&2
        failed=1
        continue
    fi
    for check in "${checks[@]}"; do
        args="${check%% -- *}"
        test="${check##* -- }"
        # shellcheck disable=SC2086
        if ! (cd "$work" && cargo test -q $args --no-run 2>&1); then
            echo "error: $name does not build for \`cargo test $args\`" >&2
            failed=1
            continue 2
        fi
        # shellcheck disable=SC2086
        if out="$(cd "$work" && cargo test -q $args -- --exact "$test" 2>&1)"; then
            if grep -q 'running [1-9]' <<<"$out"; then
                echo "error: $name survived: \`$test\` passed" >&2
            else
                echo "error: $name: no test \`$test\` in \`cargo test $args\`" >&2
            fi
            failed=1
        else
            echo "$name: \`$test\` fails, as it must"
        fi
    done
done
rm -rf "$work"
exit "$failed"
