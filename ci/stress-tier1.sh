#!/usr/bin/env bash
# Tier-1 under load: runs every test binary `cargo test` builds for the
# workspace's default members 20 times, each with `--test-threads` at twice
# the core count, beside one busy loop per core. Fails if a test's outcome
# differs between two runs of its binary, if a run fails, or if there is no
# binary to run. Doc tests are not binaries and are not repeated.
#
#   ci/stress-tier1.sh
set -euo pipefail

runs=20
cores=$(nproc)
threads=$((2 * cores))
cd "$(dirname "$0")/.."

# Build first, so a failed build stops the script with its own errors.
cargo test --no-run
logs=$(mktemp -d)
# One line per test binary: the executable and its package's directory,
# where `cargo test` would run it. The build above is fresh, so this only
# lists what it built.
cargo test --no-run --message-format=json >"$logs/build.json"
jq -r 'select(.profile.test == true and .executable != null)
       | [.executable, (.manifest_path | rtrimstr("/Cargo.toml"))] | @tsv' \
    "$logs/build.json" >"$logs/bins.tsv"
mapfile -t bins <"$logs/bins.tsv"
if [ "${#bins[@]}" -eq 0 ]; then
    echo "no test binaries were built" >&2
    exit 1
fi

hogs=()
for _ in $(seq "$cores"); do
    (while :; do :; done) &
    hogs+=($!)
done
trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT

failed=0
for entry in "${bins[@]}"; do
    IFS=$'\t' read -r bin dir <<<"$entry"
    name=$(basename "$bin")
    for run in $(seq "$runs"); do
        log="$logs/$name.$run"
        if ! (cd "$dir" && CARGO_MANIFEST_DIR="$dir" "$bin" --test-threads "$threads" >"$log.out" 2>&1); then
            echo "FAIL $name, run $run:"
            tail -n 40 "$log.out"
            failed=1
        fi
        # Each test's outcome, in name order (threads finish in any order).
        { grep -E '^test .* \.\.\. ' "$log.out" || true; } | sort >"$log"
        if [ "$run" -gt 1 ] && ! diff -u "$logs/$name.1" "$log"; then
            echo "FLAKY $name: run $run differs from run 1"
            failed=1
        fi
    done
    echo "ok $name: $runs runs, $(wc -l <"$logs/$name.1") tests"
done
exit "$failed"
