#!/bin/sh
# Flake finder: runs the tier-1 test suite N times and prints every test
# whose result changed between runs.
#
#   scripts/flake.sh 20
#
# Each run is `cargo test --no-fail-fast` at the repository root (the
# tier-1 `cargo test -q` with per-test result lines and cargo's
# "Running <binary>" headers, so tests are named `tests/<file>.rs::<name>`).
# A test counts as changed when its result (ok, FAILED, ignored, or
# missing — its binary crashed or did not build) is not the same in every
# run. Prints one line per changed test with its tally, then a summary.
# Exit status: 0 if nothing changed, 1 otherwise.
set -eu
n=${1:?usage: scripts/flake.sh N}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

i=1
while [ "$i" -le "$n" ]; do
    cargo test --offline --no-fail-fast >"$tmp/log" 2>&1 || true
    awk '
        /^ *Running / { bin = ($2 == "unittests") ? $3 : $2; pending = ""; next }
        /^ *Doc-tests / { bin = "doc-tests " $2; pending = ""; next }
        /^test .* \.\.\. / {
            name = $0
            sub(/^test /, "", name)
            sub(/ \.\.\. .*$/, "", name)
            result = substr($0, index($0, " ... ") + 5)
            pending = ""
            if (match(result, /^(ok|FAILED|ignored)/))
                print bin "::" name "\t" substr(result, 1, RLENGTH)
            else
                pending = name
            next
        }
        # Stderr of threads a test started (a daemon logging faults) can
        # land between "test NAME ... " and the result, which then starts
        # a later line.
        pending != "" && match($0, /^(ok|FAILED|ignored)/) {
            print bin "::" pending "\t" substr($0, 1, RLENGTH)
            pending = ""
        }
    ' "$tmp/log" >"$tmp/run$i"
    echo "run $i/$n: $(grep -c 'ok$' "$tmp/run$i") ok, $(grep -c 'FAILED$' "$tmp/run$i") failed" >&2
    i=$((i + 1))
done

# One line per test: its result in each run, "missing" where absent.
awk -F '\t' -v runs="$n" '
    { run = FILENAME; sub(/.*run/, "", run); result[$1, run] = $2; seen[$1] = 1 }
    END {
        changed = 0; total = 0
        for (t in seen) {
            total++
            delete tally; kinds = 0; line = ""
            for (r = 1; r <= runs; r++) {
                res = ((t, r) in result) ? result[t, r] : "missing"
                if (!(res in tally)) kinds++
                tally[res]++
            }
            if (kinds > 1) {
                for (res in tally) line = line " " res "=" tally[res]
                print t ":" line
                changed++
            }
        }
        printf "%d runs, %d tests, %d changed\n", runs, total, changed
        exit (changed > 0)
    }
' "$tmp"/run*
