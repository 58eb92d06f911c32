#!/usr/bin/env bash
# Rust line counts per crate, split into non-test and test lines.
#
#   scripts/loc.sh [REV]
#
# Counts every package of the repository: `crates/*`, `crates/shims/*`,
# the root package and `hostbench`. A `.rs` file under a package's
# `src/` counts as non-test up to its first `#[cfg(test)]` line and as
# test from there on; every `.rs` file under its `tests/` counts as
# test. Other directories (`examples/`, build output) are not counted.
#
# Without REV, prints the working tree's counts. With REV, exports that
# git revision with `git archive` into a temporary directory (removed on
# exit), counts it the same way, and prints both counts and the delta
# (working tree minus REV) for every package.
set -euo pipefail

root=$(git rev-parse --show-toplevel 2>/dev/null || pwd)

# Prints "package non_test test" for every package under the tree $1.
count_tree() {
    local tree=$1 pkg dir
    for pkg in crates/* crates/shims/* . hostbench; do
        dir=$tree/$pkg
        [[ -f $dir/Cargo.toml ]] || continue
        {
            if [[ -d $dir/src ]]; then
                find "$dir/src" -name '*.rs' -type f -print0 | sort -z |
                    xargs -0r awk '
                        FNR == 1 { in_test = 0 }
                        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
                        { if (in_test) test++; else live++ }
                        END { print "src", live + 0, test + 0 }'
            fi
            if [[ -d $dir/tests ]]; then
                find "$dir/tests" -name '*.rs' -type f -print0 | sort -z |
                    xargs -0r awk 'END { print "tests", 0, NR + 0 }'
            fi
        } | awk -v pkg="${pkg/#./(root)}" '
            { live += $2; test += $3 }
            END { print pkg, live + 0, test + 0 }'
    done
}

if (($# > 1)) || [[ ${1:-} == -* ]]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi

if (($# == 0)); then
    count_tree "$root" | awk '
        BEGIN { printf "%-24s %9s %9s\n", "package", "non-test", "test" }
        { printf "%-24s %9d %9d\n", $1, $2, $3; l += $2; t += $3 }
        END { printf "%-24s %9d %9d\n", "total", l, t }'
    exit 0
fi

rev=$1
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: not a git revision: $rev" >&2
    exit 2
}
old=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
trap 'rm -rf "$old"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$old"

# Joins the two counts by package; a package present on one side only
# counts as 0 on the other.
awk -v rev="$rev" '
    !($1 in seen) { seen[$1] = 1; order[n++] = $1 }
    FNR == NR { ol[$1] = $2; ot[$1] = $3; next }
    { nl[$1] = $2; nt[$1] = $3 }
    END {
        printf "old: %s, new: the working tree\n", rev
        printf "%-24s %9s %9s %7s   %9s %9s %7s\n", "package", "non-test", "", "", "test", "", ""
        printf "%-24s %9s %9s %7s   %9s %9s %7s\n", "", "old", "new", "delta", "old", "new", "delta"
        for (i = 0; i < n; i++) {
            p = order[i]
            printf "%-24s %9d %9d %+7d   %9d %9d %+7d\n", p, ol[p], nl[p], nl[p] - ol[p], ot[p], nt[p], nt[p] - ot[p]
            sol += ol[p]; snl += nl[p]; sot += ot[p]; snt += nt[p]
        }
        printf "%-24s %9d %9d %+7d   %9d %9d %+7d\n", "total", sol, snl, snl - sol, sot, snt, snt - sot
    }' <(count_tree "$old") <(count_tree "$root")
