#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total: the figure changes
# report as "non-test lines".
#
#   scripts/loc.sh [--files] [REV]
#
# Counts every `crates/*/src/**/*.rs` file up to the `#[cfg(test)]` line
# that opens its `mod tests {` block (the whole file when it has none). An
# earlier `#[cfg(test)]` item, such as `mod reference;`, does not end the
# count. Files compiled only under `#[cfg(test)]` (a `#[cfg(test)]` line
# followed by `mod name;`) are skipped. Lines are physical lines: comments
# and blank lines count.
#
# Without REV it counts the working tree; with REV, that revision's files
# read with `git archive`. `--files` also prints each counted file.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/loc.sh [--files] [REV]" >&2
    exit 2
}

files_too=0
rev=""
for arg in "$@"; do
    case "$arg" in
        --files) files_too=1 ;;
        -*) usage ;;
        *) [ -z "$rev" ] || usage; rev="$arg" ;;
    esac
done

if [ -n "$rev" ]; then
    if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
        echo "loc.sh: unknown revision '$rev'" >&2
        exit 2
    fi
    tree="$(mktemp -d)"
    trap 'rm -rf "$tree"' EXIT
    git archive "$rev" crates | tar -x -C "$tree"
    cd "$tree"
fi

mapfile -t files < <(find crates/*/src -name '*.rs' | LC_ALL=C sort)

# Test-only modules: `#[cfg(test)]` then `mod name;`. A module declared in
# lib.rs, main.rs or mod.rs lives next to it; one declared in foo.rs lives
# under foo/.
test_only="$(awk '
    FNR == 1 { cfg = 0 }
    cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
        name = $0; sub(/.*mod /, "", name); sub(/;.*/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
        print dir "/" name ".rs"
        print dir "/" name "/mod.rs"
    }
    { cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
' "${files[@]}")"

awk -v test_only="$test_only" -v files_too="$files_too" '
    BEGIN {
        n = split(test_only, t, "\n")
        for (i = 1; i <= n; i++) skip[t[i]] = 1
    }
    FNR == 1 {
        flush()
        file = FILENAME; done = (file in skip); cfg = 0; count = 0
        crate = file; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
        crates[crate] += 0
    }
    done { next }
    cfg && /^mod tests \{/ { done = 1; count--; next }
    { count++; cfg = ($0 ~ /^#\[cfg\(test\)\][[:space:]]*$/) }
    function flush() {
        if (file == "" || (file in skip)) return
        crates[crate] += count; total += count
        if (files_too) printf "%7d  %s\n", count, file
    }
    END {
        flush()
        for (c in crates) printf "%7d  %s\n", crates[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  total\n", total
    }
' "${files[@]}"
