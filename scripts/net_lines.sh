#!/usr/bin/env bash
# Non-test Rust line counts per workspace crate, at a git revision and in
# the working tree, for reporting the net line count of a change:
#
#     scripts/net_lines.sh BASE          # e.g. scripts/net_lines.sh HEAD~1
#
# A file's non-test lines are the lines before its `#[cfg(test)]` +
# `mod tests` pair (the whole file when it has none). Counted are the
# library sources `src/*.rs` of the root package, `crates/*` and
# `vendor/*`; binaries under `src/bin/` are not. The test-only oracle
# (`oracle.rs` and the `mod oracle;` line that declares it) is not
# counted either. Informational only; nothing gates on it.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "$0: unknown revision '$base'" >&2
    exit 2
}

# Non-test lines of the Rust source on stdin.
count() {
    awk '
        prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { n = NR - 2; done = 1; exit }
        /^mod oracle;/ { skip++ }
        { prev = $0 }
        END { if (!done) n = NR; print n - skip }
    '
}

# Sum over the non-oracle `.rs` files listed on stdin, read with "$@ FILE".
sum_files() {
    local total=0 f
    while IFS= read -r f; do
        case $f in */oracle.rs) continue ;; esac
        total=$((total + $("$@" "$f" | count)))
    done
    echo "$total"
}

show_base() { git show "$base:$1"; }

crate_dirs() {
    { echo .; git ls-tree -d --name-only "$base" crates/ vendor/; ls -d crates/* vendor/*; } |
        sort -u
}

printf '%-18s %8s %8s %8s\n' crate base tree net
tb=0
tt=0
for dir in $(crate_dirs); do
    src=${dir#./}/src
    [ "$dir" = . ] && src=src
    # A crate that exists on one side only counts 0 on the other.
    b=$(git ls-tree --name-only "$base" -- "$src/" | { grep '\.rs$' || true; } | sum_files show_base)
    t=$({ find "$src" -maxdepth 1 -name '*.rs' 2>/dev/null || true; } | sort | sum_files cat)
    name=${dir#./}
    [ "$dir" = . ] && name="(root)"
    printf '%-18s %8d %8d %+8d\n' "$name" "$b" "$t" $((t - b))
    tb=$((tb + b))
    tt=$((tt + t))
done
printf '%-18s %8d %8d %+8d\n' total "$tb" "$tt" $((tt - tb))
