#!/usr/bin/env bash
# Public functions nothing calls: every `pub fn` / `pub(crate) fn` under
# crates/*/src (crates/benchmark excluded) whose name occurs in no other
# `.rs` file of the workspace (tests, benches, examples and
# crates/benchmark included) and only once in its own file above the
# inline `#[cfg(test)]` module. Any occurrence counts, a doc link too,
# except inside a string literal: an `expect("foo: ...")` message or a
# format string names a function without calling it, and counting those
# once hid a caller-less `pub fn` behind its own panic messages.
# Fails on any such name not allowlisted below, and on an allowlisted
# name that has since gained a caller, so the list stays exact.
#
# The three below are test hooks: each lets its own file's unit tests
# read or arm state nothing else needs.
#
#   ns-metrics/src/lib.rs    open_spans          span-nesting test counts open spans
#   ns-runtime/src/store.rs  set_disk_fate_hard  arms a disk-full the post-squeeze retry hits too
#   ns-gnn/src/layers.rs     num_heads           multi-head GAT test reads the head count
set -eu
ALLOW="
crates/ns-metrics/src/lib.rs open_spans
crates/ns-runtime/src/store.rs set_disk_fate_hard
crates/ns-gnn/src/layers.rs num_heads
"
cd "$(dirname "$0")/.."
unused=$(find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    {
        line = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        if (!test && FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/benchmark\// \
            && match(line, /^[ \t]*pub(\(crate\))? fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* fn /, "", def)
            defs[FILENAME " " def] = 1
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!((FILENAME, w) in seen)) { seen[FILENAME, w] = 1; files[w]++ }
            if (!test) own[FILENAME, w]++
        }
    }
    END {
        for (k in defs) {
            split(k, p, " ")
            if (files[p[2]] == 1 && own[p[1], p[2]] == 1) print k
        }
    }' | sort)
allowed=$(printf '%s\n' "$ALLOW" | sed '/^$/d' | sort)
[ -n "$unused" ] && printf '%s\n' "$unused" | sed 's/^/    /'
printf '%4d unused (allowlisted %d)\n' "$(printf '%s' "$unused" | grep -c . || true)" \
    "$(printf '%s\n' "$allowed" | grep -c .)"
status=0
for k in $(comm -23 <(printf '%s\n' "$unused") <(printf '%s\n' "$allowed") | tr ' ' ':'); do
    echo "unused and not allowlisted: ${k/:/ }" >&2
    status=1
done
for k in $(comm -13 <(printf '%s\n' "$unused") <(printf '%s\n' "$allowed") | tr ' ' ':'); do
    echo "allowlisted but used (drop it from ALLOW): ${k/:/ }" >&2
    status=1
done
exit "$status"
