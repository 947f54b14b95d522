#!/usr/bin/env bash
# `unsafe` sites per file under crates/*/src: every occurrence of the
# keyword outside `//` comments (blocks, fns, impls alike). Fails when the
# total differs from EXPECTED, so a PR that adds or removes one says so
# here, next to the reason, instead of in passing.
#
#   ns-net/src/wire.rs       2  PCLMULQDQ CRC32 kernel, its one call site
#   ns-par/src/lib.rs        3  pool job lifetime erasure: the job's Send impl,
#                               the call through the erased pointer, the transmute
set -eu
EXPECTED=5
cd "$(dirname "$0")/.."
total=0
while IFS= read -r f; do
    n=$(sed 's,//.*,,' "$f" | grep -ow 'unsafe' | wc -l)
    if [ "$n" -gt 0 ]; then
        printf '%4d %s\n' "$n" "$f"
        total=$((total + n))
    fi
done < <(find crates/*/src -name '*.rs' | sort)
printf '%4d total (expected %d)\n' "$total" "$EXPECTED"
[ "$total" -eq "$EXPECTED" ]
