#!/usr/bin/env bash
# Non-test lines of a Rust source file: every line above its inline
# `#[cfg(test)]` module (the whole file when it has none). This is the rule
# ROADMAP.md and CHANGES.md quote file sizes by, so simplicity PRs measure
# the same thing.
#
#   scripts/nontest_loc.sh crates/ns-net/src/fault.rs crates/neutronstar/src/chaos.rs
set -eu
if [ "$#" -eq 0 ]; then
    echo "usage: $0 <file>..." >&2
    exit 2
fi
for f in "$@"; do
    printf '%6d %s\n' "$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")" "$f"
done
