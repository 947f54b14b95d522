#!/usr/bin/env bash
# Panic sites per file under crates/*/src (crates/benchmark excluded):
# lines above the file's inline `#[cfg(test)]` module, `//` comments
# (doc examples included) skipped, that call `.unwrap()` or `.expect(`.
# Each is a place the program can abort instead of returning an error
# (ROADMAP item 6(f)). Fails when any file's count differs from
# EXPECTED, so a PR that adds or removes one says so here, next to the
# reason, instead of in passing.
#
# Threaded runtimes: poisoned locks and thread joins (each re-raises a panic
# another thread already had), and invariants of their own protocol:
#   ns-par/src/lib.rs          10  pool state/condvar locks, the spawn lock, chunk
#                                  slots; a worker that cannot spawn; a chunk claimed twice
#   ns-runtime/src/serve.rs    13  admission-queue mutex (5), driver and shard joins (2),
#                                  the model/class check's last dim (2), the frontend's
#                                  endpoint, pending-query lookups (3)
#   ns-runtime/src/exec.rs      6  worker join, a model's last layer, one tape run per
#                                  layer, layers above 0 track their input, layer 0's
#                                  held features, at least one worker
# Fixed-width slices and infallible writes (`try_into` on a length already checked,
# `write!` into a String or a Vec):
#   ns-net/src/wire.rs          8  CRC folding and frame/payload header fields
#   ns-tensor/src/checkpoint.rs 4  header fields and f32 words; a name validated above
#   ns-runtime/src/store.rs     2  generation header fields
#   ns-metrics/src/json.rs      9  two `write!` into a String; seven are the parser's own
#                                  fallible `Parser::expect`, not a panic
#   ns-runtime/src/recovery.rs  1  checkpoint encode into a Vec
#   ns-graph/src/fx.rs          1  8-byte hash chunks
#   ns-tensor/src/tensor.rs     5  GEMM panels cut by `chunks_exact`, NR-wide source
#                                  rows of the register-blocked aggregation
# Invariants the caller established:
#   ns-runtime/src/trainer/supervisor.rs 1  a finished chunk left its parameters
#   ns-tensor/src/nn.rs         2  an MLP has a first and last layer
#   ns-tensor/src/pool.rs       1  the bucket just found
#   ns-gnn/src/topology.rs      2  the offsets array is never empty; a freshly collected
#                                  `Arc` slice has one owner
#   ns-graph/src/partition.rs   1  at least one part
#   ns-baselines/src/distdgl.rs 1  layer 1 tracks its input
#   ns-baselines/src/shared_memory.rs 1  the single-node plan builds
# Experiment driver (a failed run aborts the experiment loudly):
#   bench/src/bin/experiments.rs 11  prepare/train/simulate of each row
#   bench/src/lib.rs            2  writing results/*.json
set -eu
EXPECTED="
crates/bench/src/bin/experiments.rs 11
crates/bench/src/lib.rs 2
crates/ns-baselines/src/distdgl.rs 1
crates/ns-baselines/src/shared_memory.rs 1
crates/ns-gnn/src/topology.rs 2
crates/ns-graph/src/fx.rs 1
crates/ns-graph/src/partition.rs 1
crates/ns-metrics/src/json.rs 9
crates/ns-net/src/wire.rs 8
crates/ns-par/src/lib.rs 10
crates/ns-runtime/src/exec.rs 6
crates/ns-runtime/src/recovery.rs 1
crates/ns-runtime/src/serve.rs 13
crates/ns-runtime/src/store.rs 2
crates/ns-runtime/src/trainer/supervisor.rs 1
crates/ns-tensor/src/checkpoint.rs 4
crates/ns-tensor/src/nn.rs 2
crates/ns-tensor/src/pool.rs 1
crates/ns-tensor/src/tensor.rs 5
"
cd "$(dirname "$0")/.."
found=$(find crates/*/src -name '*.rs' -not -path 'crates/benchmark/*' | sort | while IFS= read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[ \t]*\/\//{print}' "$f" \
        | grep -cE '\.unwrap\(\)|\.expect\(' || true)
    if [ "$n" -gt 0 ]; then
        echo "$f $n"
    fi
done)
printf '%s\n' "$found" | awk '{ printf "%4d %s\n", $2, $1; t += $2 } END { printf "%4d total\n", t }'
if [ "$found" != "$(printf '%s\n' "$EXPECTED" | sed '/^$/d')" ]; then
    echo "panic sites differ from EXPECTED:" >&2
    diff <(printf '%s\n' "$EXPECTED" | sed '/^$/d') <(printf '%s\n' "$found") >&2 || true
    exit 1
fi
echo "panic sites match EXPECTED"
