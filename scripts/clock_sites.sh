#!/usr/bin/env bash
# Wall-clock sites per file under crates/*/src: lines above the file's
# inline `#[cfg(test)]` module that name `Instant::now`, `sleep(`,
# `recv_timeout` or `wait_timeout` (whole words, so a `recv_timeout_ms`
# setting is not a site). These are the reads and waits a
# virtual clock (ROADMAP item 5(a)) would have to route. Fails when any
# file's count differs from EXPECTED, so a PR that adds or removes one
# says so here, next to the reason, instead of in passing.
#
# Behaviour (what a virtual clock must drive):
#   ns-runtime/src/serve.rs    18  open-loop schedule sleeps and ticket stamps, the
#                                  patient driver's retry nap, reply deadlines and the
#                                  legs of each answer, stage timers, hedge and fetch
#                                  deadlines, the mirror's modeled penalty
#   ns-net/src/fabric.rs       10  send stamps and fault delays, receive deadlines and
#                                  due checks, the doorbell's timed wait and the time
#                                  it returned, the mesh's flap origin
#   ns-runtime/src/exec.rs      4  receive-budget and epoch timers, the run's origin
#   ns-net/src/policy.rs        2  breaker cooldown start
#   ns-runtime/src/store.rs     2  slow-disk penalty nap, save timer
# Measurement only (span and phase timers, bench clocks):
#   ns-tensor/src/tape.rs       4  per-op timing events
#   ns-metrics/src/lib.rs       3  span start/end, the doc example's origin
#   ns-runtime/src/hybrid.rs    1  Algorithm 4 timer
#   ns-runtime/src/trainer/supervisor.rs 1  coordinator recorder origin
#   benchmark                   6  wall-clock of the bench runs and probes
set -eu
EXPECTED="
crates/benchmark/src/probes.rs 3
crates/benchmark/src/serve.rs 1
crates/benchmark/src/trace.rs 2
crates/ns-metrics/src/lib.rs 3
crates/ns-net/src/fabric.rs 10
crates/ns-net/src/policy.rs 2
crates/ns-runtime/src/exec.rs 4
crates/ns-runtime/src/hybrid.rs 1
crates/ns-runtime/src/serve.rs 18
crates/ns-runtime/src/store.rs 2
crates/ns-runtime/src/trainer/supervisor.rs 1
crates/ns-tensor/src/tape.rs 4
"
cd "$(dirname "$0")/.."
found=$(find crates/*/src -name '*.rs' | sort | while IFS= read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" \
        | grep -cE 'Instant::now|sleep\(|\<(recv|wait)_timeout\>' || true)
    if [ "$n" -gt 0 ]; then
        echo "$f $n"
    fi
done)
printf '%s\n' "$found" | awk '{ printf "%4d %s\n", $2, $1 }'
if [ "$found" != "$(printf '%s\n' "$EXPECTED" | sed '/^$/d')" ]; then
    echo "clock sites differ from EXPECTED:" >&2
    diff <(printf '%s\n' "$EXPECTED" | sed '/^$/d') <(printf '%s\n' "$found") >&2 || true
    exit 1
fi
echo "clock sites match EXPECTED"
