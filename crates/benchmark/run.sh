#!/usr/bin/env bash
# The command BENCHMARK.json names: builds `nsbench` from the checkout this
# script sits in, then runs it with the arguments given.
#
# The workspace depends on registry crates (rand, crossbeam, parking_lot,
# rustc-hash, serde, ...). Where cargo can resolve them, from a populated
# cache or a reachable registry, the benchmark measures the program linked
# against them. Where it cannot (the sandbox this benchmark was written in
# has no registry at all), it links the stand-ins under `standins/` instead,
# so that the benchmark still runs there. The two builds are not comparable
# with each other: `nsbench all` records the `rand` fingerprint of its build
# in the result file, and `nsbench compare` refuses files that differ in it.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f Cargo.toml ]; then
    echo "nsbench: $(pwd) is not a checkout of the workspace (no Cargo.toml)" >&2
    exit 1
fi

build() {
    cargo build "$@" --release --quiet -p benchmark --bin nsbench
}

if ! build 2>/dev/null; then
    echo "nsbench: cargo cannot resolve the registry crates here; building against crates/benchmark/standins" >&2
    build --offline \
        --config 'source.crates-io.replace-with="nsbench-standins"' \
        --config 'source.nsbench-standins.directory="crates/benchmark/standins"'
fi
# One malloc arena: with glibc's per-thread arenas the peak resident set
# depends on which arena each short-lived worker thread happens to get, and
# single runs of one commit spread by 15-30% (README, "Memory").
export MALLOC_ARENA_MAX=1
exec "${CARGO_TARGET_DIR:-target}/release/nsbench" "$@"
