#!/bin/sh
# Builds the benchmark offline and runs the whole suite: every workload,
# every output check, every end-to-end metric by name. Arguments go to
# `all` (see benchmark/README.md), e.g. `--traced`, `--smoke`,
# `--runs 10 --sets 2`, `--allow-dirty`.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
