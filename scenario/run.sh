#!/usr/bin/env bash
# Build the scenario benchmark from source, then run it with the given
# arguments. Run from the root of a checkout, e.g.
#
#   bash scenario/run.sh --workload rekey-n128 --seed 1 --seconds 10 --trace 0
#
# The build goes to .bench_build; dune's shared cache is off so nothing
# is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build -j 2 ./scenario/scenario.exe 1>&2
exec .bench_build/default/scenario/scenario.exe "$@"
