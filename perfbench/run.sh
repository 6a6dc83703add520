#!/usr/bin/env bash
# Build the benchmark from the source checkout it sits in, then run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout stays the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
