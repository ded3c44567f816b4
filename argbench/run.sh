#!/usr/bin/env bash
# The Argus serving benchmark.  From the root of an Argus checkout:
#   bash argbench/run.sh --workload small-mix --seed 1 --seconds 10 --trace 0
# Builds the argus binary and the benchmark from source, then runs one
# workload; the last line of output is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/argus.ml ] || [ ! -d lib ]; then
  echo "argbench: run from the root of an Argus checkout (no dune-project, bin/ or lib/ here)" >&2
  exit 2
fi
dune build --root . ./bin/argus.exe ./argbench/main.exe >&2
exec ./_build/default/argbench/main.exe --argus ./_build/default/bin/argus.exe "$@"
