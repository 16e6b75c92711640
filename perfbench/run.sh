#!/bin/sh
# Builds the benchmark from source and runs it; every argument is passed
# on.  Run it from the root of a checkout, e.g.
#   sh perfbench/run.sh --workload fig3_edit_loop --seed 2004 --seconds 10 --trace 0
#   sh perfbench/run.sh run
# Build output goes to standard error, so the last line of standard output
# is the benchmark's own.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench/run.sh: run from the root of a full source checkout" >&2
  exit 2
fi

# keep every cache in memory and every build artefact in the checkout
unset HLCS_SYNTH_CACHE HLCS_CODEGEN_CACHE
export DUNE_CACHE=disabled

dune build --root . perfbench/hlcs_bench.exe 1>&2
exec ./_build/default/perfbench/hlcs_bench.exe "$@"
