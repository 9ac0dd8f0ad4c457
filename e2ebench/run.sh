#!/usr/bin/env bash
# Build gcserved and the benchmark from this checkout, then run the
# benchmark.  Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload sweep|serve-small|serve-sweep \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to standard error; the last line of standard output
# is the result.  See e2ebench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/gcserved.exe ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe \
  --server ./_build/default/bin/gcserved.exe \
  --fingerprint ./e2ebench/sweep_fingerprint.txt "$@"
