#!/usr/bin/env bash
# Build the session benchmark from source and run one workload:
#
#   bash sessbench/run.sh --workload cold-admit --seed 1 --seconds 20 --trace 0
#   bash sessbench/run.sh --self-test
#
# Run from the root of a checkout of the repository. Build output goes to
# stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "sessbench: no repository sources next to the benchmark; run it from a checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./sessbench/main.exe 1>&2
exec ./_build/default/sessbench/main.exe "$@"
