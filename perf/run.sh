#!/usr/bin/env bash
# Build the benchmark from source, then measure one workload:
#   bash perf/run.sh --workload edit-O1 --seed 3 --seconds 20 --trace 0
# Run from the root of a checkout. Build output goes to stderr, so the
# last line on stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  for bin in "$HOME"/.opam/*/bin; do
    if [ -x "$bin/dune" ]; then PATH="$bin:$PATH"; break; fi
  done
fi
# The compiler's temporary files stay in the checkout too.
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp"
dune build --root . --display quiet --cache=disabled ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe run "$@"
