#!/usr/bin/env bash
# Build the compile daemon and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
# The build goes to .perfbench/build under the `perfbench` profile (the
# only one that enables the benchmark), so the repo's own _build is left
# alone.  Build output goes to stderr; the last stdout line is the result
# JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .perfbench
dune build --root . --profile perfbench --build-dir "$PWD/.perfbench/build" \
  ./bin/qcx_serve.exe ./perfbench/perfbench.exe 1>&2
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec ./.perfbench/build/default/perfbench/perfbench.exe --commit "$commit" "$@"
