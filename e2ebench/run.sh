#!/usr/bin/env bash
# Build the end-to-end benchmark from the sources of this checkout, then
# run it. Run from anywhere; all arguments go to the benchmark:
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build output goes to stderr so that the benchmark's last stdout line
# stays its JSON result. A checkout without the kft sources fails to build,
# and the script exits 2 without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# keep every file the build writes inside the checkout: no shared dune
# cache, and the compilers' temporary files under e2ebench/.tmp
export DUNE_CACHE=disabled
export TMPDIR="$PWD/e2ebench/.tmp"
mkdir -p "$TMPDIR"
if ! dune build --root . ./e2ebench/main.exe >&2; then
  echo "e2ebench: build failed" >&2
  exit 2
fi
exec ./_build/default/e2ebench/main.exe "$@"
