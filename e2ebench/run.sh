#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every
# argument goes to main.exe (see README.md beside this file). Run from
# the root of the repository. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
