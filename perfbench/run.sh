#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ in the current directory. The last line of standard output
# is the JSON result; build output goes to standard error.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
