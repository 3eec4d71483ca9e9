#!/usr/bin/env bash
# Run an example binary and compare its stdout with an expected file.
#
# Usage: check_example_output.sh <binary> <expected-stdout>
# The binary's stderr passes through, so ctest's FAIL_REGULAR_EXPRESSION can
# see its log lines (for example a model that trains instead of loading).
set -u -o pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <binary> <expected-stdout>" >&2
  exit 2
fi

if ! "$1" | diff -u "$2" -; then
  echo "FAIL: $(basename "$1") output differs from $2 (or it exited nonzero)"
  exit 1
fi
echo "OK: $(basename "$1") output matches $2"
