#!/bin/sh
# Repository gate: formatting, vet, and the full test suite under the
# race detector. Run from anywhere; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go test -race"
# The experiments package runs the quick catalog once and the four
# full-mode paper rows; under the race detector that takes ~8.5 min on a
# 2-vCPU VM, too close to go test's default 10m budget.
go test -race -timeout=45m ./...

echo "== ok"
