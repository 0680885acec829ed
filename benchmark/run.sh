#!/bin/sh
# Builds the benchmark from source into benchmark/out and runs it with the
# given arguments. Everything go writes (build cache included) stays inside
# the checkout. The program runs with benchmark/ as its working directory.
set -e
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local
go build -o out/benchmark .
exec out/benchmark "$@"
