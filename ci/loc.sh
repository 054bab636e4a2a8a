#!/usr/bin/env bash
# Line budget of ROADMAP aim 2: non-test and test .go lines outside bench/ and .bench_build/.
cd "$(dirname "$0")/.."
count() { find . -name '*.go' "$@" -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l; }
echo "non-test: $(count -not -name '*_test.go')  test: $(count -name '*_test.go')"
