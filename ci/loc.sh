#!/usr/bin/env bash
# Line budget of ROADMAP aim 2: non-test and test .go lines outside bench/ and .bench_build/.
# Fails when the non-test count exceeds the ceiling below. The ceiling is the figure the last
# PR reached: a PR that removes lines lowers it, a PR that needs more says so by raising it.
ceiling=16664
cd "$(dirname "$0")/.."
count() { find . -name '*.go' "$@" -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l; }
nontest=$(count -not -name '*_test.go')
echo "non-test: $nontest  test: $(count -name '*_test.go')  (non-test ceiling: $ceiling)"
if [ "$nontest" -gt "$ceiling" ]; then
	echo "non-test lines exceed the committed ceiling by $((nontest - ceiling))" >&2
	exit 1
fi
