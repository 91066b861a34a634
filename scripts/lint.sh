#!/bin/sh
# lint.sh — the static-analysis gate: gofmt formatting, gofmt -s
# simplifications, go vet, and fedvallint (the project-invariant
# analyzers: ctxthread, determinism, durability, lockhygiene,
# obsmetrics), and a ratchet on the //fedvallint:allow lines that
# suppress them. CI runs this as one blocking step; run it locally before
# pushing: sh scripts/lint.sh
set -eu

status=0

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	status=1
fi

echo "== gofmt -s (simplify) =="
out=$(gofmt -s -l .)
if [ -n "$out" ]; then
	echo "gofmt -s simplifications available in:" >&2
	gofmt -s -d $out >&2
	status=1
fi

echo "== go vet =="
go vet ./... || status=1

echo "== fedvallint =="
go run ./cmd/fedvallint ./... || status=1

# The suppression ratchet: every //fedvallint:allow in program code is a
# finding the analyzers were told to ignore. Fix code rather than annotate
# it; lower max_allows whenever a line goes.
echo "== fedvallint:allow ratchet =="
max_allows=3
allows=$(grep -rn --include='*.go' --exclude='*_test.go' '//fedvallint:allow' . |
	grep -v -e '^\./internal/analysis/' -e '^\./cmd/fedvallint/' -e '/testdata/' || true)
count=$(printf '%s' "$allows" | grep -c . || true)
if [ "$count" -gt "$max_allows" ]; then
	echo "$count //fedvallint:allow lines in program code, at most $max_allows:" >&2
	echo "$allows" >&2
	status=1
fi

if [ "$status" -eq 0 ]; then
	echo "lint: clean"
fi
exit "$status"
