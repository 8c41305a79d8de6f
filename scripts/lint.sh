#!/usr/bin/env bash
# Runs the static-analysis gate: go vet, gofmt and mixedrelvet, the
# repo's own invariant checker (see DESIGN.md "Static invariants"). All
# three must exit clean for make verify to pass. gofmt checks every Go
# file of the packages go vet sees (testdata trees are not packages).
#
# Restricting patterns apply to every part of the gate; mixedrelvet
# still analyzes the transitive imports of the restricted set so
# cross-package facts stay sound.
#
# Usage:
#   scripts/lint.sh                 # whole tree
#   scripts/lint.sh ./internal/...  # restrict all checkers
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
patterns=("${@:-./...}")

echo "go vet ${patterns[*]}"
"$GO" vet "${patterns[@]}"
# The build-tagged test files (make prove-fp16, make bench-telemetry,
# make bench-chaos) are vetted too, so they cannot rot between runs.
echo "go vet -tags prove16,overhead ${patterns[*]}"
"$GO" vet -tags prove16,overhead "${patterns[@]}"

echo "gofmt -l ${patterns[*]}"
files=$("$GO" list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}} {{end}}{{range .CgoFiles}}{{$d}}/{{.}} {{end}}{{range .IgnoredGoFiles}}{{$d}}/{{.}} {{end}}{{range .TestGoFiles}}{{$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$d}}/{{.}} {{end}}' "${patterns[@]}")
# shellcheck disable=SC2086 # one word per file path
unformatted=$("$("$GO" env GOROOT)/bin/gofmt" -l $files)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi

echo "mixedrelvet ${patterns[*]}"
"$GO" run ./cmd/mixedrelvet "${patterns[@]}"
