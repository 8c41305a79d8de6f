GO ?= go

.PHONY: build test vet lint race perfbench verify prove-fp16 bench-smoke bench-telemetry bench-chaos smoke-telemetry stress stress-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the static-analysis gate: go vet, gofmt and mixedrelvet, the
# repo's own invariant checker (softfloat, bitsops, batchops,
# determinism, confine, hotalloc, telemetry — see DESIGN.md "Static
# invariants").
lint:
	scripts/lint.sh

# The deterministic scheduler means any package may run concurrently, so
# the race-detector pass covers the whole tree.
race:
	$(GO) test -race ./...

# bench-smoke runs every benchmark for exactly one iteration under the
# race detector: a cheap proof that benchmark code stays runnable and
# race-free without paying full measurement time.
bench-smoke:
	$(GO) test -race -run '^$$' -bench . -benchtime 1x ./...

# perfbench vets and short-tests the benchmark module. It is a module
# of its own in an underscore directory, which ./... skips, so without
# this step a refactor that drops an exported name the benchmark uses
# would pass verify and still break _perfbench/run.sh.
perfbench:
	cd _perfbench && $(GO) vet . && $(GO) test -short .

# verify is the tier-1 gate: build, static analysis, full tests, race
# pass, benchmark smoke, benchmark module check.
verify: build lint test race bench-smoke perfbench

# prove-fp16 checks scalar Add, Sub and Mul of binary16 and bfloat16 on
# every one of the 2^32 operand pairs against the integer-only
# references (about ten CPU-minutes; verify runs a fixed 2^20-pair slice
# of it, TestFP16PairSlice).
prove-fp16:
	$(GO) test -tags prove16 -run '^TestProveFP16AllPairs$$' -timeout 2h -v ./internal/fp

# smoke-telemetry proves the observe-only contract on a real campaign:
# identical carolfi output with telemetry off and on, plus schema
# validation of the JSONL event log (left at telemetry-smoke.jsonl for
# CI to upload).
smoke-telemetry:
	scripts/smoke_telemetry.sh

# bench-telemetry gates the cost of the observability stack: median
# ns/op ratio of paired runs, telemetry off vs fully on, at most 1.02
# (TestTelemetryOverhead; OVERHEAD_GATE=<percent> to loosen).
bench-telemetry:
	$(GO) test -tags overhead -run '^TestTelemetryOverhead$$' -benchtime 3000x -count 1 -v .

# bench-chaos gates the cost of the checkpoint I/O seam: median ns/op
# ratio of paired checkpointed runs, bare vs through the disarmed chaos
# layer, at most 1.01 (TestChaosSeamOverhead; OVERHEAD_GATE to loosen).
bench-chaos:
	$(GO) test -tags overhead -run '^TestChaosSeamOverhead$$' -benchtime 3000x -count 1 -v .

# stress is the chaos soak harness: bounded rounds of campaign ->
# injected failure (crash kills, torn journal tails, I/O faults,
# cancellations, kernel panics) -> resume, asserting byte-identical
# final results, at high worker counts, under the race detector.
stress:
	$(GO) run -race ./cmd/mixedrelstress -rounds 50 -v

# stress-smoke is the time-bounded CI variant: few rounds, same
# scenario coverage, still under -race.
stress-smoke:
	$(GO) run -race ./cmd/mixedrelstress -rounds 12 -v
