GO ?= go

.PHONY: build test vet lint race perfbench verify bench bench-smoke bench-replay bench-sampling bench-telemetry bench-chaos smoke-telemetry stress stress-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the static-analysis gate: go vet plus mixedrelvet, the repo's
# own invariant checker (softfloat, bitsops, batchops, determinism,
# boundedgo, chaos, compiledreplay, panicsafety, hotalloc, telemetry —
# see DESIGN.md "Static invariants").
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

# bench records the benchmark suite as BENCH_<date>.json (see
# scripts/bench.sh for knobs).
bench:
	scripts/bench.sh

# bench-sampling measures only the sampling-engine benchmarks: the
# stratified/adaptive campaign paths plus their custom metrics (samples
# spent to the CI target, realized uniform-vs-stratified reduction).
# Results print to stdout; use make bench for the recorded snapshot.
bench-sampling:
	$(GO) test -run '^$$' -bench 'StratifiedCampaign|AdaptiveCampaign|SamplingEfficiency' -benchtime 3x -benchmem -count 2 .

# smoke-telemetry proves the observe-only contract on a real campaign:
# identical carolfi output with telemetry off and on, plus schema
# validation of the JSONL event log (left at telemetry-smoke.jsonl for
# CI to upload).
smoke-telemetry:
	scripts/smoke_telemetry.sh

# bench-telemetry measures the cost of the observability stack: the
# same campaign benchmarked with telemetry off and fully on, with the
# ns/op delta gated (<2% by default; OVERHEAD_GATE to loosen).
bench-telemetry:
	scripts/bench_telemetry.sh

# bench-chaos measures the cost of the checkpoint I/O seam: the same
# checkpointed campaign against a bare in-memory filesystem and through
# the disarmed chaos layer, with the ns/op delta gated (<1% by default;
# OVERHEAD_GATE to loosen).
bench-chaos:
	scripts/bench_chaos.sh

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

# bench-replay measures only the injection-campaign benchmarks — the
# subset the compiled-replay fast path accelerates — with enough
# iterations for a stable reading. Results print to stdout and are not
# recorded; use make bench for the snapshot.
bench-replay:
	$(GO) test -run '^$$' -bench 'Campaign' -benchtime 3000x -benchmem -count 3 .
