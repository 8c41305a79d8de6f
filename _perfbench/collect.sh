#!/usr/bin/env bash
# Runs the benchmark RUNS times per workload, each time with another
# seed, and keeps each run's output as OUTDIR/<workload>.<seed>.out —
# the layout `perfbench compare` reads. Run from the repository root:
#
#   bash _perfbench/collect.sh .bench_build/runs/parent 10             # every workload
#   bash _perfbench/collect.sh .bench_build/runs/parent 5 inject-cone  # one workload
#
# SECONDS_PER_RUN (default 20, BENCHMARK.json's run_seconds) and
# FIRST_SEED (default 1) adjust the runs.
set -euo pipefail

out=$1
runs=$2
shift 2
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(repro-quick inject-served inject-cone journal-resume)
fi
mkdir -p "$out"
first=${FIRST_SEED:-1}
for ((i = 0; i < runs; i++)); do
	seed=$((first + i))
	for w in "${workloads[@]}"; do
		bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" \
			--seconds "${SECONDS_PER_RUN:-20}" --trace 0 >"$out/$w.$(printf %04d "$seed").out"
	done
done
