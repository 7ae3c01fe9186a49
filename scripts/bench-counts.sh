#!/usr/bin/env bash
# Prints the benchmark's exact counts in the shape of BENCH_COUNTS.json:
# for seeds 1 and 2 and every workload of `--workload all`, fences_per_op,
# nvm_lines_per_op and correct. The counts come from the benchmark's
# fixed-size one-client count pass, so they repeat exactly for a seed at
# any GOMAXPROCS and one-second timed passes are enough. Exits non-zero if
# any operation fails verification. Run it from anywhere:
#
#   bash scripts/bench-counts.sh > BENCH_COUNTS.json        # regenerate
#   bash scripts/bench-counts.sh > counts.json &&
#     jq -e --slurpfile got counts.json '. == $got[0]' BENCH_COUNTS.json   # compare
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/counts"
mkdir -p "$out"
for seed in 1 2; do
	bash "$root/benchmark/run.sh" --workload all --seed "$seed" --seconds 1 --trace 0 \
		--out "$out/seed-$seed.json" >&2
done
jq -n '[inputs | {key: (.seed | tostring), value: (.results | map_values({
	fences_per_op: .metrics.fences_per_op.value,
	nvm_lines_per_op: .metrics.nvm_lines_per_op.value,
	correct}))}] | from_entries' "$out/seed-1.json" "$out/seed-2.json"
