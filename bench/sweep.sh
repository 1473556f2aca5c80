#!/usr/bin/env bash
# Run every workload once per seed, each in a fresh process as the driver
# does and for the run length the benchmark fixes, and print one line per
# run for compare to read:
#
#   bash bench/sweep.sh 1 2 3 > runs.jsonl          # --trace 0
#   TRACE=1 bash bench/sweep.sh 1 > layers.jsonl    # --trace 1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
trace="${TRACE:-0}"
for seed in "$@"; do
	for w in read_cached read_adhoc mixed_rw ingest_replicated; do
		result="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --trace "$trace" | tail -n 1)"
		printf '{"workload":"%s","seed":%d,"trace":%d,"result":%s}\n' "$w" "$seed" "$trace" "$result"
	done
done
