#!/usr/bin/env bash
# Run every workload once: bash perfbench/run_all.sh [seed] [seconds] [trace]
# Exits non-zero if any workload reports a gate violation or an error.
set -u
seed=${1:-1}
seconds=${2:-25}
trace=${3:-0}
status=0
for workload in bundled-ood bundled-quadratic random-stochastic wide-ood; do
    echo "== $workload"
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
