#!/usr/bin/env bash
# Run the four workloads one after another, each in its own process, and
# print every end-to-end metric with its unit.  Exits non-zero if any
# workload gives a wrong answer or cannot run.
#
#   bash bench/all.sh [seed] [seconds]
set -u -o pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-25}
status=0
for workload in decide prove hom soundness; do
    python3 bench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | grep -v '^{' || status=1
done
exit "$status"
