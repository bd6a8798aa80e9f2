#!/usr/bin/env bash
# Runs every workload on ten seeds with --trace 0 and appends one record per
# run to each OUT file (JSON lines) for `run.sh --compare`. With two files
# every (workload, seed) runs once per file back to back, the file that goes
# first alternating, so a slow spell of the host lands on both sides.
#
#   bash bench/sweep.sh a.jsonl            # 10 seeds x 5 workloads
#   bash bench/sweep.sh a.jsonl b.jsonl    # two sets of the same commit, interleaved
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: sweep.sh OUT.jsonl [OUT2.jsonl]" >&2; exit 2; }
outs=("$@")
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
for w in tcp-arsgd-compute tcp-arsgd-comm tcp-asp-int8 sim-real-mix sim-cost-mix; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    for ((i = 0; i < ${#outs[@]}; i++)); do
      out=${outs[((i + seed) % ${#outs[@]})]}
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds 24 --trace 0 --out "$out" >/dev/null
    done
  done
done
