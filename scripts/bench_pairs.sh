#!/usr/bin/env bash
# Compares two jobbench builds on one workload in alternating pairs.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SEED
#
# PARENT_BIN and CHANGE_BIN are jobbench binaries built from two checkouts,
# e.g. `cargo build --release --offline --manifest-path jobbench/Cargo.toml`
# in each. Every pair runs both binaries untraced for BENCHMARK.json's
# `run_seconds`, one after the other; which goes first alternates from pair
# to pair, so slow drift in the host's load hits both sides alike. For every
# end-to-end metric of BENCHMARK.json it prints the median and quartiles of
# each side, the change/parent ratio of the medians, and in how many pairs
# the change was better. The raw result lines are kept in $OUT (default: a
# fresh temporary directory, printed at the end).
#
# Not a verify.sh stage: a comparison takes PAIRS x 2 x run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SEED" >&2
  exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3 pairs=$4 seed=$5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"

run() { # SIDE PAIR
  local bin
  if [ "$1" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    2>/dev/null | tail -n 1 >"$out/$1.$2.json"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$out" "$pairs" <<'EOF'
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))

def load(side, i):
    with open(f"{out}/{side}.{i}.json") as f:
        return json.load(f)

runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':<16}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'ratio':>8}{'wins':>7}")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<16}{fmt(pq):>30}{fmt(cq):>30}{cq[1] / pq[1]:>8.3f}{wins:>4}/{pairs}")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    print(f"{side}: {failed} failed of {attempted} attempted operations")
print(f"raw results: {out}")
EOF
