#!/usr/bin/env bash
# ab.sh — compare this checkout (the change) with another checkout (the
# parent) on the reference benchmark, in alternating pairs of runs.
#
# Usage:
#   scripts/ab.sh [-pairs N] [-seconds S] [-factor F] PARENT_DIR WORKLOAD...
#
# For each workload it runs each tree's own benchmark/run.sh N times
# (default 5), alternating the trees: the parent first on odd pairs, the
# change first on even ones, so a drift of the host's speed falls on
# both sides alike. -seconds (default 16) and -factor (default 1) are
# passed to every run. For each end-to-end metric BENCHMARK.json lists,
# it prints:
#
#   - both sides' medians with their quartiles;
#   - the ratio of the medians (change / parent) and the pairs the change
#     won, in the metric's better direction (a tie wins nothing);
#   - the change's interquartile range over the parent's median, against
#     the metric's bound: a spread near the bound cannot show a change of
#     that size;
#   - whether every run of both sides was correct.
#
# It exits 1 when any run was incorrect or failed, and 2 on bad usage.
# Each run's JSON line is kept in a temporary directory named at the end.
set -euo pipefail

usage() {
  echo "usage: $0 [-pairs N] [-seconds S] [-factor F] PARENT_DIR WORKLOAD..." >&2
  exit 2
}

pairs=5 seconds=16 factor=1
while [ $# -gt 0 ]; do
  case "$1" in
    -pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    -seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    -factor) [ $# -ge 2 ] || usage; factor=$2; shift 2 ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -ge 2 ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$1" && pwd)"
shift
[ -f "$parent/benchmark/run.sh" ] || { echo "$0: $parent has no benchmark/run.sh" >&2; exit 2; }

out="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
status=0
for w in "$@"; do
  for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    if ((i % 2 == 0)); then
      order="change parent"
    fi
    for side in $order; do
      tree=$parent
      [ "$side" = change ] && tree=$change
      echo "ab: $w pair $i/$pairs: $side" >&2
      if ! bash "$tree/benchmark/run.sh" --workload "$w" --seconds "$seconds" --factor "$factor" \
        > "$out/$w.$side.$i.json"; then
        echo "ab: $w pair $i: the $side run failed" >&2
        status=1
      fi
    done
  done
done

python3 - "$change/BENCHMARK.json" "$out" "$pairs" "$@" <<'EOF' || status=1
import json, os, sys

spec_path, out, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec_path))["end_to_end"]

def load(w, side, i):
    try:
        with open(os.path.join(out, f"{w}.{side}.{i}.json")) as f:
            return json.loads(f.read().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        return None

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def fmt(x):
    return f"{x:.4g}"

bad = False
for w in workloads:
    runs = {s: [load(w, s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    print(f"{w}: {pairs} pair(s), the parent first on odd pairs")
    print(f"  {'metric':<16} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} {'ratio':>7} {'won':>5}  iqr/parent vs bound")
    for m in metrics:
        name, better = m["name"], m["better"]
        vals = {}
        for s in runs:
            vals[s] = [r["metrics"][name]["value"] for r in runs[s]
                       if r is not None and name in r.get("metrics", {})]
        if len(vals["parent"]) != pairs or len(vals["change"]) != pairs:
            print(f"  {name:<16} missing from some runs")
            continue
        p, c = vals["parent"], vals["change"]
        pm, cm = quantile(p, 0.5), quantile(c, 0.5)
        ratio = cm / pm if pm else float("nan")
        won = sum(1 for a, b in zip(p, c) if (b < a if better == "lower" else b > a))
        spread = (quantile(c, 0.75) - quantile(c, 0.25)) / pm if pm else float("nan")
        side = lambda xs, med: f"{fmt(med)} [{fmt(quantile(xs, 0.25))}, {fmt(quantile(xs, 0.75))}]"
        flag = "ok" if spread <= m["bound"] else "WIDE"
        print(f"  {name:<16} {side(p, pm):<32} {side(c, cm):<32} {ratio:>7.3f} {won:>2}/{pairs:<2}  "
              f"{spread:.3f} vs {m['bound']} {flag}")
    for s in runs:
        ok = sum(1 for r in runs[s] if r is not None and r.get("correct") is True)
        print(f"  {s} runs correct: {ok}/{pairs}")
        bad |= ok != pairs
print(f"runs kept in {out}")
sys.exit(1 if bad else 0)
EOF
exit $status
