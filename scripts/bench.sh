#!/usr/bin/env bash
# bench.sh — run the performance-gate benchmarks and emit a JSON
# summary (ns/op, allocs/op, B/op, and every custom metric such as
# memops/s) per benchmark.
#
# Usage:
#   scripts/bench.sh [-o out.json] [-t benchtime] [-b 'EventLoop|Speed_']
#   scripts/bench.sh -compare OLD.json NEW.json
#
# The benchmark set defaults to the PR gate: the event-loop
# microbenchmarks (internal/sim), the end-to-end memops/s benchmarks
# (repo root), the hot-path microbenchmarks for the reference
# memory (internal/mem) and the verification engine
# (internal/checker), the sparse whole-array cache operations
# (internal/cache, report only), the campaign fork / replay-bisection
# benchmarks (repo root), and the schedule-exploration benchmarks
# (internal/explore). Everything go test prints still goes to
# stderr, so the JSON on -o (or stdout) stays machine-readable.
#
# -compare renders a regression table between two summaries produced by
# this script (old → new, with % delta per metric). It is a trend
# report, not a gate: it always exits 0 so the hard floors stay where
# they are (the CI gate steps), while the full trajectory is visible in
# the job log.
set -euo pipefail

if [ "${1:-}" = "-compare" ]; then
  if [ $# -ne 3 ]; then
    echo "usage: $0 -compare OLD.json NEW.json" >&2
    exit 2
  fi
  python3 - "$2" "$3" <<'EOF'
import json, sys

old_path, new_path = sys.argv[1], sys.argv[2]
old = json.load(open(old_path))["benchmarks"]
new = json.load(open(new_path))["benchmarks"]

# The metrics worth trending, in display order. Lower is better unless
# flagged; anything else a benchmark reports rides along at the end.
known = [
    ("ns/op", False), ("B/op", False), ("allocs/op", False),
    ("memops/s", True), ("seeds/sec", True), ("events/memop", False),
    ("schedules/sec", True), ("prune-ratio", False), ("violations", False),
]
rows = []
for name in sorted(set(old) | set(new)):
    o, n = old.get(name), new.get(name)
    if o is None or n is None:
        rows.append((name, "(only in %s)" % ("new" if o is None else "old"), "", "", ""))
        continue
    units = [u for u, _ in known if u in o and u in n]
    units += sorted(u for u in o if u in n and u != "iterations"
                    and u not in [k for k, _ in known])
    for u in units:
        ov, nv = float(o[u]), float(n[u])
        pct = None if ov == 0 else (nv - ov) / ov * 100.0
        delta = "n/a" if pct is None else "%+.1f%%" % pct
        higher = dict(known).get(u, False)
        better = (nv > ov) if higher else (nv < ov)
        # Only call out moves >1% — below that is noise, not trajectory.
        mark = "" if pct is None or abs(pct) < 1.0 else ("improved" if better else "REGRESSED")
        rows.append((name, u, "%.4g" % ov, "%.4g" % nv, "%s %s" % (delta, mark) if mark else delta))

w = [max(len(r[i]) for r in rows + [("benchmark", "metric", "old", "new", "delta")]) for i in range(5)]
hdr = ("benchmark", "metric", "old", "new", "delta")
print("comparing %s -> %s" % (old_path, new_path))
print("  ".join(h.ljust(w[i]) for i, h in enumerate(hdr)))
print("  ".join("-" * w[i] for i in range(5)))
for r in rows:
    print("  ".join(r[i].ljust(w[i]) for i in range(5)))
EOF
  exit 0
fi

out=""
benchtime="0.5s"
pattern='EventLoop|Speed_|StoreAccess|Checker|Campaign|Replay|Explore|ArrayWholeOpsSparse'
while getopts "o:t:b:" opt; do
  case "$opt" in
    o) out="$OPTARG" ;;
    t) benchtime="$OPTARG" ;;
    b) pattern="$OPTARG" ;;
    *) echo "usage: $0 [-o out.json] [-t benchtime] [-b pattern]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem ./ ./internal/sim/ ./internal/mem/ ./internal/cache/ ./internal/checker/ ./internal/campaignd/ ./internal/explore/)
echo "$raw" >&2

# Record the core count: the campaignd worker-scaling gate only applies
# on hosts with enough CPUs for worker processes to actually run in
# parallel.
numcpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 0)

json=$(echo "$raw" | awk '
  /^goos:/    { goos = $2 }
  /^goarch:/  { goarch = $2 }
  /^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    iters = $2
    m = ""
    # fields come in (value, unit) pairs after the iteration count
    for (i = 3; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      gsub(/"/, "", unit)
      if (m != "") m = m ","
      m = m sprintf("\"%s\":%s", unit, $i)
    }
    if (benches != "") benches = benches ","
    benches = benches sprintf("\"%s\":{\"iterations\":%s,%s}", name, iters, m)
  }
  END {
    printf "{\"goos\":\"%s\",\"goarch\":\"%s\",\"cpu\":\"%s\",\"numcpu\":%s,\"benchtime\":\"%s\",\"benchmarks\":{%s}}\n",
      goos, goarch, cpu, NUMCPU, BENCHTIME, benches
  }
' BENCHTIME="$benchtime" NUMCPU="$numcpu")

# pretty-print if a json formatter is around; otherwise emit raw
if command -v python3 >/dev/null 2>&1; then
  json=$(echo "$json" | python3 -m json.tool)
fi

if [ -n "$out" ]; then
  echo "$json" > "$out"
  echo "wrote $out" >&2
else
  echo "$json"
fi
