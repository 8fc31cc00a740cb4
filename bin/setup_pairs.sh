#!/bin/sh
# Alternating A/B pairs of perfbench's setup_s.
#
#   bin/setup_pairs.sh WORKLOAD SEED N EXE_A EXE_B
#
# Runs N pairs of EXE_A and EXE_B (each a built
# _build/default/perfbench/main.exe), with
#
#   --workload WORKLOAD --seed SEED --seconds 1 --trace 0
#
# the first side alternating (A first in odd pairs, B first in even
# ones), so that any drift of the host falls on both sides alike.  It
# prints one line per pair with both setup_s values in ms, then the
# median of each side, the ratio B/A of the medians, and how many pairs
# B improved (a lower setup_s than its pair's A).
#
# Exit status: 1 if any run is not correct (perfbench exits nonzero or
# prints no result), else 0.  Run by hand: bin/check.sh does not call
# it.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 WORKLOAD SEED N EXE_A EXE_B" >&2
  exit 2
fi
workload=$1
seed=$2
n=$3
case "$n" in
  '' | *[!0-9]*)
    echo "setup_pairs.sh: N must be a positive integer" >&2
    exit 2
    ;;
esac
if [ "$n" -lt 1 ]; then
  echo "setup_pairs.sh: N must be a positive integer" >&2
  exit 2
fi
shift 3
for exe in "$@"; do
  if [ ! -x "$exe" ]; then
    echo "setup_pairs.sh: $exe is not an executable" >&2
    exit 2
  fi
done

out="$(mktemp "${TMPDIR:-/tmp}/sp.XXXXXX")"
pairs="$(mktemp "${TMPDIR:-/tmp}/sp.XXXXXX")"
trap 'rm -f "$out" "$pairs"' EXIT INT TERM

# setup_s of one run, in seconds, or nothing if the run was not correct
setup_s() {
  if "$1" --workload "$workload" --seed "$seed" --seconds 1 --trace 0 >"$out" 2>/dev/null; then
    tail -n 1 "$out" | python3 -c '
import json, sys
print(repr(json.load(sys.stdin)["metrics"]["setup_s"]["value"]))
' 2>/dev/null || true
  fi
}

echo "pair	A_ms	B_ms	first"
i=1
while [ "$i" -le "$n" ]; do
  if [ $((i % 2)) = 1 ]; then
    a="$(setup_s "$1")"
    b="$(setup_s "$2")"
  else
    b="$(setup_s "$2")"
    a="$(setup_s "$1")"
  fi
  if [ -z "$a" ] || [ -z "$b" ]; then
    echo "setup_pairs.sh: pair $i: a run was not correct" >&2
    exit 1
  fi
  echo "$a $b" >>"$pairs"
  echo "$i	$(echo "$a $b" | awk '{ printf "%.3f\t%.3f", 1000 * $1, 1000 * $2 }')	$([ $((i % 2)) = 1 ] && echo A || echo B)"
  i=$((i + 1))
done

python3 -c '
import statistics, sys
rows = [tuple(map(float, l.split())) for l in open(sys.argv[1])]
a = statistics.median(r[0] for r in rows)
b = statistics.median(r[1] for r in rows)
better = sum(1 for r in rows if r[1] < r[0])
print("median A %.3f ms, B %.3f ms, B/A %.3f (%+.1f %%), B lower in %d of %d pairs"
      % (1000 * a, 1000 * b, b / a, 100 * (b / a - 1), better, len(rows)))
' "$pairs"
