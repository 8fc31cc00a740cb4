#!/bin/sh
# Path-length sweep for perfbench's host metrics.
#
#   bin/path_sweep.sh WORKLOAD[,WORKLOAD...] EXE...
#
# perfbench's heap_peak_mb moves with the length of the executable's
# absolute path (GC pacing; ROADMAP item 6(a)).  For each workload of
# the comma-separated list, and for each L in 60, 80, ..., 240, this
# copies every given perfbench/main.exe into a fresh directory so that
# the copy's absolute path is exactly L characters long, runs each copy
# with
#
#   --workload WORKLOAD --seed ${SEED:-1} --seconds 1 --trace 0
#
# and prints one table per workload, headed "== WORKLOAD ==", with one
# row per L: heap_peak_mb and alloc_words_per_conn for each executable,
# in the order given.  The directories live under ${TMPDIR:-/tmp} and
# are removed on exit.
#
# Then one line per executable after the first, saying whether both
# metrics equal the first executable's, digit for digit, at every L of
# every workload, the check a change that claims to allocate exactly
# what its parent does passes:
#
#   exe <i> vs exe 1: identical
#   exe <i> vs exe 1: differs at WORKLOAD L=<L>[, WORKLOAD L=<L>...]
#
# (a point where either run is not correct differs).  Then one verdict
# over every table: each executable after the first is compared with
# the first at each workload and L, on both metrics, against the
# metric's "bound" in BENCHMARK.json (a fraction; both metrics are
# lower-is-better).  Each breach prints one line
#
#   breach: WORKLOAD L=<L> exe <i> <metric> <value> vs <first> (+<pct>%, bound <pct>%)
#
# Exit status: 1 if any run is not correct (perfbench exits nonzero or
# prints no result), else 3 if any breach, else 0.
#
# Example, comparing a parent checkout (first) with a change on the
# three workloads:
#   bin/path_sweep.sh pop3_churn,pop3_bulk,https_mix \
#     a/_build/default/perfbench/main.exe b/_build/default/perfbench/main.exe
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 WORKLOAD[,WORKLOAD...] EXE..." >&2
  exit 2
fi
workloads="$(echo "$1" | tr ',' ' ')"
shift
if [ -z "$workloads" ]; then
  echo "path_sweep.sh: no workload given" >&2
  exit 2
fi
for exe in "$@"; do
  if [ ! -x "$exe" ]; then
    echo "path_sweep.sh: $exe is not an executable" >&2
    exit 2
  fi
done

bounds="$(python3 -c '
import json, sys
b = {m["name"]: m["bound"] for m in json.load(open(sys.argv[1]))["end_to_end"]}
print(b["heap_peak_mb"], b["alloc_words_per_conn"])
' "$(dirname "$0")/../BENCHMARK.json")"

root="$(mktemp -d "${TMPDIR:-/tmp}/ps.XXXXXX")"
trap 'rm -rf "$root"' EXIT INT TERM
out="$root/out"
# One line per run: workload, L, executable index, heap_peak_mb,
# alloc_words_per_conn.
runs="$root/runs"
: >"$runs"

header="L"
i=1
for _ in "$@"; do
  header="$header	heap_mb[$i]	words[$i]"
  i=$((i + 1))
done

lengths="60 80 100 120 140 160 180 200 220 240"
status=0
for workload in $workloads; do
  echo "== $workload =="
  echo "$header"
  for len in $lengths; do
    row="$len"
    i=1
    for exe in "$@"; do
      # $root/<dir>/main.exe is $len characters: the directory name is
      # "e<i>-" padded with 'x' to the remaining length.
      pad=$((len - ${#root} - 2 - ${#i} - 1 - 9))
      if [ "$pad" -lt 0 ]; then
        echo "path_sweep.sh: $root is too long for L = $len" >&2
        exit 2
      fi
      dir="$root/e$i-$(printf "%${pad}s" "" | tr ' ' x)"
      mkdir "$dir"
      cp "$exe" "$dir/main.exe"
      if (cd "$dir" && ./main.exe --workload "$workload" --seed "${SEED:-1}" --seconds 1 --trace 0) \
        >"$out" 2>/dev/null; then
        json="$(tail -n 1 "$out")"
        vals="$(printf '%s\n' "$json" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print(repr(m["heap_peak_mb"]["value"]), repr(m["alloc_words_per_conn"]["value"]))
' 2>/dev/null)" || vals=""
        if [ -n "$vals" ]; then
          echo "$workload $len $i $vals" >>"$runs"
          cell="$(echo "$vals" | awk '{ printf "%.2f\t%.1f", $1, $2 }')"
        else
          cell="-	-"
          status=1
        fi
      else
        cell="FAIL	FAIL"
        status=1
      fi
      row="$row	$cell"
      rm -rf "$dir"
      i=$((i + 1))
    done
    echo "$row"
  done
done

awk -v n="$#" -v workloads="$workloads" -v lengths="$lengths" '
  { v[$3, $1 " L=" $2] = $4 " " $5 }
  END {
    nw = split(workloads, w, " ")
    nl = split(lengths, l, " ")
    for (i = 2; i <= n; i++) {
      d = ""
      for (a = 1; a <= nw; a++)
        for (b = 1; b <= nl; b++) {
          p = w[a] " L=" l[b]
          if (!((1, p) in v) || !((i, p) in v) || v[1, p] != v[i, p])
            d = d (d == "" ? "" : ", ") p
        }
      printf "exe %d vs exe 1: %s\n", i, (d == "" ? "identical" : "differs at " d)
    }
  }' "$runs"

breaches="$(echo "$bounds" | awk '
  BEGIN { name[1] = "heap_peak_mb"; name[2] = "alloc_words_per_conn" }
  NR == 1 { bound[1] = $1; bound[2] = $2; next }
  $3 == 1 { first[$1, $2, 1] = $4; first[$1, $2, 2] = $5; next }
  {
    for (k = 1; k <= 2; k++) {
      if (!(($1, $2, k) in first)) continue
      base = first[$1, $2, k]; v = $(k + 3)
      if (v > base * (1 + bound[k]))
        printf "breach: %s L=%s exe %s %s %.6g vs %.6g (%+.1f%%, bound %.0f%%)\n", \
          $1, $2, $3, name[k], v, base, 100 * (v - base) / base, 100 * bound[k]
    }
  }' - "$runs")"
if [ -n "$breaches" ]; then
  echo "$breaches"
  [ "$status" = 0 ] && status=3
fi
exit "$status"
