#!/bin/sh
# Path-length sweep for perfbench's host metrics.
#
#   bin/path_sweep.sh WORKLOAD EXE...
#
# perfbench's heap_peak_mb moves with the length of the executable's
# absolute path (GC pacing; ROADMAP item 6(a)).  For each L in 60, 80,
# ..., 240 this copies every given perfbench/main.exe into a fresh
# directory so that the copy's absolute path is exactly L characters
# long, runs each copy with
#
#   --workload WORKLOAD --seed ${SEED:-1} --seconds 1 --trace 0
#
# and prints one row per L: heap_peak_mb and alloc_words_per_conn for
# each executable, in the order given.  The directories live under
# ${TMPDIR:-/tmp} and are removed on exit.  Exits nonzero if any run is
# not correct (perfbench exits nonzero or prints no result).
#
# Example, comparing two checkouts:
#   bin/path_sweep.sh pop3_bulk a/_build/default/perfbench/main.exe \
#     b/_build/default/perfbench/main.exe
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 WORKLOAD EXE..." >&2
  exit 2
fi
workload="$1"
shift
for exe in "$@"; do
  if [ ! -x "$exe" ]; then
    echo "path_sweep.sh: $exe is not an executable" >&2
    exit 2
  fi
done

root="$(mktemp -d "${TMPDIR:-/tmp}/ps.XXXXXX")"
trap 'rm -rf "$root"' EXIT INT TERM
out="$root/out"

header="L"
i=1
for _ in "$@"; do
  header="$header	heap_mb[$i]	words[$i]"
  i=$((i + 1))
done
echo "$header"

status=0
for len in 60 80 100 120 140 160 180 200 220 240; do
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
      cell="$(printf '%s\n' "$json" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print("%.2f\t%.1f" % (m["heap_peak_mb"]["value"], m["alloc_words_per_conn"]["value"]))
' 2>/dev/null)" || cell="-	-"
      [ "$cell" = "-	-" ] && status=1
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
exit "$status"
