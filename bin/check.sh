#!/bin/sh
# CI gate: full build and test suite with warnings as errors (dune's dev
# profile default), plus formatting when an .ocamlformat file is present.
# Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# Registration guard: a test file that exists but is not named in
# test/dune silently never runs — fail loudly instead.
echo "== test registration guard =="
for f in test/test_*.ml; do
  name="$(basename "$f" .ml)"
  if ! grep -qw "$name" test/dune; then
    echo "check.sh: $f is not registered in test/dune" >&2
    exit 1
  fi
done

echo "== dune build @default =="
dune build @default

echo "== dune build @runtest =="
dune build @runtest

if [ -f .ocamlformat ]; then
  echo "== dune build @fmt =="
  dune build @fmt
fi

# Perf-regression gate: the software-TLB fast path must stay measurably
# cheaper than the legacy per-byte translation path, measured in the same
# run (bench_tlb exits nonzero otherwise in smoke mode).
echo "== bench tlb (smoke) =="
WEDGE_TLB_SMOKE=1 dune exec bench/main.exe -- tlb

# Observability gate: export a demo trace through the CLI and
# schema-validate it (the trace subcommand exits nonzero when the export
# fails Chrome-trace validation).  Byte-identical determinism across two
# seeded runs is asserted separately by examples/trace_demo.exe in
# @runtest above.
echo "== trace export (smoke) =="
trace_out="$(mktemp /tmp/wedge-smoke-XXXXXX.trace.json)"
WEDGE_TRACE_SMOKE=1 dune exec bin/wedge_cli.exe -- trace httpd -n 25 -o "$trace_out"
test -s "$trace_out"
rm -f "$trace_out"

# Paper-reproduction gate: the simulated figures of Figures 7 and 8,
# Table 2 and the ablations are deterministic, so their output must
# match the pinned digest byte for byte.  A change that moves a paper
# price on purpose re-pins it here and says why.
echo "== paper reproductions (fig7 fig8 table2 ablation) =="
paper_md5="$(dune exec bench/main.exe -- fig7 fig8 table2 ablation 2>/dev/null | md5sum | cut -d' ' -f1)"
if [ "$paper_md5" != 0d8c196039c93a4d1cd7c12a98be3f47 ]; then
  echo "check.sh: paper reproductions changed (md5 $paper_md5)" >&2
  exit 1
fi

# Correctness-harness gate: explore 25 seeded schedules of every
# scenario (melees, fault storms with induced hangs, pooled storms,
# sharded fabrics, synthesized profiles) under the invariant oracles,
# once under the random policy and once under PCT — the stall rule and
# PCT's pick rule are both exercised by every scenario.  A third pass
# runs the differential reference VM (--diff): a flat model of every
# address space, fed the memory-event stream, must agree with each page
# table's count, entries and frame contents, and with every access's
# outcome.  wedge_cli check exits nonzero — printing a shrunk repro
# command — if any schedule violates an invariant.
echo "== schedule exploration (smoke) =="
WEDGE_CHECK_SMOKE=1 dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --policy random
WEDGE_CHECK_SMOKE=1 dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --policy pct
WEDGE_CHECK_SMOKE=1 dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --diff

# Self-healing gate: the MTTR benchmark must produce its artifact
# (shrunk incident count under the smoke flag); the storms themselves
# are explored above.
echo "== self-healing recovery (smoke) =="
WEDGE_RECOVERY_SMOKE=1 dune exec bench/main.exe -- recovery
test -s BENCH_recovery.json

# Snapshot-pool gate: spawn cost must stay flat for pooled stamps while
# fresh boot scales with the image (bench_spawn exits nonzero on either
# violation, or if a stamp ever loses to a fresh boot), and the artifact
# must be byte-stable across two runs — everything is simulated time, so
# any drift is nondeterminism.
echo "== spawn pool (smoke) =="
WEDGE_SPAWN_SMOKE=1 dune exec bench/main.exe -- spawn
test -s BENCH_spawn.json
spawn_first="$(mktemp /tmp/wedge-spawn-XXXXXX.json)"
cp BENCH_spawn.json "$spawn_first"
WEDGE_SPAWN_SMOKE=1 dune exec bench/main.exe -- spawn
cmp BENCH_spawn.json "$spawn_first"
rm -f "$spawn_first"

# Reactor gate: the parked, batched serve path must beat the bench's own
# baseline — a polling server (a wait_until poller per connection) with
# unbatched reads — by at least 2x on the simulated clock at 1k
# connections (bench_reactor exits nonzero below 2x, or if an idle
# connection leaks any simulated cost), and BENCH_reactor.json —
# simulated integers only — must be byte-stable across two runs.
echo "== reactor (smoke) =="
WEDGE_REACTOR_SMOKE=1 dune exec bench/main.exe -- reactor
test -s BENCH_reactor.json
grep -q '"read_ratio_x100"' BENCH_reactor.json
reactor_first="$(mktemp /tmp/wedge-reactor-XXXXXX.json)"
cp BENCH_reactor.json "$reactor_first"
WEDGE_REACTOR_SMOKE=1 dune exec bench/main.exe -- reactor
cmp BENCH_reactor.json "$reactor_first"
rm -f "$reactor_first"

# Scale-out gate: the sharded multikernel bench (CI-sized population:
# 2k pop3 + httpd + sshd connections over 1 vs 2 shards) must show >=
# 1.3x makespan speedup per service, a non-degenerate latency tail
# (p99 > p50), and the exact cross-shard shootdown count for the gtag
# rotation (bench_scale exits nonzero on any of these); and
# BENCH_scale.json — simulated integers only — must be byte-stable
# across two runs.
echo "== scale (smoke) =="
WEDGE_SCALE_SMOKE=1 dune exec bench/main.exe -- scale
test -s BENCH_scale.json
grep -q '"speedup_x100"' BENCH_scale.json
scale_first="$(mktemp /tmp/wedge-scale-XXXXXX.json)"
cp BENCH_scale.json "$scale_first"
WEDGE_SCALE_SMOKE=1 dune exec bench/main.exe -- scale
cmp BENCH_scale.json "$scale_first"
rm -f "$scale_first"

# Policy-synthesis gate: close the Crowbar loop for every server.
# Synthesize each least-privilege profile (httpd, pop3, sshd) from a
# recorded run and re-run the same workload enforced (wedge_cli synth
# exits nonzero on any denial, a failed workload, or observed accesses
# beyond the installed profile); each profile file must be byte-stable
# across two record runs.  (The record->enforce scenarios are explored
# above.)
echo "== policy synthesis (smoke) =="
for app in httpd pop3 sshd; do
  synth_first="$(mktemp /tmp/wedge-synth-XXXXXX.prof)"
  synth_second="$(mktemp /tmp/wedge-synth-XXXXXX.prof)"
  WEDGE_SYNTH_SMOKE=1 dune exec bin/wedge_cli.exe -- synth "$app" -o "$synth_first"
  test -s "$synth_first"
  WEDGE_SYNTH_SMOKE=1 dune exec bin/wedge_cli.exe -- synth "$app" -o "$synth_second" --mode record
  cmp "$synth_first" "$synth_second"
  rm -f "$synth_first" "$synth_second"
done

# Benchmark-correctness gate (WEDGE_PERFBENCH_SMOKE=1): the repository
# benchmark exits nonzero on a failed connection, a leak after drain
# (live processes, or frames outside the tag cache), a replay that
# differs from its epoch, or a cost model that differs from its pins.
# One host second per workload; --trace 0 writes no files.
if [ "${WEDGE_PERFBENCH_SMOKE:-0}" = 1 ]; then
  echo "== perfbench correctness (smoke) =="
  for w in pop3_churn pop3_bulk https_mix; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0
  done
fi

echo "check.sh: all green"
