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

# Builder guard: lib/core/engine.ml builds every compartment in one
# routine (snapshot install, grant mapper, creation-fault unwind) — a
# process created anywhere else in lib/ would skip all three.
echo "== compartment builder guard =="
for f in $(grep -rl 'Kernel\.new_process' lib); do
  case "$f" in
    lib/kernel/kernel.ml | lib/core/engine.ml) ;;
    *)
      echo "check.sh: $f calls Kernel.new_process outside lib/core/engine.ml" >&2
      exit 1
      ;;
  esac
done

# Frame guard: lib/kernel/physmem.ml decides which frames have host
# bytes (a frame is demand-zero until its first write), and only the MMU
# (lib/kernel/vm.ml) writes frames — a write view taken anywhere else in
# lib/ would bypass the MMU's protection and COW checks.
echo "== frame write-view guard =="
for f in $(grep -rl 'Physmem\.get_mut' lib); do
  case "$f" in
    lib/kernel/physmem.ml | lib/kernel/vm.ml) ;;
    *)
      echo "check.sh: $f takes Physmem.get_mut outside lib/kernel/vm.ml" >&2
      exit 1
      ;;
  esac
done

# Sweep guard: a revocation lists only the processes that map what it
# revokes (Kernel.processes_where), so tearing down a tag costs the
# host what that tag is mapped into, not one visit per live process.
# The full sweep (Kernel.iter_processes) is for the invariant oracles.
echo "== process sweep guard =="
for f in $(grep -rl 'Kernel\.iter_processes' lib); do
  case "$f" in
    lib/kernel/kernel.ml | lib/check/*) ;;
    *)
      echo "check.sh: $f calls Kernel.iter_processes outside lib/check/" >&2
      exit 1
      ;;
  esac
done

# Descriptor I/O guard: a compartment moves descriptor bytes only
# through Engine.fd_read and Engine.fd_write, which trap, check the
# descriptor's permission and run the installed profile's check on
# every byte.  Only lib/core/engine.ml invokes an endpoint's ep_read,
# ep_write or ep_wait (lib/net/chan.ml and lib/net/guard.ml build the
# records), and no vectored path (readv, writev) exists beside them.
echo "== descriptor I/O guard =="
io_bad=0
for f in $(grep -rlE --exclude=check.sh 'readv|writev' lib bin bench examples | sort); do
  echo "check.sh: $f mentions readv/writev: descriptor bytes move only through Engine.fd_read and Engine.fd_write" >&2
  io_bad=1
done
for f in $(grep -rlE '\.ep_(read|write|wait)\b' lib | sort); do
  case "$f" in
    lib/core/engine.ml) ;;
    *)
      if grep -E '\.ep_(read|write|wait)\b' "$f" | grep -qvE '\.ep_(read|write|wait) = '; then
        echo "check.sh: $f invokes an endpoint outside lib/core/engine.ml" >&2
        io_bad=1
      fi
      ;;
  esac
done
if [ "$io_bad" != 0 ]; then
  exit 1
fi

# Takeover guard: an attacker reaches a compartment only through the
# engine's takeover point (Wedge.takeover), which can compromise any
# compartment at any kernel entry.  No server takes an exploit hook as
# an argument or parameter, and no protocol parser knows a trigger
# command or path.  Prose about exploited compartments is fine.
echo "== takeover guard =="
takeover_re='[?~]exploit|exploit[a-z_]*:|XPLOIT|"xploit"|/xploit'
takeover_hits="$(grep -rnE "$takeover_re" lib || true)"
if [ -n "$takeover_hits" ]; then
  echo "$takeover_hits" | sed 's/^/check.sh: exploit hook or trigger: /' >&2
  exit 1
fi

# Kernel-entry guard: every system call enters the kernel through
# Engine.enter, which runs the trap, fuel and SELinux checks and then
# the takeover point.  A direct Kernel.syscall_check anywhere else in
# lib/ would be a system call no takeover can land on.
echo "== kernel entry guard =="
entry_hits="$(awk '
  FNR == 1 { fn = "" }
  /^let / { fn = $2 }
  /syscall_check/ && !(FILENAME == "lib/core/engine.ml" && fn == "enter") {
    print FILENAME ":" FNR ": " $0
  }' $(find lib -name '*.ml' ! -path lib/kernel/kernel.ml | sort))"
if [ -n "$entry_hits" ]; then
  echo "$entry_hits" | sed 's/^/check.sh: kernel entry outside Engine.enter: /' >&2
  exit 1
fi

# Export guard: every val in a lib/ interface is named, outside comments,
# in some source file other than its own .ml and .mli — an export that
# nothing outside its module names is dead code or an internal detail.
echo "== export guard =="
strip_comments='{
  out = ""; n = length($0); i = 1
  while (i <= n) {
    two = substr($0, i, 2)
    if (two == "(*") { depth++; i += 2 }
    else if (depth > 0 && two == "*)") { depth--; i += 2 }
    else { if (depth == 0) out = out substr($0, i, 1); i++ }
  }
  print out
}'
export_vals="$(mktemp)"
export_words="$(mktemp)"
for mli in $(find lib -name '*.mli' | sort); do
  sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\) *:.*/\1/p" "$mli" | sed "s|^|$mli |"
done > "$export_vals"
for f in $(find lib bin bench examples perfbench test -name '*.ml' -o -name '*.mli' | sort); do
  awk "$strip_comments" "$f" | grep -ow "[A-Za-z_][A-Za-z0-9_']*" | sort -u | sed "s|^|$f |"
done > "$export_words"
export_hits="$(awk '
  NR == FNR { n[$2]++; if (n[$2] <= 3) at[$2] = at[$2] " " $1; next }
  {
    ml = $1; sub(/\.mli$/, ".ml", ml)
    used = n[$2] > 3
    k = split(at[$2], fs, " ")
    for (i = 1; i <= k; i++) if (fs[i] != $1 && fs[i] != ml) used = 1
    if (!used) print $1 ": val " $2
  }' "$export_words" "$export_vals")"
rm -f "$export_vals" "$export_words"
if [ -n "$export_hits" ]; then
  echo "$export_hits" | sed 's/^/check.sh: export named nowhere outside its module: /' >&2
  exit 1
fi

echo "== dune build @default =="
dune build @default

echo "== dune build @runtest =="
dune build @runtest

if [ -f .ocamlformat ]; then
  echo "== dune build @fmt =="
  dune build @fmt
fi

# Observability gate: export a demo trace through the CLI and
# schema-validate it (the trace subcommand exits nonzero when the export
# fails Chrome-trace validation).  Byte-identical determinism across two
# seeded runs is asserted separately by examples/trace_demo.exe in
# @runtest above.
echo "== trace export =="
trace_out="$(mktemp /tmp/wedge-trace-XXXXXX.json)"
dune exec bin/wedge_cli.exe -- trace httpd -n 25 -o "$trace_out"
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

# Example gate: examples/https_mitm drives Figures 3-5's Httpd_mitm,
# whose SSL_read and SSL_write gates load and store the record state
# image once per record, and examples/ssh_login drives Figure 6's
# Sshd_wedge, which frames with the same Wire layer.  No benchmark runs
# either server, so their deterministic stdout is pinned byte for byte.
echo "== example outputs (https_mitm ssh_login) =="
for pin in https_mitm:71711664569460920a37640afcdf629e ssh_login:0a5cfd3a0f0e6484acd68985e1271fa6; do
  example="${pin%%:*}"
  example_md5="$(dune exec "examples/$example.exe" 2>/dev/null | md5sum | cut -d' ' -f1)"
  if [ "$example_md5" != "${pin#*:}" ]; then
    echo "check.sh: examples/$example.exe output changed (md5 $example_md5)" >&2
    exit 1
  fi
done

# Correctness-harness gate: explore 25 seeded schedules of every
# scenario (melees, fault storms with induced hangs, pooled storms,
# sharded fabrics, synthesized profiles) under the invariant oracles,
# once under the random policy and once under PCT.  A third pass runs
# the differential reference VM (--diff): a flat model of every address
# space, fed the memory-event stream, must agree with each page table's
# count, entries and frame contents, and with every access's outcome.
# wedge_cli check exits nonzero — printing a shrunk repro command — if
# any schedule violates an invariant.
echo "== schedule exploration =="
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --policy random
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --policy pct
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --diff

# Policy-synthesis gate: close the Crowbar loop for every server.
# Synthesize each least-privilege profile (httpd, pop3, sshd) from a
# recorded run and re-run the same workload enforced (wedge_cli synth
# exits nonzero on any denial, a failed workload, or observed accesses
# beyond the installed profile); each profile file must be byte-stable
# across two record runs.
echo "== policy synthesis =="
for app in httpd pop3 sshd; do
  synth_first="$(mktemp /tmp/wedge-synth-XXXXXX.prof)"
  synth_second="$(mktemp /tmp/wedge-synth-XXXXXX.prof)"
  dune exec bin/wedge_cli.exe -- synth "$app" -o "$synth_first"
  test -s "$synth_first"
  dune exec bin/wedge_cli.exe -- synth "$app" -o "$synth_second" --mode record
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
