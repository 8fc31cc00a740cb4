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

# Frame-reference guard: the refcount oracle (lib/check/oracle.ml)
# re-derives every frame reference from its holders: address-space
# entries and images (lib/kernel/vm.ml), tag frames
# (lib/core/engine.ml) and cached tags (lib/mem/tag_cache.ml).  A
# reference taken or dropped anywhere else in lib/ would be one the
# oracle cannot account for.
echo "== frame-reference guard =="
for f in $(grep -rlE 'Physmem\.(incref|decref)' lib); do
  case "$f" in
    lib/kernel/vm.ml | lib/core/engine.ml | lib/mem/tag_cache.ml) ;;
    *)
      echo "check.sh: $f takes or drops a frame reference outside the holders the refcount oracle re-derives (lib/kernel/vm.ml, lib/core/engine.ml, lib/mem/tag_cache.ml)" >&2
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
# through Engine.fd_read and Engine.fd_write_sub, which trap, check the
# descriptor's permission and run the installed profile's check on
# every byte.  Only lib/core/engine.ml invokes an endpoint's ep_read,
# ep_write or ep_wait (lib/net/chan.ml and lib/net/guard.ml build the
# records), and no vectored path (readv, writev) exists beside them.
echo "== descriptor I/O guard =="
io_bad=0
for f in $(grep -rlE --exclude=check.sh 'readv|writev' lib bin bench examples | sort); do
  echo "check.sh: $f mentions readv/writev: descriptor bytes move only through Engine.fd_read and Engine.fd_write_sub" >&2
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
# Engine.enter, which runs the trap and SELinux checks and then
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

# Source guards.  Two rules keep lib/'s interface default-deny: an export
# is surface only if something outside test/ uses it, and an optional
# argument is a setting only if some caller sets it.
#
# Export guard: a val in lib/**/m.mli counts as used when a source file
# outside test/, m.ml and m.mli names it qualified: M.v, a path ending in
# M.v, or A.v where that file binds A with [module A = ...M] or
# [let module A = ...M in].  A val inside a nested [module S : sig] is
# named S.v.  A bare word is not a use (a local [size] is not
# [Wedge.size]), and neither is a word in a comment or a string.  A
# module's [For_testing] submodule holds observations of state no public
# call returns: its vals need a test that names them (M.For_testing.v),
# and no file outside test/ may name [For_testing] except to declare it.
#
# Optional-argument guard: ?l of M.f counts as passed when a call outside
# test/ passes ~l or ?l to it: a call of M.f (alias-resolved) in another
# file, or any call inside m.ml outside f's own definition (the module
# forwards it).  An optional argument no caller sets is a constant.
#
# Keep-list: the only exemptions besides For_testing.  Table 1's
# smalloc_on, smalloc_off, boundary_var and boundary_tag and Crowbar's
# frame hook stack_frame (section 4.2) are the paper's own API, which
# DESIGN section 2 promises one to one, though no partition uses them;
# strict_selinux is a deployment setting, the only switch for the
# kernel's syscall policy (S15).  An entry the guards stop flagging fails
# as stale.
guard_keep='export: Wedge.smalloc_on
export: Wedge.smalloc_off
export: Wedge.boundary_var
export: Wedge.boundary_tag
export: Wedge.stack_frame
optional: Httpd_env.install ?strict_selinux'

# [code_only] keeps the code of each line: nested comments are dropped and
# each "string" (escapes included), {|quoted string|} and '"' becomes 0,
# with the state carried across lines.  With mark=1 each file's code
# follows a line "\001 path".
code_only='
FNR == 1 { depth = 0; str = 0; quoted = 0; if (mark) print "\001 " FILENAME }
{
  out = ""; n = length($0); i = 1
  while (i <= n) {
    c = substr($0, i, 1); two = substr($0, i, 2)
    if (str) { if (c == "\\") i += 2; else { if (c == "\"") { str = 0; out = out "0" } i++ } }
    else if (quoted) { if (two == "|}") { quoted = 0; out = out "0"; i += 2 } else i++ }
    else if (two == "(*") { depth++; i += 2 }
    else if (depth > 0) { if (two == "*)") { depth--; i += 2 } else i++ }
    else if (c == "\"") { str = 1; i++ }
    else if (two == "{|") { quoted = 1; i += 2 }
    else if (substr($0, i, 3) == "\047\"\047") { out = out "0"; i += 3 }
    else if (substr($0, i, 4) == "\047\\\"\047") { out = out "0"; i += 4 }
    else { out = out c; i++ }
  }
  print out
}'

# [scan] reads the marked code twice: pass 1 collects each file's module
# aliases, pass 2 tokenizes and prints
#   N file M v     a qualified value name M.v,
#   C file M f l   a label ~l or ?l passed in a call of M.f,
#   B file g l     a label passed in a call of a bare function inside
#                  the definition of g (- outside any named one),
# where M is the path's last module once the file's aliases are expanded
# (M.For_testing inside a For_testing submodule).  A call's labels are
# those at its own bracket depth until an operator, a keyword such as
# [in] or [then], or a closing bracket ends it; a definition's own
# parameters pass nothing.
scan='
BEGIN {
  split("let and rec fun function val external method type exception module mutable", a, " ")
  for (i in a) def[a[i]] = 1
  split("in then else do with when of if match try while for to downto open include assert lazy", a, " ")
  for (i in a) term[a[i]] = 1
  split("begin struct sig object", a, " ")
  for (i in a) opener[a[i]] = 1
}
function resolve(p,   i, first, k) {
  for (k = 0; k < 8; k++) {
    i = index(p, ".")
    first = i ? substr(p, 1, i - 1) : p
    if (!((file, first) in alias) || alias[file, first] == first) break
    p = alias[file, first] (i ? substr(p, i) : "")
  }
  return p
}
function key_of(p,   n, c) {
  n = split(resolve(p), c, ".")
  return (c[n] == "For_testing" && n > 1) ? c[n - 1] ".For_testing" : c[n]
}
function open_level(t) {
  d++; hs[d] = 0; pend[d] = 0
  if (t == "struct") { ns++; sd[ns] = d; td[ns] = "-"; ended = 0 }
}
function close_level() { if (d > 0) d--; if (ns > 0 && d < sd[ns]) ns-- }
function head(k, f) { if (hs[d] == 0) { hs[d] = 1; hk[d] = k; hf[d] = f } }
function alias_step(kind, t) {
  if (kind == "module") am = 1
  else if (am == 1 && kind == "path" && index(t, ".") == 0) { am = 2; aname = t }
  else if (am == 2 && kind == "=") am = 3
  else if (am == 3 && kind == "path" && s !~ /^[ \t]*[(.]/) { alias[file, aname] = t; am = 0 }
  else am = 0
}
$1 == "\001" { file = $2; d = 0; hs[0] = 0; pend[0] = 0; ns = 0; sd[0] = 0; td[0] = "-"; ended = 0; am = 0; next }
{
  s = $0
  while (s != "") {
    if (match(s, /^[ \t]+/)) { s = substr(s, RLENGTH + 1); continue }
    c = substr(s, 1, 1); kind = ""; t = ""; end_expr = 0; name_next = 0
    if (c ~ /[A-Z]/ || (c == "." && substr(s, 2, 1) ~ /[A-Z]/)) {
      field = c == "."
      if (field) s = substr(s, 2)
      match(s, /^[A-Z][A-Za-z0-9_\047]*(\.[A-Z][A-Za-z0-9_\047]*)*/)
      t = substr(s, 1, RLENGTH); s = substr(s, RLENGTH + 1); kind = "path"; end_expr = 1
      if (match(s, /^\.[a-z_][A-Za-z0-9_\047]*/)) {
        v = substr(s, 2, RLENGTH - 1); s = substr(s, RLENGTH + 1); kind = "value"
        if (pass == 2 && !field) { k = key_of(t); print "N", file, k, v; head(k, v) }
      }
    } else if (match(s, /^[a-z_][A-Za-z0-9_\047]*/)) {
      t = substr(s, 1, RLENGTH); s = substr(s, RLENGTH + 1); kind = t
      if (t == "end") { close_level(); end_expr = 1 }
      else if (t == "done") { hs[d] = 0; end_expr = 1 }
      else if (t in opener) open_level(t)
      else if (t == "in") { hs[d] = 0; if (pend[d] > 0) pend[d]-- }
      else if (t in term) hs[d] = 0
      else if (t in def) {
        # A let that starts a structure item follows a finished expression
        # (or nothing); any other let is an expression awaiting its in.
        if (d == sd[ns] && (t == "let" && (ended || !seen[file]) || t == "and" && pend[d] == 0)) {
          pend[d] = 0; td[ns] = "-"; name_next = 1
        } else if (t == "let") pend[d]++
        hs[d] = 2
      } else {
        if (want) td[ns] = t
        head("", t); end_expr = 1
      }
    } else if (match(s, /^[~?][a-z_][A-Za-z0-9_\047]*/)) {
      l = substr(s, 2, RLENGTH - 1); s = substr(s, RLENGTH + 1); end_expr = 1
      if (substr(s, 1, 1) == ":" && substr(s, 2, 1) !~ /[:=]/) { s = substr(s, 2); end_expr = 0 }
      if (pass == 2 && hs[d] == 1) {
        if (hk[d] != "") print "C", file, hk[d], hf[d], l
        else print "B", file, td[ns], l
      }
    } else if (match(s, /^\047(\\[^\047]*|[^\\\047])\047/) || match(s, /^[0-9][0-9A-Za-z_.]*/) ||
               match(s, /^\.[a-z_][A-Za-z0-9_\047]*/)) {
      s = substr(s, RLENGTH + 1); end_expr = 1
    } else if (match(s, /^\047[a-z_][A-Za-z0-9_]*/)) {
      s = substr(s, RLENGTH + 1)
    } else if (match(s, /^(\[\||\(|\[|\{)/)) {
      s = substr(s, RLENGTH + 1); open_level("")
    } else if (match(s, /^(\|\]|\)|\]|\})/)) {
      s = substr(s, RLENGTH + 1); close_level(); end_expr = 1
    } else if (match(s, /^[-+*\/^@<>=!&|:$%;,.#]+/)) {
      t = substr(s, 1, RLENGTH); s = substr(s, RLENGTH + 1); kind = t; hs[d] = 0
    } else s = substr(s, 2)
    if (pass == 1) alias_step(kind, t)
    want = name_next || (want && kind == "rec")
    ended = end_expr; seen[file] = 1
  }
}'

# [interface] prints, for the marked code of each lib/ .mli,
#   V mli M v ft   a val v of module M (ft = 1 inside For_testing), and
#   O mli M f l    an optional argument ?l of val f.
interface='
$1 == "\001" {
  mli = ($2 ~ /^lib\/.*\.mli$/) ? $2 : ""
  top = mli; sub(/.*\//, "", top); sub(/\.mli$/, "", top)
  n = 0; m[0] = toupper(substr(top, 1, 1)) substr(top, 2); fn = ""
  next
}
mli == "" { next }
/^ *module [A-Z][A-Za-z0-9_]* *: *sig/ {
  n++; m[n] = $2; sub(/:.*/, "", m[n])
  if (m[n] == "For_testing") m[n] = m[n - 1] ".For_testing"
  fn = ""; next
}
n > 0 && /^ *end( |$)/ { n--; fn = ""; next }
/^ *val [a-z_][A-Za-z0-9_\047]* *:/ {
  fn = $2; sub(/:.*/, "", fn); print "V", mli, m[n], fn, (m[n] ~ /For_testing$/)
}
/^ *(type|module|exception|external|class|include|open)( |$)/ { fn = "" }
fn != "" {
  s = $0
  while (match(s, /\?[a-z_][A-Za-z0-9_]*:/)) {
    print "O", mli, m[n], fn, substr(s, RSTART + 1, RLENGTH - 2)
    s = substr(s, RSTART + RLENGTH)
  }
}'

# [verdict] prints one line per unused export or unpassed optional
# argument, keep-listed ones aside, then one per stale keep-list entry.
verdict='
$1 == "N" { named[$3, $4] = named[$3, $4] " " $2; next }
$1 == "C" { if ($2 !~ /^test\//) passed[$3, $4, $5] = 1; next }
$1 == "B" { inmod[$2, $4] = inmod[$2, $4] " " $3 " "; next }
{ item[++items] = $0 }
END {
  nk = split(keep, kl, "\n")
  for (i = 1; i <= nk; i++) kept[kl[i]] = 0
  for (j = 1; j <= items; j++) {
    split(item[j], r, " "); ml = r[2]; sub(/\.mli$/, ".ml", ml)
    if (r[1] == "V") {
      used = 0
      k = split(named[r[3], r[4]], fs, " ")
      for (i = 1; i <= k; i++)
        if (fs[i] != r[2] && fs[i] != ml && ((fs[i] ~ /^test\//) == r[5])) used = 1
      hit = used ? "" : "export: " r[3] "." r[4] (r[5] ? ", named by no test" : "")
    } else {
      own = inmod[ml, r[5]]; gsub(" " r[4] " ", "", own)
      hit = ((r[3], r[4], r[5]) in passed || own ~ /[^ ]/) ? "" : "optional: " r[3] "." r[4] " ?" r[5]
    }
    if (hit in kept) kept[hit] = 1
    else if (hit != "") print hit " (" r[2] ")"
  }
  for (i = 1; i <= nk; i++) if (!kept[kl[i]]) print "stale keep-list entry: " kl[i]
}'

# source_guards DIR prints both guards' findings over DIR's sources.
source_guards() (
  cd "$1"
  codes="$(mktemp)"
  awk -v mark=1 "$code_only" $(find lib bin bench examples perfbench test -name '*.ml' -o -name '*.mli' 2>/dev/null | sort) > "$codes"
  { awk "$scan" pass=1 "$codes" pass=2 "$codes"; awk "$interface" "$codes"; } |
    awk -v keep="$guard_keep" "$verdict"
  rm -f "$codes"
)

# Guard self-test: the guards must still catch what they exist to catch.
# A fixture plants an export only test/ names (flagged), one used through
# a module alias (passes), one whose bare name is a word elsewhere
# (flagged), a label passed only to another function (flagged) and a
# For_testing val (passes).  The keep-list is not planted, so each of its
# entries reads stale here.
echo "== source guard self-test =="
fixture="$(mktemp -d)"
mkdir -p "$fixture/lib/fx" "$fixture/bin" "$fixture/test"
cat > "$fixture/lib/fx/fx.mli" <<'EOF'
val tested : int -> int
val aliased : int -> int
val size : int
val call : ?depth:int -> unit -> int
val other : depth:int -> int
module For_testing : sig
  val peek : unit -> int
end
EOF
cat > "$fixture/lib/fx/fx.ml" <<'EOF'
let tested x = x
let aliased x = x
let size = 1
let call ?(depth = size) () = depth
let other ~depth = call () + depth
module For_testing = struct let peek () = size end
EOF
cat > "$fixture/bin/main.ml" <<'EOF'
module A = Wedge_fx.Fx

let size = A.aliased 1
let () = ignore (A.call () + A.other ~depth:size)
EOF
cat > "$fixture/test/test_fx.ml" <<'EOF'
let () = ignore (Fx.tested (Fx.For_testing.peek ()))
EOF
fixture_hits="$(source_guards "$fixture" | grep -v '^stale keep-list entry: ')"
rm -rf "$fixture"
fixture_want='export: Fx.tested (lib/fx/fx.mli)
export: Fx.size (lib/fx/fx.mli)
optional: Fx.call ?depth (lib/fx/fx.mli)'
if [ "$fixture_hits" != "$fixture_want" ]; then
  printf 'check.sh: the source guards missed their fixture; they report:\n%s\nand must report exactly:\n%s\n' \
    "$fixture_hits" "$fixture_want" >&2
  exit 1
fi

echo "== export and optional argument guards =="
guard_hits="$(source_guards .)"
if [ -n "$guard_hits" ]; then
  echo "$guard_hits" | sed 's/^/check.sh: source guard: /' >&2
  exit 1
fi
for_testing_hits="$(for f in $(find lib bin bench examples perfbench -name '*.ml' -o -name '*.mli' | sort); do
  awk "$code_only" "$f" | grep -nw For_testing | grep -vE '^[0-9]+: *module For_testing( |$)' | sed "s|^|$f:|"
done)"
if [ -n "$for_testing_hits" ]; then
  echo "$for_testing_hits" | sed 's/^/check.sh: For_testing named outside test\/: /' >&2
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
