#!/bin/sh
# Mutant runner: does every security rule have a test that fails without it?
#
#   bin/mutants.sh
#
# bin/mutants.txt (format described at its top) lists one-line mutants of
# the enforcement code.  The runner copies the
# checkout's files (tracked, plus untracked ones git does not ignore) into
# a fresh directory under ${TMPDIR:-/tmp}, removed on exit; the checkout
# itself is never edited.  It runs tier-1 there once unmutated, then once
# per mutant: the mutant's text is replaced (it must occur exactly once in
# its file), `dune build && dune runtest` runs under a timeout of 600
# seconds, the failing tests are printed, and the file is restored.  A full pass takes a few minutes (one tier-1 run per
# mutant; the first one builds from scratch).
#
# Verdict per mutant:
#   ok          killed, and its killed-by test is among the failures
#   SURVIVED    no test failed
#   WRONG-KILL  killed, but not by its killed-by test (a build error or
#               a timeout counts as such a kill)
#   KILLED-EQ   declared equivalent, yet some test failed
#
# Exit status: 0 when every verdict is ok or an equivalent mutant
# survived, 1 on any other verdict, 2 on a malformed catalogue or when
# the unmutated copy does not pass tier-1.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM

python3 - "$root" "$work" <<'EOF'
import os, re, shutil, signal, subprocess, sys

root, work = sys.argv[1], sys.argv[2]
catalogue = os.path.join(root, "bin", "mutants.txt")
TIMEOUT_S = 600
KEYS = ("name", "file", "from", "to", "killed-by", "equivalent")


def malformed(msg):
    print("mutants.sh: %s" % msg, file=sys.stderr)
    sys.exit(2)


def parse(path):
    records, cur = [], {}
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            if cur:
                records.append(cur)
            cur = {}
            continue
        key, sep, value = line.partition(":")
        if not sep or key not in KEYS or key in cur:
            malformed('%s:%d: expected one "key: value" per key, key in %s'
                      % (path, lineno, ", ".join(KEYS)))
        cur[key] = value.strip()
        cur.setdefault("line", lineno)
    if cur:
        records.append(cur)
    for r in records:
        where = "%s:%d" % (path, r["line"])
        for k in ("name", "file", "from", "to"):
            if not r.get(k):
                malformed("%s: missing %s" % (where, k))
        if ("killed-by" in r) == ("equivalent" in r):
            malformed("%s: give exactly one of killed-by and equivalent" % where)
    return records


mutants = parse(catalogue)
if not mutants:
    malformed("%s lists no mutant" % catalogue)

listing = subprocess.run(
    ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
    cwd=root, check=True, capture_output=True).stdout
for rel in listing.decode().split("\0"):
    src = os.path.join(root, rel)
    if rel and os.path.isfile(src):
        dst = os.path.join(work, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)

for m in mutants:
    path = os.path.join(work, m["file"])
    if not os.path.isfile(path):
        malformed("%s: no file %s" % (m["name"], m["file"]))
    n = open(path, encoding="utf-8").read().count(m["from"])
    if n != 1:
        malformed("%s: its text occurs %d times in %s, not once" % (m["name"], n, m["file"]))

ANSI = re.compile(r"\x1b\[[0-9;]*m")
FAIL = re.compile(r"\[FAIL\]\s+(.+?)\s+\d+\s+(.+?)\s*│?\s*$")


def tier1():
    """Run tier-1 in the copy; return the names of the failing tests."""
    # Its own session, so that a timeout kills dune and every test it runs.
    run = subprocess.Popen(
        ["sh", "-c", "dune build 2>&1 && dune runtest 2>&1"], cwd=work,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True)
    try:
        out, _ = run.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        return ["(timeout after %d s)" % TIMEOUT_S]
    except BaseException:
        # Ctrl-C reaches only this process, not the run's own session:
        # kill the run before the copy it works in is removed.
        os.killpg(run.pid, signal.SIGKILL)
        raise
    if run.returncode == 0:
        return []
    failed = []
    for line in ANSI.sub("", out.decode(errors="replace")).splitlines():
        hit = FAIL.search(line)
        if hit:
            name = "%s %s" % (hit.group(1), re.sub(r"\.$", "", hit.group(2)))
            if name not in failed:
                failed.append(name)
    return failed or ["(tier-1 exited %d with no failing test: a build error?)" % run.returncode]


print("== unmutated copy ==", flush=True)
base = tier1()
if base:
    print("mutants.sh: tier-1 fails without any mutant:", file=sys.stderr)
    for f in base:
        print("  " + f, file=sys.stderr)
    sys.exit(2)

bad = 0
for m in mutants:
    path = os.path.join(work, m["file"])
    original = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(original.replace(m["from"], m["to"]))
    try:
        failed = tier1()
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    if "equivalent" in m:
        verdict = "KILLED-EQ" if failed else "ok (equivalent: %s)" % m["equivalent"]
    elif not failed:
        verdict = "SURVIVED"
    elif m["killed-by"] in failed:
        verdict = "ok"
    else:
        verdict = "WRONG-KILL (expected %s)" % m["killed-by"]
    if not verdict.startswith("ok"):
        bad += 1
    print("%s (%s): %s" % (m["name"], m["file"], verdict))
    for f in failed:
        print("  failed: " + f)
    sys.stdout.flush()

print("%d mutants, %d bad" % (len(mutants), bad))
sys.exit(1 if bad else 0)
EOF
