#!/usr/bin/env python3
"""Reachability gate: src/ holds only what the scenarios run.

Usage:
  python3 tools/reach_check.py BUILD_DIR   run the run set in a coverage build, then check
  python3 tools/reach_check.py selftest    the check alone, on canned gcov JSON

BUILD_DIR is a gcc --coverage build of bullet_run and bench_check:

  cmake -B build-reach -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="--coverage -O0" \\
      -DCMAKE_EXE_LINKER_FLAGS=--coverage -DBULLET_PROFILE=ON \\
      -DBULLET_BUILD_TESTS=OFF -DBULLET_BUILD_EXAMPLES=OFF
  cmake --build build-reach -j --target bullet_run bench_check

The run set (run_set below) is every registered scenario once at a small shape,
one point of every bench/sweeps file, every runner flag, the usage errors and
bench_check on each document kind. It deletes the tree's old .gcda files first,
so only this run set counts.

The check runs `gcov --json-format --demangled-names` over every .gcno in the
tree, bench/ and tools/ objects included: the linker keeps one copy of an inline
function, and the calls count in the object that copy came from. Only functions
whose source is under src/ are checked. A .gcno without a .gcda (an object no
run entered) counts as zero calls. Function instances are merged by (source
file, start line): one inline or
template function emitted in several objects, or a constructor's complete and
base symbols, is one location that ran if any instance ran. Lambdas are
skipped; they run when and only when the function that holds them does. Exit 1
on any zero-call function in src/ that tools/reach_allow.txt does not list, on
any allow-list entry without a reason, and on any entry that names no zero-call
function, so the list never keeps an entry for code that now runs or is gone.

Blind spot: gcov sees only code the compiler emitted. An inline member that no
src/ code uses and a template that is never instantiated emit nothing, so they
can sit unused in a header without failing the gate.

Needs only gcov (it ships with gcc) and the Python standard library.
"""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW_FILE = os.path.join(ROOT, "tools", "reach_allow.txt")

# --- the check -------------------------------------------------------------


def strip_namespaces(name):
    """`bullet::(anonymous namespace)::Foo::Bar(bullet::Baz) const` reads as
    `Foo::Bar(Baz) const`: the allow-list names functions the way the code does."""
    return name.replace("(anonymous namespace)::", "").replace("bullet::", "")


def merge_functions(docs, root):
    """gcov JSON documents -> {(file, start_line): [calls, name]} for src/ files.

    `docs` holds (gcov JSON, has_gcda) per .gcno. A .gcno whose .gcda is missing
    counts as zero calls whatever the document says."""
    merged = {}
    for doc, has_gcda in docs:
        for entry in doc.get("files", []):
            path = entry["file"]
            if os.path.isabs(path):
                path = os.path.relpath(path, root)
            if not path.startswith("src" + os.sep):
                continue
            for fn in entry.get("functions", []):
                name = strip_namespaces(fn["demangled_name"])
                if "{lambda" in name:
                    continue
                key = (path, fn["start_line"])
                calls = fn["execution_count"] if has_gcda else 0
                slot = merged.setdefault(key, [0, name])
                slot[0] += calls
                slot[1] = min(slot[1], name)
    return merged


def parse_allow_list(text):
    """One entry per line: `<function>  # <reason>`. The function is the
    demangled name as strip_namespaces prints it, either in full or without its
    parameter list (which then matches every overload). Blank and comment lines
    are skipped. Returns [(entry, reason, line_number)]."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition("  #")
        entries.append((name.strip(), reason.strip() if sep else "", lineno))
    return entries


def entry_matches(entry, name):
    if "(" in entry:
        return entry == name
    return name.startswith(entry + "(")


def check(merged, allow):
    """Returns (problems, zero_call_count). A problem is a line to print."""
    zero = sorted((path, line, name) for (path, line), (calls, name) in merged.items()
                  if calls == 0)
    used = set()
    problems = []
    for entry, reason, lineno in allow:
        if not reason:
            problems.append("reach_allow.txt:%d: entry '%s' gives no reason" % (lineno, entry))
    for path, line, name in zero:
        hits = [e for e in allow if entry_matches(e[0], name)]
        if hits:
            used.update(e[2] for e in hits)
        else:
            problems.append("%s:%d: %s is never called by any scenario run" % (path, line, name))
    for entry, _, lineno in allow:
        if lineno not in used:
            problems.append("reach_allow.txt:%d: stale entry '%s' names no zero-call function"
                            % (lineno, entry))
    return problems, len(zero)


def run_gcov(gcno):
    out = subprocess.run(["gcov", "--json-format", "--demangled-names", "--stdout", gcno],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         cwd=os.path.dirname(gcno), check=True)
    return json.loads(out.stdout)


def collect(build_dir, gcov=run_gcov, jobs=4):
    gcnos = []
    for dirpath, _, files in os.walk(os.path.abspath(build_dir)):
        gcnos += [os.path.join(dirpath, f) for f in sorted(files) if f.endswith(".gcno")]
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        docs = list(pool.map(gcov, gcnos))
    return [(doc, os.path.exists(gcno[:-len(".gcno")] + ".gcda"))
            for doc, gcno in zip(docs, gcnos)]


# --- the run set -------------------------------------------------------------

# Small shapes: --nodes 20 unless named here; the fixed-topology scenarios run
# at their defaults.
SHAPES = {
    "fig24_megaswarm": ["--nodes", "500", "--file-mb", "0.2"],
    "perf_core_scale": ["--nodes", "30", "--file-mb", "1"],
    "fig12_outstanding_cascade": [],
    "fig15_shotgun": [],
    "fig16_shared_bottleneck": [],
}
DEFAULT_SHAPE = ["--nodes", "20"]
TINY = ["--nodes", "10", "--file-mb", "0.5", "--quiet"]


def shape_of(scenario):
    return SHAPES.get(scenario, DEFAULT_SHAPE)


def one_point(sweep_text):
    """A bench/sweeps spec cut to one point: the first value of each axis,
    repeats 1, and the scenario's small shape in place of its node count and
    file size."""
    lines = [l.split("#", 1)[0].split() for l in sweep_text.splitlines()]
    lines = [l for l in lines if l]
    scenario = next(l[1] for l in lines if l[0] == "scenario")
    shape = dict(zip(shape_of(scenario)[::2], shape_of(scenario)[1::2]))
    out = []
    for directive, rest in lines:
        if directive == "repeats":
            rest = "1"
        elif directive == "sweep":
            key, values = rest.split("=", 1)
            value = shape.pop("--" + key, values.split(",")[0])
            rest = "%s=%s" % (key, value)
        out.append("%s %s" % (directive, rest))
    out += ["set %s=%s" % (flag[2:], value) for flag, value in shape.items()]
    return "\n".join(out) + "\n"


def run_set(bullet_run, work):
    """[(argv, expected exit code)] for bullet_run, written into `work`."""
    runs = []
    listed = subprocess.run([bullet_run, "--list"], stdout=subprocess.PIPE, check=True,
                            text=True).stdout
    scenarios = [l.split("\t")[0] for l in listed.splitlines() if l.strip()]
    for s in scenarios:
        runs.append(([bullet_run, "--scenario", s] + shape_of(s) +
                     ["--quiet", "--out", "BENCH_%s.json" % s], 0))

    sweeps = os.path.join(ROOT, "bench", "sweeps")
    for f in sorted(os.listdir(sweeps)):
        if not f.endswith(".sweep"):
            continue
        with open(os.path.join(sweeps, f), encoding="utf-8") as fh:
            spec = one_point(fh.read())
        path = os.path.join(work, f)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec)
        runs.append(([bullet_run, "--sweep-file", path, "--jobs", "1", "--out-dir",
                      "sweep-" + f[:-len(".sweep")], "--quiet"], 0))
    # The pinned CI sweep, as .github/workflows/ci.yml runs it.
    runs.append(([bullet_run, "--scenario", "fig04_overall_static", "--sweep", "nodes=20,50",
                  "--repeats", "2", "--seed", "41", "--sweep-name", "ci", "--jobs", "2",
                  "--out-dir", "sweep-ci", "--quiet"], 0))

    # Each scenario option once, on a scenario that honours it.
    for scenario, flags in [
            ("fig04_overall_static", ["--seed", "7", "--block-bytes", "8192",
                                      "--deadline-sec", "600", "--loss", "0.01"]),
            ("fig04_overall_static", ["--topology", "transit-stub"]),
            ("fig18_flash_crowd", ["--system", "bittorrent", "--join-fraction", "0.5"]),
            ("fig21_churn_lifetimes", ["--lifetime-pareto-alpha", "1.5"]),
            ("fig22_correlated_failures", ["--churn-model", "gateway"]),
            ("fig23_streaming_deadlines", ["--stream-bitrate-mbps", "1",
                                           "--stream-window-blocks", "16"])]:
        runs.append(([bullet_run, "--scenario", scenario] + TINY + flags +
                     ["--out", "BENCH_flags_%d.json" % len(runs)], 0))
    runs.append(([bullet_run, "--scenario", "fig04_overall_static"] + TINY +
                  ["--profile", "--out", "BENCH_profile.json"], 0))
    runs.append(([bullet_run, "--scenario", "fig04_overall_static", "--nodes", "10",
                  "--file-mb", "0.5", "--out", "BENCH_loud.json"], 0))
    runs.append(([bullet_run, "--help"], 0))
    runs.append(([bullet_run, "--list"], 0))

    # The usage errors exit 2.
    base = [bullet_run, "--scenario", "fig04_overall_static"]
    runs += [(base + ["--no-such-flag"], 2),
             ([bullet_run, "--scenario", "no_such_scenario"], 2),
             (base + ["--sweep", "no-such-axis=1"], 2),
             (base + ["--nodes", "many"], 2),
             (base + ["--sweep", "nodes=10,10"], 2),
             ([bullet_run, "--sweep-file", os.path.join(work, "missing.sweep")], 2)]
    return runs


def bench_check_set(bench_check, work):
    """[(argv, expected exit code)] over the documents run_set wrote."""
    ci = os.path.join(work, "sweep-ci")
    ms = os.path.join(work, "sweep-megaswarm")
    malformed = os.path.join(work, "malformed.json")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write('{"schema": "bullet-bench-v3", "points": [')
    band = os.path.join(ci, "BENCH_sweep_ci.json")
    floors = os.path.join(ci, "BENCH_sweep_ci_floors.json")
    ceilings = os.path.join(ms, "BENCH_sweep_megaswarm_ceilings.json")
    return [([bench_check, "--baseline", band, "--current", band, "--rel-tol", "0.25"], 0),
            ([bench_check, "--baseline", floors, "--current", floors], 0),
            ([bench_check, "--baseline", ceilings, "--current", ceilings], 0),
            ([bench_check, "--baseline", malformed, "--current", band], 2),
            ([bench_check], 2)]


def execute(runs, work, jobs):
    env = dict(os.environ, REPRO_SCALE="ci")

    def one(run):
        argv, want = run
        p = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        return argv, want, p.returncode, p.stderr

    failed = False
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        for argv, want, got, err in pool.map(one, runs):
            if got != want:
                failed = True
                sys.stderr.write("run exited %d, expected %d: %s\n%s" %
                                 (got, want, " ".join(argv), err))
    return not failed


def gate(build_dir):
    build_dir = os.path.abspath(build_dir)
    bullet_run = os.path.join(build_dir, "bench", "bullet_run")
    bench_check = os.path.join(build_dir, "tools", "bench_check")
    for exe in (bullet_run, bench_check):
        if not os.access(exe, os.X_OK):
            sys.stderr.write("reach_check: %s is missing; build bullet_run and bench_check\n"
                             % exe)
            return 2
    for dirpath, _, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(dirpath, f))
    jobs = min(4, os.cpu_count() or 1)
    work = tempfile.mkdtemp(prefix="reach_check_")
    try:
        if not (execute(run_set(bullet_run, work), work, jobs) and
                execute(bench_check_set(bench_check, work), work, jobs)):
            sys.stderr.write("reach_check: the run set itself failed\n")
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    merged = merge_functions(collect(build_dir, jobs=jobs), ROOT)
    with open(ALLOW_FILE, encoding="utf-8") as fh:
        allow = parse_allow_list(fh.read())
    problems, zero = check(merged, allow)
    for p in problems:
        print(p)
    print("reach_check: %d of %d src function locations ran; %d never did, %d allow-list "
          "entries" % (len(merged) - zero, len(merged), zero, len(allow)))
    return 1 if problems else 0


# --- selftest ---------------------------------------------------------------


def selftest():
    def fn(name, line, calls):
        return {"demangled_name": name, "start_line": line, "execution_count": calls}

    ran = {"files": [
        {"file": os.path.join(ROOT, "src", "a.cc"), "functions": [
            fn("bullet::A::Run()", 3, 5),
            fn("bullet::A::Idle(int)", 9, 0),
            fn("bullet::A::Run()::{lambda(int)#1}::operator()(int) const", 4, 0),
            # An inline function from a header: one instance ran, so it ran.
            fn("bullet::Inline()", 20, 0)]},
        {"file": os.path.join(ROOT, "src", "a.h"), "functions": [
            fn("bullet::Header::Get() const", 7, 0)]},
        {"file": "/usr/include/c++/12/bits/stl_vector.h", "functions": [
            fn("std::vector<int>::size() const", 900, 0)]}]}
    other = {"files": [
        {"file": os.path.join(ROOT, "src", "a.cc"), "functions": [fn("bullet::Inline()", 20, 2)]}]}
    # gcov's document for a .gcno whose .gcda is missing reports zero counts.
    never_entered = {"files": [
        {"file": os.path.join(ROOT, "src", "b.cc"), "functions": [
            fn("bullet::(anonymous namespace)::Parse(char const*)", 11, 0)]}]}

    def gcov(gcno):
        return {"ran.gcno": ran, "other.gcno": other, "b.gcno": never_entered}[
            os.path.basename(gcno)]

    failures = []

    def expect(what, cond):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tree:
        for name in ("ran.gcno", "ran.gcda", "other.gcno", "other.gcda", "b.gcno"):
            open(os.path.join(tree, name), "w").close()
        docs = collect(tree, gcov=gcov, jobs=1)
    merged = merge_functions(docs, ROOT)

    expect("lambdas are skipped", not any("{lambda" in v[1] for v in merged.values()))
    expect("only src/ files count", all(p.startswith("src") for p, _ in merged))
    expect("instances merge by (file, line)", merged[("src/a.cc", 20)][0] == 2)
    expect("a .gcno-only file counts as zero calls", merged[("src/b.cc", 11)] == [0, "Parse(char const*)"])

    clean = parse_allow_list("A::Idle  # reason one\n\n# comment\n"
                             "Header::Get() const  # reason two\n"
                             "Parse(char const*)  # reason three\n")
    problems, zero = check(merged, clean)
    expect("clean input passes: %s" % problems, problems == [] and zero == 3)

    problems, _ = check(merged, clean[1:])
    expect("an unlisted zero-call function fails",
           len(problems) == 1 and "A::Idle(int) is never called" in problems[0])

    problems, _ = check(merged, clean + parse_allow_list("\n" * 5 + "Gone::Away  # reason\n"))
    expect("a stale entry fails", len(problems) == 1 and "stale entry 'Gone::Away'" in problems[0])

    problems, _ = check(merged, parse_allow_list("A::Idle\nHeader::Get() const  # r\nParse  # r\n"))
    expect("an entry without a reason fails",
           len(problems) == 1 and "gives no reason" in problems[0])

    problems, _ = check(merged, parse_allow_list("A::Idle(long)  # r\nHeader::Get() const  # r\n"
                                                 "Parse  # r\n"))
    expect("a full signature matches only itself", len(problems) == 2)

    for f in failures:
        print("FAIL: " + f)
    print("reach_check selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        sys.stderr.write(__doc__)
        return 2
    if argv[1] == "selftest":
        return selftest()
    return gate(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
