#!/usr/bin/env python3
"""The repo benchmark: builds bullet_run (plain and profiled), the layer
driver and the calibration program from source, runs the workloads, checks
every output and prints each metric by name with its unit.
benchmark/README.md explains the workloads, the metrics, the calibration and
how to read the trace.

usage:
  python3 benchmark/run.py [--seed N] [--repeats R] [--seconds S] [--out PATH]
      Full pass: per workload, R end-to-end runs plus one traced run; writes a
      result file (default .bench_build/results/<utc time>.json).
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload; the last stdout line is the result JSON.
  python3 benchmark/run.py --smoke
      Every workload once at a small size, plus the layer driver on tiny
      inputs; validates outputs only.
  python3 benchmark/run.py compare BASE.json NEW.json
      One row per workload and metric; exits 1 if any metric is worse.
  python3 benchmark/run.py selftest
      Proves the compare gate can fail (wall_s x2, raised failed_frac).
"""

import argparse
import copy
import dataclasses
import datetime
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TREES = {"plain": "OFF", "traced": "ON"}  # tree name -> BULLET_PROFILE

# Each workload is one bullet_run invocation shape, run single-threaded, one
# process at a time (a closed loop with one client). Every workload stops at a
# fixed simulated horizon (--deadline-sec): run to completion, the straggler
# tail decides the cost and swings it up to 20x between seeds (fig23's
# BitTorrent tail runs to the 7200 s default deadline on some seeds only).
# Every flag is a (name, value) pair and --block-bytes is always explicit, so
# the layer driver's shape (topology, nodes, file blocks) follows from the
# flags. `seed` is the scenario's registered seed.
WORKLOADS = {
    "paper_mesh": {
        "scenario": "fig04_overall_static",
        "topology": "mesh",
        "flags": ["--nodes", "100", "--file-mb", "20", "--block-bytes", "16384"],
        "horizon_s": 20,
        "seed": 401,
        "smoke": ["--nodes", "20", "--file-mb", "1", "--block-bytes", "16384"],
    },
    "routed_shared": {
        "scenario": "fig17_transitstub_widearea",
        "topology": "transit-stub",
        "flags": ["--nodes", "1000", "--file-mb", "4", "--block-bytes", "25600"],
        "horizon_s": 45,
        "seed": 1701,
        "smoke": ["--nodes", "20", "--file-mb", "0.5", "--block-bytes", "25600"],
    },
    "megaswarm_10k": {
        "scenario": "fig24_megaswarm",
        "topology": "transit-stub",
        "flags": ["--nodes", "10000", "--file-mb", "0.2", "--block-bytes", "65536"],
        "horizon_s": 20,
        "seed": 2401,
        "smoke": ["--nodes", "1000", "--file-mb", "0.2", "--block-bytes", "65536"],
    },
    "streaming_window": {
        "scenario": "fig23_streaming_deadlines",
        "topology": "mesh",
        "flags": ["--nodes", "100", "--file-mb", "5", "--block-bytes", "4096"],
        "horizon_s": 15,
        "seed": 2301,
        "smoke": ["--nodes", "20", "--file-mb", "1", "--block-bytes", "4096"],
    },
}

# bullet_calibrate's wall time on the reference machine (the 4-vCPU Xeon in
# benchmark/README.md) at an uncontended moment: its tenth percentile over 60
# runs. Every end-to-end time is reported in reference seconds: measured time
# x CALIBRATION_REF_S / the calibration's time measured around it.
CALIBRATION_REF_S = 0.04

# BENCHMARK.json names every reported metric and its unit.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
LAYER_DRIVER_METRICS = {name for name in UNITS if name.split(".")[0] in
                        ("bandwidth_allocator", "event_queue", "topology", "request_strategy")}

# Phases of the profiled build's `profile` block (inclusive timers).
# allocator_rebuild = allocator_epoch - water_fill: water_fill nests fully in
# the epoch. request_strategy nests only partly in protocol_logic, so the two
# are never subtracted.
PHASES = ["allocator_rebuild", "water_fill", "protocol_logic", "request_strategy",
          "path_lookup", "topology_metrics", "event_dispatch"]

SETUP_DEADLINE = "0.001"  # simulated seconds: topology, nodes and Start() only
SETUPS_PER_SEED = 2
INVOKE_TIMEOUT_S = 60
SCHEMA = "bullet-bench-v3"
RESULT_SCHEMA = "bullet-benchmark-result-v1"


class BenchError(Exception):
    """A failure that stops the benchmark before it can print a result."""


def metric(name, value):
    return {"value": value, "unit": UNITS[name]}


# ---------------------------------------------------------------- build ---

def build():
    """Configures and builds both trees; returns whether bullet_layers built."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no repository sources at {ROOT} (CMakeLists.txt and src/ are missing)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        def step(cmd):
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0

        for tree, profile in TREES.items():
            out = os.path.join(BUILD, tree)
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                if not step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                             f"-DBULLET_PROFILE={profile}"]):
                    raise BenchError(f"cmake configure of the {tree} tree failed; see {log_path}")
            if not step(["cmake", "--build", out, "-j", jobs, "--target", "bullet_run"]):
                raise BenchError(f"building bullet_run ({tree}) failed; see {log_path}")
        if not step(["cmake", "--build", os.path.join(BUILD, "plain"), "-j", jobs,
                     "--target", "bullet_calibrate"]):
            raise BenchError(f"building bullet_calibrate failed; see {log_path}")
        # The layer driver is optional: without it the per-layer driver
        # metrics are missing, and everything else still runs.
        return step(["cmake", "--build", os.path.join(BUILD, "plain"), "-j", jobs,
                     "--target", "bullet_layers"])


def binary(tree):
    return os.path.join(BUILD, tree, "bullet", "bench", "bullet_run")


def layer_shape(w, smoke=False):
    """(topology, nodes, file blocks) of a workload, as bullet_run sizes the
    file: floor(file bytes / block bytes)."""
    args = w["smoke"] if smoke else w["flags"]
    flags = dict(zip(args[::2], args[1::2]))
    blocks = int(float(flags["--file-mb"]) * 2**20) // int(flags["--block-bytes"])
    return w["topology"], int(flags["--nodes"]), max(1, blocks)


# ----------------------------------------------------------- invocation ---

def sub_seed(seed, i):
    """The i-th simulation seed of a run: the run's own seed first, then a
    SplitMix64 stream, so runs with different seeds share no inputs."""
    if i == 0:
        return seed
    mask = (1 << 64) - 1
    z = (seed + i * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) % (1 << 31)


def workload_args(w, deadline=None, smoke=False):
    """bullet_run arguments; smoke runs go to completion at a small size."""
    if smoke:
        return ["--scenario", w["scenario"], *w["smoke"]]
    return ["--scenario", w["scenario"], *w["flags"],
            "--deadline-sec", str(deadline if deadline is not None else w["horizon_s"])]


def digest(doc):
    """sha256 of the report without its wall-clock `profile` block."""
    body = {k: v for k, v in doc.items() if k != "profile"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def check_report(path):
    """Returns (report, error); error is None when the report is well formed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        return None, f"invalid JSON: {e}"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return None, f"schema is not {SCHEMA}"
    completion = [s for s in doc.get("series", []) if "receivers" in s.get("metrics", {})]
    if not completion:
        return None, "no completion series"
    for s in completion:
        receivers, completed = s["metrics"]["receivers"], s["metrics"].get("completed", -1)
        if receivers <= 0 or not 0 <= completed <= receivers:
            return None, f"series {s.get('name')!r}: completed={completed} receivers={receivers}"
    return doc, None


@dataclasses.dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float | None
    doc: dict | None
    error: str | None  # None when the invocation passed every check

    @property
    def ok(self):
        return self.error is None


def timed(cmd, log_path):
    """Runs one child to completion with its output in `log_path`; returns
    (wall, cpu, exit code). Wall and CPU (user+sys, from wait4) belong to this
    child alone."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=dict(os.environ, REPRO_SCALE="ci"))
        killer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status)


class Calibration:
    """Times bullet_calibrate, whose work never changes, and checks that its
    checksum never changes either."""

    def __init__(self):
        self.checksum = None
        self.walls = []

    def measure(self):
        log_path = os.path.join(BUILD, "runs", "calibrate.log")
        wall, _, code = timed([os.path.join(BUILD, "plain", "bullet_calibrate")], log_path)
        with open(log_path) as fh:
            checksum = fh.read().strip()
        if code != 0 or not checksum or checksum != (self.checksum or checksum):
            raise BenchError(f"bullet_calibrate failed or changed its checksum ({checksum!r})")
        self.checksum = checksum
        self.walls.append(wall)
        return wall


def invoke(cmd, out_path):
    """Runs one bullet_run child and checks its report. Peak RSS is the VmHWM
    that --profile prints: wait4's ru_maxrss would also count the forking
    Python parent's pages."""
    if os.path.exists(out_path):
        os.remove(out_path)
    log_path = out_path + ".log"
    wall, cpu, code = timed(cmd, log_path)
    if code != 0:
        reason = "timeout" if wall >= INVOKE_TIMEOUT_S else f"exit code {code}"
        return Invocation(wall, cpu, None, None, reason)
    with open(log_path) as log:
        match = re.search(r"^peak_rss\s*=\s*(\d+) kB", log.read(), re.MULTILINE)
    if match is None:
        return Invocation(wall, cpu, None, None, "no peak_rss line in the --profile summary")
    doc, error = check_report(out_path)
    return Invocation(wall, cpu, int(match.group(1)) / 1024.0, doc, error)


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self):
        self.attempted, self.failed, self.reasons = 0, 0, []

    def record(self, inv, label):
        self.attempted += 1
        if not inv.ok:
            self.fail(f"{label}: {inv.error}")
        return inv.ok

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons


def run_bullet(tree, w, seed, tag, deadline=None, smoke=False):
    out = os.path.join(BUILD, "runs", f"{tag}.json")
    return invoke([binary(tree), *workload_args(w, deadline, smoke), "--seed", str(seed),
                   "--quiet", "--profile", "--out", out], out)


# ------------------------------------------------------------------ runs ---

def run_end_to_end(name, seed, seconds):
    """One untraced run over the seed panel for about `seconds`. Each seed is
    set up alone (--deadline-sec 0.001, SETUPS_PER_SEED times: a set-up lasts
    a few milliseconds, so one sample is noisy) and then run to the horizon,
    with a
    calibration before and after; the two calibrations' mean scales both of
    the seed's times to reference seconds. The first seed runs twice, and the
    two reports must be identical (determinism). Returns (metrics, tally,
    first_digest, raw), where raw holds the unscaled medians."""
    w = WORKLOADS[name]
    tally = Tally()
    cal = Calibration()
    samples = {"wall_s": [], "cpu_s": [], "setup_s": [], "raw_wall_s": [], "raw_setup_s": []}
    rss, first = [], None
    start = time.perf_counter()
    before = cal.measure()
    i = 0
    while True:
        s = sub_seed(seed, i)
        setups = [run_bullet("plain", w, s, f"{name}-setup", deadline=SETUP_DEADLINE)
                  for _ in range(SETUPS_PER_SEED)]
        full = run_bullet("plain", w, s, f"{name}-run")
        full_ok = tally.record(full, f"seed {s}")
        if i == 0 and full_ok:
            again = run_bullet("plain", w, s, f"{name}-run")
            if tally.record(again, f"seed {s} repeat"):
                first = digest(full.doc)
                if digest(again.doc) != first:
                    tally.fail(f"seed {s}: report differs between repeats (non-deterministic)")
        after = cal.measure()
        scale = CALIBRATION_REF_S / ((before + after) / 2)
        before = after
        for setup in setups:
            if tally.record(setup, f"setup seed {s}"):
                samples["setup_s"].append(setup.wall * scale)
                samples["raw_setup_s"].append(setup.wall)
        if full_ok:
            samples["wall_s"].append(full.wall * scale)
            samples["cpu_s"].append(full.cpu * scale)
            samples["raw_wall_s"].append(full.wall)
            rss.append(full.rss_mb)
        i += 1
        # Stop before a seed that would overrun the run's time.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            break

    # Times are medians over the seeds, robust to outliers. Peak RSS repeats
    # exactly per seed but ranges from 31 to 112 MB across seeds on
    # megaswarm_10k; over so wide a spread the mean settles faster.
    metrics = {key: metric(key, statistics.median(values))
               for key, values in samples.items() if values and key in UNITS}
    if rss:
        metrics["peak_rss_mb"] = metric("peak_rss_mb", statistics.mean(rss))
    raw = {key: statistics.median(values) for key, values in samples.items()
           if values and key not in UNITS}
    raw["calibration_s"] = statistics.median(cal.walls)
    raw["seeds"] = i
    return metrics, tally, first, raw


def run_layers(name, seed, smoke=False):
    """The layer driver on this workload's shape; {} when it fails."""
    topology, nodes, blocks = layer_shape(WORKLOADS[name], smoke)
    trace =os.path.join(BUILD, "trace", f"{name}.trace.json")
    os.makedirs(os.path.dirname(trace), exist_ok=True)
    cmd = [os.path.join(BUILD, "plain", "bullet_layers"), "--topology", topology,
           "--nodes", str(nodes), "--blocks", str(blocks), "--seed", str(seed), "--trace", trace]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as e:
        print(f"warning: layer driver failed on {name}: {e}", file=sys.stderr)
        return {}
    if proc.returncode != 0:
        print(f"warning: layer driver exited {proc.returncode} on {name}", file=sys.stderr)
        return {}
    return {k: metric(k, v) for k, v in metrics.items() if k in LAYER_DRIVER_METRICS}


def run_traced(name, seed, seconds, layers_ok):
    """One traced run: the layer driver, then (untraced, profiled) invocation
    pairs over the seed panel for the rest of `seconds`. The profiled report
    must equal the untraced one once `profile` is stripped."""
    w = WORKLOADS[name]
    tally = Tally()
    start = time.perf_counter()
    metrics = run_layers(name, seed) if layers_ok else {}

    ns = {p: 0 for p in PHASES}
    counts = {p: 0 for p in PHASES}
    first_counts, first_sim = None, None
    plain_wall = traced_wall = events = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        s = sub_seed(seed, i)
        i += 1
        plain = run_bullet("plain", w, s, f"{name}-plain")
        traced = run_bullet("traced", w, s, f"{name}-traced")
        plain_ok = tally.record(plain, f"seed {s}")
        traced_ok = tally.record(traced, f"traced seed {s}")
        if not (plain_ok and traced_ok):
            continue
        if digest(plain.doc) != digest(traced.doc):
            tally.fail(f"seed {s}: the traced report differs from the untraced one")
            continue
        try:
            run_ns, run_counts = phase_totals(traced.doc["profile"])
        except (KeyError, TypeError):
            tally.fail(f"seed {s}: the profiled build wrote no complete profile block")
            continue
        for p in PHASES:
            ns[p] += run_ns[p]
            counts[p] += run_counts[p]
        sim = sim_counters(plain.doc)
        if first_counts is None:
            first_counts, first_sim = run_counts, sim
        plain_wall += plain.wall
        traced_wall += traced.wall
        events += sim["events"]

    if first_counts is not None:
        for p in PHASES:
            metrics[f"phase.{p}.share"] = metric(f"phase.{p}.share", ns[p] / 1e9 / traced_wall)
            metrics[f"phase.{p}.avg_ns"] = metric(f"phase.{p}.avg_ns", ns[p] / max(counts[p], 1))
            metrics[f"phase.{p}.count"] = metric(f"phase.{p}.count", first_counts[p])
        for key in ("events", "allocator_epochs", "bytes_sent"):
            metrics[f"sim.{key}"] = metric(f"sim.{key}", first_sim[key])
        metrics["sim.events_per_s"] = metric("sim.events_per_s", events / plain_wall)
        metrics["trace.overhead"] = metric("trace.overhead", traced_wall / plain_wall - 1.0)
    return metrics, tally


def phase_totals(profile):
    """Per-phase (ns, count) from a `profile` block, with allocator_rebuild
    derived as allocator_epoch - water_fill."""
    epoch = profile["allocator_epoch"]
    ns = {"allocator_rebuild": epoch["ns"] - profile["water_fill"]["ns"]}
    counts = {"allocator_rebuild": epoch["count"]}
    for p in PHASES[1:]:
        ns[p], counts[p] = profile[p]["ns"], profile[p]["count"]
    return ns, counts


def sim_counters(doc):
    """Deterministic run counters summed over the completion series. Every
    completion series of these workloads is its own network run, so the sum
    is the invocation's total."""
    totals = {"events": 0, "allocator_epochs": 0, "bytes_sent": 0}
    for s in doc["series"]:
        m = s.get("metrics", {})
        if "receivers" in m:
            totals["events"] += int(m.get("net_events_executed", 0))
            totals["allocator_epochs"] += int(m.get("net_allocator_epochs", 0))
            totals["bytes_sent"] += int(m.get("net_sim_bytes_sent", 0))
    return totals


# ------------------------------------------------------------ provenance ---

def provenance(seed, repeats, seconds):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "plain", "CMakeCache.txt")) as fh:
            for line in fh:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    commit, dirty = None, None
    if first_line(["git", "-C", ROOT, "rev-parse", "--show-toplevel"]) == ROOT:
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "git_dirty": dirty,
        "repro_scale": "ci",
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
    }


# ---------------------------------------------------------------- modes ---

def print_metrics(name, metrics):
    for key in sorted(metrics):
        m = metrics[key]
        print(f"{name:18s} {key:40s} {m['value']:>16.6g} {m['unit']}")


def run_one(args):
    """One run of one workload; the result JSON is the last stdout line."""
    layers_ok = build()
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    print("provenance " + json.dumps(provenance(args.seed, 1, args.seconds), sort_keys=True))
    if args.trace:
        metrics, tally = run_traced(args.workload, args.seed, args.seconds, layers_ok)
    else:
        metrics, tally, _, raw = run_end_to_end(args.workload, args.seed, args.seconds)
        print("unscaled " + json.dumps(raw, sort_keys=True))
    print_metrics(args.workload, metrics)
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    if not metrics:
        raise BenchError("no invocation succeeded; nothing was measured")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def full_pass(args):
    layers_ok = build()
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    seconds = args.seconds or SPEC["run_seconds"]
    reference = load_reference()
    result = {"schema": RESULT_SCHEMA,
              "provenance": provenance(args.seed, args.repeats, seconds), "workloads": {}}
    for name, w in WORKLOADS.items():
        seed = w["seed"] if args.seed is None else args.seed
        runs, firsts, unscaled, tally = [], [], [], Tally()
        for _ in range(args.repeats):
            metrics, run_tally, first, raw = run_end_to_end(name, seed, seconds)
            runs.append(metrics)
            firsts.append(first)
            unscaled.append(raw)
            tally.merge(run_tally)
        if len(set(firsts)) > 1:
            tally.fail(f"seed {seed}: report differs between runs (non-deterministic)")
        per_layer, traced_tally = run_traced(name, seed, seconds, layers_ok)
        tally.merge(traced_tally)

        end_to_end = {}
        for key in (m["name"] for m in SPEC["end_to_end"]):
            values = [r[key]["value"] for r in runs if key in r]
            if values:
                end_to_end[key] = dict(metric(key, statistics.median(values)), runs=values)
        end_to_end["failed_frac"] = {"value": tally.failed / max(tally.attempted, 1),
                                     "unit": "fraction"}
        # Information only: the first seed's report against the digest
        # recorded at the registered seed (compilers may round differently).
        matches = firsts[0] == reference.get(name) if seed == w["seed"] else None
        result["workloads"][name] = {
            "seed": seed, "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.reasons, "digest": firsts[0], "result_matches_reference": matches,
            "end_to_end": end_to_end, "unscaled": unscaled, "per_layer": per_layer,
        }
        print_metrics(name, end_to_end)
        print_metrics(name, per_layer)
        print(f"{name:18s} result_matches_reference {matches}")
        for reason in tally.reasons:
            print(f"{name:18s} FAILED {reason}")

    out = args.out or os.path.join(
        BUILD, "results", datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ") + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    failed = any(wl["failed"] for wl in result["workloads"].values())
    return 1 if failed else 0


def smoke():
    """Each workload once at a small size (plain and profiled, which must
    agree) plus the layer driver on tiny inputs. Validates outputs only."""
    layers_ok = build()
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    problems = []
    for name, w in WORKLOADS.items():
        plain = run_bullet("plain", w, w["seed"], f"{name}-smoke", smoke=True)
        traced = run_bullet("traced", w, w["seed"], f"{name}-smoke-traced", smoke=True)
        for label, inv in (("plain", plain), ("traced", traced)):
            if not inv.ok:
                problems.append(f"{name} {label}: {inv.error}")
        if plain.ok and traced.ok and digest(plain.doc) != digest(traced.doc):
            problems.append(f"{name}: the traced report differs from the untraced one")
        layers = run_layers(name, w["seed"], smoke=True) if layers_ok else {}
        if set(layers) != LAYER_DRIVER_METRICS:
            problems.append(f"{name}: layer driver metrics missing or unexpected")
        elif layers["bandwidth_allocator.reference_match"]["value"] != 1:
            problems.append(f"{name}: IncrementalMaxMin differs from the reference allocator")
        print(f"{name:18s} plain {plain.wall:6.2f} s  traced {traced.wall:6.2f} s  "
              f"layers {'ok' if layers else 'missing'}")
    for p in problems:
        print(f"FAILED {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# --------------------------------------------------------------- compare ---

def spread(values):
    """Interquartile range as a share of the median; 0 for fewer than 2 runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0


def verdict(base_runs, new_runs, bound, higher_better=False):
    """improved / unchanged / worse / unresolved for one metric (medians)."""
    b, n = statistics.median(base_runs), statistics.median(new_runs)
    sign = -1.0 if higher_better else 1.0
    if b == 0:
        change = sign * (n - b)  # failed_frac: any rise is worse
    else:
        change = sign * (n - b) / abs(b)  # > 0 means worse
    if max(spread(base_runs), spread(new_runs)) > bound:
        better_everywhere = (max(new_runs) < min(base_runs) if sign > 0
                             else min(new_runs) > max(base_runs))
        return ("improved" if better_everywhere else "unresolved"), change
    if change > bound:
        return "worse", change
    # A third of the bound is the run-to-run noise the bounds were set for:
    # a smaller gain is not told apart from noise even when the repeats agree.
    if -change > max(spread(base_runs), spread(new_runs), bound / 3):
        return "improved", change
    return "unchanged", change


def compare_docs(base, new, bounds, out=sys.stdout):
    worse = 0
    for name in sorted(set(base["workloads"]) | set(new["workloads"])):
        b_wl, n_wl = base["workloads"].get(name), new["workloads"].get(name)
        for metric, (bound, higher_better) in bounds.items():
            b_m = (b_wl or {}).get("end_to_end", {}).get(metric)
            n_m = (n_wl or {}).get("end_to_end", {}).get(metric)
            if n_m is None:
                state, change = ("worse" if b_m is not None else "unresolved"), float("nan")
            elif b_m is None:
                state, change = "unresolved", float("nan")
            else:
                state, change = verdict(b_m.get("runs", [b_m["value"]]),
                                        n_m.get("runs", [n_m["value"]]), bound, higher_better)
            worse += state == "worse"
            b_val = f"{b_m['value']:.6g}" if b_m else "-"
            n_val = f"{n_m['value']:.6g}" if n_m else "-"
            print(f"{name:18s} {metric:12s} base {b_val:>12s} new {n_val:>12s} "
                  f"change {change:+8.2%} bound {bound:.0%}  {state}", file=out)
    return 1 if worse else 0


def compare_bounds():
    bounds = {m["name"]: (m["bound"], m["better"] == "higher") for m in SPEC["end_to_end"]}
    bounds["failed_frac"] = (0.0, False)
    return bounds


def compare(paths):
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return compare_docs(docs[0], docs[1], compare_bounds())


def synthetic_result():
    runs = {"wall_s": [1.00, 1.02, 0.99], "cpu_s": [0.98, 1.00, 0.97],
            "setup_s": [0.010, 0.011, 0.010], "peak_rss_mb": [17.4, 17.4, 17.5]}
    end_to_end = {k: dict(metric(k, statistics.median(v)), runs=v) for k, v in runs.items()}
    end_to_end["failed_frac"] = {"value": 0.0, "unit": "fraction"}
    return {"schema": RESULT_SCHEMA, "workloads": {n: {"end_to_end": copy.deepcopy(end_to_end)}
                                                   for n in WORKLOADS}}


def selftest():
    """The compare gate must pass a self-compare and fail both mutations."""
    base = synthetic_result()
    slower = copy.deepcopy(base)
    for wl in slower["workloads"].values():
        m = wl["end_to_end"]["wall_s"]
        m["value"] *= 2
        m["runs"] = [v * 2 for v in m["runs"]]
    failing = copy.deepcopy(base)
    for wl in failing["workloads"].values():
        wl["end_to_end"]["failed_frac"]["value"] += 0.1
    bounds = compare_bounds()
    cases = [("self-compare", base, 0), ("wall_s x2", slower, 1), ("failed_frac raised", failing, 1)]
    ok = True
    for label, new, expected in cases:
        with open(os.devnull, "w") as sink:
            rc = compare_docs(base, new, bounds, out=sink)
        ok &= rc == expected
        print(f"selftest {label:20s} exit {rc} (expected {expected}) {'ok' if rc == expected else 'FAILED'}")
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("compare", "selftest"):
        if argv[0] == "compare":
            if len(argv) != 3:
                raise BenchError("usage: run.py compare BASE.json NEW.json")
            return compare(argv[1:])
        return selftest()

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if (args.seconds is not None and args.seconds < 1) or args.repeats < 1:
        parser.error("--seconds and --repeats must be at least 1")
    if args.smoke:
        return smoke()
    if args.workload:
        if args.seed is None:
            args.seed = WORKLOADS[args.workload]["seed"]
        args.seconds = args.seconds or SPEC["run_seconds"]
        return run_one(args)
    return full_pass(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
