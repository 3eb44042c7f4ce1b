#!/usr/bin/env python3
"""Benchmark runner for the hybridmig simulator.

Builds this checkout's library (Release, in .bench_build/, keyed by a digest
of src/ and of the harness sources), then measures one workload:

    python3 perfbench/run.py --workload nb-stagger --seed 1 --seconds 30 --trace 0

A pass runs each of the workload's experiments in its own harness process,
so a crash cannot end the run: the signal is named, every experiment of
that pass is counted as failed, and the run goes on.
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics (host time, tracing off). With --trace 1 it holds the per-layer
metrics of the traced build: wrapper call counts, sampled self time per
module, and the simulated results, which must equal the untraced run's bit
for bit. NOTES.md explains the workloads and every metric.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import re
import shutil
import signal
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("nb-stagger", "paper-matrix", "churn-steady")
LAYERS = ("sim", "net", "storage", "vm", "core", "workloads", "cloud")
# Counts that depend on the process's history rather than on the simulation
# (the frame pool's slab growth): reported, but not part of the identity check.
HISTORY_COUNTS = {"sim.frame_heap_allocs"}
# Counts only the traced build can make (its link-time wrappers).
WRAPPER_COUNTS = {
    "sim.timers_scheduled", "net.legs_started", "storage.read_misses",
    "storage.repo_fetches", "vm.dirty_rounds", "core.local_writes",
    "cloud.placements",
}
MIN_PASSES = 3
START_CAP_S = 120.0
KILL_AT_S = 165.0


def say(msg):
    print("# " + msg, flush=True)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# --- build ---------------------------------------------------------------

def source_digest():
    """sha256 over everything the harness build compiles, path and bytes."""
    inputs = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "bench", "bench_common.h")]
    if not os.path.isdir(os.path.join(ROOT, "src")) or not all(map(os.path.isfile, inputs)):
        fail("no simulator sources (src/, CMakeLists.txt, bench/) next to " + HERE)
    h = hashlib.sha256()
    files = list(inputs)
    for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(dirpath, f) for f in filenames]
    files += [os.path.join(HERE, f) for f in os.listdir(HERE)
              if f.endswith((".cpp", ".h", ".txt"))]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(digest):
    bdir = os.path.join(ROOT, ".bench_build", "perfbench-" + digest[:16])
    exes = [os.path.join(bdir, n) for n in ("perfbench_harness", "perfbench_harness_traced")]
    stamp = os.path.join(bdir, "built.stamp")
    if os.path.isfile(stamp) and all(os.path.isfile(e) for e in exes):
        return bdir, exes
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2), "--target",
         "perfbench_harness", "perfbench_harness_traced"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 1)
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return bdir, exes


def host_metadata(bdir, digest):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):\w+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    flags = (cache.get("CMAKE_CXX_FLAGS", "") + " " +
             cache.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip()
    say("host: nproc=%d compiler=%s (%s) flags=%s -Wall -Wextra" %
        (os.cpu_count() or 0, cxx, version, flags))
    say("source: git=%s digest=%s" % (sha, digest[:16]))


# --- passes ----------------------------------------------------------------

def signal_name(returncode):
    try:
        return signal.Signals(-returncode).name
    except ValueError:
        return "signal %d" % -returncode


def harness(exe, args, timeout):
    """Run the harness once: (parsed last stdout line or None, why not)."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    if p.returncode < 0:
        return None, "killed by " + signal_name(p.returncode)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "exit code %d: %s" % (p.returncode, p.stderr.strip()[-300:])
    return json.loads(lines[-1]), ""


def nearest_rank(xs, q):
    """cloud::nearest_rank_percentile: the ceil(q*N)-th smallest sample."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(max(math.ceil(q * len(xs)), 1), len(xs)) - 1]


def aggregate(outs):
    """One pass from the outputs [(index, result)] of its experiments that
    finished, in order.

    Host times, counts and samples add up over those experiments, so every
    figure covers the same ones; peak RSS is the largest experiment's. The
    simulated results (model.* and the figures beside them) are computed here
    from the experiments' exact values, so they repeat bit for bit.
    """
    figs = {i: r["figures"] for i, r in outs}
    times = [t for f in figs.values() for t in f["migration_times"]]
    downs = [t for f in figs.values() for t in f["downtimes"]]
    total = lambda key: sum(f[key] for f in figs.values())
    moving = [f for f in figs.values() if f["migrating"]]
    slowdowns = []
    for f in moving:
        if f["baseline"] < 0:
            ref = f["nominal_span_s"]
        elif f["baseline"] in figs:
            ref = figs[f["baseline"]]["app_execution_time"]
        else:
            continue  # its baseline experiment failed in this pass
        slowdowns.append(f["app_execution_time"] / ref - 1.0 if ref > 0 else 0.0)
    mig_traffic = sum(f["migration_traffic"] for f in moving)
    counts, samples = {}, {}
    for _, r in outs:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in r["samples"].items():
            samples[k] = samples.get(k, 0) + v
    rs = [r for _, r in outs]
    return {
        "outputs": {i: (r["figures"], r["counts"]) for i, r in outs},
        "wall_s": sum(r["wall_s"] for r in rs),
        "cpu_s": sum(r["cpu_s"] for r in rs),
        "setup_s": [sum(x) for x in zip(*(r["setup_s"] for r in rs))],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
        "migrations_per_s": sum(r["migrations"] for r in rs) / sum(r["wall_s"] for r in rs),
        "trace_gen_s": sum(r["trace_gen_s"] for r in rs),
        "counts": counts,
        "samples": samples,
        "model": {
            "model.migration_time_p50_s": nearest_rank(times, 0.5),
            "model.migration_time_tail_s": nearest_rank(times, 0.99),
            "model.downtime_tail_s": nearest_rank(downs, 0.99),
            "model.traffic_per_migration_gb": mig_traffic / max(len(times), 1) / 1e9,
            "model.guest_io_MBps": total("io_MBps") / len(figs),
            "model.app_slowdown": sum(slowdowns) / len(slowdowns) if slowdowns else 0.0,
            "core.chunks_pushed": total("chunks_pushed"),
            "core.chunks_pulled": total("chunks_pulled"),
            "core.push_gb": total("push_bytes") / 1e9,
            "core.pull_gb": total("pull_bytes") / 1e9,
            "vm.memory_gb": total("memory_bytes") / 1e9,
            "workloads.read_gb": total("read_bytes") / 1e9,
            "workloads.written_gb": total("written_bytes") / 1e9,
            "cloud.retransfer_share":
                sum(f["retransferred_bytes"] for f in moving) / mig_traffic if mig_traffic else 0.0,
            "cloud.queueing_p99_s": max(f["queueing_p99_s"] for f in figs.values()),
        },
    }


def fingerprints(p, drop):
    """Per experiment of pass `p`: its exact outputs, minus the counts in `drop`."""
    return {i: json.dumps([figs, {k: v for k, v in counts.items() if k not in drop}],
                          sort_keys=True)
            for i, (figs, counts) in p["outputs"].items()}


class Tally:
    """Passes of one build: whole and broken passes, experiment counts, failed
    checks.

    A pass in which any experiment crashed or failed a check is broken: all
    of its experiments count as failed, and its figures stay out of the
    metrics while the run has a whole pass. A seed that reaches a crash does
    so in every pass; its metrics then cover the experiments that finished,
    unscaled, and `failed` shows that the passes were cut short.
    """

    def __init__(self, label):
        self.label = label
        self.whole, self.broken = [], []
        self.attempted, self.failed = 0, 0
        self.problems = []

    def run_pass(self, exe, args, n, kill_at, raise_first):
        outs, broken = [], False
        where = "%s pass %d" % (self.label, len(self.whole) + len(self.broken))
        for i in range(n):
            extra = ["--experiment", str(i)] + (["--raise", raise_first] if raise_first else [])
            raise_first = None
            res, why = harness(exe, args + extra, max(1.0, kill_at - time.monotonic()))
            if res is None:
                broken = True
                say("%s experiment %d: failed: %s" % (where, i, why))
                continue
            if res["failure"]:
                broken = True
                self.problems.append("%s experiment %d (%s): %s" % (where, i, res["label"],
                                                                    res["failure"]))
            outs.append((i, res))
        self.attempted += n
        if broken:
            self.failed += n
            say("%s: all %d experiments counted as failed" % (where, n))
        if outs:
            (self.broken if broken else self.whole).append(aggregate(outs))

    def measured(self):
        """The passes the metrics rest on."""
        return self.whole or self.broken


def repeat(builds, args, n, seconds, min_rounds, raise_first=None):
    """Passes round-robin over `builds` [(exe, tally)] until `seconds` pass.

    No pass starts after START_CAP_S and no experiment runs past KILL_AT_S,
    so a run ends well within its time limit even on a slow host.
    """
    start = time.monotonic()
    k = 0
    while k < min_rounds or time.monotonic() - start < seconds:
        if time.monotonic() - start > START_CAP_S:
            break
        for exe, tally in builds:
            tally.run_pass(exe, args, n, start + KILL_AT_S, raise_first)
            raise_first = None
        k += 1


def check_identical(tallies, drop, what):
    """Every experiment must print the same exact outputs in every pass."""
    seen = {}
    for p in (p for t in tallies for p in t.whole + t.broken):
        for i, fp in fingerprints(p, drop).items():
            seen.setdefault(i, set()).add(fp)
    return ["%s: experiment %d printed different exact outputs across passes" % (what, i)
            for i, fps in sorted(seen.items()) if len(fps) > 1]


# --- sampled self time per module ----------------------------------------

def load_symbols(exe):
    """Sorted (address, size, module) for every text symbol of `exe`."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        m = re.match(r"^([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWi]) (.*)$", line)
        if m:
            size = int(m.group(2), 16) if m.group(2) else 0
            syms.append((int(m.group(1), 16), size, module_of(m.group(4))))
    syms.sort()
    return syms


def strip_return_type(name):
    """Drop a leading return type ("hm::sim::Task f<...>(...)" -> "f<...>(...)")."""
    depth = 0
    for i, c in enumerate(name):
        if c in "<([{":
            if c == "(" and depth == 0:
                return name
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == " " and depth == 0 and not name[:i].endswith("operator"):
            return name[i + 1:]
    return name


def module_of(name):
    """The hm::<module> a symbol belongs to, or None outside the library.

    A SmallFn thunk counts toward the callable it wraps; std:: template code
    instantiated for a library type counts toward that type's module.
    """
    name = name.replace("(anonymous namespace)", "anon")
    if name.startswith("hm::sim::SmallFn"):
        m = re.search(r"hm::(\w+)::", name[len("hm::sim::SmallFn"):])
        return m.group(1) if m else "sim"
    m = re.search(r"hm::(\w+)::", strip_return_type(name))
    return m.group(1) if m else None


def attribute(samples, syms):
    """Sample counts per module name; None collects samples outside any hm:: code."""
    addrs = [s[0] for s in syms]
    per = {}
    for key, n in samples.items():
        mod = None
        if key.startswith("exe:"):
            pc = int(key[4:], 16)
            i = bisect.bisect_right(addrs, pc) - 1
            if i >= 0 and (syms[i][1] == 0 or pc < syms[i][0] + syms[i][1]):
                mod = syms[i][2]
        per[mod] = per.get(mod, 0) + n
    return per


# --- metrics -------------------------------------------------------------

def end_to_end(rs):
    walls = [r["wall_s"] for r in rs]
    setups = [s for r in rs for s in r["setup_s"]]
    say("wall_s over %d passes: median %.4f, min %.4f, max %.4f (no tail: fewer than "
        "10 passes lie beyond any percentile)" % (len(walls), median(walls), min(walls),
                                                   max(walls)))
    say("setup_s over %d set-ups: median %.5f" % (len(setups), median(setups)))
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rs]), "MB"),
        "migrations_per_s": (median([r["migrations_per_s"] for r in rs]), "1/s"),
    }


def per_layer(plain, traced, syms):
    """Per-layer metrics from untraced passes `plain` and traced passes `traced`."""
    tr = traced[0]
    counts, model = tr["counts"], tr["model"]
    wall = median([r["wall_s"] for r in plain])
    twall = median([r["wall_s"] for r in traced])
    tcpu = median([r["cpu_s"] for r in traced])
    samples = {}
    for r in traced:
        for k, v in r["samples"].items():
            samples[k] = samples.get(k, 0) + v
    per = attribute(samples, syms)
    total = sum(per.values()) or 1
    self_s = {m: tcpu * per.get(m, 0) / total for m in LAYERS}
    unattributed = per.get(None, 0) / total
    say("samples: %d over %d traced passes; split %s; unattributed %.1f%%" % (
        total, len(traced), ", ".join("%s %.1f%%" % (m, 100.0 * per.get(m, 0) / total)
                                      for m in LAYERS), 100 * unattributed))
    epochs = counts["net.solve_epochs"]
    events = counts["sim.events"]
    m = {
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / wall, "1/s"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.ns_per_event": (wall / max(events, 1) * 1e9, "ns"),
        "sim.frames": (counts["sim.frames"], "count"),
        "sim.frame_heap_allocs": (counts["sim.frame_heap_allocs"], "count"),
        "sim.timers_scheduled": (counts["sim.timers_scheduled"], "count"),
        "net.flows": (counts["net.flows"], "count"),
        "net.legs_started": (counts["net.legs_started"], "count"),
        "net.solve_epochs": (epochs, "count"),
        "net.component_fills": (counts["net.component_fills"], "count"),
        "net.flows_resolved_per_epoch": (counts["net.flows_resolved"] / max(epochs, 1),
                                         "ratio"),
        "net.escalations": (counts["net.escalations"], "count"),
        "net.self_s": (self_s["net"], "s"),
        "net.us_per_epoch": (self_s["net"] / max(epochs, 1) * 1e6, "us"),
        "storage.self_s": (self_s["storage"], "s"),
        "storage.read_misses": (counts["storage.read_misses"], "count"),
        "storage.repo_fetches": (counts["storage.repo_fetches"], "count"),
        "vm.self_s": (self_s["vm"], "s"),
        "vm.dirty_rounds": (counts["vm.dirty_rounds"], "count"),
        "vm.memory_gb": (model["vm.memory_gb"], "GB"),
        "core.self_s": (self_s["core"], "s"),
        "core.local_writes": (counts["core.local_writes"], "count"),
        "core.chunks_pushed": (model["core.chunks_pushed"], "count"),
        "core.chunks_pulled": (model["core.chunks_pulled"], "count"),
        "core.push_gb": (model["core.push_gb"], "GB"),
        "core.pull_gb": (model["core.pull_gb"], "GB"),
        "workloads.self_s": (self_s["workloads"], "s"),
        "workloads.trace_gen_s": (median([r["trace_gen_s"] for r in traced]), "s"),
        "workloads.read_gb": (model["workloads.read_gb"], "GB"),
        "workloads.written_gb": (model["workloads.written_gb"], "GB"),
        "cloud.self_s": (self_s["cloud"], "s"),
        "cloud.requests": (counts["cloud.requests"], "count"),
        "cloud.placements": (counts["cloud.placements"], "count"),
        "cloud.preemptions": (counts["cloud.preemptions"], "count"),
        "cloud.retries": (counts["cloud.retries"], "count"),
        "cloud.retransfer_share": (model["cloud.retransfer_share"], "ratio"),
        "cloud.audit_checks": (counts["cloud.audit_checks"], "count"),
        "cloud.node_crashes": (counts["cloud.node_crashes"], "count"),
        "cloud.queueing_p99_s": (model["cloud.queueing_p99_s"], "s"),
        "trace.wall_s": (twall, "s"),
        "trace.overhead": (twall / wall - 1.0, "ratio"),
        "trace.unattributed_share": (unattributed, "ratio"),
        "other.self_s": (tcpu * (total - sum(per.get(x, 0) for x in LAYERS)) / total, "s"),
    }
    for k, v in model.items():
        if k.startswith("model."):
            m[k] = (v, "s" if k.endswith("_s") else "GB" if k.endswith("_gb")
                    else "MB/s" if k.endswith("_MBps") else "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny fleet sizes on the same code path (self-test)")
    ap.add_argument("--crash-first", metavar="SIGNAL",
                    help="the first experiment raises SIGNAL after set-up (self-test)")
    a = ap.parse_args()

    digest = source_digest()
    bdir, (exe, exe_traced) = build(digest)
    host_metadata(bdir, digest)
    args = ["--workload", a.workload, "--seed", str(a.seed)] + (["--tiny"] if a.tiny else [])
    say("workload=%s seed=%d seconds=%g trace=%d%s" % (a.workload, a.seed, a.seconds,
                                                       a.trace, " tiny" if a.tiny else ""))
    listing, why = harness(exe, args, 60)
    if listing is None:
        fail("cannot list the workload's experiments: " + why, 1)
    n = listing["experiments"]

    plain, traced = Tally("untraced"), Tally("traced")
    problems = []
    if a.trace == 0:
        repeat([(exe, plain)], args, n, a.seconds, MIN_PASSES, a.crash_first)
    else:
        # Untraced and traced passes alternate, so the tracing overhead is
        # measured under the same host conditions.
        repeat([(exe, plain), (exe_traced, traced)], args, n, a.seconds, 2, a.crash_first)
        problems += check_identical([traced], HISTORY_COUNTS, "traced")
        problems += check_identical([plain, traced], HISTORY_COUNTS | WRAPPER_COUNTS,
                                    "traced vs untraced")
        problems += traced.problems
    problems += check_identical([plain], HISTORY_COUNTS | WRAPPER_COUNTS, "untraced")
    problems += plain.problems

    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    for p in problems:
        say("CHECK FAILED: " + p)
    have = plain.measured() and (a.trace == 0 or traced.measured())
    metrics = {}
    if have:
        if not plain.whole or (a.trace == 1 and not traced.whole):
            say("no whole pass: the metrics cover only the experiments that finished")
        if a.trace == 0:
            metrics = end_to_end(plain.measured())
        else:
            metrics = per_layer(plain.measured(), traced.measured(), load_symbols(exe_traced))
    result = {
        "correct": bool(have) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if have else 1


if __name__ == "__main__":
    sys.exit(main())
