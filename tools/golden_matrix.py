#!/usr/bin/env python3
"""Run the golden sweep matrix and gate every run with check_sweep_golden.py.

The matrix is data: tests/golden/matrix.json lists one entry per gated run,
{name, binary, args, env, golden, flags, tier1}. Each entry runs
<build-dir>/bench/<binary> <args...> with <env> added to the environment,
writes its stdout to <out>/<name>.json, and is diffed against
tests/golden/<golden> by tools/check_sweep_golden.py <flags...>. A run that
exits non-zero (an error row or an audit violation) fails its entry too.

Usage: golden_matrix.py --build-dir DIR [--tier1] [--out DIR]
  --tier1   only the entries marked tier1 (the fast subset ctest runs)
  --out     where the fresh sweep JSONs go (default: a temporary directory)
Two sweeps run at a time. Exit status 0 iff every selected entry ran cleanly
and matched its golden.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
CHECKER = os.path.join(HERE, "check_sweep_golden.py")
CONCURRENCY = 2  # sweep processes at a time


def run_entry(entry, build_dir, out_dir):
    """Run one sweep and its golden check; returns (ok, report lines)."""
    exe = os.path.join(build_dir, "bench", entry["binary"])
    fresh = os.path.join(out_dir, entry["name"] + ".json")
    env = dict(os.environ)
    # The solver regime comes from the entry alone.
    env.pop("ABLATE_INCREMENTAL", None)
    env.update(entry["env"])
    start = time.monotonic()
    with open(fresh, "w") as out:
        sweep = subprocess.run([exe] + entry["args"], stdout=out,
                               stderr=subprocess.PIPE, env=env, text=True)
    took = time.monotonic() - start
    lines = [f"== {entry['name']} ({took:.2f} s)"]
    if sweep.returncode != 0:
        lines.append(f"FAIL: {entry['binary']} exited {sweep.returncode}")
        lines.extend(sweep.stderr.strip().splitlines()[-10:])
        return False, lines
    check = subprocess.run(
        [sys.executable, CHECKER] + entry["flags"] +
        [os.path.join(GOLDEN_DIR, entry["golden"]), fresh],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines.extend(check.stdout.strip().splitlines())
    return check.returncode == 0, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--out")
    opts = ap.parse_args()

    with open(os.path.join(GOLDEN_DIR, "matrix.json")) as f:
        matrix = json.load(f)
    entries = [e for e in matrix if not opts.tier1 or e["tier1"]]

    tmp = None
    out_dir = opts.out
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="golden-matrix-")
        out_dir = tmp.name
    os.makedirs(out_dir, exist_ok=True)
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        results = list(pool.map(lambda e: run_entry(e, opts.build_dir, out_dir), entries))
    failed = [e["name"] for e, (ok, _) in zip(entries, results) if not ok]
    for _, lines in results:
        print("\n".join(lines))
    if tmp is not None:
        tmp.cleanup()
    print(f"{len(entries) - len(failed)}/{len(entries)} golden runs match")
    if failed:
        print("FAILED: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
