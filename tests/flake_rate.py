"""Tier-1 flake rate: run the suite N times beside K busy loops, count failures.

    python tests/flake_rate.py --runs 10 --busy 2
    python tests/flake_rate.py --runs 3 --busy 1 tests/obs

Each run is one ``pytest`` process over the whole suite (or the paths
given), without ``-x``, so every failing test of a run is seen.  Beside
it, ``--busy`` processes spin a pure-Python loop for the whole
measurement — the load that turns a timing-dependent assert into a
failure.  Exactly that many are started, once, and all are stopped
before the report.  The report gives each run's outcome and duration,
then every node id that failed or errored, with the number of runs it
failed in, most frequent first.  The exit code is 1 if any run failed.

The file name keeps pytest from collecting it: it matches neither
``test_*.py`` nor ``*_test.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUSY_LOOP = "while True:\n    pass\n"


def run_once(paths: list[str], env: dict) -> tuple[int, float, list[str]]:
    """One suite run: its exit code, its duration, and the node ids its
    short summary names as failed or errored."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *paths],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    took = time.monotonic() - t0
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1) and not failed:  # interrupted, a usage error, or the process died
        failed = [f"<pytest exited {proc.returncode}>"]
    return proc.returncode, took, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", "-n", type=int, default=10, help="suite runs (default 10)")
    ap.add_argument("--busy", "-k", type=int, default=2, help="busy-loop processes beside them (default 2)")
    ap.add_argument("paths", nargs="*", default=["tests"], help="what to run (default: tests)")
    args = ap.parse_args(argv)
    if args.runs < 1 or not 0 <= args.busy <= (os.cpu_count() or 1) * 2:
        ap.error(f"--runs must be >= 1 and --busy between 0 and twice the CPU count, got {args.runs}, {args.busy}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    counts: Counter = Counter()
    codes = []
    busy = []
    try:
        for _ in range(args.busy):
            busy.append(subprocess.Popen([sys.executable, "-c", BUSY_LOOP]))
        for i in range(args.runs):
            code, took, failed = run_once(args.paths, env)
            counts.update(set(failed))
            codes.append(code)
            print(f"run {i + 1}/{args.runs}: exit {code}, {took:.0f} s, {len(failed)} failed", flush=True)
    finally:
        for proc in busy:
            proc.kill()
        for proc in busy:
            proc.wait()

    red = sum(1 for code in codes if code != 0)
    print(f"\n{red} of {args.runs} runs failed, with {args.busy} busy loops beside them")
    if counts:
        width = max(len(node) for node in counts)
        print(f"{'node id':<{width}}  failed runs")
        for node, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{node:<{width}}  {n}/{args.runs}")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
