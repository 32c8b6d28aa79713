"""Run one maskfuse CLI command several times in one process, and print the wall
time, minor page faults and peak resident set of each pass as JSON.

    python3 tools/passstats.py --passes 15 -- synth --spec scenario.json --out-dir out

The package is imported from this checkout's ``src``. A pass is one
``maskfuse.cli.main(argv)`` call, its standard output discarded; one warm-up
pass runs first and is not reported. For each pass the output gives ``wall_s``,
``minflt`` (the pass's ``ru_minflt`` difference) and ``vmhwm_kib`` (the process's
``VmHWM`` from ``/proc/self/status`` after the pass; it never falls, so it grows
only on passes that raise the peak). Nothing is set or reset: the numbers are
read, never changed. A failed pass (nonzero exit) stops the run with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import maskfuse.cli  # noqa: E402


def vmhwm_kib() -> int:
    """This process's peak resident set so far, in KiB (Linux only)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def one_pass(argv: list[str]) -> dict:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = maskfuse.cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"pass exited with code {code}: {argv}")
    return {"wall_s": round(wall, 6),
            "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
            "vmhwm_kib": vmhwm_kib()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=10, help="reported passes (default 10)")
    parser.add_argument("argv", nargs="+", help="the CLI arguments, after --")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    one_pass(args.argv)
    passes = [one_pass(args.argv) for _ in range(args.passes)]
    print(json.dumps({
        "argv": args.argv,
        "module": maskfuse.cli.__file__,
        "passes": passes,
        "median": {key: statistics.median(p[key] for p in passes) for key in passes[0]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
