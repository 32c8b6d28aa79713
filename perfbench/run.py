"""End-to-end and per-layer benchmark of the ``maskfuse`` CLI.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --json-out results.json
    python3 perfbench/run.py --compare parent.json change.json

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory and nowhere else. One run of a workload:

1. builds and writes the workload's inputs in a fresh process, three times
   (once when tracing), timing import plus build as ``setup_s``;
2. runs the CLI passes in another fresh process (``passes.py``): one warm-up
   pass, then passes for ``--seconds``;
3. checks the warm-up pass's outputs against ``reference.py``, which never
   imports the package, and every later pass's outputs for byte identity
   with the warm-up's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. An operation is one
pass or one output check; it fails on a nonzero exit, a JSON error line on
stderr or a failed check. Scratch files go to ``.perfbench_work/`` in the
checkout; ``--json-out`` adds the run, with every sample, to a JSON file
that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import FRAMES, WORKLOADS, scenario  # noqa: E402

# Metric names and units, as the benchmark declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(script: str, *args: str, timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object plus the samples behind it."""
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    inputs = wdir / "inputs"
    ops: list[tuple[str, bool, str]] = []

    setup_s, input_digests = [], []
    for _ in range(1 if trace else SETUP_RUNS):
        out = run_child("setup_inputs.py", "--workload", workload, "--seed", str(seed),
                        "--dir", str(inputs), timeout=120)
        if not Path(out["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"maskfuse was imported from {out['module']}, not from {SRC}")
        setup_s.append(out["setup_s"])
        input_digests.append(digest_dir(inputs))
    ops.append(("setup.inputs_identical", len(set(input_digests)) == 1, ""))

    res = run_child("passes.py", "--workload", workload, "--dir", str(wdir),
                    "--seconds", str(seconds), *(["--trace"] if trace else []),
                    timeout=seconds + 150)
    runs = [res["warmup"], *res["passes"], *([res["memory_pass"]] if trace else [])]
    for k, rec in enumerate(runs):
        ops.append((f"pass.{k}.exit", rec["ok"], ""))
        ops.append((f"pass.{k}.output_identical", rec["same"], ""))
    if res["warmup"]["ok"]:
        ops += reference.CHECKS[workload](scenario(workload, seed), str(inputs),
                                          str(wdir / "out_ref"))
    else:
        ops.append((f"{workload}.reference", False, "warm-up pass failed"))

    timed = [p for p in res["passes"] if not p.get("traced")]
    frames = FRAMES[workload]
    samples = {"pass_wall_s": [p["wall"] for p in timed],
               "pass_cpu_s": [p["cpu"] for p in timed],
               "setup_s": setup_s}
    if trace:
        summaries = res["summaries"]
        for k, s in enumerate(summaries):
            ok = bool(s["trace.nesting_ok"]) and abs(s["trace.accounted_s"] - s["wall"]) < 1e-6
            ops.append((f"trace.{k}.spans_account_for_wall", ok, ""))
        skip = {"wall", "trace.accounted_s", "trace.nesting_ok"}
        metrics = {name: statistics.median(s[name] for s in summaries)
                   for name in summaries[0] if name not in skip}
        metrics["refine.refine_video_threads_s"] = res["threads_s"]
        for key in ("manifest.load_peak_alloc_mb", "refine.peak_alloc_mb",
                    "metrics.peak_alloc_mb"):
            metrics[key] = res["peaks"].get(key, 0.0)
        # Passes alternate untraced, traced; compare each traced pass with the
        # untraced one just before it, so slow spells of the machine cancel.
        walls = [p["wall"] for p in res["passes"]]
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(
            walls[k + 1] / walls[k] for k in range(0, len(walls) - 1, 2)) - 1.0)
        samples["traced_wall_s"] = [s["wall"] for s in summaries]
    else:
        metrics = {
            "frames_per_s": statistics.median(frames / w for w in samples["pass_wall_s"]),
            "cpu_ms_per_frame": statistics.median(
                1000.0 * c / frames for c in samples["pass_cpu_s"]),
            "peak_rss_mb": res["maxrss_mb"],
            "setup_s": statistics.median(setup_s),
        }

    failed = [op for op in ops if not op[1]]
    checks_ok = all(ok for name, ok, _ in ops if not name.endswith(".exit"))
    for name, _, detail in failed:
        print(f"FAILED {workload} {name} {detail}".rstrip(), file=sys.stderr)
    return {
        "result": {
            "correct": checks_ok,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in SPEC["per_layer" if trace else "end_to_end"]},
        },
        "samples": samples,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ops],
    }


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def print_human(workload: str, run: dict) -> None:
    res = run["result"]
    n = len(run["samples"]["pass_wall_s"])
    print(f"== {workload}: {res['attempted']} operations attempted, {res['failed']} failed, "
          f"outputs {'correct' if res['correct'] else 'WRONG'}; {n} timed passes "
          f"({FRAMES[workload]} frames each), {len(run['samples']['setup_s'])} set-ups")
    for name, m in res["metrics"].items():
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")


def append_json(path: str, record: dict) -> None:
    data = {"runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data["runs"].append(record)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long passes are started for (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="add this run, with its samples, to a JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --json-out files instead of running")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if not (SRC / "maskfuse" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'maskfuse'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            started = time.time()
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            results[workload] = run["result"]
            print_human(workload, run)
            if args.json_out:
                append_json(args.json_out, {
                    "workload": workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "started": started, "environment": environment(),
                    **run})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
