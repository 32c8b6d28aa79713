"""Run one workload's CLI passes in a process of their own; print a JSON summary.

    python3 perfbench/passes.py --workload refine --dir DIR --seconds 20 [--trace]

``DIR/inputs`` must hold the inputs ``setup_inputs.py`` wrote. A warm-up pass
writes into ``DIR/out_ref``, which the reference checks read afterwards;
each later pass writes into ``DIR/out_pass`` and its files must be
byte-identical to the warm-up's. Passes start until ``--seconds`` have gone
by, and the last one runs to its end.

Without ``--trace`` the process does nothing but the passes, so its peak
resident set is that of the passes. With ``--trace`` passes alternate
untraced and traced, one more pass runs under ``tracemalloc`` for per-layer
peak allocation, ``refine_video`` is timed with a worker per core, and the
spans are written to ``DIR/spans.jsonl``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter, process_time

import maskfuse.cli
from maskfuse.manifest import load_manifest
from maskfuse.refine import RefineConfig, refine_video

from workloads import ABLATE_WINDOWS, DEFAULT_WINDOW, output_names, pass_argv


def run_pass(argv: list[str]) -> dict:
    """One CLI invocation: wall and CPU seconds, and whether it succeeded."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = maskfuse.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    wall, cpu = perf_counter() - t0, process_time() - c0
    error_line = any(line.startswith('{"error"') for line in err.getvalue().splitlines())
    if code != 0 or error_line:
        sys.stderr.write(err.getvalue())
    return {"wall": wall, "cpu": cpu, "ok": code == 0 and not error_line}


def digest(directory: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def threads_time(workload: str, inputs: str) -> float:
    """Median over three runs of ``refine_video`` at one worker per core, summed
    over the window sizes one pass refines with; 0 for ``synth``."""
    if workload == "synth":
        return 0.0
    coarse = load_manifest(os.path.join(inputs, "coarse.json")).data
    tracked = load_manifest(os.path.join(inputs, "masklets.json")).data
    windows = ABLATE_WINDOWS if workload == "ablate" else (DEFAULT_WINDOW,)
    workers = len(os.sched_getaffinity(0))
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        for w in windows:
            refine_video(coarse, tracked, RefineConfig(window=w), workers=workers)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    inputs = os.path.join(args.dir, "inputs")
    ref_out = os.path.join(args.dir, "out_ref")
    pass_out = os.path.join(args.dir, "out_pass")
    os.makedirs(ref_out, exist_ok=True)
    os.makedirs(pass_out, exist_ok=True)
    names = output_names(args.workload)

    warmup = run_pass(pass_argv(args.workload, inputs, ref_out))
    reference = digest(ref_out, names)
    warmup["same"] = warmup["ok"] and len(reference) == len(names)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    def timed_pass(traced=None):
        if traced is not None:
            tracer.install(traced)
        try:
            record = run_pass(pass_argv(args.workload, inputs, pass_out))
        finally:
            if traced is not None:
                tracer.uninstall()
        record["same"] = digest(pass_out, names) == reference
        return record

    passes = []
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds or (args.trace and len(passes) < 2):
        k = len(passes)
        traced = k if args.trace and k % 2 == 1 else None
        record = timed_pass(traced)
        record["traced"] = traced is not None
        passes.append(record)

    result = {"warmup": warmup, "passes": passes,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        from tracer import pass_summary
        result["summaries"] = [pass_summary(tracer.spans, k, rec["wall"])
                               | {"wall": rec["wall"]}
                               for k, rec in enumerate(passes) if rec["traced"]]
        tracemalloc.start()
        tracer.memory = True
        try:
            memory_pass = timed_pass("memory")
        finally:
            tracemalloc.stop()
        memory_pass["traced"] = True
        result["memory_pass"] = memory_pass
        result["peaks"] = tracer.peaks
        result["threads_s"] = threads_time(args.workload, inputs)
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
