"""Build and write one workload's inputs; print the time it took as JSON.

Run as its own process so the timed region includes importing ``maskfuse``:

    python3 perfbench/setup_inputs.py --workload refine --seed 0 --dir DIR

The ``refine`` and ``ablate`` inputs are rendered by the package's own
``synth`` command from the workload's scenario; ``synth`` needs only the
scenario file.
"""

import argparse
import contextlib
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    from workloads import scenario

    spec = scenario(args.workload, args.seed)
    t0 = time.perf_counter()
    import maskfuse.cli

    os.makedirs(args.dir, exist_ok=True)
    spec_path = os.path.join(args.dir, "scenario.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    if args.workload != "synth":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = maskfuse.cli.main(["synth", "--spec", spec_path, "--out-dir", args.dir])
        if code != 0:
            return code
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "module": maskfuse.cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
