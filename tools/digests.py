"""Hash every CLI output of the benchmark scenes, to show that a change leaves
the outputs byte-identical.

    python3 tools/digests.py --seeds 0,7,9001 --json-out digests.json
    python3 tools/digests.py --compare parent.json change.json

For each seed and each workload of ``perfbench/workloads.py``, the scene's
scenario is written by ``perfbench/setup_inputs.py``. The package of this
checkout's ``src`` then runs, each command in a fresh interpreter and from the
scene's directory with relative paths (so that standard output does not
depend on where the scene lives): ``synth``, ``refine --report``, ``eval
--json-out`` of the refined and of the coarse frames against the ground
truth, and ``ablate --windows 5,10,15,20 --json-out``. Every output file and
every command's standard output gets one sha256. ``--compare`` prints the
digests that differ or exist on one side only, and exits 1 if there are any.
Building the three 480x854 scenes takes seconds per seed, so this is not a
unit test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# (name, argv, output files); paths are relative to the scene's directory.
COMMANDS = (
    ("synth", ["synth", "--spec", "scenario.json", "--out-dir", "out"],
     ("out/gt.json", "out/masklets.json", "out/coarse.json", "out/corruption.json")),
    ("refine", ["refine", "--coarse", "out/coarse.json", "--tracked", "out/masklets.json",
                "--out", "refined.json", "--report", "report.json"],
     ("refined.json", "report.json")),
    ("eval-refined", ["eval", "--pred", "refined.json", "--gt", "out/gt.json",
                      "--json-out", "eval-refined.json"], ("eval-refined.json",)),
    ("eval-coarse", ["eval", "--pred", "out/coarse.json", "--gt", "out/gt.json",
                     "--json-out", "eval-coarse.json"], ("eval-coarse.json",)),
    ("ablate", ["ablate", "--coarse", "out/coarse.json", "--tracked", "out/masklets.json",
                "--gt", "out/gt.json", "--windows", "5,10,15,20", "--json-out", "ablate.json"],
     ("ablate.json",)),
)


def run(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH))))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)


def scene_digests(workload: str, seed: int, directory: str) -> dict[str, str]:
    """``{"<workload>/<seed>/<output>": sha256}`` for one scene."""
    setup = run([str(BENCH / "setup_inputs.py"), "--workload", workload, "--seed", str(seed),
                 "--dir", directory], directory)
    if setup.returncode != 0:
        raise SystemExit(f"setup_inputs.py failed for {workload} seed {seed}:\n"
                         f"{setup.stderr.decode()}")
    out = {}
    for name, argv, files in COMMANDS:
        proc = run(["-m", "maskfuse.cli", *argv], directory)
        if proc.returncode != 0:
            raise SystemExit(f"maskfuse {name} failed for {workload} seed {seed}:\n"
                             f"{proc.stderr.decode()}")
        out[f"{workload}/{seed}/{name}.stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        for path in files:
            data = Path(directory, path).read_bytes()
            out[f"{workload}/{seed}/{path}"] = hashlib.sha256(data).hexdigest()
    return out


def compare(parent: dict, change: dict) -> list[str]:
    """One line per digest that differs or exists on one side only."""
    return [f"{key}: {parent.get(key, '(missing)')} -> {change.get(key, '(missing)')}"
            for key in sorted(parent.keys() | change.keys()) if parent.get(key) != change.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    parser.add_argument("--json-out", help="write the digests here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --json-out files; exit 1 if any digest differs")
    args = parser.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(Path(path).read_text()) for path in args.compare)
        lines = compare(parent, change)
        print("\n".join(lines) if lines else f"all {len(parent)} digests match")
        return 1 if lines else 0
    digests = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as directory:
                digests.update(scene_digests(workload, seed, directory))
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.json_out:
        Path(args.json_out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
