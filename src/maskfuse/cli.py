"""Command-line interface.

Subcommands:

* ``refine``  — fuse a coarse manifest with a masklet manifest.
* ``eval``    — score a predicted manifest against ground truth (J, F, J&F).
* ``synth``   — render a scenario JSON into gt/masklets/coarse manifests.
* ``ablate``  — evaluate the baseline plus one refinement run per window size.
* ``overlay`` — export a sequence manifest as per-frame PGM images.

Every failure, a usage error included, exits 1 after printing a one-line JSON
error object (``{"error": {"type": ..., "message": ...}}``) to stderr. Output
files are written atomically, and a failed run removes those it had written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import MaskFuseError, ScenarioError
from .manifest import (
    SEQUENCE_KINDS,
    load_manifest,
    masklet_manifest,
    read_json,
    removed_on_failure,
    save_manifest,
    sequence_manifest,
    write_json_atomic,
)
from .metrics import EvalResult, evaluate_sequence
from .overlay import export_overlay
from .refine import DEFAULT_TAU, DEFAULT_WINDOW, RefineConfig, gate, refine_video
from .synth import corruption_report, generate, scenario_from_dict

# Longest error message ``main`` prints whole: messages quote input values of any size.
MAX_ERROR_CHARS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error takes main's JSON error path, not exit 2
        raise ValueError(f"{self.prog}: {message}")


def _json(text: str):
    """A number option read as JSON, the grammar of manifests; RefineConfig checks it."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nested too deeply
        raise argparse.ArgumentTypeError(f"not JSON: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maskfuse",
        description="Temporal consistency refinement for video segmentation masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_refine = sub.add_parser("refine", help="refine a coarse manifest using tracked masklets")
    p_refine.add_argument("--coarse", required=True, help="coarse sequence manifest (JSON)")
    p_refine.add_argument("--tracked", required=True, help="masklet manifest (JSON)")
    p_refine.add_argument("--out", required=True, help="where to write the refined manifest")
    p_refine.add_argument("--window", type=_json, default=DEFAULT_WINDOW,
                          help=f"frames per voting window (default {DEFAULT_WINDOW})")
    p_refine.add_argument("--tau", type=_json, default=DEFAULT_TAU,
                          help=f"overlap-fraction threshold (default {DEFAULT_TAU})")
    p_refine.add_argument("--report", default=None,
                          help="optional path for the refinement trace JSON")

    p_eval = sub.add_parser("eval", help="score a prediction manifest against ground truth")
    p_eval.add_argument("--pred", required=True, help="predicted sequence manifest")
    p_eval.add_argument("--gt", required=True, help="ground-truth sequence manifest")
    p_eval.add_argument("--json-out", default=None,
                        help="optional path for the full result as JSON")

    p_synth = sub.add_parser("synth", help="render a synthetic scenario to manifests")
    p_synth.add_argument("--spec", required=True, help="scenario description (JSON)")
    p_synth.add_argument("--out-dir", required=True,
                         help="directory for gt/masklets/coarse/corruption JSON files")

    p_ablate = sub.add_parser("ablate", help="compare refinement across window sizes")
    p_ablate.add_argument("--coarse", required=True, help="coarse sequence manifest")
    p_ablate.add_argument("--tracked", required=True, help="masklet manifest")
    p_ablate.add_argument("--gt", required=True, help="ground-truth sequence manifest")
    p_ablate.add_argument("--windows", required=True,
                          type=lambda text: [_json(item) for item in text.split(",")],
                          help="comma-separated window sizes, e.g. 5,10,15,20")
    p_ablate.add_argument("--json-out", default=None,
                          help="optional path for the table as JSON")

    p_overlay = sub.add_parser("overlay", help="export a sequence manifest as PGM images")
    p_overlay.add_argument("--in", dest="in_path", required=True,
                           help="sequence manifest to render")
    p_overlay.add_argument("--out-dir", required=True, help="directory for the PGM files")

    return parser


def _cmd_refine(args) -> int:
    if args.report is not None and os.path.realpath(args.report) == os.path.realpath(args.out):
        raise ValueError(f"--report and --out name the same file: {args.out}")
    cfg = RefineConfig(window=args.window, tau=args.tau)
    coarse_manifest = load_manifest(args.coarse, kinds=SEQUENCE_KINDS)
    tracked = load_manifest(args.tracked, kinds=("masklets",)).data
    refined = refine_video(coarse_manifest.data, tracked, cfg)
    with removed_on_failure() as written:
        save_manifest(args.out, sequence_manifest(coarse_manifest.video_id, "refined", refined))
        written.append(args.out)
        if args.report is not None:
            write_json_atomic(args.report, {"video_id": coarse_manifest.video_id,
                                            **refined.report.to_json_dict()})
    print(f"refined {refined.num_frames} frames -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pred = load_manifest(args.pred, kinds=SEQUENCE_KINDS).data
    gt = load_manifest(args.gt, kinds=SEQUENCE_KINDS).data
    result = evaluate_sequence(pred, gt)
    if args.json_out is not None:
        write_json_atomic(args.json_out, result.to_json_dict())
    for label, value in result.summary().items():
        print(f"{label + ':':<4} {value:.2f}")
    return 0


def _cmd_synth(args) -> int:
    scenario = scenario_from_dict(read_json(args.spec, ScenarioError, ScenarioError))
    result = generate(scenario)
    outputs = {
        "gt.json": sequence_manifest(scenario.video_id, "gt", result.gt),
        "masklets.json": masklet_manifest(scenario.video_id, result.masklets),
        "coarse.json": sequence_manifest(scenario.video_id, "coarse", result.coarse),
    }
    with removed_on_failure(args.out_dir) as written:
        for name, manifest in outputs.items():
            path = os.path.join(args.out_dir, name)
            save_manifest(path, manifest)
            written.append(path)
        write_json_atomic(os.path.join(args.out_dir, "corruption.json"),
                          corruption_report(result, DEFAULT_WINDOW))
    for name in (*outputs, "corruption.json"):
        print(os.path.join(args.out_dir, name))
    return 0


def _cmd_ablate(args) -> int:
    configs = [RefineConfig(window=w) for w in args.windows]
    coarse = load_manifest(args.coarse, kinds=SEQUENCE_KINDS).data
    tracked = load_manifest(args.tracked, kinds=("masklets",)).data
    gt = load_manifest(args.gt, kinds=SEQUENCE_KINDS).data

    baseline = evaluate_sequence(coarse, gt)
    rows = [{"method": "baseline", "window": None, **baseline.summary()}]
    fractions = gate(coarse, tracked)
    # (J, F) per (frame, winner) key, which fixes the refined frame (RefineReport.winners).
    scores = {(t, ()): jf for t, jf in enumerate(zip(baseline.per_frame_j, baseline.per_frame_f))}
    for cfg in configs:
        refined = refine_video(coarse, tracked, cfg, fractions=fractions)
        keys = list(enumerate(refined.report.winners()))
        new = [t for t, key in enumerate(keys) if key not in scores]
        if new:
            fresh = evaluate_sequence([refined[t] for t in new], [gt[t] for t in new])
            scores.update(zip((keys[t] for t in new), zip(fresh.per_frame_j, fresh.per_frame_f)))
        j, f = zip(*(scores[key] for key in keys))
        rows.append({"method": "refined", "window": cfg.window, **EvalResult(j, f).summary()})

    if args.json_out is not None:
        write_json_atomic(args.json_out, rows)  # before the table, so a failed write prints none
    header = ("method", "window", "J", "F", "J&F")
    cells = [header, *((row["method"], "-" if row["window"] is None else str(row["window"]),
                        *(f"{row[key]:.2f}" for key in header[2:])) for row in rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for row in cells:
        cols = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        print("  ".join(cols).rstrip())
    return 0


def _cmd_overlay(args) -> int:
    sequence = load_manifest(args.in_path, kinds=SEQUENCE_KINDS).data
    paths = export_overlay(sequence, args.out_dir)
    print(f"wrote {len(paths)} frames to {args.out_dir}")
    return 0


_COMMANDS = {
    "refine": _cmd_refine,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "ablate": _cmd_ablate,
    "overlay": _cmd_overlay,
}


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # argparse's own message names only the top-level parser
            raise ValueError(f"maskfuse {args.command}: unrecognized arguments: {' '.join(extra)}")
        return _COMMANDS[args.command](args)
    except (MaskFuseError, ValueError, OSError) as exc:
        message = str(exc)
        if len(message) > MAX_ERROR_CHARS:
            cut = len(message) - MAX_ERROR_CHARS
            message = f"{message[:MAX_ERROR_CHARS]}... [{cut} more characters cut]"
        print(json.dumps({"error": {"type": type(exc).__name__, "message": message}}),
              file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
