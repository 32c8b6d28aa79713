"""Spans around the calls into each ``maskfuse`` layer, recorded from outside.

The tracer rebinds the names the package's modules use to call one another
(``maskfuse.cli.load_manifest``, ``maskfuse.refine.overlap_fraction``, ...)
to wrappers that record a span, and restores them afterwards. The package
itself is not changed. Only calls on the thread that installed the tracer
are recorded, so a thread pool inside ``refine_video`` cannot tangle the
span tree.

A span is ``[name, start, end, parent, pass_id, counts]``; ``parent`` is the
index of the enclosing span in the same list, or -1 for a call made directly
by the CLI.
"""

from __future__ import annotations

import json
import os
import threading
import tracemalloc
import types
from time import perf_counter

import numpy as np

import maskfuse.cli
import maskfuse.manifest
import maskfuse.masks
import maskfuse.metrics
import maskfuse.refine

LAYERS = ("manifest", "masks", "refine", "metrics", "synth")

# Spans whose tracemalloc peak is taken in the memory pass. None of them nests
# inside another, so resetting the peak at their start is safe.
PEAK_SPANS = {"manifest.load": "manifest.load_peak_alloc_mb",
              "refine.refine_video": "refine.peak_alloc_mb",
              "metrics.evaluate": "metrics.peak_alloc_mb"}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _frames(args, kwargs, result):
    return {"frames": args[0].num_frames}


def _rendered(args, kwargs, result):
    return {"masks": result.masklets.num_frames * result.masklets.num_instances}


def _runs(args, kwargs, result):
    return {"runs": len(args[0].counts)}


def _window(args, kwargs, result):
    return {"frames": len(args[0]), "fallback": int(not result[1].selected)}


def _boundary_px(args, kwargs, result):
    return {"px": int(np.count_nonzero(result))}


# (module, attribute, span name, counter). The cli-level bindings are the layer
# entry points; the rest are the calls those entry points make inside a layer.
BINDINGS = (
    (maskfuse.cli, "load_manifest", "manifest.load", _file_bytes),
    (maskfuse.cli, "save_manifest", "manifest.save", _file_bytes),
    (maskfuse.cli, "write_json_atomic", "manifest.write_json", _file_bytes),
    (maskfuse.cli, "sequence_manifest", "manifest.wrap", None),
    (maskfuse.cli, "masklet_manifest", "manifest.wrap", None),
    (maskfuse.cli, "refine_video", "refine.refine_video", _frames),
    (maskfuse.cli, "evaluate_sequence", "metrics.evaluate", None),
    (maskfuse.cli, "scenario_from_dict", "synth.scenario", None),
    (maskfuse.cli, "generate", "synth.generate", _rendered),
    (maskfuse.cli, "corruption_report", "synth.corruption_report", None),
    (maskfuse.manifest, "write_json_atomic", "manifest.write_json", None),
    (maskfuse.manifest, "rle_decode", "masks.rle_decode", _runs),
    (maskfuse.manifest, "rle_encode", "masks.rle_encode", None),
    (maskfuse.refine, "refine_window", "refine.window", _window),
    (maskfuse.refine, "overlap_fraction", "refine.gate", None),
    (maskfuse.refine, "select_combination", "refine.vote", None),
    (maskfuse.refine, "union", "refine.rebuild", None),
    (maskfuse.metrics, "region_j", "metrics.region_j", None),
    (maskfuse.metrics, "boundary_f", "metrics.boundary_f", None),
    (maskfuse.metrics, "mask_boundary", "metrics.mask_boundary", _boundary_px),
)


class Tracer:
    """Records spans for the passes it is installed around."""

    def __init__(self):
        self.spans: list[list] = []
        self.peaks: dict[str, float] = {}
        self.memory = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pass_id = None
        self._thread = None

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self._pass_id, None]
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            peak_key = PEAK_SPANS.get(name) if self.memory else None
            if peak_key:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if peak_key:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[peak_key] = max(self.peaks.get(peak_key, 0.0), peak)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result
        return traced

    def install(self, pass_id) -> None:
        """Rebind every traced name; spans recorded from now on carry ``pass_id``."""
        self._pass_id = pass_id
        self._thread = threading.get_ident()
        for module, attr, name, counter in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        rle_cls = maskfuse.masks.RleMask
        validate = rle_cls.from_json_dict
        self._saved.append((rle_cls, "from_json_dict", rle_cls.__dict__["from_json_dict"]))
        rle_cls.from_json_dict = staticmethod(self._wrap(validate, "masks.rle_validate", None))
        report_cls = maskfuse.refine.RefineReport
        self._saved.append((report_cls, "to_json_dict", report_cls.to_json_dict))
        report_cls.to_json_dict = self._wrap(report_cls.to_json_dict, "refine.report", None)
        json_mod = maskfuse.manifest.json
        self._saved.append((maskfuse.manifest, "json", json_mod))
        maskfuse.manifest.json = types.SimpleNamespace(
            load=self._wrap(json_mod.load, "manifest.json_parse", None),
            dumps=self._wrap(json_mod.dumps, "manifest.json_dump", None),
            JSONDecodeError=json_mod.JSONDecodeError,
        )

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._pass_id = None

    def write(self, path: str) -> None:
        """All spans as JSON lines, one per span."""
        keys = ("name", "start", "end", "parent", "pass", "counts")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def pass_summary(spans: list[list], pass_id, wall: float) -> dict[str, float]:
    """Per-layer totals for one traced pass.

    Self time of a span is its duration minus that of its direct children;
    ``cli.self_s`` is the pass wall time minus the time covered by the spans
    the CLI opened itself. Also returns ``trace.nesting_ok`` (1.0 when every
    span lies inside its parent and siblings do not overlap) and
    ``trace.accounted_s``, the sum of all self times, which equals ``wall``
    when the tree is well formed.
    """
    ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
    child_time = {i: 0.0 for i in ids}
    top = 0.0
    nesting_ok = True
    last_end: dict[int, float] = {}
    for i in ids:
        name, start, end, parent, _, _ = spans[i]
        nesting_ok &= end >= start and start >= last_end.get(parent, -1e300)
        last_end[parent] = end
        if parent < 0:
            top += end - start
        else:
            p = spans[parent]
            nesting_ok &= p[1] <= start and end <= p[2]
            child_time[parent] += end - start

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    save_s = 0.0
    for i in ids:
        name, start, end, parent, _, extra = spans[i]
        dur = end - start
        out[name.split(".")[0] + ".self_s"] += dur - child_time[i]
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name in ("manifest.save", "manifest.write_json") and (
                parent < 0 or spans[parent][0] != "manifest.save"):
            save_s += dur
    out["cli.self_s"] = wall - top
    out["trace.accounted_s"] = out["cli.self_s"] + sum(out[f"{l}.self_s"] for l in LAYERS)
    out["trace.nesting_ok"] = float(nesting_ok)

    def t(name):
        return totals.get(name, 0.0)

    out.update({
        "manifest.load_s": t("manifest.load"),
        "manifest.load_calls": calls.get("manifest.load", 0),
        "manifest.load_bytes": counts.get("manifest.load.bytes", 0),
        "manifest.json_parse_s": t("manifest.json_parse"),
        "manifest.save_s": save_s,
        "manifest.save_bytes": counts.get("manifest.save.bytes", 0)
        + counts.get("manifest.write_json.bytes", 0),
        "masks.rle_validate_s": t("masks.rle_validate"),
        "masks.rle_decode_s": t("masks.rle_decode"),
        "masks.rle_decode_masks": calls.get("masks.rle_decode", 0),
        "masks.rle_runs": counts.get("masks.rle_decode.runs", 0),
        "masks.rle_encode_s": t("masks.rle_encode"),
        "masks.rle_encode_masks": calls.get("masks.rle_encode", 0),
        "refine.refine_video_s": t("refine.refine_video"),
        "refine.frames": counts.get("refine.refine_video.frames", 0),
        "refine.windows": calls.get("refine.window", 0),
        "refine.instance_frames": calls.get("refine.gate", 0),
        "refine.fallback_windows": counts.get("refine.window.fallback", 0),
        "refine.gate_s": t("refine.gate"),
        "refine.vote_s": t("refine.vote"),
        "refine.rebuild_s": t("refine.rebuild"),
        "refine.report_s": t("refine.report"),
        "metrics.evaluate_s": t("metrics.evaluate"),
        "metrics.region_j_s": t("metrics.region_j"),
        "metrics.boundary_f_s": t("metrics.boundary_f"),
        "metrics.mask_boundary_s": t("metrics.mask_boundary"),
        "metrics.frame_pairs": calls.get("metrics.boundary_f", 0),
        "metrics.boundary_px": counts.get("metrics.mask_boundary.px", 0),
        "synth.generate_s": t("synth.generate"),
        "synth.masks_rendered": counts.get("synth.generate.masks", 0),
    })
    return out
