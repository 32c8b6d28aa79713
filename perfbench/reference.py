"""Output checks made apart from the package.

Nothing here imports ``maskfuse``: every mask is read with the decoder
below, and gate, vote, rebuild, J, F and the scene rendering are recomputed
with plain numpy (and one scipy distance transform), following the
behaviour documented in the package's README. Each ``check_*`` function
returns a list of ``(name, ok, detail)`` triples, one per check; the
orchestrator counts each as one operation.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from itertools import accumulate

import numpy as np
from scipy.ndimage import distance_transform_cdt

from workloads import ABLATE_WINDOWS, DEFAULT_TAU, DEFAULT_WINDOW, FRAMES


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read(path: str):
    with open(path) as handle:
        return json.load(handle)


def rle_ok(rle: dict, height: int, width: int) -> bool:
    """The documented RLE invariants, with dimensions matching the header."""
    counts = rle["counts"]
    return (rle["h"] == height and rle["w"] == width and len(counts) > 0
            and counts[0] >= 0 and all(c >= 1 for c in counts[1:])
            and sum(counts) == height * width)


def decode(rle: dict) -> np.ndarray:
    """Dense bool mask from background-first row-major run lengths."""
    ends = list(accumulate(rle["counts"]))
    flat = np.zeros(rle["h"] * rle["w"], dtype=bool)
    for start, stop in zip(ends[0::2], ends[1::2]):  # foreground runs
        flat[start:stop] = True
    return flat.reshape(rle["h"], rle["w"])


def _rle_entries(manifest: dict):
    if manifest["kind"] == "masklets":
        for frames in manifest["instances"].values():
            yield from frames
    else:
        yield from manifest["frames"]


def _frames(manifest: dict) -> list[np.ndarray]:
    return [decode(r) for r in manifest["frames"]]


def _tracks(manifest: dict) -> list[list[np.ndarray]]:
    n = len(manifest["instances"])
    return [[decode(r) for r in manifest["instances"][str(i)]] for i in range(1, n + 1)]


def _run(name: str, fn) -> tuple[str, bool, str]:
    try:
        fn()
    except CheckFailed as exc:
        return name, False, str(exc)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, True, ""


def _check_rle(manifests: dict[str, dict], height: int, width: int) -> None:
    for name, manifest in manifests.items():
        _require((manifest["height"], manifest["width"]) == (height, width),
                 f"{name}: header is {manifest['height']}x{manifest['width']}")
        for k, rle in enumerate(_rle_entries(manifest)):
            _require(rle_ok(rle, height, width), f"{name}: RLE entry {k} breaks the invariants")


# -- gate, vote, rebuild -------------------------------------------------------------------

def reference_refine(coarse: list[np.ndarray], tracks: list[list[np.ndarray]],
                     window: int, tau: float = DEFAULT_TAU):
    """Refined frames plus, per window, (start, stop, selected, combos, fractions)."""
    frames_out: list[np.ndarray] = []
    windows = []
    for s in range(0, len(coarse), window):
        e = min(s + window, len(coarse))
        combos, fractions = [], []
        for t in range(s, e):
            fr = []
            for track in tracks:
                px = int(np.count_nonzero(track[t]))
                fr.append(int(np.count_nonzero(track[t] & coarse[t])) / px if px else 0.0)
            fractions.append(fr)
            combos.append(tuple(i + 1 for i, f in enumerate(fr) if f > tau))
        votes = Counter(combos)  # keeps first-seen order, so ties go to the earliest
        best = max(votes.values())
        selected = next(c for c, n in votes.items() if n == best)
        for t in range(s, e):
            if selected:
                frames_out.append(np.logical_or.reduce([tracks[i - 1][t] for i in selected]))
            else:
                frames_out.append(coarse[t])
        windows.append((s, e, selected, combos, fractions))
    return frames_out, windows


# -- J and F -------------------------------------------------------------------------------

def boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a 4-neighbour outside the mask (image border included)."""
    p = np.pad(mask, 1)
    inner = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return mask & ~inner


def tolerance(height: int, width: int) -> int:
    return max(1, int(round(0.008 * math.hypot(height, width))))


class Scorer:
    """Per-frame J and F against one ground truth, caching distance maps by frame bytes."""

    def __init__(self, gt: list[np.ndarray]):
        self.gt = gt
        self.tol = tolerance(*gt[0].shape)
        self.gt_b = [boundary(g) for g in gt]
        self.gt_near = [self._near(b) for b in self.gt_b]
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray | None]] = {}

    def _near(self, b: np.ndarray) -> np.ndarray | None:
        """Pixels within ``tol`` (chessboard) of a boundary pixel; None if no boundary."""
        if not b.any():
            return None
        return distance_transform_cdt(~b, metric="chessboard") <= self.tol

    def j(self, pred: np.ndarray, t: int) -> float:
        inter = int(np.count_nonzero(pred & self.gt[t]))
        union = int(np.count_nonzero(pred | self.gt[t]))
        return 1.0 if union == 0 else inter / union

    def f(self, pred: np.ndarray, t: int) -> float:
        key = pred.tobytes()
        if key not in self._cache:
            b = boundary(pred)
            self._cache[key] = (b, self._near(b))
        pb, p_near = self._cache[key]
        gb, g_near = self.gt_b[t], self.gt_near[t]
        n_p, n_g = int(np.count_nonzero(pb)), int(np.count_nonzero(gb))
        if n_p == 0 and n_g == 0:
            return 1.0
        if n_p == 0 or n_g == 0:
            return 0.0
        precision = int(np.count_nonzero(pb & g_near)) / n_p
        recall = int(np.count_nonzero(gb & p_near)) / n_g
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def score(self, frames: list[np.ndarray]) -> tuple[float, float]:
        """Mean J and mean F over the sequence, in [0, 1]."""
        js = [self.j(p, t) for t, p in enumerate(frames)]
        fs = [self.f(p, t) for t, p in enumerate(frames)]
        return float(np.mean(js)), float(np.mean(fs))


# -- scene rendering -----------------------------------------------------------------------

def rasterise(inst: dict, t: int, height: int, width: int) -> np.ndarray:
    """One rect or disk at frame ``t``, clipped at the image border."""
    row = inst["start"][0] + t * inst["velocity"][0]
    col = inst["start"][1] + t * inst["velocity"][1]
    out = np.zeros((height, width), dtype=bool)
    if inst["kind"] == "rect":
        sh, sw = inst["size"]
        out[max(0, row):max(0, row + sh), max(0, col):max(0, col + sw)] = True
        return out
    r = inst["radius"]
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    stencil = dy * dy + dx * dx <= r * r
    r0, c0 = row - r, col - r
    y0, x0 = max(0, r0), max(0, c0)
    y1, x1 = min(height, r0 + 2 * r + 1), min(width, c0 + 2 * r + 1)
    if y0 < y1 and x0 < x1:
        out[y0:y1, x0:x1] = stencil[y0 - r0:y1 - r0, x0 - c0:x1 - c0]
    return out


def erode(mask: np.ndarray, steps: int) -> np.ndarray:
    """4-neighbour erosion with background beyond the border, ``steps`` times."""
    for _ in range(steps):
        mask = boundary(mask) ^ mask
    return mask


def corruption_events(spec: dict) -> tuple[set, set]:
    """Drops and adds (0-based frame, instance): forced ones plus the seeded draws.

    Replays the documented stream: one PCG64 uniform per (frame, target) pair,
    then one per (frame, non-target) pair, both in frame-then-instance order.
    """
    c = spec["corruption"]
    n = len(spec["instances"])
    target = sorted(set(spec["target"]))
    others = [i for i in range(1, n + 1) if i not in target]
    rng = np.random.default_rng(spec["seed"])
    drops = {(e["frame"] - 1, e["instance"]) for e in c["forced_drops"]}
    adds = {(e["frame"] - 1, e["instance"]) for e in c["forced_adds"]}
    for t in range(spec["frames"]):
        for i in target:
            if rng.random() < c["flicker_drop_prob"]:
                drops.add((t, i))
    for t in range(spec["frames"]):
        for i in others:
            if rng.random() < c["spurious_add_prob"]:
                adds.add((t, i))
    return drops, adds


# -- per-workload checks -------------------------------------------------------------------

def check_refine(spec: dict, inputs: str, out: str) -> list[tuple[str, bool, str]]:
    coarse_m = _read(os.path.join(inputs, "coarse.json"))
    tracks_m = _read(os.path.join(inputs, "masklets.json"))
    gt_m = _read(os.path.join(inputs, "gt.json"))
    refined_m = _read(os.path.join(out, "refined.json"))
    report = _read(os.path.join(out, "report.json"))
    H, W = spec["height"], spec["width"]
    state = {}

    def rle():
        _check_rle({"coarse": coarse_m, "masklets": tracks_m, "gt": gt_m,
                    "refined": refined_m}, H, W)

    def engine():
        _require(refined_m["kind"] == "refined"
                 and refined_m["num_frames"] == FRAMES["refine"], "refined header")
        coarse, tracks = _frames(coarse_m), _tracks(tracks_m)
        frames, windows = reference_refine(coarse, tracks, DEFAULT_WINDOW)
        state["windows"] = windows
        _require(len(report["windows"]) == len(windows), "report window count")
        for (s, e, selected, combos, fractions), rw in zip(windows, report["windows"]):
            where = f"window {s + 1}-{e}"
            _require((rw["first_frame"], rw["last_frame"]) == (s + 1, e), f"{where}: span")
            _require(tuple(rw["selected"]) == selected,
                     f"{where}: selected {rw['selected']}, reference {list(selected)}")
            for k, fr in enumerate(rw["frames"]):
                _require(fr["frame"] == s + k + 1 and tuple(fr["combination"]) == combos[k]
                         and fr["fractions"] == fractions[k], f"{where}: frame {s + k + 1}")
        for t, (rle_t, ref) in enumerate(zip(refined_m["frames"], frames)):
            _require(np.array_equal(decode(rle_t), ref), f"refined frame {t + 1} differs")

    def recovery():
        _require("windows" in state, "engine check did not complete")
        target = tuple(sorted(spec["target"]))
        for s, e, selected, _, _ in state["windows"]:
            if selected == target:
                for t in range(s, e):
                    _require(np.array_equal(decode(refined_m["frames"][t]),
                                            decode(gt_m["frames"][t])),
                             f"frame {t + 1}: target won its window but refined != gt")
        _require(any(not sel for _, _, sel, _, _ in state["windows"]),
                 "no window fell back to the coarse frames")

    return [_run("refine.rle_invariants", rle),
            _run("refine.gate_vote_rebuild", engine),
            _run("refine.target_windows_equal_gt", recovery)]


def check_ablate(spec: dict, inputs: str, out: str) -> list[tuple[str, bool, str]]:
    coarse_m = _read(os.path.join(inputs, "coarse.json"))
    tracks_m = _read(os.path.join(inputs, "masklets.json"))
    gt_m = _read(os.path.join(inputs, "gt.json"))
    rows = _read(os.path.join(out, "table.json"))
    H, W = spec["height"], spec["width"]
    state = {}

    def rle():
        _check_rle({"coarse": coarse_m, "masklets": tracks_m, "gt": gt_m}, H, W)

    def table():
        coarse, tracks = _frames(coarse_m), _tracks(tracks_m)
        scorer = Scorer(_frames(gt_m))
        expect = [("baseline", None, coarse, None)]
        for w in ABLATE_WINDOWS:
            frames, windows = reference_refine(coarse, tracks, w)
            expect.append(("refined", w, frames, windows))
        _require(len(rows) == len(expect), f"{len(rows)} rows, expected {len(expect)}")
        checked = []
        for row, (method, w, frames, windows) in zip(rows, expect):
            _require((row["method"], row["window"]) == (method, w),
                     f"row {row['method']}/{row['window']}, expected {method}/{w}")
            j, f = scorer.score(frames)
            for key, ref in (("J", j * 100.0), ("F", f * 100.0), ("J&F", (j + f) * 50.0)):
                _require(abs(row[key] - ref) <= 1e-9,
                         f"{method}/{w}: {key} {row[key]!r}, reference {ref!r}")
            checked.append((row, windows))
        state["rows"] = checked

    def not_below_baseline():
        # Where every window voted the target or nothing, each refined frame is the
        # ground truth or the coarse frame itself, so no row can score below baseline.
        _require("rows" in state, "table check did not complete")
        target = tuple(sorted(spec["target"]))
        base = state["rows"][0][0]["J&F"]
        for row, windows in state["rows"][1:]:
            if all(sel in (target, ()) for _, _, sel, _, _ in windows):
                _require(row["J&F"] >= base,
                         f"window {row['window']}: J&F {row['J&F']} below baseline {base}")

    return [_run("ablate.rle_invariants", rle),
            _run("ablate.rows_match_reference", table),
            _run("ablate.refined_not_below_baseline", not_below_baseline)]


def check_synth(spec: dict, inputs: str, out: str) -> list[tuple[str, bool, str]]:
    m = {name: _read(os.path.join(out, f"{name}.json")) for name in ("gt", "masklets", "coarse")}
    report = _read(os.path.join(out, "corruption.json"))
    T, H, W = spec["frames"], spec["height"], spec["width"]
    n = len(spec["instances"])
    target = sorted(set(spec["target"]))
    drops, adds = corruption_events(spec)
    state = {}

    def rle():
        _check_rle(m, H, W)
        for name, manifest in m.items():
            _require(manifest["num_frames"] == T, f"{name}: num_frames")

    def events():
        _require([(d["frame"] - 1, d["instance"]) for d in report["drops"]] == sorted(drops),
                 "drops differ from the replayed draws")
        _require([(a["frame"] - 1, a["instance"]) for a in report["adds"]] == sorted(adds),
                 "adds differ from the replayed draws")

    def frames():
        corrupted = []
        k = spec["corruption"]["boundary_erosion_px"]
        for t in range(T):
            shapes = [rasterise(inst, t, H, W) for inst in spec["instances"]]
            for i in range(n):
                _require(np.array_equal(decode(m["masklets"]["instances"][str(i + 1)][t]),
                                        shapes[i]), f"instance {i + 1} frame {t + 1}")
            gt = np.zeros((H, W), dtype=bool)
            coarse = np.zeros((H, W), dtype=bool)
            for i in range(1, n + 1):
                if i in target:
                    gt |= shapes[i - 1]
                    if (t, i) not in drops:
                        coarse |= shapes[i - 1]
                elif (t, i) in adds:
                    coarse |= shapes[i - 1]
            coarse = erode(coarse, k)
            _require(np.array_equal(decode(m["gt"]["frames"][t]), gt), f"gt frame {t + 1}")
            _require(np.array_equal(decode(m["coarse"]["frames"][t]), coarse),
                     f"coarse frame {t + 1}")
            if not np.array_equal(coarse, gt):
                corrupted.append(t + 1)
        state["corrupted"] = corrupted

    def summary():
        _require("corrupted" in state, "frame check did not complete")
        corrupted = state["corrupted"]
        _require(report["corrupted_frames"] == corrupted, "corrupted_frames differ")
        expect = []
        for s in range(0, T, DEFAULT_WINDOW):
            e = min(s + DEFAULT_WINDOW, T)
            hit = sum(1 for f in corrupted if s < f <= e)
            expect.append({"first_frame": s + 1, "last_frame": e, "corrupted": hit,
                           "strict_minority": 2 * hit < e - s})
        _require(report["windows"] == expect, "per-window corruption counts differ")

    return [_run("synth.rle_invariants", rle),
            _run("synth.corruption_draws", events),
            _run("synth.rasterised_frames", frames),
            _run("synth.corruption_report", summary)]


CHECKS = {"refine": check_refine, "ablate": check_ablate, "synth": check_synth}
