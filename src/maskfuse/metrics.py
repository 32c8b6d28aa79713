"""Region and boundary quality measures for mask sequences.

``region_j`` is the Jaccard index of predicted vs ground-truth foreground.
``boundary_f`` is an F-measure on the masks' boundary pixels, where a
boundary pixel counts as matched when the other mask has a boundary pixel
within a small Chebyshev distance. The summary score averages the two.

The tolerance zone around a boundary (every pixel within Chebyshev
distance ``t``) is a (2t+1)-square dilation, computed one axis at a time:
the boundary is padded with ``t`` background pixels, a sliding (2t+1)-wide
OR along each axis is built from ceil(log2(2t+1)) in-place ORs of the
array with a shifted copy of itself (shifts 1, 2, 4, ... and then the
remainder), and the result is cropped back to the image. This equals
``t`` iterations of a 3x3 binary dilation with background beyond the
image, bit for bit.

``boundary_f`` works on the bounding box of ``pred | gt``, widened by one
pixel and clamped to the image; pixels outside it cannot change the score.
The crop is exact:

- every foreground pixel lies at least one pixel inside any crop edge that
  is not an image edge, so the 4-neighbour erosion, and with it both
  boundaries, are the same as on the full frame;
- a tolerance zone only has to be right at the other mask's boundary
  pixels, and every boundary pixel it grows from lies inside the crop;
- so the counts are the same integers, and precision, recall and F are the
  same floats.

The default tolerance is derived from the full frame, never from the crop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masks import Mask, erode, iou, make_mask, require_int, require_same_shape
from .refine import MaskSequence, require_aligned

region_j = iou

# Rows per step of the upward search for a mask's last foreground row.
ROW_BLOCK = 32


def default_boundary_tolerance(height: int, width: int) -> int:
    """Matching tolerance in pixels: 0.8% of the image diagonal, at least 1."""
    return max(1, int(round(0.008 * math.hypot(height, width))))


def mask_boundary(mask: Mask) -> Mask:
    """Foreground pixels with a 4-neighbour outside the foreground.

    Pixels on the image border count as boundary (everything beyond the
    image is background).
    """
    m = make_mask(mask)
    return m & ~erode(m)


def _chebyshev_zone(mask: Mask, radius: int) -> Mask:
    """Pixels within Chebyshev distance ``radius`` of a foreground pixel."""
    height, width = mask.shape
    # Any radius of at least max(H, W) - 1 reaches the whole image, so
    # clamping bounds the padding without changing the result.
    radius = min(radius, max(height, width))
    size = 2 * radius + 1
    zone = np.pad(mask, radius)
    flat = zone.reshape(-1)
    # Padded index i + radius is image index i, so a forward window of
    # ``size`` starting at i covers image rows/columns i - radius .. i + radius.
    # Shifting the flat view by whole rows ORs along columns; shifting it by
    # single pixels ORs along rows. A window that runs past the end of a row
    # starts at a column >= width, which the crop drops.
    for stride in (zone.shape[1], 1):
        covered = 1
        while covered < size:
            step = min(covered, size - covered)
            flat[:-step * stride] |= flat[step * stride:]
            covered += step
    return zone[:height, :width]


def _row_span(mask: Mask) -> tuple[int, int] | None:
    """The first row holding foreground and one past the last, or None for an
    empty mask. ``argmax`` stops at the first foreground pixel; the last row is
    searched for upward from the bottom, ``ROW_BLOCK`` rows at a time."""
    flat = mask.reshape(-1)
    first = int(flat.argmax())
    if not flat[first]:
        return None
    top, bottom = first // mask.shape[1], mask.shape[0]
    while not mask[max(bottom - ROW_BLOCK, top):bottom].any():  # stops at row top at the latest
        bottom -= ROW_BLOCK
    start = max(bottom - ROW_BLOCK, top)
    return top, start + int(np.flatnonzero(mask[start:bottom].any(axis=1))[-1]) + 1


def boundary_f(pred: Mask, gt: Mask, tolerance_px: int | None = None) -> float:
    """Boundary F-measure between a predicted and a ground-truth mask.

    Both boundaries empty -> 1.0; exactly one empty -> 0.0. Otherwise
    precision = fraction of predicted boundary pixels within
    ``tolerance_px`` (Chebyshev, an integer of at least 1) of the
    ground-truth boundary, recall the converse, and the result is their
    harmonic mean. The default tolerance comes from the frame dimensions
    (:func:`default_boundary_tolerance`). The work runs on the pair's
    bounding box; see the module docstring for why the result is the same.
    """
    require_same_shape(pred, gt)
    pred, gt = make_mask(pred), make_mask(gt)
    if tolerance_px is None:
        tolerance_px = default_boundary_tolerance(*pred.shape)
    tolerance_px = require_int(tolerance_px, "tolerance_px", 1)
    spans = [span for span in map(_row_span, (pred, gt)) if span]
    if not spans:
        return 1.0
    top, bottom = min(s[0] for s in spans), max(s[1] for s in spans)
    cols = np.flatnonzero(pred[top:bottom].any(axis=0) | gt[top:bottom].any(axis=0))
    box = (slice(max(top - 1, 0), bottom + 1),
           slice(max(cols[0] - 1, 0), cols[-1] + 2))
    pred_b = mask_boundary(pred[box])
    gt_b = mask_boundary(gt[box])
    n_pred = int(np.count_nonzero(pred_b))
    n_gt = int(np.count_nonzero(gt_b))
    if n_pred == 0 or n_gt == 0:
        return 0.0
    pred_zone = _chebyshev_zone(pred_b, tolerance_px)
    gt_zone = _chebyshev_zone(gt_b, tolerance_px)
    precision = int(np.count_nonzero(pred_b & gt_zone)) / n_pred
    recall = int(np.count_nonzero(gt_b & pred_zone)) / n_gt
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _percent(score: float) -> float:
    """A score in [0, 1] on the conventional 0-100 scale."""
    return score * 100.0


@dataclass(frozen=True)
class EvalResult:
    """Per-frame region J and boundary F of a sequence; the means derive from them.

    All values live in [0, 1]; ``summary`` and ``to_json_dict`` scale to the
    conventional 0-100 range.
    """

    per_frame_j: tuple[float, ...]
    per_frame_f: tuple[float, ...]

    def __post_init__(self) -> None:
        pj = tuple(float(v) for v in self.per_frame_j)
        pf = tuple(float(v) for v in self.per_frame_f)
        if not pj or len(pj) != len(pf):
            raise ValueError("per-frame score lists must be non-empty and equally long")
        for v in pj + pf:
            if not 0.0 <= v <= 1.0:  # NaN fails too
                raise ValueError(f"per-frame scores must lie in [0, 1], got {v}")
        object.__setattr__(self, "per_frame_j", pj)
        object.__setattr__(self, "per_frame_f", pf)

    @property
    def num_frames(self) -> int:
        return len(self.per_frame_j)

    @property
    def j_mean(self) -> float:
        return float(np.mean(self.per_frame_j))

    @property
    def f_mean(self) -> float:
        return float(np.mean(self.per_frame_f))

    @property
    def jf_mean(self) -> float:
        return (self.j_mean + self.f_mean) / 2.0

    def summary(self) -> dict[str, float]:
        """The sequence scores J, F and J&F on the 0-100 scale."""
        return {"J": _percent(self.j_mean), "F": _percent(self.f_mean),
                "J&F": _percent(self.jf_mean)}

    def to_json_dict(self) -> dict:
        return {
            **self.summary(),
            "per_frame": [
                [_percent(j), _percent(f)]
                for j, f in zip(self.per_frame_j, self.per_frame_f)
            ],
        }


def evaluate_sequence(pred, gt) -> EvalResult:
    """Score a predicted sequence against ground truth frame by frame.

    Accepts mask sequences, refined sequences, or plain iterables of masks
    (see :class:`MaskSequence`). The boundary tolerance is derived once from
    the frame dimensions.
    """
    pred = MaskSequence(frames=pred)
    gt = MaskSequence(frames=gt)
    require_aligned(pred, gt, "prediction", "ground truth")
    tolerance = default_boundary_tolerance(pred.height, pred.width)
    per_j = []
    per_f = []
    for p, g in zip(pred, gt):  # one decoded pair at a time
        per_j.append(region_j(p, g))
        per_f.append(boundary_f(p, g, tolerance))
    return EvalResult(per_j, per_f)
