"""Binary mask primitives and the run-length codec.

A binary mask is a 2-D ``numpy`` bool array (``True`` = foreground). All
functions here are pure: inputs are never modified, so masks can be shared
freely across threads.

Run-length layout (the interchange form):

* row-major scan order (row 0 left to right, then row 1, ...),
* counts alternate background/foreground starting with background,
* the first count may be 0 (mask starts with foreground), every later
  count is >= 1, and the counts sum to ``height * width``.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RleFormatError, ShapeMismatchError

# A mask: 2-D numpy array of bool, True marks foreground pixels.
Mask = np.ndarray

# The mask budget: the most mask pixels, summed over every frame of every
# sequence, that one manifest may decode or one scenario may render (4 GiB as
# bools). A frame counts as at least MIN_FRAME_PIXELS, as beyond its pixels it
# costs about 600 bytes (array header, tuple slot, RLE object, JSON text), so
# a small input cannot ask for unbounded memory.
MAX_MASK_PIXELS = 2**32
MIN_FRAME_PIXELS = 1024


def require_mask_budget(sequences: int, frames: int, height: int, width: int,
                        error: type[Exception], prefix: str = "") -> None:
    """Raise ``error`` (its message starting with ``prefix``) unless ``sequences``
    sequences of ``frames`` frames of ``height`` x ``width`` fit the mask budget.
    Call it before decoding or rendering any of them."""
    if sequences * frames * max(height * width, MIN_FRAME_PIXELS) > MAX_MASK_PIXELS:
        raise error(f"{prefix}{sequences} sequence(s) of {frames} frames of {height}x{width} "
                    f"exceed the limit of {MAX_MASK_PIXELS} mask pixels, each frame "
                    f"counting as at least {MIN_FRAME_PIXELS}")


def is_int(value) -> bool:
    """True for an ``int`` or numpy integer that is not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(value, name: str, minimum: int, error: type[Exception] = ValueError) -> int:
    """``value`` as a plain ``int``; raise ``error`` unless it is an integer
    (:func:`is_int`) of at least ``minimum``."""
    if not is_int(value) or value < minimum:
        raise error(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def require_real(value, name: str, error: type[Exception] = ValueError) -> float:
    """``value`` as a plain ``float``; raise ``error`` unless it is a finite real, not a bool."""
    with contextlib.suppress(OverflowError):  # an int or fraction beyond the float range
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    raise error(f"{name} must be a finite real number, got {value!r}")


def make_mask(pixels) -> Mask:
    """Coerce ``pixels`` to a 2-D contiguous bool array, validating the shape."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got {arr.ndim} dimension(s)")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"mask dimensions must be at least 1x1, got {arr.shape}")
    if arr.dtype != np.bool_:
        arr = arr.astype(bool)
    return np.ascontiguousarray(arr)


def empty_mask(height: int, width: int) -> Mask:
    """All-background mask of the given dimensions."""
    return np.zeros((height, width), dtype=bool)


def require_same_shape(a: Mask, b: Mask) -> None:
    """Raise :class:`ShapeMismatchError` unless the two masks share dimensions."""
    if np.shape(a) != np.shape(b):
        raise ShapeMismatchError(f"mask shapes differ: {np.shape(a)} vs {np.shape(b)}")


def area(mask: Mask) -> int:
    """Number of foreground pixels."""
    return int(np.count_nonzero(mask))


def intersection_area(a: Mask, b: Mask) -> int:
    """Number of pixels foreground in both masks; symmetric in its arguments."""
    require_same_shape(a, b)
    return int(np.count_nonzero(np.logical_and(a, b)))


def union(masks) -> Mask:
    """Pixel-wise OR of the given masks; an empty list is a ``ValueError``."""
    mask_list = list(masks)
    if not mask_list:
        raise ValueError("union needs at least one mask")
    first = make_mask(mask_list[0])
    out = first.astype(bool, copy=True)
    for m in mask_list[1:]:
        require_same_shape(first, m)
        np.logical_or(out, m, out=out)
    return out


def erode(mask: Mask, steps: int = 1) -> Mask:
    """Erode ``steps`` times (an integer of at least 0) by the 4-neighbour cross.

    Each step keeps the foreground pixels whose four neighbours are all
    foreground, with everything beyond the image counting as background, so
    the image border is peeled too. This equals ``steps`` iterations of a
    cross-shaped binary erosion with background beyond the image, bit for bit.
    """
    steps = require_int(steps, "steps", 0)
    m = make_mask(mask)
    height, width = m.shape
    # No pixel is farther than (min(H, W) + 1) // 2 steps from the background
    # beyond the image, so every later step would erode an empty mask.
    for _ in range(min(steps, (min(height, width) + 1) // 2)):
        out = m.copy()
        flat, prev = out.reshape(-1), m.reshape(-1)
        # Row shifts of the flat array AND each pixel with the pixels above and
        # below it, single-pixel shifts with its left and right neighbours. The
        # latter wrap across rows only at the first and last columns, which,
        # like the first and last rows, are background after any step.
        flat[width:] &= prev[:-width]
        flat[:-width] &= prev[width:]
        flat[1:] &= prev[:-1]
        flat[:-1] &= prev[1:]
        out[[0, -1]] = False
        out[:, [0, -1]] = False
        m = out
    return m


def iou(a: Mask, b: Mask) -> float:
    """Jaccard index of two 2-D masks of the same shape.

    Returns 1.0 when both masks are empty: both sources agree there is no
    object, which is the usual convention for absent-object frames.
    """
    a, b = make_mask(a), make_mask(b)
    inter = intersection_area(a, b)
    union_px = area(a) + area(b) - inter
    if union_px == 0:
        return 1.0
    return inter / union_px


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded mask (see module docstring for the layout)."""

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            value = require_int(getattr(self, name), f"RLE {name}", 1, RleFormatError)
            object.__setattr__(self, name, value)
        counts = tuple(self.counts)
        if not counts:
            raise RleFormatError("RLE counts must not be empty")
        # Counts made by rle_encode or parsed from JSON are plain ints and pass
        # these three C-level checks; anything else takes the loop, which names
        # the first bad position and turns numpy integers into plain ints.
        if not (set(map(type, counts)) <= {int} and min(counts) >= 0
                and 0 not in counts[1:]):
            for pos, count in enumerate(counts):
                if not is_int(count):
                    raise RleFormatError(f"RLE count at position {pos} is not an integer: {count!r}")
                if count < 0:
                    raise RleFormatError(f"RLE count at position {pos} is negative: {count}")
                if count == 0 and pos > 0:
                    raise RleFormatError(f"RLE count at position {pos} is zero (only the leading count may be 0)")
            counts = tuple(map(int, counts))
        object.__setattr__(self, "counts", counts)
        total = sum(counts)
        expected = self.height * self.width
        if total != expected:
            raise RleFormatError(
                f"RLE counts sum to {total}, expected {expected} for a "
                f"{self.height}x{self.width} mask"
            )

    @classmethod
    def from_json_dict(cls, obj) -> "RleMask":
        """Parse the interchange JSON object, raising :class:`RleFormatError` if malformed."""
        if not isinstance(obj, dict):
            raise RleFormatError(f"RLE object must be a JSON object, got {type(obj).__name__}")
        for key in ("h", "w", "counts"):
            if key not in obj:
                raise RleFormatError(f"RLE object is missing key {key!r}")
        counts = obj["counts"]
        if not isinstance(counts, list):
            raise RleFormatError(f"RLE 'counts' must be a list, got {type(counts).__name__}")
        return cls(height=obj["h"], width=obj["w"], counts=tuple(counts))


def rle_encode(mask: Mask) -> RleMask:
    """Encode a mask in row-major background-first run-length form. Runs start
    where the band of rows from the first to the last holding foreground,
    padded with background, changes value; elsewhere all is background."""
    m = make_mask(mask)
    height, width = m.shape
    rows = np.flatnonzero(m.any(axis=1))
    top, bottom = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    band = np.concatenate(([False], m[top:bottom].ravel(), [False]))
    starts = np.flatnonzero(band[1:] != band[:-1])  # from the band's first pixel
    counts = np.diff(np.concatenate(([-top * width], starts, [(height - top) * width]))).tolist()
    if counts[-1] == 0:
        counts.pop()
    return RleMask(height=height, width=width, counts=tuple(counts))


def rle_decode(rle: RleMask) -> Mask:
    """Decode back to a dense bool mask; exact inverse of :func:`rle_encode`.
    The frame starts as zeros, and only the pixels from the first foreground
    pixel to the last are written."""
    counts = rle.counts
    # The frame is allocated before the band's temporaries. In the other order,
    # repeated refine passes in one process measured three times the page faults:
    # the freed heap was returned to the system after each pass and faulted in again.
    flat = np.zeros(rle.height * rle.width, dtype=bool)
    stop = len(counts) - len(counts) % 2  # drop a trailing background run
    runs = np.asarray(counts[1:stop], dtype=np.int64)
    values = np.zeros(runs.size, dtype=bool)
    values[::2] = True  # runs alternate foreground, background, ..., foreground
    band = np.repeat(values, runs)
    flat[counts[0]:counts[0] + band.size] = band
    return flat.reshape(rle.height, rle.width)
