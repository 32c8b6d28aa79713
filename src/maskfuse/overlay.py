"""Per-frame image export for eyeballing mask sequences.

Masks are written as binary (P5) PGM files, 0 for background and 255 for
foreground — viewable everywhere and trivially diffable. One file per
frame, named ``00001.pgm``, ``00002.pgm``, ... in frame order.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .masks import Mask, make_mask
from .refine import MaskSequence


def write_pgm(path, mask: Mask) -> None:
    """Write one mask as a binary PGM file."""
    m = make_mask(mask)
    height, width = m.shape
    raster = np.where(m, np.uint8(255), np.uint8(0))
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(raster.tobytes())


def export_overlay(sequence, out_dir) -> list[str]:
    """Write every frame of a sequence as a PGM under ``out_dir``.

    Accepts mask sequences, refined results, or a plain iterable of masks
    (see :class:`MaskSequence`); ragged or non-2-D input raises
    ``ValueError`` before anything is written. Returns the written paths in
    frame order. The directory is created if needed. On any failure the
    frames this call wrote are removed, and the directory too if this call
    created it, before the exception propagates with the offending path.
    """
    frames = MaskSequence(frames=sequence).frames
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    try:
        for index, mask in enumerate(frames, start=1):
            path = os.path.join(out_dir, f"{index:05d}.pgm")
            # Listed before writing, so a frame that fails halfway is removed too.
            paths.append(path)
            write_pgm(path, mask)
    except BaseException:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)
        raise
    return paths
