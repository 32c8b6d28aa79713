"""Per-frame image export for eyeballing mask sequences.

Masks are written as binary (P5) PGM files, 0 for background and 255 for
foreground — viewable everywhere and trivially diffable. One file per
frame, named ``00001.pgm``, ``00002.pgm``, ... in frame order.
"""

from __future__ import annotations

import os

import numpy as np

from .manifest import staged_outputs
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
    frame order. The directory is created if needed. The files appear together
    once all are written; on any failure none does, every file already there
    is left as it was, and a directory this call created is removed
    (``manifest.staged_outputs``).
    """
    frames = MaskSequence(frames=sequence)
    paths = [os.path.join(out_dir, f"{index:05d}.pgm") for index in range(1, len(frames) + 1)]
    with staged_outputs(out_dir) as stage:
        for path, mask in zip(paths, frames):  # one decoded frame at a time
            write_pgm(stage(path), mask)
    return paths
