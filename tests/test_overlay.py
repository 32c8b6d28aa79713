import os
from pathlib import Path

import numpy as np
import pytest

import maskfuse.overlay
from conftest import SEQUENCE_FORMS, mask_from_rows, rand_mask, sequence_as
from maskfuse import MaskSequence, export_overlay
from maskfuse.overlay import write_pgm


def pgm_bytes(mask) -> bytes:
    """The P5 layout: header, then one byte per pixel, 255 foreground and 0 background."""
    height, width = mask.shape
    return f"P5\n{width} {height}\n255\n".encode() + bytes(255 if v else 0 for v in mask.flat)


def test_export_names_files_by_frame_number(tmp_path):
    seq = MaskSequence(frames=tuple(np.zeros((2, 2), dtype=bool) for _ in range(3)))
    paths = export_overlay(seq, tmp_path)
    assert [os.path.basename(p) for p in paths] == ["00001.pgm", "00002.pgm", "00003.pgm"]
    assert sorted(os.listdir(tmp_path)) == ["00001.pgm", "00002.pgm", "00003.pgm"]


def test_all_false_frame_writes_zero_raster(tmp_path):
    path = tmp_path / "zero.pgm"
    write_pgm(path, np.zeros((3, 5), dtype=bool))
    payload = path.read_bytes()
    header = b"P5\n5 3\n255\n"
    assert payload.startswith(header)
    assert payload[len(header):] == b"\x00" * 15


def test_foreground_is_255(tmp_path):
    path = tmp_path / "one.pgm"
    write_pgm(path, mask_from_rows("#.", ".#"))
    raster = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
    assert raster == bytes([255, 0, 0, 255])


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    for i in range(25):
        h, w = rng.integers(1, 20, size=2)
        m = rand_mask(rng, h, w, p=rng.choice([0.0, 0.4, 1.0]))
        path = tmp_path / f"{i}.pgm"
        write_pgm(path, m)
        assert path.read_bytes() == pgm_bytes(m)


def test_export_accepts_plain_iterables(tmp_path):
    frames = [mask_from_rows("#"), mask_from_rows(".")]
    paths = export_overlay(frames, tmp_path / "sub")
    assert len(paths) == 2
    assert [Path(p).read_bytes() for p in paths] == [pgm_bytes(m) for m in frames]


@pytest.mark.parametrize("form", SEQUENCE_FORMS)
def test_export_writes_every_sequence_form_alike(tmp_path, form):
    rng = np.random.default_rng(12)
    frames = [rand_mask(rng, 4, 6) for _ in range(3)]
    reference = export_overlay(MaskSequence(frames=frames), tmp_path / "ref")
    paths = export_overlay(sequence_as(form, frames), tmp_path / form)
    assert [os.path.basename(p) for p in paths] == [os.path.basename(p) for p in reference]
    for path, ref in zip(paths, reference):
        with open(path, "rb") as got, open(ref, "rb") as want:
            assert got.read() == want.read()


@pytest.mark.parametrize("frames", [
    [np.zeros((2, 2), dtype=bool), np.zeros((3, 2), dtype=bool)],
    [np.zeros((2, 2), dtype=bool), np.zeros(4, dtype=bool)],
])
def test_export_rejects_ragged_input_before_writing(tmp_path, frames):
    out_dir = tmp_path / "frames"
    with pytest.raises(ValueError):
        export_overlay(frames, out_dir)
    assert not out_dir.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_failed_export_removes_what_it_wrote(tmp_path, monkeypatch, existing):
    out_dir = tmp_path / "frames"
    if existing:
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("keep")
    real_write = maskfuse.overlay.write_pgm
    calls = []

    def write_pgm(path, mask):
        calls.append(path)
        if len(calls) == 3:
            with open(path, "wb") as handle:
                handle.write(b"P5\n")
            raise OSError(f"disk full: {path}")
        real_write(path, mask)

    monkeypatch.setattr(maskfuse.overlay, "write_pgm", write_pgm)
    frames = [np.ones((2, 3), dtype=bool)] * 5
    with pytest.raises(OSError, match="disk full"):
        export_overlay(frames, out_dir)
    assert len(calls) == 3
    if existing:
        assert os.listdir(out_dir) == ["notes.txt"]
    else:
        assert not out_dir.exists()


def test_failed_export_leaves_existing_frames_as_they_were(tmp_path, monkeypatch):
    # A frame file from an earlier export used to be overwritten, then removed.
    out_dir = tmp_path / "frames"
    out_dir.mkdir()
    (out_dir / "00001.pgm").write_bytes(b"old")
    real_write = maskfuse.overlay.write_pgm
    calls = []

    def write_pgm(path, mask):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write(path, mask)

    monkeypatch.setattr(maskfuse.overlay, "write_pgm", write_pgm)
    with pytest.raises(OSError, match="disk full"):
        export_overlay([np.ones((2, 3), dtype=bool)] * 3, out_dir)
    assert os.listdir(out_dir) == ["00001.pgm"]
    assert (out_dir / "00001.pgm").read_bytes() == b"old"
