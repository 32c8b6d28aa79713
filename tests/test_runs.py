"""The engine works on run-length counts; each result must equal what the dense
helpers and the oracles give for the decoded frames, bit for bit."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskfuse.manifest
import maskfuse.refine
import oracles
from maskfuse import (
    MaskletSet,
    MaskSequence,
    RefineConfig,
    RefinedSequence,
    load_manifest,
    masklet_manifest,
    refine_video,
    rle_encode,
    save_manifest,
    sequence_manifest,
    union,
)
from maskfuse.refine import gate, overlap_fraction, refine_window

SHAPES = [(1, 1), (1, 7), (6, 1), (4, 5), (48, 64)]


def special_frames(height: int, width: int, rng) -> list[np.ndarray]:
    """Empty, full, only the first pixel, only the last pixel, first and last,
    a noise mask (the most runs per pixel) and a band of rows."""
    def with_pixels(*flat):
        m = np.zeros(height * width, dtype=bool)
        m[list(flat)] = True
        return m.reshape(height, width)

    band = np.zeros((height, width), dtype=bool)
    band[height // 3:max(height // 3 + 1, 2 * height // 3), :] = True
    return [np.zeros((height, width), dtype=bool), np.ones((height, width), dtype=bool),
            with_pixels(0), with_pixels(-1), with_pixels(0, -1),
            rng.random((height, width)) < 0.5, band]


def scene(height: int, width: int, instances: int = 3):
    """A coarse sequence and ``instances`` tracks over the special frames, each
    shifted so that every kind of frame meets every other across the sequences."""
    kinds = special_frames(height, width, np.random.default_rng(height * 100 + width))
    frames = len(kinds) ** 2
    coarse = [kinds[t % len(kinds)] for t in range(frames)]
    tracks = [[kinds[(t // len(kinds) + i * t) % len(kinds)] for t in range(frames)]
              for i in range(instances)]
    return coarse, tracks


@pytest.mark.parametrize("height, width", SHAPES)
def test_gate_entries_are_the_dense_fractions_as_python_floats(height, width):
    coarse, tracks = scene(height, width)
    table = gate(MaskSequence(frames=coarse), MaskletSet(tracks=tracks))
    assert len(table) == len(coarse)
    for t, row in enumerate(table):
        assert all(type(f) is float for f in row)
        want = [overlap_fraction(track[t], coarse[t]) for track in tracks]
        assert list(row) == want
        assert list(row) == [oracles.overlap_fraction_grid(oracles.to_grid(track[t]),
                                                           oracles.to_grid(coarse[t]))
                             for track in tracks]


@pytest.mark.parametrize("height, width", SHAPES)
def test_rebuilt_counts_are_the_encoded_dense_union(height, width):
    coarse, tracks = scene(height, width)
    tracked = MaskletSet(tracks=tracks)
    n, start = len(tracks), 2  # a window that does not start at frame 0
    window = MaskSequence(frames=coarse[start:])
    for size in range(1, n + 1):
        for chosen in itertools.combinations(range(1, n + 1), size):
            # Fractions of 1.0 for the chosen instances and 0.0 for the rest force the vote.
            rows = [tuple(float(i in chosen) for i in range(1, n + 1))] * window.num_frames
            out, record = refine_window(window, tracked, RefineConfig(tau=0.5),
                                        fractions=rows, start=start)
            assert record.selected == chosen
            assert out.rles == tuple(rle_encode(union([tracks[i - 1][t] for i in chosen]))
                                     for t in range(start, len(coarse)))


def test_a_vote_for_nothing_passes_the_coarse_runs_through():
    coarse, tracks = scene(4, 5)
    window = MaskSequence(frames=coarse)
    rows = [(0.0,) * len(tracks)] * window.num_frames
    out, record = refine_window(window, MaskletSet(tracks=tracks), RefineConfig(),
                                fractions=rows)
    assert record.selected == () and out.rles is window.rles


@pytest.mark.parametrize("height, width", SHAPES)
def test_a_sequence_of_dense_frames_equals_one_of_their_runs(height, width):
    coarse, _ = scene(height, width)
    dense = MaskSequence(frames=coarse)
    runs = MaskSequence(frames=[rle_encode(f) for f in coarse])
    assert dense.equals(runs) and runs.equals(dense)
    assert dense.rles == runs.rles
    assert all(np.array_equal(a, b) for a, b in zip(runs, coarse))
    assert not dense.equals(MaskSequence(frames=coarse[::-1]))


def test_wrapping_a_sequence_encodes_and_decodes_nothing(tmp_path, monkeypatch):
    coarse, tracks = scene(4, 5)
    seq, tracked = MaskSequence(frames=coarse), MaskletSet(tracks=tracks)
    calls = []
    for module in (maskfuse.refine, maskfuse.manifest):
        for name in ("rle_encode", "rle_decode"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda arg, real=real, name=name: calls.append(name) or real(arg))
    refined = refine_video(seq, tracked, RefineConfig(window=4))
    wrapped = [MaskSequence(frames=seq), MaskSequence(frames=refined),
               RefinedSequence(frames=seq, report=refined.report),
               MaskletSet(tracks=[seq, refined]).tracks[1]]
    assert all(w.rles is s.rles for w, s in zip(wrapped, (seq, refined, seq, refined)))
    save_manifest(tmp_path / "refined.json", sequence_manifest("v", "refined", refined))
    save_manifest(tmp_path / "masklets.json", masklet_manifest("v", tracked))
    assert load_manifest(tmp_path / "refined.json").data.equals(refined)
    loaded = load_manifest(tmp_path / "masklets.json").data
    assert all(a.equals(b) for a, b in zip(loaded.tracks, tracked.tracks))
    assert calls == []


def test_dense_frames_are_encoded_once_and_decoded_on_access():
    coarse, _ = scene(4, 5)
    seq = MaskSequence(frames=coarse)
    assert seq[3] is not seq[3] and np.array_equal(seq[3], seq[3])
    assert np.array_equal(seq[-1], coarse[-1])
    assert all(np.array_equal(a, b) for a, b in zip(seq[2:5], coarse[2:5]))
    assert len(seq.frames) == len(coarse)


masks_2d = st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
    lambda hw: st.lists(st.lists(st.lists(st.booleans(), min_size=hw[1], max_size=hw[1]),
                                 min_size=hw[0], max_size=hw[0]),
                        min_size=4, max_size=4))


@given(masks_2d, st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_gate_and_rebuild_match_the_oracles_on_any_masks(grids, window):
    coarse, *instances = [np.array(g, dtype=bool) for g in grids]
    frames = [coarse, instances[0], coarse & instances[1]]
    tracks = [[instances[(i + t) % 3] for t in range(3)] for i in range(3)]
    refined = refine_video(MaskSequence(frames=frames), MaskletSet(tracks=tracks),
                           RefineConfig(window=window, tau=0.5))
    want_frames, want_traces = oracles.refine_naive(
        [oracles.to_grid(f) for f in frames],
        {i: [oracles.to_grid(f) for f in track] for i, track in enumerate(tracks, start=1)},
        window, 0.5)
    assert [f.tolist() for f in refined] == want_frames
    assert [w.selected for w in refined.report.windows] == [s for *_, s in want_traces]
    for w in refined.report.windows:
        for fr in w.frames:
            assert list(fr.fractions) == [
                oracles.overlap_fraction_grid(oracles.to_grid(track[fr.index]),
                                              oracles.to_grid(frames[fr.index]))
                for track in tracks]
