import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from conftest import SEQUENCE_FORMS, mask_from_rows, rand_mask, sequence_as
from maskfuse import (
    AlignmentError,
    EvalResult,
    MaskSequence,
    boundary_f,
    default_boundary_tolerance,
    empty_mask,
    evaluate_sequence,
    iou,
    region_j,
)
from maskfuse.metrics import _chebyshev_zone, mask_boundary


def dilation_zone(mask, tolerance):
    """Reference tolerance zone: ``tolerance`` iterations of a 3x3 binary dilation."""
    return ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool),
                                   iterations=tolerance)


def dilation_boundary_f(pred, gt, tolerance):
    """Reference boundary F built on :func:`dilation_zone`."""
    pred_b, gt_b = mask_boundary(pred), mask_boundary(gt)
    n_pred, n_gt = int(pred_b.sum()), int(gt_b.sum())
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    precision = int((pred_b & dilation_zone(gt_b, tolerance)).sum()) / n_pred
    recall = int((gt_b & dilation_zone(pred_b, tolerance)).sum()) / n_gt
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_region_j_is_plain_iou():
    assert region_j is iou


def test_mask_boundary_ring():
    m = np.ones((3, 3), dtype=bool)
    expected = mask_from_rows("###", "#.#", "###")
    assert np.array_equal(mask_boundary(m), expected)


def test_mask_boundary_counts_image_border_as_background():
    # a full single row touches the border everywhere -> all boundary
    m = np.ones((1, 4), dtype=bool)
    assert np.array_equal(mask_boundary(m), m)
    big = np.ones((4, 4), dtype=bool)
    expected = mask_from_rows("####", "#..#", "#..#", "####")
    assert np.array_equal(mask_boundary(big), expected)


def test_mask_boundary_of_empty_is_empty():
    assert not mask_boundary(empty_mask(5, 5)).any()


def test_mask_boundary_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        h, w = rng.integers(1, 14, size=2)
        m = rand_mask(rng, h, w, p=rng.choice([0.3, 0.5, 0.7]))
        want = np.array(oracles.boundary_grid(oracles.to_grid(m)), dtype=bool).reshape(h, w)
        assert np.array_equal(mask_boundary(m), want)


def test_default_boundary_tolerance():
    assert default_boundary_tolerance(480, 854) == 8
    assert default_boundary_tolerance(16, 16) == 1  # floor of 1 for tiny frames
    assert default_boundary_tolerance(1080, 1920) == 18


def test_boundary_f_conventions():
    assert boundary_f(empty_mask(8, 8), empty_mask(8, 8)) == 1.0
    assert boundary_f(empty_mask(8, 8), np.ones((8, 8), dtype=bool)) == 0.0
    assert boundary_f(np.ones((8, 8), dtype=bool), empty_mask(8, 8)) == 0.0
    m = mask_from_rows("....", ".##.", "....")
    assert boundary_f(m, m) == 1.0


def test_boundary_f_tolerance_window():
    a = np.zeros((9, 9), dtype=bool)
    b = np.zeros((9, 9), dtype=bool)
    a[2, :] = True
    b[5, :] = True  # parallel lines 3 rows apart
    assert boundary_f(a, b, tolerance_px=3) == 1.0
    assert boundary_f(a, b, tolerance_px=2) == 0.0


def test_boundary_f_rejects_tolerance_below_one():
    with pytest.raises(ValueError):
        boundary_f(empty_mask(2, 2), empty_mask(2, 2), tolerance_px=-1)
    with pytest.raises(ValueError):
        boundary_f(empty_mask(2, 2), empty_mask(2, 2), tolerance_px=0)


@pytest.mark.parametrize("tolerance", [2.5, True, float("nan"), "3", 3.0])
def test_boundary_f_rejects_a_tolerance_that_is_not_an_integer(tolerance):
    m = mask_from_rows("....", ".##.", "....")
    with pytest.raises(ValueError, match=f"tolerance_px must be an integer.*got {tolerance!r}"):
        boundary_f(m, m, tolerance)


def test_boundary_f_rejects_masks_that_are_not_2d_before_deriving_a_tolerance():
    # The default tolerance used to be derived from a 3-D shape first, which
    # raised a TypeError about default_boundary_tolerance's arguments.
    cube = np.ones((2, 2, 2), dtype=bool)
    for tolerance in (None, 2):
        with pytest.raises(ValueError, match="mask must be 2-D"):
            boundary_f(cube, cube, tolerance)


def test_boundary_f_accepts_numpy_integer_tolerances():
    a = np.zeros((9, 9), dtype=bool)
    b = np.zeros((9, 9), dtype=bool)
    a[2, 1:8] = True
    b[4, 1:8] = True
    for tolerance in (np.int64(2), np.int32(2), np.uint8(2)):
        assert boundary_f(a, b, tolerance) == boundary_f(a, b, 2) == 1.0
    assert boundary_f(a, b, np.int16(1)) == 0.0
    with pytest.raises(ValueError, match="at least 1"):
        boundary_f(a, b, np.int64(0))


def test_boundary_f_matches_oracle_exactly():
    rng = np.random.default_rng(37)
    for _ in range(100):
        h, w = rng.integers(1, 14, size=2)
        pred = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        gt = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        tol = int(rng.integers(1, 4))
        got = boundary_f(pred, gt, tolerance_px=tol)
        want = oracles.boundary_f_naive(oracles.to_grid(pred), oracles.to_grid(gt), tol)
        assert got == want


@pytest.mark.parametrize("tolerance", [4, 5, 6])
def test_boundary_f_matches_oracle_at_wider_tolerances(tolerance):
    rng = np.random.default_rng(60 + tolerance)
    for _ in range(60):
        h, w = rng.integers(1, 25, size=2)
        pred = rand_mask(rng, h, w, p=rng.choice([0.05, 0.3, 0.7]))
        gt = rand_mask(rng, h, w, p=rng.choice([0.05, 0.3, 0.7]))
        got = boundary_f(pred, gt, tolerance_px=tolerance)
        want = oracles.boundary_f_naive(oracles.to_grid(pred), oracles.to_grid(gt), tolerance)
        assert got == want


# 2t+1 is one more than a power of two for t = 1, 2, 4, 8, 16 (the last
# shifted OR has step 1) and is not for the other tolerances.
@pytest.mark.parametrize("tolerance", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17])
def test_chebyshev_zone_matches_iterated_dilation(tolerance):
    rng = np.random.default_rng(70 + tolerance)
    for _ in range(40):
        h, w = rng.integers(1, 3 * tolerance + 5, size=2)
        m = rand_mask(rng, h, w, p=rng.choice([0.005, 0.05, 0.3]))
        assert np.array_equal(_chebyshev_zone(m, tolerance), dilation_zone(m, tolerance))


def test_chebyshev_zone_on_thin_and_edge_touching_frames():
    rng = np.random.default_rng(79)
    masks = []
    for n in (1, 2, 7, 40):
        masks += [rand_mask(rng, 1, n, p=0.1), rand_mask(rng, n, 1, p=0.1)]
    ring = np.ones((9, 13), dtype=bool)
    ring[1:-1, 1:-1] = False
    corners = empty_mask(9, 13)
    corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    masks += [ring, corners, np.ones((5, 6), dtype=bool), empty_mask(5, 6)]
    for m in masks:
        longest = max(m.shape)
        # up to and past max(H, W), where the zone is the whole frame
        for tolerance in (1, 2, 3, longest - 1, longest, longest + 1, 4 * longest):
            if tolerance < 1:
                continue
            assert np.array_equal(_chebyshev_zone(m, tolerance), dilation_zone(m, tolerance))


@pytest.mark.parametrize("tolerance", [8, 18])
def test_boundary_f_full_size_frames_match_iterated_dilation(tolerance):
    rng = np.random.default_rng(tolerance)
    rows, cols = np.mgrid[:480, :854]
    disk = (rows - 240) ** 2 + (cols - 400) ** 2 < 150 ** 2
    edge_touching = (rows < 40) | (rows >= 460) | (cols < 30) | (cols >= 830)
    speckle = rand_mask(rng, 480, 854, p=0.002)
    shifted = np.roll(disk, (5, tolerance + 1), axis=(0, 1))
    masks = [disk, edge_touching | shifted, speckle, disk ^ speckle]
    for m in masks:
        b = mask_boundary(m)
        assert np.array_equal(_chebyshev_zone(b, tolerance), dilation_zone(b, tolerance))
    for pred, gt in zip(masks, masks[1:] + masks[:1]):
        assert (boundary_f(pred, gt, tolerance_px=tolerance)
                == dilation_boundary_f(pred, gt, tolerance))
    assert boundary_f(disk, shifted, tolerance_px=tolerance) < 1.0


def _place(patch, shape, row, col):
    """``patch`` drawn into an empty frame of ``shape`` with its corner at (row, col)."""
    frame = np.zeros(shape, dtype=bool)
    frame[row:row + patch.shape[0], col:col + patch.shape[1]] = patch
    return frame


def _edge_pair(rng, height, width):
    """A pred/gt pair whose union has foreground on all four edges of its
    height x width box, so that the box ``boundary_f`` crops to is exactly
    wherever the pair is placed."""
    pred = rand_mask(rng, height, width, p=0.4)
    gt = rand_mask(rng, height, width, p=0.4)
    pred[0, rng.integers(width)] = pred[rng.integers(height), 0] = True
    gt[-1, rng.integers(width)] = gt[rng.integers(height), -1] = True
    return pred, gt


def _placements(frame_h, frame_w, h, w):
    """Corner positions that put an h x w box against each image edge, one
    pixel from each edge, and in the middle."""
    mid_r, mid_c = (frame_h - h) // 2, (frame_w - w) // 2
    return {
        "touches-top": (0, mid_c), "touches-bottom": (frame_h - h, mid_c),
        "touches-left": (mid_r, 0), "touches-right": (mid_r, frame_w - w),
        "touches-top-left-corner": (0, 0),
        "touches-bottom-right-corner": (frame_h - h, frame_w - w),
        "one-from-top": (1, mid_c), "one-from-bottom": (frame_h - h - 1, mid_c),
        "one-from-left": (mid_r, 1), "one-from-right": (mid_r, frame_w - w - 1),
        "middle": (mid_r, mid_c),
    }


def _assert_matches_references(pred, gt, tolerance):
    got = boundary_f(pred, gt, tolerance_px=tolerance)
    assert got == dilation_boundary_f(pred, gt, tolerance)
    assert got == oracles.boundary_f_naive(oracles.to_grid(pred), oracles.to_grid(gt), tolerance)
    return got


@pytest.mark.parametrize("frame", [(24, 24), (24, 11), (9, 24)])
def test_boundary_f_on_a_box_inside_the_frame_matches_full_frame_references(frame):
    # The pair fills a small box; every crop edge that is not an image edge
    # is a real crop edge. Tolerances run past the crop's size.
    rng = np.random.default_rng(sum(frame))
    for h, w in ((5, 7), (7, 5), (2, 3), (6, 6)):
        pred, gt = _edge_pair(rng, h, w)
        for row, col in _placements(*frame, h, w).values():
            p, g = _place(pred, frame, row, col), _place(gt, frame, row, col)
            for tolerance in (1, 2, 3, max(h, w) + 2, 30):
                _assert_matches_references(p, g, tolerance)


@pytest.mark.parametrize("frame", [(1, 20), (20, 1), (1, 1), (2, 17)])
def test_boundary_f_on_thin_frames_matches_full_frame_references(frame):
    rng = np.random.default_rng(frame[1] * 31 + frame[0])
    for _ in range(25):
        pred = rand_mask(rng, *frame, p=rng.choice([0.1, 0.3]))
        gt = rand_mask(rng, *frame, p=rng.choice([0.1, 0.3]))
        for tolerance in (1, 2, 5, 25):
            _assert_matches_references(pred, gt, tolerance)
    # A short run at each end, one pixel from each end, and in the middle of
    # a 1xN or Nx1 frame.
    along = max(frame)
    if min(frame) > 1 or along < 5:
        return
    pred, gt = mask_from_rows("##."), mask_from_rows(".##")
    if frame[0] > 1:
        pred, gt = pred.T, gt.T
    for start in (0, 1, along // 2 - 1, along - 4, along - 3):
        row, col = (0, start) if frame[0] == 1 else (start, 0)
        for tolerance in (1, 3):
            _assert_matches_references(_place(pred, frame, row, col),
                                       _place(gt, frame, row, col), tolerance)


def test_boundary_f_with_one_or_both_masks_empty_in_a_larger_frame():
    rng = np.random.default_rng(83)
    pred, _ = _edge_pair(rng, 4, 5)
    empty = empty_mask(24, 24)
    for row, col in _placements(24, 24, 4, 5).values():
        p = _place(pred, (24, 24), row, col)
        assert _assert_matches_references(p, empty, 2) == 0.0
        assert _assert_matches_references(empty, p, 2) == 0.0
    assert _assert_matches_references(empty, empty, 2) == 1.0
    assert boundary_f(empty_mask(480, 854), empty_mask(480, 854)) == 1.0


def test_boundary_f_is_the_same_wherever_the_pair_sits():
    # The pair scored alone (the crop is the whole image) and at several
    # offsets in a larger empty canvas, against an edge or well inside it.
    pred = mask_from_rows(
        "..###..",
        ".#####.",
        "#######",
        ".#####.",
        "...#...",
    )
    gt = mask_from_rows(
        ".......",
        "....###",
        "...####",
        "..#####",
        ".######",
    )
    tolerance = 1
    alone = boundary_f(pred, gt, tolerance_px=tolerance)
    assert 0.0 < alone < 1.0
    canvas = (40, 60)
    for row, col in [(0, 0), (1, 1), (0, 53), (35, 0), (35, 53), (34, 52), (17, 26), (3, 40)]:
        p, g = _place(pred, canvas, row, col), _place(gt, canvas, row, col)
        assert boundary_f(p, g, tolerance_px=tolerance) == alone
        assert dilation_boundary_f(p, g, tolerance) == alone


def test_boundary_f_derives_its_default_tolerance_from_the_full_frame():
    # Two 10x10 squares 3 pixels apart: a 15x15 crop of a 480x854 frame. The
    # frame gives a tolerance of 8, which matches every boundary pixel; the
    # crop alone would give 1, which does not.
    gt = _place(np.ones((10, 10), dtype=bool), (480, 854), 200, 400)
    pred = _place(np.ones((10, 10), dtype=bool), (480, 854), 203, 403)
    assert default_boundary_tolerance(480, 854) == 8
    assert boundary_f(pred, gt) == boundary_f(pred, gt, 8) == 1.0
    crop_tolerance = default_boundary_tolerance(15, 15)
    assert boundary_f(pred, gt, crop_tolerance) < 1.0


def test_eval_result_means():
    r = EvalResult([1.0, 0.5], [0.75, 0.25])
    assert r.j_mean == 0.75
    assert r.f_mean == 0.5
    assert r.jf_mean == 0.625
    assert r.num_frames == 2


def test_eval_result_rejects_inconsistent_mean():
    # The means are not fields: they derive from the per-frame scores.
    with pytest.raises(TypeError):
        EvalResult(j_mean=1.0, f_mean=0.0, jf_mean=0.7,
                   per_frame_j=(1.0,), per_frame_f=(0.0,))
    r = EvalResult(per_frame_j=(1.0,), per_frame_f=(0.0,))
    assert (r.j_mean, r.f_mean, r.jf_mean) == (1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        EvalResult([], [])
    with pytest.raises(ValueError):
        EvalResult([1.0], [1.0, 0.5])


def test_eval_result_rejects_scores_outside_unit_interval():
    # A NaN would otherwise reach to_json_dict and write "F": NaN, which is not JSON.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        EvalResult([2.0, -1.0], [float("nan"), 0.5])
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EvalResult([0.5], [bad])


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
       st.data())
@settings(max_examples=100, deadline=None)
def test_jf_mean_identity_property(per_j, data):
    per_f = data.draw(st.lists(st.floats(0, 1, allow_nan=False),
                               min_size=len(per_j), max_size=len(per_j)))
    r = EvalResult(per_j, per_f)
    assert r.jf_mean == (r.j_mean + r.f_mean) / 2.0


def test_eval_result_json_is_percentage_scaled():
    r = EvalResult([1.0, 0.5], [1.0, 1.0])
    obj = r.to_json_dict()
    assert obj["J"] == 75.0
    assert obj["F"] == 100.0
    assert obj["J&F"] == 87.5
    assert obj["per_frame"] == [[100.0, 100.0], [50.0, 100.0]]


def test_boundary_f_one_pixel_shift_within_tolerance():
    gt = np.zeros((16, 16), dtype=bool)
    gt[0:4, 0:4] = True
    pred = np.zeros((16, 16), dtype=bool)
    pred[1:5, 1:5] = True  # same 4x4 block shifted one pixel diagonally
    assert boundary_f(pred, gt, tolerance_px=1) == 1.0


def test_j_and_f_are_symmetric_in_their_arguments():
    rng = np.random.default_rng(53)
    for _ in range(50):
        h, w = rng.integers(1, 12, size=2)
        a = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        b = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        tol = int(rng.integers(1, 4))
        assert region_j(a, b) == region_j(b, a)
        assert boundary_f(a, b, tolerance_px=tol) == boundary_f(b, a, tolerance_px=tol)


def test_j_and_f_are_translation_invariant():
    rng = np.random.default_rng(59)
    for _ in range(50):
        # Draw content on a small patch centred in a larger canvas so that
        # shifting both masks by the same offset never clips anything.
        canvas = np.zeros((20, 20), dtype=bool)
        pred = canvas.copy()
        gt = canvas.copy()
        pred[6:12, 6:12] = rand_mask(rng, 6, 6, p=0.5)
        gt[6:12, 6:12] = rand_mask(rng, 6, 6, p=0.5)
        dr, dc = (int(v) for v in rng.integers(-4, 5, size=2))
        pred_shift = np.roll(pred, (dr, dc), axis=(0, 1))
        gt_shift = np.roll(gt, (dr, dc), axis=(0, 1))
        tol = int(rng.integers(1, 3))
        assert region_j(pred_shift, gt_shift) == region_j(pred, gt)
        assert (boundary_f(pred_shift, gt_shift, tolerance_px=tol)
                == boundary_f(pred, gt, tolerance_px=tol))


def test_evaluate_sequence_perfect_prediction():
    rng = np.random.default_rng(41)
    frames = tuple(rand_mask(rng, 6, 6) for _ in range(4))
    seq = MaskSequence(frames=frames)
    r = evaluate_sequence(seq, seq)
    assert r.j_mean == 1.0 and r.f_mean == 1.0 and r.jf_mean == 1.0


def test_evaluate_sequence_checks_alignment():
    a = MaskSequence(frames=(empty_mask(2, 2),))
    b = MaskSequence(frames=(empty_mask(2, 2), empty_mask(2, 2)))
    with pytest.raises(AlignmentError):
        evaluate_sequence(a, b)


def test_evaluate_sequence_accepts_plain_mask_lists():
    a = [mask_from_rows("##", "..")]
    b = [mask_from_rows("##", "..")]
    assert evaluate_sequence(a, b).jf_mean == 1.0


@pytest.mark.parametrize("form", SEQUENCE_FORMS)
def test_evaluate_sequence_scores_every_sequence_form_alike(form):
    rng = np.random.default_rng(43)
    pred = [rand_mask(rng, 9, 11) for _ in range(5)]
    gt = [rand_mask(rng, 9, 11) for _ in range(5)]
    expected = evaluate_sequence(MaskSequence(frames=pred), MaskSequence(frames=gt))
    assert evaluate_sequence(sequence_as(form, pred), sequence_as(form, gt)) == expected
    assert evaluate_sequence(sequence_as(form, pred), gt) == expected


def test_evaluate_sequence_rejects_ragged_and_empty_input():
    ragged = [empty_mask(2, 2), empty_mask(2, 3)]
    with pytest.raises(ValueError):
        evaluate_sequence(ragged, [empty_mask(2, 2)] * 2)
    with pytest.raises(ValueError):
        evaluate_sequence([empty_mask(2, 2)] * 2, ragged)
    with pytest.raises(ValueError):
        evaluate_sequence([], [])


def test_evaluate_sequence_frame_size_mismatch_is_alignment_error():
    with pytest.raises(AlignmentError, match="2x2.*2x3"):
        evaluate_sequence([empty_mask(2, 2)], [empty_mask(2, 3)])


@pytest.mark.parametrize("height", [1, 31, 32, 33, 64, 65, 70])
def test_boundary_f_finds_the_rows_at_every_block_edge(height):
    # The last foreground row is searched for upward in blocks of ROW_BLOCK rows;
    # put each mask's first and last rows at, beside and between block edges.
    rows = sorted({0, 1, height // 2, height - 33, height - 32, height - 31, height - 2,
                   height - 1} & set(range(height)))
    for top, bottom in [(a, b) for a in rows for b in rows if a <= b]:
        pred = np.zeros((height, 4), dtype=bool)
        pred[top, 1] = pred[bottom, 2] = True
        gt = np.zeros((height, 4), dtype=bool)
        gt[(top + bottom) // 2, 0] = True
        _assert_matches_references(pred, gt, 1)
        _assert_matches_references(pred, np.zeros_like(pred), 1)
