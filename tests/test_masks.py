import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from conftest import mask_from_rows, rand_mask
from maskfuse import (
    RleFormatError,
    RleMask,
    ShapeMismatchError,
    area,
    empty_mask,
    intersection_area,
    iou,
    make_mask,
    rle_decode,
    rle_encode,
    union,
)
from maskfuse.masks import (
    MAX_MASK_PIXELS,
    MIN_FRAME_PIXELS,
    erode,
    require_mask_budget,
)


def test_make_mask_coerces_dtype_and_keeps_shape():
    m = make_mask([[0, 1], [2, 0]])
    assert m.dtype == np.bool_
    assert m.shape == (2, 2)
    assert m[0, 1] and m[1, 0] and not m[0, 0]


def test_make_mask_rejects_wrong_rank():
    with pytest.raises(ValueError):
        make_mask([1, 0, 1])
    with pytest.raises(ValueError):
        make_mask(np.zeros((2, 2, 2)))


def test_make_mask_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        make_mask(np.zeros((0, 4), dtype=bool))


def test_area_and_intersection_match_pixel_count():
    a = mask_from_rows("##..", ".#..", "....")
    b = mask_from_rows("#...", "##..", "...#")
    assert area(a) == 3
    assert area(b) == 4
    assert intersection_area(a, b) == 2


def test_intersection_requires_same_shape():
    with pytest.raises(ShapeMismatchError):
        intersection_area(empty_mask(2, 3), empty_mask(3, 2))


def test_union_of_masks():
    a = mask_from_rows("#..", "...")
    b = mask_from_rows("..#", "...")
    c = mask_from_rows("...", ".#.")
    assert np.array_equal(union([a, b, c]), mask_from_rows("#.#", ".#."))


def test_union_does_not_modify_inputs():
    a = mask_from_rows("#..")
    b = mask_from_rows(".##")
    a_before = a.copy()
    union([a, b])
    assert np.array_equal(a, a_before)


def test_union_of_an_empty_list_is_an_error():
    with pytest.raises(ValueError):
        union([])


def test_mask_budget_counts_a_small_frame_as_min_frame_pixels():
    frames = MAX_MASK_PIXELS // MIN_FRAME_PIXELS
    require_mask_budget(1, frames, 1, 1, ValueError)
    with pytest.raises(ValueError, match=f"^p: 1 sequence\\(s\\) of {frames + 1} frames of 1x1 "):
        require_mask_budget(1, frames + 1, 1, 1, ValueError, "p: ")


def test_union_rejects_mixed_shapes():
    with pytest.raises(ShapeMismatchError):
        union([empty_mask(2, 2), empty_mask(2, 3)])


def cross_erosion(mask, steps):
    """Reference: ``steps`` iterations of a 4-neighbour cross erosion with
    background beyond the image."""
    return ndimage.binary_erosion(mask, structure=ndimage.generate_binary_structure(2, 1),
                                  iterations=steps, border_value=0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 7), (7, 2), (6, 6), (7, 9),
                                   (16, 23)])
def test_erode_matches_cross_erosion(shape):
    h, w = shape
    # every pixel is gone after this many steps; erode stops there
    clamp = (min(h, w) + 1) // 2
    rng = np.random.default_rng(100 * h + w)
    masks = [np.ones((h, w), dtype=bool), empty_mask(h, w)]
    masks += [rand_mask(rng, h, w, p=p) for p in (0.5, 0.8, 0.95, 0.99)]
    steps = {1, 2, 3, 4, 5, clamp, clamp + 1, 10**9} | ({clamp - 1} - {0})
    for m in masks:
        before = m.copy()
        for k in sorted(steps):
            assert np.array_equal(erode(m, k), cross_erosion(m, k)), (m, k)
        assert np.array_equal(m, before)
    assert np.array_equal(erode(masks[-1], 0), masks[-1])


def test_iou_conventions():
    assert iou(empty_mask(4, 4), empty_mask(4, 4)) == 1.0
    assert iou(np.ones((3, 3), dtype=bool), np.ones((3, 3), dtype=bool)) == 1.0
    assert iou(mask_from_rows("#."), mask_from_rows(".#")) == 0.0
    assert iou(mask_from_rows("##"), mask_from_rows("#.")) == 0.5


def test_iou_rejects_masks_that_are_not_2d():
    # Two equal 3-D arrays used to score 1.0; iou now validates like boundary_f.
    for bad in (np.ones((2, 2, 2), dtype=bool), np.ones(3, dtype=bool)):
        with pytest.raises(ValueError, match="mask must be 2-D"):
            iou(bad, bad)


def test_overlap_goldens_on_four_by_four():
    top_two_rows = empty_mask(4, 4)
    top_two_rows[:2, :] = True
    left_two_cols = empty_mask(4, 4)
    left_two_cols[:, :2] = True
    top_one_row = empty_mask(4, 4)
    top_one_row[0, :] = True
    assert intersection_area(top_two_rows, left_two_cols) == 4
    assert iou(top_two_rows, top_one_row) == 0.5


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_intersection_never_exceeds_either_area(data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    bits_a = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    bits_b = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    a = np.array(bits_a, dtype=bool).reshape(h, w)
    b = np.array(bits_b, dtype=bool).reshape(h, w)
    assert intersection_area(a, b) <= min(area(a), area(b))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_iou_symmetric_and_one_only_for_equal_masks(data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    bits_a = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    bits_b = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    a = np.array(bits_a, dtype=bool).reshape(h, w)
    b = np.array(bits_b, dtype=bool).reshape(h, w)
    assert iou(a, b) == iou(b, a)
    if a.any() or b.any():
        assert (iou(a, b) == 1.0) == np.array_equal(a, b)


def test_mask_ops_match_oracle_on_random_masks():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h, w = rng.integers(1, 13, size=2)
        a = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        b = rand_mask(rng, h, w, p=rng.choice([0.2, 0.5, 0.8]))
        ga, gb = oracles.to_grid(a), oracles.to_grid(b)
        assert area(a) == oracles.area_grid(ga)
        assert intersection_area(a, b) == oracles.intersection_grid(ga, gb)
        assert iou(a, b) == oracles.iou_grid(ga, gb)
        assert np.array_equal(union([a, b]), np.array(oracles.union_grids([ga, gb], h, w)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_inclusion_exclusion_identity(data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    bits_a = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    bits_b = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    a = np.array(bits_a, dtype=bool).reshape(h, w)
    b = np.array(bits_b, dtype=bool).reshape(h, w)
    assert area(a) + area(b) == area(union([a, b])) + intersection_area(a, b)


def test_rle_golden_examples():
    assert rle_encode(empty_mask(2, 3)).counts == (6,)
    assert rle_encode(np.ones((2, 3), dtype=bool)).counts == (0, 6)
    m = mask_from_rows("##.", "..#")
    # flat: T T F F F T
    assert rle_encode(m).counts == (0, 2, 3, 1)
    # 2x2 with only the top-right pixel set: flat F T F F
    assert rle_encode(mask_from_rows(".#", "..")).counts == (1, 1, 2)


def test_rle_counts_match_naive_scanner():
    rng = np.random.default_rng(11)
    for _ in range(200):
        h, w = rng.integers(1, 17, size=2)
        m = rand_mask(rng, h, w, p=rng.choice([0.1, 0.5, 0.9]))
        assert list(rle_encode(m).counts) == oracles.rle_counts_naive(oracles.to_grid(m))


@st.composite
def banded_masks(draw):
    """Masks whose foreground, if any, lies in a band of rows that may touch
    the first or the last row, or cover every row or none."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    top = draw(st.integers(0, h))
    bottom = draw(st.integers(top, h))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    m = np.zeros((h, w), dtype=bool)
    if fill == "full":
        m[top:bottom] = True
    elif fill == "random":
        bits = draw(st.lists(st.booleans(), min_size=(bottom - top) * w,
                             max_size=(bottom - top) * w))
        m[top:bottom] = np.array(bits, dtype=bool).reshape(bottom - top, w)
    return m


@given(banded_masks())
@settings(max_examples=300, deadline=None)
@example(np.zeros((3, 4), dtype=bool))
@example(np.ones((3, 4), dtype=bool))
@example(np.array([[1, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=bool))
@example(np.array([[0, 0, 0], [0, 0, 0], [1, 0, 1]], dtype=bool))
@example(np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1]], dtype=bool))
def test_rle_encode_equals_the_naive_scanner_on_banded_masks(m):
    assert list(rle_encode(m).counts) == oracles.rle_counts_naive(oracles.to_grid(m))


def test_rle_decode_inverts_encode():
    rng = np.random.default_rng(13)
    for _ in range(200):
        h, w = rng.integers(1, 33, size=2)
        m = rand_mask(rng, h, w, p=rng.choice([0.0, 0.3, 0.7, 1.0]))
        assert np.array_equal(rle_decode(rle_encode(m)), m)


@given(banded_masks())
@settings(max_examples=300, deadline=None)
@example(np.zeros((1, 1), dtype=bool))
@example(np.ones((1, 1), dtype=bool))
@example(np.zeros((3, 4), dtype=bool))
@example(np.ones((3, 4), dtype=bool))
# 1xW, foreground on the first pixel (counts[0] == 0) and on the last (even count)
@example(np.array([[1, 0, 0, 1, 1]], dtype=bool))
# Hx1, a trailing background run (odd count)
@example(np.array([[0], [1], [1], [0]], dtype=bool))
@example(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=bool))
def test_rle_decode_of_the_naive_counts_is_the_grid(m):
    grid = oracles.to_grid(m)
    h, w = m.shape
    decoded = rle_decode(RleMask(h, w, oracles.rle_counts_naive(grid)))
    assert decoded.dtype == np.bool_ and decoded.shape == (h, w)
    assert decoded.flags.c_contiguous and decoded.flags.writeable
    assert make_mask(decoded) is decoded
    assert oracles.to_grid(decoded) == grid


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rle_roundtrip_property(data):
    h = data.draw(st.integers(1, 10))
    w = data.draw(st.integers(1, 10))
    bits = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    m = np.array(bits, dtype=bool).reshape(h, w)
    rle = rle_encode(m)
    assert np.array_equal(rle_decode(rle), m)
    assert rle_encode(rle_decode(rle)) == rle


def test_rle_validation_rejects_bad_counts():
    with pytest.raises(RleFormatError):
        RleMask(height=2, width=2, counts=())
    with pytest.raises(RleFormatError):
        RleMask(height=2, width=2, counts=(3,))  # sum != 4
    with pytest.raises(RleFormatError):
        RleMask(height=2, width=2, counts=(1, 0, 3))  # interior zero
    with pytest.raises(RleFormatError):
        RleMask(height=2, width=2, counts=(-1, 5))
    with pytest.raises(RleFormatError):
        RleMask(height=2, width=2, counts=(1.0, 3.0))
    with pytest.raises(RleFormatError):
        RleMask(height=0, width=4, counts=(0,))


@pytest.mark.parametrize("counts, message", [
    ((1, True, 2), "RLE count at position 1 is not an integer: True"),
    ((1.0, 3.0), "RLE count at position 0 is not an integer: 1.0"),
    ((1, "3"), "RLE count at position 1 is not an integer: '3'"),
    ((-1, 5), "RLE count at position 0 is negative: -1"),
    ((1, 2, np.int64(-1), 2), "RLE count at position 2 is negative: -1"),
    ((1, 0, 3), "RLE count at position 1 is zero (only the leading count may be 0)"),
    ((1, -1, "x"), "RLE count at position 1 is negative: -1"),
])
def test_rle_count_errors_name_the_first_bad_position(counts, message):
    with pytest.raises(RleFormatError) as info:
        RleMask(height=2, width=2, counts=counts)
    assert str(info.value) == message


@pytest.mark.parametrize("counts", [
    (np.int64(1), np.int64(3)),
    (1, np.int64(3)),
    (np.int32(0), 4),
])
def test_rle_accepts_numpy_integer_counts(counts):
    rle = RleMask(height=2, width=2, counts=counts)
    assert rle.counts == tuple(int(c) for c in counts)
    assert rle_decode(rle).sum() == (4 - counts[0])


def test_rle_numpy_counts_serialise_as_json():
    rle = RleMask(height=2, width=2, counts=(np.int64(1), np.int64(3)))
    assert json.dumps(list(rle.counts)) == "[1, 3]"
    assert all(type(c) is int for c in rle.counts)


def test_rle_leading_zero_is_allowed_only_first():
    rle = RleMask(height=1, width=4, counts=(0, 4))
    assert np.array_equal(rle_decode(rle), np.ones((1, 4), dtype=bool))


def test_rle_json_roundtrip():
    m = mask_from_rows(".#.#", "##..")
    rle = rle_encode(m)
    again = RleMask.from_json_dict({"h": rle.height, "w": rle.width, "counts": list(rle.counts)})
    assert again == rle
    assert np.array_equal(rle_decode(again), m)


def test_rle_from_json_rejects_malformed_objects():
    with pytest.raises(RleFormatError):
        RleMask.from_json_dict([1, 2])
    with pytest.raises(RleFormatError):
        RleMask.from_json_dict({"h": 2, "w": 2})
    with pytest.raises(RleFormatError):
        RleMask.from_json_dict({"h": 2, "w": "2", "counts": [4]})
    with pytest.raises(RleFormatError):
        RleMask.from_json_dict({"h": 2, "w": 2, "counts": "4"})


@pytest.mark.parametrize("height, width, counts, message", [
    (2.0, 2, (4,), "RLE height must be an integer of at least 1, got 2.0"),
    ("2", 2, (4,), "RLE height must be an integer of at least 1, got '2'"),
    (True, 4, (4,), "RLE height must be an integer of at least 1, got True"),
    (2, 2.0, (4,), "RLE width must be an integer of at least 1, got 2.0"),
    (4, False, (0,), "RLE width must be an integer of at least 1, got False"),
], ids=["height-float", "height-str", "height-bool", "width-float", "width-bool"])
def test_rle_dimensions_must_be_integers(height, width, counts, message):
    with pytest.raises(RleFormatError) as info:
        RleMask(height=height, width=width, counts=counts)
    assert str(info.value) == message
    with pytest.raises(RleFormatError) as info:
        RleMask.from_json_dict({"h": height, "w": width, "counts": list(counts)})
    assert str(info.value) == message
