import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskfuse.refine
import oracles
from conftest import fallback_scenario, mask_from_rows, rand_mask
from maskfuse import (
    AlignmentError,
    MaskletSet,
    MaskSequence,
    RefineConfig,
    RefinedSequence,
    ShapeMismatchError,
    empty_mask,
    fig2_scenario,
    generate,
    refine_video,
    union,
)
from maskfuse.refine import (
    gate,
    overlap_fraction,
    refine_window,
    select_combination,
    window_spans,
)


def seq_of(*frames) -> MaskSequence:
    return MaskSequence(frames=tuple(frames))


def gated(coarse_frame, tracks: MaskletSet, tau: float) -> tuple[int, ...]:
    """The gate's combination for a one-frame video, read from its refine report."""
    refined = refine_video(seq_of(coarse_frame), tracks, RefineConfig(window=1, tau=tau))
    return refined.report.windows[0].frames[0].combination


def single_window_refine(coarse, tracks, tau=0.8, tie_break="earliest"):
    cfg = RefineConfig(window=len(coarse.frames), tau=tau, tie_break=tie_break)
    return refine_video(coarse, tracks, cfg)


# --- sequence / masklet containers -----------------------------------------

def test_mask_sequence_validates_uniform_shape():
    with pytest.raises(ValueError):
        seq_of(empty_mask(2, 2), empty_mask(2, 3))
    with pytest.raises(ValueError):
        MaskSequence(frames=())


def test_mask_sequence_numbers_a_ragged_frame_from_one():
    with pytest.raises(ValueError, match=r"^frame 2 has shape \(2, 3\), expected \(2, 2\) "
                                         r"from frame 1$"):
        seq_of(empty_mask(2, 2), empty_mask(2, 3))
    with pytest.raises(ValueError, match=r"^frame 3 has shape \(1, 2\), expected"):
        seq_of(empty_mask(2, 2), empty_mask(2, 2), empty_mask(1, 2))


def test_mask_sequence_equals():
    a = seq_of(mask_from_rows("#."), mask_from_rows(".#"))
    b = seq_of(mask_from_rows("#."), mask_from_rows(".#"))
    c = seq_of(mask_from_rows("#."), mask_from_rows("##"))
    assert a.equals(b)
    assert not a.equals(c)
    assert not a.equals(seq_of(mask_from_rows("#."))) and not seq_of(a[0]).equals(a)


def test_window_spans_rejects_a_window_below_one():
    assert window_spans(7, 5) == [(0, 5), (5, 7)]
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^window must be an integer of at least 1, got"):
            window_spans(7, bad)


def test_masklet_set_requires_aligned_tracks():
    with pytest.raises(ValueError):
        MaskletSet(tracks=[seq_of(empty_mask(2, 2)), seq_of(empty_mask(2, 3))])
    with pytest.raises(ValueError):
        MaskletSet(tracks=[seq_of(empty_mask(2, 2)),
                           seq_of(empty_mask(2, 2), empty_mask(2, 2))])


def test_masklet_set_accepts_plain_frame_lists():
    a = [mask_from_rows("#."), mask_from_rows(".#")]
    b = [mask_from_rows(".."), mask_from_rows("##")]
    for tracks in ([a, b], (a, b)):
        ms = MaskletSet(tracks=tracks)
        assert isinstance(ms.tracks, tuple)
        assert (ms.num_instances, ms.num_frames, ms.height, ms.width) == (2, 2, 1, 2)
        assert isinstance(ms.tracks[1], MaskSequence)
        assert np.array_equal(ms.frame(2, 1), b[1])
    with pytest.raises(ValueError):
        MaskletSet(tracks=[a, [mask_from_rows("#.")]])


@pytest.mark.parametrize("dims", [{"num_frames": 7}, {"height": 3}, {"width": 1},
                                  {"num_frames": 1, "height": 2, "width": 5}])
def test_masklet_set_rejects_dims_that_disagree_with_tracks(dims):
    with pytest.raises(ValueError, match="covers 1 frames of 2x2"):
        MaskletSet(tracks=[seq_of(empty_mask(2, 2))], **dims)
    ms = MaskletSet(tracks=[seq_of(empty_mask(2, 2))], num_frames=1, height=2, width=2)
    assert (ms.num_frames, ms.height, ms.width) == (1, 2, 2)


def test_empty_masklet_set_needs_explicit_dims():
    with pytest.raises(ValueError):
        MaskletSet(tracks=[])
    ms = MaskletSet(tracks=[], num_frames=3, height=2, width=2)
    assert ms.num_instances == 0
    assert ms.tracks == ()


def test_empty_masklet_set_gives_one_message_per_bad_dimension():
    with pytest.raises(ValueError, match=r"^an empty masklet set needs explicit num_frames, "
                                         r"height and width, got \(None, 1, 1\)$"):
        MaskletSet(tracks=[], height=1, width=1)
    with pytest.raises(ValueError, match="^num_frames must be an integer of at least 1, got 0$"):
        MaskletSet(tracks=[], num_frames=0, height=1, width=1)
    with pytest.raises(ValueError, match=r"^width must be an integer of at least 1, got 2\.0$"):
        MaskletSet(tracks=[], num_frames=1, height=1, width=2.0)


def test_masklet_set_frame_rejects_ids_outside_one_to_n():
    a = seq_of(mask_from_rows("#."), mask_from_rows(".#"))
    b = seq_of(mask_from_rows(".."), mask_from_rows("##"))
    ms = MaskletSet(tracks=[a, b])
    assert np.array_equal(ms.frame(1, 1), a[1]) and np.array_equal(ms.frame(2, 0), b[0])
    for iid in (0, 3, -1):
        for t in (0, 1):
            with pytest.raises(KeyError):
                ms.frame(iid, t)


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(window=0)
    for bad in (True, 2.5, "5"):
        with pytest.raises(ValueError, match="window"):
            RefineConfig(window=bad)
    for bad in (False, "0.5", None):
        with pytest.raises(ValueError, match="tau"):
            RefineConfig(tau=bad)
    with pytest.raises(ValueError):
        RefineConfig(tau=1.0)
    with pytest.raises(ValueError):
        RefineConfig(tau=-0.1)
    with pytest.raises(ValueError):
        RefineConfig(tie_break="random")
    cfg = RefineConfig()
    assert (cfg.window, cfg.tau, cfg.tie_break) == (15, 0.8, "earliest")


def test_refine_config_stores_numpy_scalars_as_python_numbers():
    cfg = RefineConfig(window=np.arange(5, 6)[0], tau=np.float32(0.5))
    assert (type(cfg.window), type(cfg.tau)) == (int, float)
    assert (cfg.window, cfg.tau) == (5, 0.5)
    with pytest.raises(ValueError, match="window"):
        RefineConfig(window=np.float64(5.0))
    with pytest.raises(ValueError, match="tau"):
        RefineConfig(tau=np.bool_(False))


# --- gating ------------------------------------------------------------------

def test_overlap_fraction_basics():
    inst = mask_from_rows("##", "##")
    assert overlap_fraction(inst, np.ones((2, 2), dtype=bool)) == 1.0
    assert overlap_fraction(inst, empty_mask(2, 2)) == 0.0
    assert overlap_fraction(inst, mask_from_rows("##", "..")) == 0.5
    assert overlap_fraction(empty_mask(2, 2), np.ones((2, 2), dtype=bool)) == 0.0


def test_gate_threshold_is_strict():
    # instance of 4 px, coarse covers exactly 3 -> fraction 0.75
    inst = mask_from_rows("####")
    coarse = mask_from_rows("###.")
    tracks = MaskletSet(tracks=[seq_of(inst)])
    assert gated(coarse, tracks, 0.75) == ()
    assert gated(coarse, tracks, 0.74) == (1,)


def test_gate_combination_orders_ids_ascending():
    a = mask_from_rows("#...")
    b = mask_from_rows("...#")
    coarse = mask_from_rows("#..#")
    tracks = MaskletSet(tracks=[seq_of(a), seq_of(b)])
    assert gated(coarse, tracks, 0.5) == (1, 2)


def test_overlap_fraction_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h, w = rng.integers(1, 10, size=2)
        inst = rand_mask(rng, h, w, p=0.4)
        frame = rand_mask(rng, h, w, p=0.6)
        assert overlap_fraction(inst, frame) == oracles.overlap_fraction_grid(
            oracles.to_grid(inst), oracles.to_grid(frame))


def _last_pixel_only(h, w):
    m = np.zeros((h, w), dtype=bool)
    m[-1, -1] = True
    return m


@pytest.mark.parametrize("inst, frame", [
    (_last_pixel_only(3, 4), np.ones((3, 4), dtype=bool)),
    (_last_pixel_only(3, 4), ~_last_pixel_only(3, 4)),
    (_last_pixel_only(1, 1), np.ones((1, 1), dtype=bool)),
    (empty_mask(3, 4), np.ones((3, 4), dtype=bool)),
    (np.array([[0, 2], [2, 2]], dtype=np.uint8), np.array([[2, 0], [2, 0]], dtype=np.uint8)),
    # The largest value is not the first foreground pixel.
    (np.array([[1, 0], [2, 0]], dtype=np.uint8), np.array([[1, 0], [0, 0]], dtype=np.uint8)),
    (rand_mask(np.random.default_rng(8), 5, 7, p=0.4).T,
     rand_mask(np.random.default_rng(9), 5, 7, p=0.6).T),
], ids=["last-pixel-covered", "last-pixel-uncovered", "1x1", "empty", "uint8",
        "uint8-max-later", "transposed"])
def test_overlap_fraction_equals_the_oracle_as_a_float(inst, frame):
    got = overlap_fraction(inst, frame)
    assert type(got) is float
    assert got == oracles.overlap_fraction_grid(oracles.to_grid(inst), oracles.to_grid(frame))


def test_overlap_fraction_checks_the_shapes_even_of_an_empty_instance():
    with pytest.raises(ShapeMismatchError):
        overlap_fraction(np.zeros((2, 2), bool), np.ones((3, 3), bool))
    with pytest.raises(ShapeMismatchError):
        overlap_fraction(np.ones((2, 2), bool), np.ones((3, 3), bool))


def test_gate_keeps_well_covered_instance_and_drops_the_other():
    # On a 10x10 grid: instance 1 is 90% covered by the coarse frame,
    # instance 2 only 10%; at tau=0.8 the combination keeps instance 1 alone.
    inst1 = np.zeros((10, 10), dtype=bool)
    inst1[0, :] = True
    inst2 = np.zeros((10, 10), dtype=bool)
    inst2[5, :] = True
    coarse = np.zeros((10, 10), dtype=bool)
    coarse[0, :9] = True
    coarse[5, :1] = True
    tracks = MaskletSet(tracks=[seq_of(inst1), seq_of(inst2)])
    assert overlap_fraction(inst1, coarse) == 0.9
    assert overlap_fraction(inst2, coarse) == 0.1
    assert gated(coarse, tracks, 0.8) == (1,)


def test_raising_tau_never_adds_instances_to_a_combination():
    rng = np.random.default_rng(17)
    for _ in range(50):
        h, w = rng.integers(2, 10, size=2)
        n = int(rng.integers(1, 4))
        coarse = rand_mask(rng, h, w, p=0.6)
        tracks = MaskletSet(tracks=[seq_of(rand_mask(rng, h, w, p=0.4)) for _ in range(n)])
        taus = sorted(float(t) for t in rng.uniform(0.0, 1.0, size=2))
        low = gated(coarse, tracks, taus[0])
        high = gated(coarse, tracks, taus[1])
        assert set(high) <= set(low)


# --- combination voting ------------------------------------------------------

def test_select_combination_most_frequent_wins():
    combos = [(2,), (2,), (1, 2), (2,), (2,)]
    assert select_combination(combos) == (2,)


def test_select_combination_empty_combos_vote_too():
    assert select_combination([(), (1,), ()]) == ()


def test_select_combination_tie_breaks():
    assert select_combination([(2,), (1,), (2,), (1,)], "earliest") == (2,)
    assert select_combination([(2,), (1,), (2,), (1,)], "smallest") == (1,)
    # lexicographic: (1, 3) < (2,)
    assert select_combination([(2,), (1, 3)], "smallest") == (1, 3)
    assert select_combination([(2,), (1, 3)], "earliest") == (2,)


def test_select_combination_rejects_bad_input():
    with pytest.raises(ValueError):
        select_combination([])
    with pytest.raises(ValueError):
        select_combination([(1,)], "majority")


@given(st.lists(st.lists(st.integers(1, 4), max_size=3).map(
    lambda ids: tuple(sorted(set(ids)))), min_size=1, max_size=20),
    st.sampled_from(["earliest", "smallest"]))
@settings(max_examples=150, deadline=None)
def test_select_combination_invariants(combos, policy):
    winner = select_combination(combos, policy)
    counts = {c: combos.count(c) for c in combos}
    assert winner in counts
    assert counts[winner] == max(counts.values())
    assert winner == oracles.select_naive(combos, policy)


# --- window and video refinement ---------------------------------------------

def test_window_with_empty_selection_passes_coarse_through():
    # nothing ever overlaps -> every combination is empty -> coarse untouched
    coarse = seq_of(mask_from_rows("##.."), mask_from_rows(".##."))
    tracks = MaskletSet(tracks=[seq_of(mask_from_rows("...#"), mask_from_rows("...#"))])
    out, record = refine_window(coarse.frames, tracks, RefineConfig(window=2),
                                fractions=gate(coarse, tracks))
    assert record.selected == ()
    assert all(np.array_equal(o, c) for o, c in zip(out, coarse.frames))


def test_window_rebuilds_frames_from_selected_union():
    a = seq_of(mask_from_rows("#.", ".."), mask_from_rows(".#", ".."))
    b = seq_of(mask_from_rows("..", "#."), mask_from_rows("..", ".#"))
    tracks = MaskletSet(tracks=[a, b])
    # coarse covers both instances fully in both frames
    coarse = seq_of(np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool))
    out, record = refine_window(coarse.frames, tracks, RefineConfig(window=2, tau=0.5),
                                fractions=gate(coarse, tracks))
    assert record.selected == (1, 2)
    assert np.array_equal(out[0], mask_from_rows("#.", "#."))
    assert np.array_equal(out[1], mask_from_rows(".#", ".#"))


def test_refine_is_a_fixpoint_when_coarse_equals_single_track():
    rng = np.random.default_rng(19)
    frames = tuple(rand_mask(rng, 5, 7, p=0.5) for _ in range(6))
    track = seq_of(*frames)
    coarse = seq_of(*frames)
    refined = refine_video(coarse, MaskletSet(tracks=[track]),
                           RefineConfig(window=3, tau=0.8))
    assert refined.equals(coarse)


def test_refine_is_a_fixpoint_on_unions_of_disjoint_tracks():
    # Instances live on disjoint row bands; when the coarse sequence is
    # exactly the union of a fixed subset, refinement must reproduce it
    # bitwise for any window, threshold, or tie policy.
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        num_frames = int(rng.integers(1, 12))
        h, w = 4 * n, 9
        tracks = []
        for i in range(n):
            band = []
            for _ in range(num_frames):
                m = np.zeros((h, w), dtype=bool)
                m[4 * i:4 * i + 4, :] = rand_mask(rng, 4, w, p=0.7)
                m[4 * i, 0] = True  # keep every instance non-empty
                band.append(m)
            tracks.append(seq_of(*band))
        subset = [i for i in range(n) if rng.random() < 0.5]
        coarse_frames = []
        for t in range(num_frames):
            acc = np.zeros((h, w), dtype=bool)
            for i in subset:
                acc |= tracks[i].frames[t]
            coarse_frames.append(acc)
        cfg = RefineConfig(window=int(rng.integers(1, 14)),
                           tau=float(rng.uniform(0.0, 1.0)),
                           tie_break=str(rng.choice(["earliest", "smallest"])))
        refined = refine_video(seq_of(*coarse_frames),
                               MaskletSet(tracks=tracks), cfg)
        assert refined.equals(seq_of(*coarse_frames))


def test_refine_video_window_partition():
    coarse = seq_of(*[empty_mask(2, 2) for _ in range(7)])
    tracks = MaskletSet(tracks=[], num_frames=7, height=2, width=2)
    refined = refine_video(coarse, tracks, RefineConfig(window=5))
    spans = [(w.start, w.stop) for w in refined.report.windows]
    assert spans == [(0, 5), (5, 7)]
    exported = refined.report.to_json_dict()
    assert [(w["first_frame"], w["last_frame"]) for w in exported["windows"]] == [(1, 5), (6, 7)]


def test_refine_video_with_no_instances_returns_coarse():
    rng = np.random.default_rng(5)
    coarse = seq_of(*[rand_mask(rng, 3, 4) for _ in range(6)])
    tracks = MaskletSet(tracks=[], num_frames=6, height=3, width=4)
    refined = refine_video(coarse, tracks, RefineConfig(window=4))
    assert refined.equals(coarse)


def test_refined_sequence_is_a_mask_sequence():
    rng = np.random.default_rng(9)
    T, h, w = 7, 3, 5
    tracks = MaskletSet(tracks=[seq_of(*[rand_mask(rng, h, w) for _ in range(T)])])
    coarse = seq_of(*[rand_mask(rng, h, w) for _ in range(T)])
    refined = refine_video(coarse, tracks, RefineConfig(window=3, tau=0.3))
    assert isinstance(refined, MaskSequence)
    assert (refined.num_frames, len(refined), refined.height, refined.width) == (T, T, h, w)
    assert np.array_equal(refined[-1], refined.frames[-1])
    plain = MaskSequence(frames=refined)
    assert type(plain) is MaskSequence
    assert plain.rles is refined.rles  # the runs are shared, not decoded and re-encoded
    assert plain.equals(refined) and refined.equals(plain)


def test_refined_sequence_validates_its_frames():
    report = refine_video(seq_of(empty_mask(2, 2)),
                          MaskletSet(tracks=[], num_frames=1, height=2, width=2)).report
    with pytest.raises(ValueError):
        RefinedSequence(frames=(empty_mask(2, 2), empty_mask(3, 2)), report=report)


def test_refine_video_rejects_misaligned_inputs():
    coarse = seq_of(empty_mask(2, 2), empty_mask(2, 2))
    short = MaskletSet(tracks=[seq_of(empty_mask(2, 2))])
    with pytest.raises(AlignmentError):
        refine_video(coarse, short)
    wrong_dims = MaskletSet(tracks=[seq_of(empty_mask(3, 2), empty_mask(3, 2))])
    with pytest.raises(AlignmentError):
        refine_video(coarse, wrong_dims)


@pytest.mark.parametrize("given_table", [False, True], ids=["gated-here", "table-given"])
def test_refine_video_checks_alignment_once(monkeypatch, given_table):
    result = generate(fig2_scenario())
    fractions = gate(result.coarse, result.masklets) if given_table else None
    calls = []
    real = maskfuse.refine.require_aligned
    monkeypatch.setattr(maskfuse.refine, "require_aligned", lambda *a: calls.append(a) or real(*a))
    refine_video(result.coarse, result.masklets, fractions=fractions)
    assert len(calls) == 1
    short = MaskletSet(tracks=[seq_of(*result.coarse.frames[:-1])])
    with pytest.raises(AlignmentError):
        refine_video(result.coarse, short, fractions=fractions)


def test_refine_video_rejects_bad_worker_count():
    coarse = seq_of(empty_mask(2, 2))
    tracks = MaskletSet(tracks=[], num_frames=1, height=2, width=2)
    with pytest.raises(ValueError):
        refine_video(coarse, tracks, workers=0)


def test_report_records_fractions_per_frame():
    inst = seq_of(mask_from_rows("##.."), mask_from_rows("..##"))
    coarse = seq_of(mask_from_rows("#..."), mask_from_rows("..##"))
    tracks = MaskletSet(tracks=[inst])
    refined = refine_video(coarse, tracks, RefineConfig(window=2, tau=0.8))
    frames = refined.report.windows[0].frames
    assert frames[0].fractions == (0.5,)
    assert frames[1].fractions == (1.0,)
    assert frames[0].combination == ()
    assert frames[1].combination == (1,)


@pytest.mark.parametrize("scenario", [fig2_scenario, fallback_scenario])
@pytest.mark.parametrize("window", [1, 2, 3, 5, 9])
def test_a_supplied_gate_table_refines_like_gating_inside(scenario, window):
    result = generate(scenario())
    coarse, tracked = result.coarse, result.masklets
    cfg = RefineConfig(window=window)
    table = gate(coarse, tracked)
    assert len(table) == coarse.num_frames
    assert all(len(row) == tracked.num_instances for row in table)
    inside = refine_video(coarse, tracked, cfg)
    supplied = refine_video(coarse, tracked, cfg, fractions=table)
    assert supplied.equals(inside)
    assert supplied.report.to_json_dict() == inside.report.to_json_dict()
    assert list(table) == [fr.fractions for w in inside.report.windows for fr in w.frames]
    for w in supplied.report.windows:
        for fr in w.frames:
            assert fr.combination == tuple(i for i, f in enumerate(table[fr.index], start=1)
                                           if f > cfg.tau)


def test_a_fraction_table_of_the_wrong_shape_raises():
    result = generate(fallback_scenario())
    coarse, tracked = result.coarse, result.masklets
    table = gate(coarse, tracked)
    cfg = RefineConfig(window=3)
    for bad in (table[:-1], table + table[:1], tuple(row[:-1] for row in table),
                tuple(row + (1.0,) for row in table), ()):
        with pytest.raises(ValueError, match="fractions"):
            refine_video(coarse, tracked, cfg, fractions=bad)
    with pytest.raises(ValueError, match="fractions"):
        refine_window(coarse.frames[:3], tracked, cfg, fractions=table[:2])


def test_winners_determine_the_refined_frames():
    result = generate(fallback_scenario())
    coarse, tracked = result.coarse, result.masklets
    for window in (1, 3, 9):
        refined = refine_video(coarse, tracked, RefineConfig(window=window))
        winners = refined.report.winners()
        assert (() in winners) == (window != 9)  # 9 frames outvote the three dropped ones
        assert winners == tuple(w.selected for w in refined.report.windows
                                for _ in range(w.start, w.stop))
        for t, winner in enumerate(winners):
            want = (coarse[t] if winner == ()
                    else union([tracked.frame(i, t) for i in winner]))
            assert np.array_equal(refined[t], want)


def test_selected_combination_applies_to_every_frame_of_window():
    # instance present in coarse for 2 of 3 frames; majority keeps it everywhere
    inst = seq_of(mask_from_rows("##"), mask_from_rows("##"), mask_from_rows("##"))
    coarse = seq_of(mask_from_rows("##"), mask_from_rows(".."), mask_from_rows("##"))
    tracks = MaskletSet(tracks=[inst])
    refined = refine_video(coarse, tracks, RefineConfig(window=3))
    assert refined.report.windows[0].selected == (1,)
    for frame in refined.frames:
        assert np.array_equal(frame, mask_from_rows("##"))


def test_workers_do_not_change_output():
    rng = np.random.default_rng(17)
    T, h, w = 23, 6, 7
    tracks = MaskletSet(
        tracks=[seq_of(*[rand_mask(rng, h, w, p=0.3) for _ in range(T)]) for _ in range(3)])
    coarse = seq_of(*[rand_mask(rng, h, w, p=0.5) for _ in range(T)])
    cfg = RefineConfig(window=4, tau=0.3)
    one = refine_video(coarse, tracks, cfg, workers=1)
    many = refine_video(coarse, tracks, cfg, workers=8)
    assert one.equals(many)
    assert one.report == many.report


def test_refine_matches_oracle_spot_checks():
    rng = np.random.default_rng(23)
    for _ in range(25):
        T = int(rng.integers(1, 12))
        N = int(rng.integers(0, 4))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        tau = float(rng.random())
        window = int(rng.integers(1, 14))
        policy = ["earliest", "smallest"][int(rng.integers(0, 2))]
        coarse = seq_of(*[rand_mask(rng, h, w, p=0.5) for _ in range(T)])
        tracks = MaskletSet(
            tracks=[seq_of(*[rand_mask(rng, h, w, p=0.35) for _ in range(T)]) for _ in range(N)],
            num_frames=T, height=h, width=w)
        refined = refine_video(coarse, tracks, RefineConfig(window=window, tau=tau,
                                                            tie_break=policy))
        grids, traces = oracles.refine_naive(
            [oracles.to_grid(f) for f in coarse.frames],
            {i: [oracles.to_grid(f) for f in seq.frames]
             for i, seq in enumerate(tracks.tracks, start=1)},
            window, tau, policy)
        for got, want in zip(refined.frames, grids):
            assert np.array_equal(got, np.array(want, dtype=bool).reshape(h, w))
        for record, (s, e, combos, selected) in zip(refined.report.windows, traces):
            assert (record.start, record.stop) == (s, e)
            assert [f.combination for f in record.frames] == combos
            assert record.selected == selected


@pytest.mark.parametrize("tracks, dims", [
    ([seq_of(empty_mask(2, 2)), seq_of(empty_mask(2, 3))], {}),
    ([seq_of(empty_mask(2, 2)), seq_of(empty_mask(2, 2), empty_mask(2, 2))], {}),
    ({1: seq_of(empty_mask(2, 2))}, {}),
    ([], {}),
    ([], dict(num_frames=0, height=2, width=2)),
], ids=["misaligned-size", "misaligned-length", "dict", "empty-without-dims",
        "empty-with-zero-frames"])
def test_masklet_set_constructor_rejects_what_it_cannot_hold(tracks, dims):
    with pytest.raises(ValueError):
        MaskletSet(tracks=tracks, **dims)


def test_masklet_set_constructor_takes_dims_from_its_tracks():
    a = [mask_from_rows("#."), mask_from_rows(".#")]
    b = seq_of(mask_from_rows(".."), mask_from_rows("##"))
    ms = MaskletSet(tracks=[a, b])
    assert (ms.num_frames, ms.height, ms.width) == (2, 1, 2)
    assert isinstance(ms.tracks[0], MaskSequence) and ms.tracks[1] is b
