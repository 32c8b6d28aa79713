import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from maskfuse import (
    CorruptionSpec,
    RefineConfig,
    Scenario,
    ScenarioError,
    ShapeTrack,
    area,
    evaluate_sequence,
    fig2_scenario,
    generate,
    refine_video,
    scenario_from_dict,
    scenario_to_dict,
)
import maskfuse.cli
import maskfuse.manifest
import maskfuse.masks
import maskfuse.refine
import maskfuse.synth
from maskfuse.masks import erode, rle_encode, union
from maskfuse.synth import _track_runs


def render_dense(track: ShapeTrack, frame_index: int, height: int, width: int) -> np.ndarray:
    """Dense reference rasterizer: one instance at one frame, clipped at the image edges."""
    row, col = track.position(frame_index)
    box_h, box_w = track.extent
    if track.kind == "rect":
        top, left = row, col
    else:
        r = track.radius
        top, left = row - r, col - r
    mask = np.zeros((height, width), dtype=bool)
    r0, r1 = max(0, top), min(height, top + box_h)
    c0, c1 = max(0, left), min(width, left + box_w)
    if r0 < r1 and c0 < c1:
        if track.kind == "rect":
            mask[r0:r1, c0:c1] = True
        else:
            yy, xx = np.ogrid[r0:r1, c0:c1]
            mask[r0:r1, c0:c1] = (xx - col) ** 2 <= r ** 2 - (yy - row) ** 2
    return mask


def dense_reference(scenario: Scenario, drops=(), adds=()):
    """Per frame, the dense instance masks, ground truth and coarse mask, and
    the frames where the coarse mask differs, built with the dense helpers."""
    h, w = scenario.height, scenario.width
    tracks, gt, coarse = [], [], []
    for t in range(scenario.frames):
        masks = [render_dense(track, t, h, w) for track in scenario.instances]
        tracks.append(masks)
        gt.append(union([masks[i - 1] for i in scenario.target]))
        parts = [masks[i - 1] for i in scenario.target if (t, i) not in drops]
        parts += [masks[i - 1] for i in scenario.non_target if (t, i) in adds]
        coarse.append(erode(union(parts) if parts else np.zeros((h, w), dtype=bool),
                            scenario.corruption.boundary_erosion_px))
    corrupted = tuple(t for t in range(scenario.frames) if not np.array_equal(coarse[t], gt[t]))
    return tracks, gt, coarse, corrupted


def assert_matches_dense_reference(scenario, gt, masklets, coarse, drops=(), adds=()):
    """The rendered sequences hold the reference's frames, as canonical runs."""
    want_tracks, want_gt, want_coarse, corrupted = dense_reference(scenario, drops, adds)
    for t in range(scenario.frames):
        for iid, want in enumerate(want_tracks[t], start=1):
            assert np.array_equal(masklets.frame(iid, t), want)
            assert masklets.tracks[iid - 1].rles[t] == rle_encode(want)
        for seq, want in ((gt, want_gt[t]), (coarse, want_coarse[t])):
            assert np.array_equal(seq[t], want) and seq.rles[t] == rle_encode(want)
    return corrupted


def paint(starts, ends, height: int, width: int) -> np.ndarray:
    """The mask whose foreground is the flat intervals ``[starts, ends)``."""
    flat = np.zeros(height * width, dtype=bool)
    for s, e in zip(starts.tolist(), ends.tolist()):
        flat[s:e] = True
    return flat.reshape(height, width)


def simple_scenario(**overrides) -> Scenario:
    params = dict(
        frames=6,
        height=16,
        width=24,
        instances=(
            ShapeTrack(kind="rect", size=(4, 5), start=(2, 2), velocity=(0, 1)),
            ShapeTrack(kind="disk", radius=2, start=(11, 18), velocity=(0, -1)),
        ),
        target=(1,),
        seed=99,
    )
    params.update(overrides)
    return Scenario(**params)


# --- rendering ---------------------------------------------------------------

def test_zero_corruption_coarse_equals_gt():
    result = generate(simple_scenario())
    assert result.coarse.equals(result.gt)
    assert result.corrupted_frames == ()
    assert result.drops == () and result.adds == ()


def test_total_dropout_makes_coarse_empty():
    scenario = simple_scenario(
        instances=(ShapeTrack(kind="rect", size=(4, 5), start=(2, 2), velocity=(0, 1)),),
        target=(1,),
        corruption=CorruptionSpec(flicker_drop_prob=1.0),
    )
    result = generate(scenario)
    assert all(not frame.any() for frame in result.coarse.frames)
    assert len(result.corrupted_frames) == scenario.frames


def test_gt_is_union_of_target_instances():
    scenario = simple_scenario(target=(1, 2))
    result = generate(scenario)
    for t in range(scenario.frames):
        both = result.masklets.frame(1, t) | result.masklets.frame(2, t)
        assert np.array_equal(result.gt[t], both)


def test_masklets_are_exact_tracks():
    result = generate(simple_scenario())
    assert result.masklets.num_instances == 2
    # rect glides one column per frame: same area, shifted position
    areas = [area(result.masklets.frame(1, t)) for t in range(6)]
    assert areas == [20] * 6
    first = result.masklets.frame(1, 0)
    shifted = np.roll(first, 3, axis=1)
    assert np.array_equal(result.masklets.frame(1, 3), shifted)


def test_rect_clips_at_image_edge():
    scenario = simple_scenario(
        instances=(ShapeTrack(kind="rect", size=(4, 5), start=(2, -3), velocity=(0, 0)),),
        target=(1,),
        frames=1,
    )
    frame = generate(scenario).masklets.frame(1, 0)
    assert area(frame) == 8  # only 2 of 5 columns are inside
    assert frame[2:6, 0:2].all()


@pytest.mark.parametrize("start, radius", [
    ((10, 14), 6),   # inside the image
    ((0, 0), 5),     # clipped at a corner
    ((19, 29), 3),   # clipped at the opposite corner
    ((-3, 15), 5),   # centre above the image
    ((10, 33), 5),   # centre right of the image
    ((-5, 15), 5),   # only the bottom pixel is inside
    ((-6, 15), 5),   # entirely outside
    ((7, 8), 0),     # a single pixel
    ((7, -1), 0),    # a single pixel outside
])
def test_disk_matches_full_frame_formula(start, radius):
    h, w = 20, 30
    yy, xx = np.ogrid[:h, :w]
    track = ShapeTrack(kind="disk", radius=radius, start=start, velocity=(1, -2))
    t0, t1 = 2, 5
    starts, ends = _track_runs(track, t0, t1, h, w)
    frame = starts // (h * w)
    assert (np.diff(starts) > 0).all() and (np.diff(frame) >= 0).all()
    for k, t in enumerate(range(t0, t1)):
        row, col = track.position(t)
        in_frame = frame == k
        s, e = starts[in_frame] - k * h * w, ends[in_frame] - k * h * w
        # One interval per covered row, rows in order, none crossing a row's end.
        rows = s // w
        assert (np.diff(rows) == 1).all() and ((e - 1) // w == rows).all()
        assert (s >= 0).all() and (s < e).all()
        disk = paint(s, e, h, w)
        assert np.array_equal(disk, (yy - row) ** 2 + (xx - col) ** 2 <= radius ** 2)
        assert np.array_equal(disk, render_dense(track, t, h, w))


BLOCK = maskfuse.synth._BLOCK_FRAMES

REFERENCE_SCENES = {
    # Each row of the rect is a whole image row: the rows merge into one run.
    "full-width rect, vertical": Scenario(
        frames=5, height=10, width=12, target=(1,),
        instances=(ShapeTrack(kind="rect", size=(3, 12), start=(-1, 0), velocity=(2, 0)),
                   ShapeTrack(kind="disk", radius=1, start=(8, 5), velocity=(0, 1))),
        corruption=CorruptionSpec(forced_adds=((1, 2),))),
    # Clipped at the top, left, bottom and right edges, then gone past them.
    "every edge": Scenario(
        frames=6, height=12, width=16, target=(1, 3), seed=5,
        instances=(ShapeTrack(kind="rect", size=(4, 5), start=(1, 6), velocity=(-1, 0)),
                   ShapeTrack(kind="rect", size=(3, 4), start=(4, 1), velocity=(0, -1)),
                   ShapeTrack(kind="disk", radius=2, start=(9, 8), velocity=(1, 0)),
                   ShapeTrack(kind="disk", radius=3, start=(6, 13), velocity=(0, 1))),
        corruption=CorruptionSpec(flicker_drop_prob=0.3, spurious_add_prob=0.5)),
    "disks of radius 0": Scenario(
        frames=4, height=6, width=7, target=(1, 2),
        instances=(ShapeTrack(kind="disk", radius=0, start=(0, 0), velocity=(1, 1)),
                   ShapeTrack(kind="disk", radius=0, start=(5, 5), velocity=(0, 1)),
                   ShapeTrack(kind="disk", radius=0, start=(3, 3))),
        corruption=CorruptionSpec(forced_drops=((1, 2),), forced_adds=((2, 3),))),
    "forced drops and adds": simple_scenario(
        instances=simple_scenario().instances + (
            ShapeTrack(kind="rect", size=(3, 3), start=(6, 6), velocity=(1, 1)),),
        target=(1, 3), corruption=CorruptionSpec(
            forced_drops=((0, 1), (2, 3), (4, 1), (4, 3)), forced_adds=((1, 2), (4, 2)))),
    # Frame 3 drops the only target and adds nothing: its coarse union is empty.
    "empty coarse frame": simple_scenario(corruption=CorruptionSpec(forced_drops=((3, 1),))),
    # Two whole blocks and a short one, with corruption sampled on every frame;
    # the disks cross the image during the second block.
    "three blocks": Scenario(
        frames=2 * BLOCK + 5, height=10, width=14, target=(1, 3), seed=11,
        instances=(ShapeTrack(kind="rect", size=(3, 4), start=(1, 2)),
                   ShapeTrack(kind="disk", radius=2, start=(6, -BLOCK - 8), velocity=(0, 1)),
                   ShapeTrack(kind="disk", radius=1, start=(-BLOCK - 2, 10), velocity=(1, 0))),
        corruption=CorruptionSpec(flicker_drop_prob=0.3, spurious_add_prob=0.4)),
    "one frame": simple_scenario(frames=1, corruption=CorruptionSpec(forced_adds=((0, 2),))),
    # Forced events on the first and the last frame of every block.
    "forced at block ends": simple_scenario(
        frames=2 * BLOCK + 1, instances=(ShapeTrack(kind="rect", size=(4, 5), start=(2, 2)),
                                         ShapeTrack(kind="disk", radius=2, start=(11, 18))),
        corruption=CorruptionSpec(
            forced_drops=((0, 1), (BLOCK - 1, 1), (BLOCK, 1), (2 * BLOCK - 1, 1), (2 * BLOCK, 1)),
            forced_adds=((0, 2), (BLOCK - 1, 2), (BLOCK, 2), (2 * BLOCK - 1, 2), (2 * BLOCK, 2)))),
    # The rect leaves through the bottom edge and the disk through the left one,
    # both in the middle of the first block.
    "leaves mid-block": simple_scenario(
        frames=BLOCK + 3, target=(1, 2),
        instances=(ShapeTrack(kind="rect", size=(4, 5), start=(2, 2), velocity=(1, 0)),
                   ShapeTrack(kind="disk", radius=2, start=(11, 18), velocity=(0, -1)))),
}


@pytest.mark.parametrize("erosion", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_generate_matches_the_dense_reference(name, erosion):
    base = REFERENCE_SCENES[name]
    scenario = dataclasses.replace(base, corruption=dataclasses.replace(
        base.corruption, boundary_erosion_px=erosion))
    result = generate(scenario)
    corrupted = assert_matches_dense_reference(scenario, result.gt, result.masklets,
                                               result.coarse, result.drops, result.adds)
    assert result.corrupted_frames == corrupted
    if name == "full-width rect, vertical":
        assert [rle.counts for rle in result.masklets.tracks[0].rles] == [
            (0, 24, 96), (12, 36, 72), (36, 36, 48), (60, 36, 24), (84, 36)]
    if name == "empty coarse frame":
        assert result.coarse.rles[3].counts == (scenario.height * scenario.width,)
        assert 3 in corrupted
    if name == "leaves mid-block":
        gone = [t for t in range(scenario.frames) if not result.gt[t].any()]
        assert 0 < gone[0] < BLOCK - 1 and gone == list(range(gone[0], scenario.frames))


# Far enough that int64 would wrap (4 * (2**62 + 1) is 2**64 + 4) or overflow.
@pytest.mark.parametrize("velocity", [[0, 2**62 + 1], [0, 10**30], [2**62 + 1, 0],
                                      [-(10**30), 0], [10**30, -(2**62 + 1)]])
def test_cli_synth_renders_far_shapes_outside_the_image(tmp_path, capsys, velocity):
    spec = {"video_id": "far", "frames": 5, "height": 8, "width": 8, "target": [1],
            "instances": [{"kind": "rect", "size": [2, 2], "start": [1, 0], "velocity": velocity},
                          {"kind": "disk", "radius": 1, "start": [5, 1], "velocity": velocity},
                          {"kind": "rect", "size": [3, 3], "start": [4, 4]}],
            "corruption": {"forced_adds": [{"frame": 5, "instance": 2}]}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = maskfuse.cli.main(["synth", "--spec", str(tmp_path / "spec.json"),
                              "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    gt, masklets, coarse = (maskfuse.manifest.load_manifest(out / f"{name}.json").data
                            for name in ("gt", "masklets", "coarse"))
    assert_matches_dense_reference(scenario_from_dict(spec), gt, masklets, coarse,
                                   adds={(4, 2)})
    assert not any(masklets.frame(1, t).any() for t in range(1, 5))


def test_generate_builds_no_dense_frame_per_instance():
    """No frame is ever dense, so peak memory does not grow with the number of
    instances as dense masks would: it stays below half of the 16 frames that
    one frame's instances take as dense masks (a dense mask per instance
    peaks at 36 frames here, the block renderer at 3.6, all of it runs)."""
    generate(simple_scenario())  # numpy's first calls allocate caches of their own
    h, w, n = 256, 512, 16
    scenario = Scenario(frames=2, height=h, width=w, target=tuple(range(1, n + 1)),
                        instances=tuple(ShapeTrack(kind="rect", size=(100, 100),
                                                   start=(8 * i, 20 * i)) for i in range(n)),
                        corruption=CorruptionSpec(boundary_erosion_px=1))
    tracemalloc.start()
    try:
        result = generate(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.gt[0].any()
    assert peak <= n // 2 * h * w


def test_synth_decodes_encodes_erodes_and_unites_no_dense_mask(tmp_path, monkeypatch):
    """``maskfuse synth`` renders, unites and erodes on runs: it calls none of
    the dense codec, the dense erosion and the dense union."""
    calls = {"rle_decode": 0, "rle_encode": 0, "erode": 0, "union": 0}
    for module in (maskfuse.masks, maskfuse.refine, maskfuse.synth, maskfuse.manifest,
                   maskfuse.cli):
        for name in calls:
            if hasattr(module, name):
                real = getattr(module, name)

                def spy(*args, real=real, name=name):
                    calls[name] += 1
                    return real(*args)

                monkeypatch.setattr(module, name, spy)
    scenario = simple_scenario(frames=BLOCK + 4, instances=simple_scenario().instances * 3,
                               target=(1, 2, 5), corruption=CorruptionSpec(
                                   boundary_erosion_px=1, flicker_drop_prob=0.3,
                                   spurious_add_prob=0.3))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scenario_to_dict(scenario)))
    assert maskfuse.cli.main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == dict.fromkeys(calls, 0)


def test_same_seed_is_bit_identical():
    scenario = simple_scenario(corruption=CorruptionSpec(flicker_drop_prob=0.4,
                                                         spurious_add_prob=0.3))
    a = generate(scenario)
    b = generate(scenario)
    assert a.coarse.equals(b.coarse)
    assert a.gt.equals(b.gt)
    assert (a.drops, a.adds, a.corrupted_frames) == (b.drops, b.adds, b.corrupted_frames)


def test_forced_events_do_not_shift_sampled_ones():
    base = simple_scenario(corruption=CorruptionSpec(flicker_drop_prob=0.5))
    forced = simple_scenario(corruption=CorruptionSpec(flicker_drop_prob=0.5,
                                                       forced_adds=((1, 2),)))
    sampled = generate(base).drops
    assert generate(forced).drops == sampled
    assert (1, 2) in generate(forced).adds


def test_corruption_draws_follow_the_documented_order():
    """One uniform per (frame, target) in row-major order for drops, then one
    per (frame, non-target) for adds, all from default_rng(seed)."""
    scenario = simple_scenario(
        instances=tuple(ShapeTrack(kind="rect", size=(2, 2), start=(3 * i, 0)) for i in range(5)),
        target=(1, 3, 5),
        corruption=CorruptionSpec(flicker_drop_prob=0.3, spurious_add_prob=0.4),
    )
    rng = np.random.default_rng(scenario.seed)
    drops = [(t, i) for t in range(scenario.frames) for i in (1, 3, 5) if rng.random() < 0.3]
    adds = [(t, i) for t in range(scenario.frames) for i in (2, 4) if rng.random() < 0.4]
    result = generate(scenario)
    assert drops and adds
    assert (result.drops, result.adds) == (tuple(drops), tuple(adds))
    # Plain ints, so the corruption report serialises.
    assert all(type(v) is int for event in result.drops + result.adds for v in event)


def test_forced_drop_removes_target_at_exact_frame():
    scenario = simple_scenario(corruption=CorruptionSpec(forced_drops=((3, 1),)))
    result = generate(scenario)
    assert result.corrupted_frames == (3,)
    assert not (result.coarse[3] & result.masklets.frame(1, 3)).any()
    assert np.array_equal(result.coarse[2], result.gt[2])


def test_boundary_erosion_shrinks_every_frame():
    scenario = simple_scenario(corruption=CorruptionSpec(boundary_erosion_px=1))
    result = generate(scenario)
    assert result.corrupted_frames == tuple(range(6))
    for t in range(6):
        # 4x5 rect eroded by one 4-neighbour step -> 2x3 interior
        assert area(result.coarse[t]) == 6
        assert (result.coarse[t] & ~result.gt[t]).sum() == 0


def test_window_corruption_summary():
    scenario = simple_scenario(corruption=CorruptionSpec(forced_drops=((0, 1), (1, 1), (5, 1))))
    result = generate(scenario)
    assert result.window_corruption(3) == ((0, 3, 2), (3, 6, 1))
    assert not result.minority_everywhere(3)  # 2 corrupted of 3 in the first window


def test_minority_everywhere_is_strict():
    scenario = simple_scenario(corruption=CorruptionSpec(forced_drops=((0, 1), (1, 1), (5, 1))))
    result = generate(scenario)
    # 3 corrupted of 6 frames: 2*3 == 6, not a strict minority
    assert not result.minority_everywhere(6)


# --- validation --------------------------------------------------------------

def test_scenario_rejects_bad_shapes_and_targets():
    with pytest.raises(ScenarioError):
        simple_scenario(frames=0)
    with pytest.raises(ScenarioError):
        simple_scenario(target=())
    with pytest.raises(ScenarioError):
        simple_scenario(target=(3,))
    with pytest.raises(ScenarioError):
        simple_scenario(instances=(ShapeTrack(kind="blob", start=(0, 0), radius=2),),
                        target=(1,))
    with pytest.raises(ScenarioError):
        simple_scenario(instances=(ShapeTrack(kind="rect", size=(40, 5), start=(0, 0)),),
                        target=(1,))
    with pytest.raises(ScenarioError):
        simple_scenario(instances=(ShapeTrack(kind="disk", radius=20, start=(0, 0)),),
                        target=(1,))
    with pytest.raises(ScenarioError):
        simple_scenario(instances=(ShapeTrack(kind="rect", start=(0, 0)),), target=(1,))
    with pytest.raises(ScenarioError, match=r"^instance 2 is not a ShapeTrack: \{'kind'"):
        simple_scenario(instances=(ShapeTrack(kind="rect", size=(2, 2)),
                                   {"kind": "rect", "size": (2, 2)}))


def test_corruption_spec_rejects_bad_values():
    with pytest.raises(ScenarioError):
        CorruptionSpec(flicker_drop_prob=1.5)
    with pytest.raises(ScenarioError):
        CorruptionSpec(spurious_add_prob=-0.1)
    with pytest.raises(ScenarioError):
        CorruptionSpec(boundary_erosion_px=-2)
    with pytest.raises(ScenarioError):
        CorruptionSpec(forced_drops=((1,),))
    with pytest.raises(ScenarioError, match="^forced_drops must be a list of integer pairs"):
        CorruptionSpec(forced_drops=5)
    with pytest.raises(ScenarioError, match="^forced_adds must be a list of integer pairs"):
        CorruptionSpec(forced_adds="03")


def test_scenario_rejects_misdirected_forced_events():
    with pytest.raises(ScenarioError, match="^forced drop instance 2 is not a target instance$"):
        simple_scenario(corruption=CorruptionSpec(forced_drops=((0, 2),)))
    with pytest.raises(ScenarioError,
                       match="^forced add instance 1 is not a non-target instance$"):
        simple_scenario(corruption=CorruptionSpec(forced_adds=((0, 1),)))
    with pytest.raises(ScenarioError, match=r"^forced drop frame 7 outside 1\.\.6$"):
        simple_scenario(corruption=CorruptionSpec(forced_drops=((6, 1),)))
    with pytest.raises(ScenarioError, match=r"^forced add frame 7 outside 1\.\.6$"):
        simple_scenario(corruption=CorruptionSpec(forced_adds=((6, 2),)))


# --- fig2 --------------------------------------------------------------------

def test_fig2_combination_trace():
    result = generate(fig2_scenario())
    refined = refine_video(result.coarse, result.masklets, RefineConfig(window=5, tau=0.8))
    combos = [fr.combination for fr in refined.report.windows[0].frames]
    assert combos == [(2,), (2,), (1, 2), (2,), (2,)]


def test_fig2_refinement_recovers_target():
    result = generate(fig2_scenario())
    refined = refine_video(result.coarse, result.masklets, RefineConfig(window=5, tau=0.8))
    assert refined.report.windows[0].selected == (2,)
    assert np.array_equal(refined.frames[2], result.masklets.frame(2, 2))
    baseline = evaluate_sequence(result.coarse, result.gt)
    final = evaluate_sequence(refined, result.gt)
    assert final.jf_mean == 1.0
    assert baseline.jf_mean < 1.0


# --- JSON form ---------------------------------------------------------------

def test_scenario_json_roundtrip():
    scenario = simple_scenario(corruption=CorruptionSpec(
        flicker_drop_prob=0.25, spurious_add_prob=0.1, boundary_erosion_px=1,
        forced_drops=((3, 1),), forced_adds=((0, 2),)))
    obj = scenario_to_dict(scenario)
    assert scenario_from_dict(obj) == scenario
    # Through the text form too, where tuples come back as lists.
    assert scenario_from_dict(json.loads(json.dumps(obj))) == scenario


def test_scenario_json_uses_one_based_frames():
    scenario = simple_scenario(corruption=CorruptionSpec(forced_drops=((0, 1),)))
    obj = scenario_to_dict(scenario)
    assert obj["corruption"]["forced_drops"] == [{"frame": 1, "instance": 1}]


def test_scenario_from_dict_rejects_malformed_input():
    with pytest.raises(ScenarioError):
        scenario_from_dict([])
    with pytest.raises(ScenarioError):
        scenario_from_dict({"frames": 3, "height": 8, "width": 8, "instances": []})
    good = scenario_to_dict(simple_scenario())
    bad = dict(good)
    bad["corruption"] = {"forced_drops": [{"frame": 0, "instance": 1}]}  # 0 in a 1-based file
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)


def test_types_validate_what_they_hold():
    with pytest.raises(ScenarioError, match="frames"):
        simple_scenario(frames=2.5)
    with pytest.raises(ScenarioError, match="seed"):
        simple_scenario(seed=-1)
    with pytest.raises(ScenarioError, match="corruption"):
        simple_scenario(corruption={})
    with pytest.raises(ScenarioError, match="size"):
        ShapeTrack(kind="rect", size=(3,))
    with pytest.raises(ScenarioError, match="radius"):
        ShapeTrack(kind="rect", size=(2, 2), radius=1)
    with pytest.raises(ScenarioError, match="size"):
        ShapeTrack(kind="disk", radius=1, size=(3, 3))
    with pytest.raises(ScenarioError, match="velocity"):
        ShapeTrack(kind="disk", radius=1, velocity=(0, 1.5))
    track = ShapeTrack(kind="rect", size=[2, 2], velocity=[1, 0])
    assert (track.start, track.velocity, track.size) == ((0, 0), (1, 0), (2, 2))


def test_scenario_rejects_non_list_instances():
    with pytest.raises(ScenarioError, match="instances"):
        Scenario(frames=2, height=8, width=8, instances=5, target=(1,))


def test_scenario_json_keys_are_the_field_names():
    """The JSON form has no names of its own: each object's keys are the
    fields of the type :func:`scenario_from_dict` builds from it."""
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    obj = scenario_to_dict(simple_scenario())
    assert set(obj) == names(Scenario)
    assert set(obj["corruption"]) == names(CorruptionSpec)
    rect, disk = obj["instances"]
    assert set(rect) == names(ShapeTrack) - {"radius"}
    assert set(disk) == names(ShapeTrack) - {"size"}
