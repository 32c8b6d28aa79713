import dataclasses
import json

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
from maskfuse.synth import _render_track


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
    for t in range(3):
        row, col = track.position(t)
        disk = _render_track(track, t, h, w)
        assert disk.dtype == np.bool_
        assert np.array_equal(disk, (yy - row) ** 2 + (xx - col) ** 2 <= radius ** 2)


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
