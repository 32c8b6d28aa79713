"""Every integer parameter follows the one rule of ``masks.require_int``: an
``int`` or numpy integer, not a ``bool``, of at least a minimum, stored as a
plain ``int``; anything else is the site's error with the one message."""

import json

import numpy as np
import pytest

from maskfuse import (
    CorruptionSpec,
    ManifestSchemaError,
    MaskletSet,
    RefineConfig,
    RleFormatError,
    RleMask,
    Scenario,
    ScenarioError,
    ShapeTrack,
    boundary_f,
    corruption_report,
    fig2_scenario,
    generate,
    load_manifest,
    refine_video,
    scenario_to_dict,
)
from maskfuse.masks import erode
from maskfuse.refine import window_spans

FIG2 = generate(fig2_scenario())
SOLID = np.ones((5, 5), dtype=bool)
LINE = np.zeros((5, 5), dtype=bool)
LINE[2, 1:4] = True
SCENE = dict(frames=3, height=4, width=5, instances=(ShapeTrack(kind="rect", size=(2, 2)),),
             target=(1,))


def header_field(key):
    """Load a one-frame 2x2 manifest whose header field ``key`` is the value."""
    def load(value, tmp_path):
        payload = {"video_id": "v", "kind": "gt", "height": 2, "width": 2, "num_frames": 1,
                   "frames": [{"h": 2, "w": 2, "counts": [4]}], key: value}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        return getattr(load_manifest(path), key)
    return load


def scenario_field(key):
    return lambda value, _: getattr(Scenario(**{**SCENE, key: value}), key)


# (id, call(value, tmp_path) -> what the site stores or returns, as JSON-ready
#  data, error type, name in the message ("{tmp}" is the test's directory),
#  minimum, a valid value)
SITES = [
    ("RefineConfig.window", lambda v, _: RefineConfig(window=v).window,
     ValueError, "window", 1, 3),
    ("window_spans", lambda v, _: window_spans(7, v), ValueError, "window", 1, 3),
    ("window_corruption", lambda v, _: FIG2.window_corruption(v), ValueError, "window", 1, 2),
    ("minority_everywhere", lambda v, _: FIG2.minority_everywhere(v),
     ValueError, "window", 1, 2),
    ("refine_video.workers", lambda v, _: refine_video(FIG2.coarse, FIG2.masklets,
                                                       workers=v).report.to_json_dict(),
     ValueError, "workers", 1, 2),
    ("boundary_f.tolerance_px", lambda v, _: boundary_f(LINE, SOLID, v),
     ValueError, "tolerance_px", 1, 1),
    ("corruption_report.window", lambda v, _: corruption_report(FIG2, v),
     ValueError, "window", 1, 2),
    ("erode.steps", lambda v, _: erode(SOLID, v).tolist(), ValueError, "steps", 0, 1),
    ("RleMask.height", lambda v, _: RleMask(height=v, width=2, counts=(4,)).height,
     RleFormatError, "RLE height", 1, 2),
    ("RleMask.width", lambda v, _: RleMask(height=2, width=v, counts=(4,)).width,
     RleFormatError, "RLE width", 1, 2),
    ("manifest.height", header_field("height"), ManifestSchemaError,
     "{tmp}/m.json: 'height'", 1, 2),
    ("manifest.width", header_field("width"), ManifestSchemaError,
     "{tmp}/m.json: 'width'", 1, 2),
    ("manifest.num_frames", header_field("num_frames"), ManifestSchemaError,
     "{tmp}/m.json: 'num_frames'", 1, 1),
    ("Scenario.frames", scenario_field("frames"), ScenarioError, "frames", 1, 3),
    ("Scenario.height", scenario_field("height"), ScenarioError, "height", 1, 4),
    ("Scenario.width", scenario_field("width"), ScenarioError, "width", 1, 5),
    ("Scenario.seed", scenario_field("seed"), ScenarioError, "seed", 0, 7),
    ("ShapeTrack.radius", lambda v, _: ShapeTrack(kind="disk", radius=v).radius,
     ScenarioError, "disk radius", 0, 2),
    ("boundary_erosion_px",
     lambda v, _: CorruptionSpec(boundary_erosion_px=v).boundary_erosion_px,
     ScenarioError, "boundary_erosion_px", 0, 1),
    ("MaskletSet.num_frames", lambda v, _: MaskletSet(tracks=[[LINE]], num_frames=v).num_frames,
     ValueError, "num_frames", 1, 1),
    ("MaskletSet.height", lambda v, _: MaskletSet(tracks=[[LINE]], height=v).height,
     ValueError, "height", 1, 5),
    ("MaskletSet.width", lambda v, _: MaskletSet(tracks=[[LINE]], width=v).width,
     ValueError, "width", 1, 5),
]
# None asks for a default there: boundary_f's tolerance, a masklet set's dimensions
# from its tracks. So it is no bad value at those sites.
NONE_IS_DEFAULT = ("boundary_f.tolerance_px", "MaskletSet.num_frames", "MaskletSet.height",
                   "MaskletSet.width")
BAD_CASES = [pytest.param(*site, bad, id=f"{site[0]}-{bad}")
             for site in SITES for bad in (True, 2.5, "3", None, "below")
             if not (bad is None and site[0] in NONE_IS_DEFAULT)]
# JSON has no numpy integers, so the manifest header only meets plain ones.
NUMPY_CASES = [pytest.param(*site, id=site[0])
               for site in SITES if not site[0].startswith("manifest.")]


@pytest.mark.parametrize("site, call, error, name, minimum, valid, bad", BAD_CASES)
def test_a_bad_integer_is_the_sites_error(tmp_path, site, call, error, name, minimum, valid,
                                          bad):
    # Bad: not an int or numpy integer, a bool, or below the minimum.
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(error) as info:
        call(value, tmp_path)
    assert type(info.value) is error
    assert str(info.value) == (f"{name.format(tmp=tmp_path)} must be an integer of at least "
                               f"{minimum}, got {value!r}")


@pytest.mark.parametrize("numpy_type", [np.int64, np.uint8])
@pytest.mark.parametrize("site, call, error, name, minimum, valid", NUMPY_CASES)
def test_numpy_integers_are_stored_as_ints(tmp_path, site, call, error, name, minimum, valid,
                                           numpy_type):
    # json.dumps rejects numpy integers, so it fails wherever one is kept.
    assert json.dumps(call(numpy_type(valid), tmp_path)) == json.dumps(call(valid, tmp_path))


def numpy_ints(value):
    """``value`` with every int inside it (tuples and lists included) as an np.int64."""
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, (tuple, list)):
        return type(value)(numpy_ints(v) for v in value)
    return value


def test_scenario_and_report_from_numpy_integers_serialise_alike():
    plain = fig2_scenario()
    spec = plain.corruption
    built = Scenario(
        frames=np.int64(plain.frames), height=np.uint8(plain.height),
        width=np.int32(plain.width),
        instances=tuple(ShapeTrack(kind=t.kind, start=numpy_ints(t.start),
                                   velocity=numpy_ints(t.velocity), size=numpy_ints(t.size),
                                   radius=numpy_ints(t.radius))
                        for t in plain.instances),
        target=numpy_ints(plain.target),
        corruption=CorruptionSpec(boundary_erosion_px=np.int64(1),
                                  forced_adds=numpy_ints(spec.forced_adds)),
        seed=np.int64(plain.seed), video_id=plain.video_id)
    expected = Scenario(**{**vars(plain), "corruption": CorruptionSpec(
        boundary_erosion_px=1, forced_adds=spec.forced_adds)})
    assert json.dumps(scenario_to_dict(built)) == json.dumps(scenario_to_dict(expected))
    assert (json.dumps(corruption_report(generate(built), np.int64(5)))
            == json.dumps(corruption_report(generate(expected), 5)))


def test_an_empty_masklet_set_stores_numpy_dimensions_as_plain_ints():
    masklets = MaskletSet(tracks=[], num_frames=np.int64(2), height=np.uint8(3),
                          width=np.int32(4))
    assert json.dumps((masklets.num_frames, masklets.height, masklets.width)) == "[2, 3, 4]"


def test_a_masklet_set_with_tracks_rejects_dimensions_that_only_compare_equal():
    # Both used to be accepted, as True == 1 and 2.0 == 2, and stored as 1 and 2.
    track = [np.zeros((2, 3), dtype=bool)]
    with pytest.raises(ValueError, match="num_frames must be an integer of at least 1, got True"):
        MaskletSet(tracks=[track], num_frames=True)
    with pytest.raises(ValueError, match=r"height must be an integer of at least 1, got 2\.0"):
        MaskletSet(tracks=[track], height=2.0)
    masklets = MaskletSet(tracks=[track], num_frames=np.int64(1), height=np.int64(2))
    assert (type(masklets.num_frames), type(masklets.height)) == (int, int)
