import json
import os
import re

import numpy as np
import pytest

import maskfuse.manifest
from conftest import SEQUENCE_FORMS, rand_mask, sequence_as
from maskfuse import (
    ManifestIntegrityError,
    ManifestKindError,
    ManifestParseError,
    ManifestSchemaError,
    MaskletSet,
    MaskSequence,
    VideoManifest,
    empty_mask,
    fig2_scenario,
    generate,
    load_manifest,
    masklet_manifest,
    rle_encode,
    save_manifest,
    sequence_manifest,
)
from maskfuse.manifest import SEQUENCE_KINDS, manifest_to_json_dict
from maskfuse.masks import MAX_MASK_PIXELS


def rle_obj(mask) -> dict:
    return rle_encode(np.asarray(mask, dtype=bool)).to_json_dict()


def write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def coarse_payload(frames, h, w, video_id="vid") -> dict:
    return {
        "video_id": video_id,
        "kind": "coarse",
        "height": h,
        "width": w,
        "num_frames": len(frames),
        "frames": [rle_obj(f) for f in frames],
    }


def test_sequence_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    seq = MaskSequence(frames=tuple(rand_mask(rng, 5, 7) for _ in range(4)))
    path = tmp_path / "seq.json"
    save_manifest(path, sequence_manifest("demo", "coarse", seq))
    loaded = load_manifest(path)
    assert loaded.video_id == "demo"
    assert loaded.kind == "coarse"
    assert loaded.data.equals(seq)


@pytest.mark.parametrize("form", SEQUENCE_FORMS)
def test_sequence_manifest_wraps_every_sequence_form_alike(form):
    rng = np.random.default_rng(4)
    frames = [rand_mask(rng, 3, 5) for _ in range(4)]
    expected = manifest_to_json_dict(
        sequence_manifest("v", "refined", MaskSequence(frames=frames)))
    manifest = sequence_manifest("v", "refined", sequence_as(form, frames))
    assert type(manifest.data) is MaskSequence
    assert manifest_to_json_dict(manifest) == expected


def test_sequence_manifest_rejects_ragged_frames():
    with pytest.raises(ValueError):
        sequence_manifest("v", "coarse", [empty_mask(2, 2), empty_mask(2, 3)])


def test_masklet_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    tracks = MaskletSet(tracks=[MaskSequence(frames=tuple(rand_mask(rng, 4, 6) for _ in range(3)))
                                for _ in range(2)])
    path = tmp_path / "tracks.json"
    save_manifest(path, masklet_manifest("demo", tracks))
    loaded = load_manifest(path)
    assert loaded.kind == "masklets"
    assert loaded.data.num_instances == 2
    for iid in (1, 2):
        assert loaded.data.tracks[iid - 1].equals(tracks.tracks[iid - 1])


def test_fig2_masklets_roundtrip(tmp_path):
    result = generate(fig2_scenario())
    path = tmp_path / "m.json"
    save_manifest(path, masklet_manifest("fig2", result.masklets))
    loaded = load_manifest(path).data
    assert loaded.num_instances == 2
    assert loaded.num_frames == 5
    for iid in (1, 2):
        assert loaded.tracks[iid - 1].equals(result.masklets.tracks[iid - 1])


def test_single_all_false_frame(tmp_path):
    path = write_json(tmp_path / "one.json",
                      coarse_payload([np.zeros((3, 4), dtype=bool)], 3, 4))
    loaded = load_manifest(path)
    assert loaded.num_frames == 1
    assert not loaded.data[0].any()


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ManifestParseError):
        load_manifest(tmp_path / "nope.json")


def test_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ManifestParseError):
        load_manifest(path)


def test_missing_fields_are_schema_errors(tmp_path):
    payload = coarse_payload([np.zeros((2, 2), dtype=bool)], 2, 2)
    for key in ("video_id", "kind", "height", "width", "num_frames", "frames"):
        broken = dict(payload)
        del broken[key]
        path = write_json(tmp_path / f"missing-{key}.json", broken)
        with pytest.raises(ManifestSchemaError, match=key):
            load_manifest(path)


def test_unknown_kind_is_schema_error(tmp_path):
    payload = coarse_payload([np.zeros((2, 2), dtype=bool)], 2, 2)
    payload["kind"] = "predictions"
    with pytest.raises(ManifestSchemaError):
        load_manifest(write_json(tmp_path / "k.json", payload))


def test_bad_rle_sum_names_the_frame(tmp_path):
    frames = [np.zeros((2, 2), dtype=bool) for _ in range(8)]
    payload = coarse_payload(frames, 2, 2)
    payload["frames"][6] = {"h": 2, "w": 2, "counts": [3]}  # sums to h*w - 1
    path = write_json(tmp_path / "bad.json", payload)
    with pytest.raises(ManifestIntegrityError, match="frame 7"):
        load_manifest(path)


def test_frame_count_mismatch_is_integrity_error(tmp_path):
    payload = coarse_payload([np.zeros((2, 2), dtype=bool)] * 3, 2, 2)
    payload["num_frames"] = 4
    with pytest.raises(ManifestIntegrityError):
        load_manifest(write_json(tmp_path / "n.json", payload))


def test_rle_dims_must_match_header(tmp_path):
    payload = coarse_payload([np.zeros((2, 2), dtype=bool)], 2, 2)
    payload["frames"][0] = {"h": 2, "w": 3, "counts": [6]}
    with pytest.raises(ManifestIntegrityError, match="frame 1"):
        load_manifest(write_json(tmp_path / "d.json", payload))


@pytest.mark.parametrize("keys, bad_rle_key, got", [
    (("2",), None, "[2]"),
    (("1", "3"), None, "[1, 3]"),
    (("1", "3"), "3", "[1, 3]"),
], ids=["id-2-only", "gap", "gap-before-a-malformed-rle"])
def test_masklet_ids_must_be_contiguous(tmp_path, keys, bad_rle_key, got):
    # The ids are checked before any frame is decoded, so a malformed RLE
    # under a non-contiguous id still reports the ids.
    frame = rle_obj(np.zeros((2, 2), dtype=bool))
    instances = {key: [frame] for key in keys}
    if bad_rle_key is not None:
        instances[bad_rle_key] = [{"h": 2, "w": 2, "counts": [5]}]
    payload = {
        "video_id": "v", "kind": "masklets", "height": 2, "width": 2,
        "num_frames": 1, "instances": instances,
    }
    path = write_json(tmp_path / "m.json", payload)
    want = f"{path}: instance ids must be contiguous integers starting at 1, got {got}"
    with pytest.raises(ManifestIntegrityError, match=f"^{re.escape(want)}$"):
        load_manifest(path)


def test_masklet_errors_name_the_instance(tmp_path):
    good = rle_obj(np.zeros((2, 2), dtype=bool))
    payload = {
        "video_id": "v", "kind": "masklets", "height": 2, "width": 2,
        "num_frames": 2, "instances": {"1": [good, good], "2": [good]},
    }
    with pytest.raises(ManifestIntegrityError, match="instance 2"):
        load_manifest(write_json(tmp_path / "m.json", payload))
    payload["instances"]["2"] = [good, {"h": 2, "w": 2, "counts": [5]}]
    with pytest.raises(ManifestIntegrityError, match="instance 2 frame 2"):
        load_manifest(write_json(tmp_path / "m2.json", payload))


def test_masklet_keys_must_be_decimal(tmp_path):
    # "²" passes str.isdigit but not int(); "01" is not the canonical spelling of 1;
    # 5000 digits pass str.isdecimal but exceed what int() converts.
    for key in ("one", "²", "01", "1" * 5000):
        payload = {
            "video_id": "v", "kind": "masklets", "height": 2, "width": 2,
            "num_frames": 1, "instances": {key: [rle_obj(np.zeros((2, 2), dtype=bool))]},
        }
        with pytest.raises(ManifestSchemaError, match="instance keys must be decimal"):
            load_manifest(write_json(tmp_path / "m.json", payload))


def test_empty_masklet_manifest_loads(tmp_path):
    payload = {
        "video_id": "v", "kind": "masklets", "height": 2, "width": 3,
        "num_frames": 4, "instances": {},
    }
    loaded = load_manifest(write_json(tmp_path / "m.json", payload))
    assert loaded.data.num_instances == 0
    assert (loaded.num_frames, loaded.height, loaded.width) == (4, 2, 3)


def test_kind_guards(tmp_path):
    seq_path = tmp_path / "seq.json"
    save_manifest(seq_path, sequence_manifest(
        "v", "gt", MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))))
    assert load_manifest(seq_path, kinds=SEQUENCE_KINDS).data.num_frames == 1
    with pytest.raises(ManifestKindError) as info:
        load_manifest(seq_path, kinds=("masklets",))
    assert str(info.value) == f"{seq_path}: kind 'gt' where a masklets manifest is required"

    tracks = MaskletSet(tracks=[], num_frames=1, height=2, width=2)
    m_path = tmp_path / "m.json"
    save_manifest(m_path, masklet_manifest("v", tracks))
    assert load_manifest(m_path, kinds=("masklets",)).data.num_instances == 0
    with pytest.raises(ManifestKindError) as info:
        load_manifest(m_path, kinds=SEQUENCE_KINDS)
    assert str(info.value) == (
        f"{m_path}: kind 'masklets' where a coarse/refined/gt manifest is required")
    # The default takes every kind.
    assert load_manifest(seq_path).kind == "gt" and load_manifest(m_path).kind == "masklets"


@pytest.mark.parametrize("rest", [
    {"height": "x", "width": 2, "num_frames": 1},
    {"height": 2, "width": 2},
    {"height": 100000, "width": 100000, "num_frames": 10**6},
    {"height": 2, "width": 2, "num_frames": 1, "instances": {"01": []}},
    {"height": 2, "width": 2, "num_frames": 1, "instances": {"2": []}},
    {"height": 2, "width": 2, "num_frames": 1, "instances": {"1": [{"h": 2, "w": 2}]}},
    {"height": 2, "width": 2, "num_frames": 1, "instances": []},
], ids=["bad-height", "no-num-frames", "over-budget", "bad-key", "gap-in-ids", "bad-rle",
        "instances-not-an-object"])
def test_a_wrong_kind_is_reported_before_anything_after_the_kind(tmp_path, monkeypatch, rest):
    monkeypatch.setattr(maskfuse.manifest, "rle_decode", lambda rle: pytest.fail("decoded"))
    path = write_json(tmp_path / "m.json", {"video_id": "v", "kind": "masklets", **rest})
    with pytest.raises(ManifestKindError, match="kind 'masklets' where a coarse/refined/gt"):
        load_manifest(path, kinds=SEQUENCE_KINDS)
    with pytest.raises((ManifestSchemaError, ManifestIntegrityError)):
        load_manifest(path)


def test_video_manifest_rejects_kind_data_mismatch():
    seq = MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))
    with pytest.raises(ValueError):
        VideoManifest(video_id="v", kind="masklets", data=seq)
    with pytest.raises(ValueError):
        VideoManifest(video_id="v", kind="scores", data=seq)
    with pytest.raises(ValueError):
        sequence_manifest("v", "masklets", seq)


def test_save_is_atomic_and_leaves_no_droppings(tmp_path):
    seq = MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))
    path = tmp_path / "out.json"
    save_manifest(path, sequence_manifest("v", "coarse", seq))
    assert sorted(os.listdir(tmp_path)) == ["out.json"]
    # overwrite keeps the file valid at every instant (replace, not truncate)
    save_manifest(path, sequence_manifest("v2", "coarse", seq))
    assert load_manifest(path).video_id == "v2"
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_an_interrupted_save_propagates_unchanged_and_leaves_no_temporary_file(
        tmp_path, monkeypatch):
    # Not an OSError naming the temporary file, so it is re-raised as it is.
    interrupt = KeyboardInterrupt("stop")

    def replace(src, dst):
        raise interrupt

    monkeypatch.setattr(os, "replace", replace)
    seq = MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))
    with pytest.raises(KeyboardInterrupt) as info:
        save_manifest(tmp_path / "out.json", sequence_manifest("v", "coarse", seq))
    assert info.value is interrupt
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_save_gives_the_umask_mode(tmp_path, umask, mode):
    seq = MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        save_manifest(path, sequence_manifest("v", "coarse", seq))
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == mode


def test_manifest_key_order_is_canonical(tmp_path):
    seq = MaskSequence(frames=(np.zeros((2, 2), dtype=bool),))
    path = tmp_path / "out.json"
    save_manifest(path, sequence_manifest("v", "coarse", seq))
    keys = list(json.loads(path.read_text()))
    assert keys == ["video_id", "kind", "height", "width", "num_frames", "frames"]


def test_duplicate_instance_key_is_schema_error(tmp_path):
    frame = json.dumps(rle_obj(np.zeros((2, 2), dtype=bool)))
    path = tmp_path / "m.json"
    path.write_text(
        '{"video_id": "v", "kind": "masklets", "height": 2, "width": 2, "num_frames": 1, '
        f'"instances": {{"1": [{frame}], "1": [{frame}]}}}}')
    with pytest.raises(ManifestSchemaError, match="duplicate key '1'"):
        load_manifest(path)


def test_duplicate_top_level_key_is_schema_error(tmp_path):
    frame = json.dumps(rle_obj(np.zeros((2, 2), dtype=bool)))
    path = tmp_path / "c.json"
    path.write_text(
        '{"video_id": "v", "kind": "coarse", "height": 2, "width": 2, "num_frames": 1, '
        f'"frames": [{frame}], "frames": [{frame}]}}')
    with pytest.raises(ManifestSchemaError, match="duplicate key 'frames'"):
        load_manifest(path)


def test_masklet_budget_counts_every_instance(tmp_path, monkeypatch):
    decoded = []
    side = 2**13  # 40 frames of 8192x8192 fit the budget once, not twice
    # One shared, never-written frame: its pages are never touched, so the
    # stub decodes the declared size without making it resident.
    frame = np.zeros((side, side), dtype=bool)
    monkeypatch.setattr(maskfuse.manifest, "rle_decode",
                        lambda rle: decoded.append(rle) or frame)
    frames = [{"h": side, "w": side, "counts": [side * side]}] * 40
    payload = {
        "video_id": "v", "kind": "masklets", "height": side, "width": side,
        "num_frames": 40, "instances": {"1": frames},
    }
    assert 40 * side * side <= MAX_MASK_PIXELS < 2 * 40 * side * side
    load_manifest(write_json(tmp_path / "one.json", payload))
    assert len(decoded) == 40
    decoded.clear()
    payload["instances"]["2"] = frames
    with pytest.raises(ManifestIntegrityError, match=f"{side}x{side}"):
        load_manifest(write_json(tmp_path / "two.json", payload))
    assert decoded == []


def test_video_manifest_makes_sequence_data_a_mask_sequence():
    manifest = VideoManifest(video_id="v", kind="coarse", data=[empty_mask(2, 3)])
    assert isinstance(manifest.data, MaskSequence)
    assert (manifest.num_frames, manifest.height, manifest.width) == (1, 2, 3)


@pytest.mark.parametrize("make", [
    lambda: sequence_manifest(5, "gt", [empty_mask(2, 2)]),
    lambda: masklet_manifest(None, MaskletSet(tracks=[], num_frames=1, height=2, width=2)),
], ids=["sequence", "masklets"])
def test_video_manifest_rejects_a_non_string_video_id(tmp_path, make):
    with pytest.raises(ValueError, match="video_id"):
        save_manifest(tmp_path / "m.json", make())
    assert os.listdir(tmp_path) == []


def masklet_payload(instances, num_frames=1) -> dict:
    return {"video_id": "v", "kind": "masklets", "height": 2, "width": 2,
            "num_frames": num_frames, "instances": instances}


@pytest.mark.parametrize("payload, error, message", [
    (coarse_payload([empty_mask(2, 2)], 2, 2) | {"frames": {"1": 2}},
     ManifestSchemaError, "'frames' must be a list of RLE objects"),
    (masklet_payload({"1": {"h": 2}}),
     ManifestSchemaError, "instance 1 must be a list of RLE objects"),
    (coarse_payload([empty_mask(2, 2)] * 3, 2, 2) | {"num_frames": 4},
     ManifestIntegrityError, "'frames' has 3 frames, manifest header says 4"),
    (masklet_payload({"1": [rle_obj(empty_mask(2, 2))] * 3}, num_frames=4),
     ManifestIntegrityError, "instance 1 has 3 frames, manifest header says 4"),
], ids=["frames-not-a-list", "instance-not-a-list", "frames-too-few", "instance-too-few"])
def test_both_kinds_read_frame_lists_alike(tmp_path, payload, error, message):
    path = write_json(tmp_path / "m.json", payload)
    with pytest.raises(error) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("payload, message", [
    ([coarse_payload([empty_mask(2, 2)], 2, 2)], "top level must be a JSON object"),
    (coarse_payload([empty_mask(2, 2)], 2, 2, video_id=["v"]),
     "'video_id' must be a string, got ['v']"),
    (coarse_payload([empty_mask(2, 2)], 2, 2) | {"height": "2"},
     "'height' must be an integer of at least 1, got '2'"),
    (coarse_payload([empty_mask(2, 2)], 2, 2) | {"width": 0},
     "'width' must be an integer of at least 1, got 0"),
    (coarse_payload([empty_mask(2, 2)], 2, 2) | {"num_frames": 0},
     "'num_frames' must be an integer of at least 1, got 0"),
    (masklet_payload([]), "'instances' must be an object"),
], ids=["top-level-not-an-object", "video-id-not-a-string", "height-a-string", "width-zero",
        "num-frames-zero", "instances-a-list"])
def test_malformed_header_is_schema_error_naming_the_path(tmp_path, payload, message):
    path = write_json(tmp_path / "m.json", payload)
    with pytest.raises(ManifestSchemaError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: {message}"
