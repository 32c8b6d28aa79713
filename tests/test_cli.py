import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

import maskfuse
import maskfuse.cli
import maskfuse.manifest
import maskfuse.synth
from conftest import fallback_scenario, flicker_scenario, rand_mask
from maskfuse import (
    MaskletSet,
    MaskSequence,
    RefineConfig,
    Scenario,
    ShapeTrack,
    evaluate_sequence,
    fig2_scenario,
    generate,
    load_manifest,
    masklet_manifest,
    refine_video,
    save_manifest,
    scenario_to_dict,
    sequence_manifest,
)
from maskfuse.cli import main


def write_fig2_tree(tmp_path):
    """Render fig2 and save coarse/masklets/gt manifests; returns their paths."""
    result = generate(fig2_scenario())
    paths = {}
    for name, manifest in (
        ("coarse", sequence_manifest("fig2", "coarse", result.coarse)),
        ("masklets", masklet_manifest("fig2", result.masklets)),
        ("gt", sequence_manifest("fig2", "gt", result.gt)),
    ):
        path = tmp_path / f"{name}.json"
        save_manifest(path, manifest)
        paths[name] = str(path)
    return paths, result


def write_scenario_tree(tmp_path, scenario):
    result = generate(scenario)
    paths = {}
    for name, manifest in (
        ("coarse", sequence_manifest(scenario.video_id, "coarse", result.coarse)),
        ("masklets", masklet_manifest(scenario.video_id, result.masklets)),
        ("gt", sequence_manifest(scenario.video_id, "gt", result.gt)),
    ):
        path = tmp_path / f"{name}.json"
        save_manifest(path, manifest)
        paths[name] = str(path)
    return paths, result


# --- refine -------------------------------------------------------------------

def test_refine_fig2_report_selects_instance_two(tmp_path, capsys):
    paths, result = write_fig2_tree(tmp_path)
    out = tmp_path / "refined.json"
    report = tmp_path / "report.json"
    code = main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", str(out), "--window", "5", "--report", str(report)])
    assert code == 0
    report_obj = json.loads(report.read_text())
    assert [w["selected"] for w in report_obj["windows"]] == [[2]]
    combos = [f["combination"] for f in report_obj["windows"][0]["frames"]]
    assert combos == [[2], [2], [1, 2], [2], [2]]
    refined = load_manifest(out)
    assert refined.kind == "refined"
    assert refined.data.equals(result.gt)


def test_refine_with_empty_masklets_copies_coarse(tmp_path):
    rng = np.random.default_rng(9)
    coarse = MaskSequence(frames=tuple(rand_mask(rng, 4, 5) for _ in range(6)))
    coarse_path = tmp_path / "coarse.json"
    save_manifest(coarse_path, sequence_manifest("v", "coarse", coarse))
    empty = MaskletSet(tracks=[], num_frames=6, height=4, width=5)
    tracked_path = tmp_path / "tracked.json"
    save_manifest(tracked_path, masklet_manifest("v", empty))
    out = tmp_path / "refined.json"
    assert main(["refine", "--coarse", str(coarse_path), "--tracked", str(tracked_path),
                 "--out", str(out)]) == 0
    refined_obj = json.loads(out.read_text())
    coarse_obj = json.loads(coarse_path.read_text())
    assert refined_obj["frames"] == coarse_obj["frames"]
    assert refined_obj["kind"] == "refined"


def test_refine_report_window_spans(tmp_path):
    rng = np.random.default_rng(10)
    coarse = MaskSequence(frames=tuple(rand_mask(rng, 3, 3) for _ in range(7)))
    coarse_path = tmp_path / "coarse.json"
    save_manifest(coarse_path, sequence_manifest("v", "coarse", coarse))
    tracked_path = tmp_path / "tracked.json"
    save_manifest(tracked_path, masklet_manifest(
        "v", MaskletSet(tracks=[], num_frames=7, height=3, width=3)))
    report = tmp_path / "report.json"
    assert main(["refine", "--coarse", str(coarse_path), "--tracked", str(tracked_path),
                 "--out", str(tmp_path / "r.json"), "--window", "5",
                 "--report", str(report)]) == 0
    spans = [(w["first_frame"], w["last_frame"])
             for w in json.loads(report.read_text())["windows"]]
    assert spans == [(1, 5), (6, 7)]


def test_refine_is_deterministic_byte_for_byte(tmp_path):
    paths, _ = write_fig2_tree(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                     "--out", str(out), "--window", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- eval ---------------------------------------------------------------------

def test_eval_perfect_prediction_prints_100(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["eval", "--pred", paths["gt"], "--gt", paths["gt"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["J:   100.00", "F:   100.00", "J&F: 100.00"]


def test_eval_all_false_prediction_prints_0(tmp_path, capsys):
    gt = MaskSequence(frames=(np.ones((4, 4), dtype=bool),))
    pred = MaskSequence(frames=(np.zeros((4, 4), dtype=bool),))
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    save_manifest(gt_path, sequence_manifest("v", "gt", gt))
    save_manifest(pred_path, sequence_manifest("v", "coarse", pred))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "J&F: 0.00"


def test_eval_matches_library_and_json_out(tmp_path, capsys):
    paths, result = write_fig2_tree(tmp_path)
    json_out = tmp_path / "scores.json"
    assert main(["eval", "--pred", paths["coarse"], "--gt", paths["gt"],
                 "--json-out", str(json_out)]) == 0
    expected = evaluate_sequence(result.coarse, result.gt)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"J:   {expected.j_mean * 100:.2f}"
    assert lines[1] == f"F:   {expected.f_mean * 100:.2f}"
    assert lines[2] == f"J&F: {expected.jf_mean * 100:.2f}"
    obj = json.loads(json_out.read_text())
    assert obj["J"] == expected.j_mean * 100
    assert obj["J&F"] == expected.jf_mean * 100
    assert obj["per_frame"] == [[j * 100, f * 100] for j, f in
                                zip(expected.per_frame_j, expected.per_frame_f)]


def test_eval_frame_size_mismatch_is_one_alignment_error(tmp_path, capsys):
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    save_manifest(gt_path, sequence_manifest("v", "gt", [np.zeros((2, 2), dtype=bool)]))
    save_manifest(pred_path, sequence_manifest("v", "coarse", [np.zeros((2, 3), dtype=bool)]))
    assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "AlignmentError"
    assert "2x3" in err["message"] and "2x2" in err["message"]


# --- synth ---------------------------------------------------------------------

def test_synth_writes_all_artifacts(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scenario_to_dict(fig2_scenario())))
    out_dir = tmp_path / "out"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    expected = generate(fig2_scenario())
    assert load_manifest(out_dir / "gt.json").data.equals(expected.gt)
    assert load_manifest(out_dir / "coarse.json").data.equals(expected.coarse)
    loaded_masklets = load_manifest(out_dir / "masklets.json").data
    assert loaded_masklets.num_instances == 2
    corruption = json.loads((out_dir / "corruption.json").read_text())
    assert corruption["corrupted_frames"] == [3]
    assert corruption["adds"] == [{"frame": 3, "instance": 1}]
    assert corruption["windows"][0]["strict_minority"] is True


def test_synth_rejects_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{]")
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ScenarioError"


# --- ablate ---------------------------------------------------------------------

def test_ablate_emits_baseline_plus_row_per_window(tmp_path, capsys):
    paths, _ = write_scenario_tree(tmp_path, flicker_scenario())
    json_out = tmp_path / "table.json"
    assert main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--gt", paths["gt"], "--windows", "5,10,15,20",
                 "--json-out", str(json_out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6  # header + baseline + four windows
    assert lines[1].startswith("baseline")
    rows = json.loads(json_out.read_text())
    assert [r["method"] for r in rows] == ["baseline", "refined", "refined", "refined", "refined"]
    assert [r["window"] for r in rows] == [None, 5, 10, 15, 20]
    baseline = rows[0]["J&F"]
    assert baseline < 100.0
    for row in rows[1:]:
        assert row["J&F"] >= baseline


def test_ablate_zero_corruption_is_all_100(tmp_path, capsys):
    scenario = Scenario(
        frames=12, height=16, width=16,
        instances=(ShapeTrack(kind="rect", size=(4, 4), start=(3, 3)),),
        target=(1,), video_id="clean")
    paths, _ = write_scenario_tree(tmp_path, scenario)
    json_out = tmp_path / "table.json"
    assert main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--gt", paths["gt"], "--windows", "5,10",
                 "--json-out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())
    assert len(rows) == 3
    assert all(row["J&F"] == 100.0 and row["J"] == 100.0 and row["F"] == 100.0
               for row in rows)


def test_ablate_rows_equal_refine_and_evaluate_run_per_window(tmp_path, capsys):
    # Windows of 1, 3 and 9 frames pick different winners at the same frames,
    # and the 3-frame window at the start falls back to the coarse frames.
    paths, result = write_scenario_tree(tmp_path, fallback_scenario())
    windows = [1, 2, 3, 4, 9]
    json_out = tmp_path / "table.json"
    assert main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--gt", paths["gt"], "--windows", ",".join(map(str, windows)),
                 "--json-out", str(json_out)]) == 0
    rows = json.loads(json_out.read_text())
    want = [{"method": "baseline", "window": None,
             **evaluate_sequence(result.coarse, result.gt).summary()}]
    winners = set()
    for window in windows:
        refined = refine_video(result.coarse, result.masklets, RefineConfig(window=window))
        winners.add(refined.report.winners())
        want.append({"method": "refined", "window": window,
                     **evaluate_sequence(refined, result.gt).summary()})
    assert len(winners) == 4 and any(() in w for w in winners)
    assert rows == json.loads(json.dumps(want))  # JSON round-trips floats exactly


def test_ablate_rejects_bad_windows(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    for bad in ("", "0", "a,b"):
        assert main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                     "--gt", paths["gt"], "--windows", bad]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"


# --- overlay --------------------------------------------------------------------

def test_overlay_cli_writes_frames(tmp_path, capsys):
    paths, result = write_fig2_tree(tmp_path)
    out_dir = tmp_path / "frames"
    assert main(["overlay", "--in", paths["gt"], "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"{i:05d}.pgm" for i in range(1, 6)]
    assert "wrote 5 frames" in capsys.readouterr().out


def test_overlay_rejects_masklet_manifests(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["overlay", "--in", paths["masklets"], "--out-dir", str(tmp_path / "f")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ManifestKindError"


# --- failure behavior -------------------------------------------------------------

def test_missing_input_gives_json_error_and_exit_1(tmp_path, capsys):
    assert main(["eval", "--pred", str(tmp_path / "a.json"),
                 "--gt", str(tmp_path / "b.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ManifestParseError"
    assert "a.json" in err["error"]["message"]


def test_oversized_frame_is_rejected_before_decode(tmp_path, capsys, monkeypatch):
    def no_decode(rle):
        raise AssertionError("the frame must be rejected before it is decoded")

    monkeypatch.setattr(maskfuse.manifest, "rle_decode", no_decode)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "video_id": "v", "kind": "gt", "height": 100000, "width": 100000, "num_frames": 1,
        "frames": [{"h": 100000, "w": 100000, "counts": [10**10]}],
    }))
    assert main(["eval", "--pred", str(path), "--gt", str(path)]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"]["type"] == "ManifestIntegrityError"
    assert "100000x100000" in err["error"]["message"]


def one_line_error(capsys) -> dict:
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    return json.loads(err_lines[0])["error"]


def test_oversized_manifest_is_rejected_before_decode(tmp_path, capsys, monkeypatch):
    decoded = []
    monkeypatch.setattr(maskfuse.manifest, "rle_decode",
                        lambda rle: decoded.append(rle) or np.zeros((1, 1), dtype=bool))
    side = 2**14  # each frame is small enough on its own; 100 of them are 25 GiB
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "video_id": "v", "kind": "gt", "height": side, "width": side, "num_frames": 100,
        "frames": [{"h": side, "w": side, "counts": [side * side]}] * 100,
    }))
    assert main(["eval", "--pred", str(path), "--gt", str(path)]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "ManifestIntegrityError"
    assert f"{side}x{side}" in err["message"]
    assert decoded == []


def synth_spec(**overrides) -> dict:
    spec = {"video_id": "v", "frames": 3, "height": 8, "width": 8,
            "instances": [{"kind": "rect", "size": [2, 2]}], "target": [1]}
    spec.update(overrides)
    return spec


def run_synth(tmp_path, spec) -> tuple[int, object]:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    return main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)]), out_dir


# 10**9 frames of 1x1 fit by pixels alone; each frame must count for more.
@pytest.mark.parametrize("frames, side", [(400, 2**14), (10**12, 8), (10**9, 1)])
def test_oversized_scenario_is_rejected_before_rendering(tmp_path, capsys, monkeypatch,
                                                         frames, side):
    rendered = []

    def no_render(*args):
        rendered.append(args)
        raise AssertionError("the scenario must be rejected before it is rendered")

    monkeypatch.setattr(maskfuse.synth, "_render_track", no_render)
    rect = {"kind": "rect", "size": [min(side, 2)] * 2}  # one that fits, so the budget decides
    code, out_dir = run_synth(tmp_path, synth_spec(frames=frames, height=side, width=side,
                                                   instances=[rect]))
    assert code == 1
    err = one_line_error(capsys)
    assert err["type"] == "ScenarioError"
    assert f"{side}x{side}" in err["message"]
    assert rendered == [] and not out_dir.exists()


def run_python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this maskfuse."""
    src = os.path.dirname(os.path.dirname(maskfuse.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def test_python_dash_m_runs_the_cli(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth_spec(frames=0)))
    bad_dir = tmp_path / "bad"
    proc = run_python("-m", "maskfuse.cli", "synth", "--spec", str(spec),
                      "--out-dir", str(bad_dir), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    err_lines = proc.stderr.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"]["type"] == "ScenarioError"
    assert not bad_dir.exists()
    spec.write_text(json.dumps(scenario_to_dict(fig2_scenario())))
    out_dir = tmp_path / "out"
    proc = run_python("-m", "maskfuse.cli", "synth", "--spec", str(spec),
                      "--out-dir", str(out_dir), timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = ["coarse.json", "corruption.json", "gt.json", "masklets.json"]
    assert sorted(p.name for p in out_dir.iterdir()) == names
    assert sorted(proc.stdout.splitlines()) == [str(out_dir / name) for name in names]


def test_synth_with_huge_erosion_finishes_with_empty_coarse_frames(tmp_path):
    spec = synth_spec(instances=[{"kind": "rect", "size": [4, 6], "start": [1, 1]},
                                 {"kind": "disk", "radius": 2, "start": [5, 5]}],
                      target=[1, 2], corruption={"boundary_erosion_px": 10**9})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    # A subprocess, so that an erosion loop that never ends fails the test.
    proc = run_python("-m", "maskfuse.cli", "synth", "--spec", str(spec_path),
                      "--out-dir", str(out_dir), timeout=20)
    assert proc.returncode == 0, proc.stderr
    gt = load_manifest(out_dir / "gt.json").data
    coarse = load_manifest(out_dir / "coarse.json").data
    cross = ndimage.generate_binary_structure(2, 1)
    for g, c in zip(gt.frames, coarse.frames):
        expected = ndimage.binary_erosion(g, structure=cross, iterations=10**9, border_value=0)
        assert g.any() and not expected.any()
        assert np.array_equal(c, expected)


def test_cli_does_not_import_scipy():
    proc = run_python("-c", "import sys, maskfuse.cli; print('scipy' in sys.modules)",
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("overrides", [{"target": [[1]]}, {"video_id": 5}])
def test_synth_rejects_bad_target_or_video_id_before_writing(tmp_path, capsys, overrides):
    code, out_dir = run_synth(tmp_path, synth_spec(**overrides))
    assert code == 1
    assert one_line_error(capsys)["type"] == "ScenarioError"
    assert not out_dir.exists()


def test_kind_misuse_gives_kind_error(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["refine", "--coarse", paths["masklets"], "--tracked", paths["masklets"],
                 "--out", str(tmp_path / "o.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ManifestKindError"
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["coarse"],
                 "--out", str(tmp_path / "o.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ManifestKindError"


def test_failed_refine_writes_no_output(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    out = tmp_path / "refined.json"
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", str(out), "--tau", "1.5"]) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


RECT = {"kind": "rect", "size": [2, 2]}


@pytest.mark.parametrize("overrides, named", [
    ({"instances": [{"kind": "rect", "size": [3]}]}, "size"),
    ({"seed": -1}, "seed"),
    ({"instances": [{**RECT, "velocty": [0, 1]}]}, "velocty"),
    ({"colour": "red"}, "colour"),
    ({"instances": [RECT, {**RECT, "colour": "red"}]}, "instance 2"),
    ({"corruption": {"flicker_drop_probability": 0.5}}, "flicker_drop_probability"),
    ({"corruption": {"forced_drops": [{"frame": 1, "instance": 1, "colour": 1}]}},
     "forced_drops"),
    ({"instances": [{**RECT, "radius": 1}]}, "radius"),
    ({"instances": [{"kind": "disk", "radius": 1, "size": [3, 3]}]}, "size"),
    ({"instances": [{"size": [2, 2]}]}, "kind"),
    ({"frames": 2.5}, "frames"),
    ({"target": 1}, "target"),
    ({"instances": [RECT, [1]]}, "instance 2"),
    ({"instances": [{"kind": "rect", "size": [0, 3]}]}, "size"),
    ({"instances": [{"kind": "disk", "radius": -1}]}, "radius"),
    ({"height": 0}, "height"),
    ({"instances": []}, "instance"),
    ({"instances": RECT}, "instances"),
    ({"corruption": {"forced_drops": {"frame": 1, "instance": 1}}}, "forced_drops"),
    ({"frames": 5, "corruption": {"forced_drops": [{"frame": 6, "instance": 1}]}},
     "forced drop frame 6 outside 1..5"),
    ({"frames": 5, "instances": [RECT, RECT],
      "corruption": {"forced_adds": [{"frame": 6, "instance": 2}]}},
     "forced add frame 6 outside 1..5"),
    ({"corruption": {"forced_adds": [{"frame": 2, "instance": "x"}]}},
     "{'frame': 2, 'instance': 'x'}"),
], ids=["rect-size-of-one", "negative-seed", "velocty", "unknown-top-level-key",
        "unknown-instance-key", "unknown-corruption-key", "unknown-event-key",
        "rect-with-radius", "disk-with-size", "missing-kind", "fractional-frames",
        "target-not-a-list", "instance-not-an-object", "rect-size-zero", "negative-radius",
        "zero-height", "no-instances", "instances-not-a-list", "forced-drops-not-a-list",
        "forced-drop-frame-past-end", "forced-add-frame-past-end", "event-instance-not-an-int"])
def test_malformed_spec_is_one_scenario_error_naming_the_key(tmp_path, capsys, overrides,
                                                              named):
    code, out_dir = run_synth(tmp_path, synth_spec(**overrides))
    assert code == 1
    err = one_line_error(capsys)
    assert err["type"] == "ScenarioError"
    assert named in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("text, named", [
    (json.dumps(synth_spec(frames=5))[:-1] + ', "frames": 7}', "duplicate key 'frames'"),
    (None, "cannot read"),
], ids=["repeated-key", "missing-file"])
def test_unreadable_spec_is_one_scenario_error(tmp_path, capsys, text, named):
    spec_path = tmp_path / "spec.json"
    if text is not None:
        spec_path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "ScenarioError"
    assert str(spec_path) in err["message"] and named in err["message"]
    assert not out_dir.exists()


DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("payload", [DEEP, b"\xff", b"1" * 5000],
                         ids=["deeply-nested", "not-utf8", "5000-digit-int"])
@pytest.mark.parametrize("command, error", [("eval", "ManifestParseError"),
                                            ("synth", "ScenarioError")])
def test_undecodable_json_is_one_typed_error(tmp_path, capsys, payload, command, error):
    path = tmp_path / "in.json"
    path.write_bytes(payload)
    out_dir = tmp_path / "out"
    argv = (["eval", "--pred", str(path), "--gt", str(path)] if command == "eval"
            else ["synth", "--spec", str(path), "--out-dir", str(out_dir)])
    assert main(argv) == 1
    assert one_line_error(capsys)["type"] == error
    assert not out_dir.exists()


@pytest.mark.parametrize("payload", [
    {"video_id": "v", "kind": "masklets", "height": 1, "width": 1, "num_frames": 1,
     "instances": {"1" * 5000: []}},
    {"video_id": list(range(3000)), "kind": "gt", "height": 1, "width": 1, "num_frames": 1,
     "frames": []},
], ids=["5000-digit-masklet-key", "3000-element-video-id"])
def test_long_error_message_is_cut_to_one_short_line(tmp_path, capsys, payload):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(maskfuse.ManifestSchemaError) as info:
        load_manifest(path)
    full = str(info.value)
    assert main(["eval", "--pred", str(path), "--gt", str(path)]) == 1
    err = one_line_error(capsys)
    cap = maskfuse.cli.MAX_ERROR_CHARS
    assert len(full) > 4 * cap
    assert err["type"] == "ManifestSchemaError"
    assert err["message"] == f"{full[:cap]}... [{len(full) - cap} more characters cut]"
    assert err["message"].startswith(f"{path}: ")


def test_failed_json_out_rename_is_one_error_and_leaves_no_temporary_file(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    target = tmp_path / "scores"
    target.mkdir()
    assert main(["eval", "--pred", paths["coarse"], "--gt", paths["gt"],
                 "--json-out", str(target)]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "IsADirectoryError" and str(target) in err["message"]
    assert ".tmp-" not in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coarse.json", "gt.json", "masklets.json", "scores"]
    assert list(target.iterdir()) == []
    # A missing directory fails in the temporary file's open, before any rename.
    missing = tmp_path / "missing" / "x.json"
    assert main(["eval", "--pred", paths["coarse"], "--gt", paths["gt"],
                 "--json-out", str(missing)]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "FileNotFoundError" and str(missing) in err["message"]
    assert ".tmp-" not in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coarse.json", "gt.json", "masklets.json", "scores"]


# --- golden outputs ---------------------------------------------------------------

# sha256 of every file the CLI writes for fig2 and of the score tables it
# prints. Any change to these bytes is a change of behaviour, not a refactor.
FIG2_GOLDEN = {
    "ablate stdout": "5cc2e5f1c1187035156950ce67c6d6606135e290457ad0977b9e9bf2359fcfe7",
    "ablate.json": "4806db8a14020b5064e5c146f462bbe19986fd9efee401472b1b429bc8d8d533",
    "coarse.json": "d39ac577341c2659c68bb1f2733336f7c8700eda6269c1a8b15a7828d6c078f7",
    "corruption.json": "b54edaef339ea1891b744fe07e9b046146c57fb2a3601511d58385822812c408",
    "eval stdout": "290b2d03abb9f1696daf0fe18771d71df364b3903ceba9758cf13e7b792df418",
    "eval.json": "880ce4a145a00c9054eff043045abe0cc5813142bea105deee562f1ec7d3e825",
    "gt.json": "0df949491f178ea1e28fcffafe7997f17f166d2a78afd5b21bab0e936e02d148",
    "masklets.json": "172f3862e75ec3d9246ac11a9fa8cd02506182bb3b38ce4b1d807cdfb9b9fbab",
    "refined.json": "f40b34b06815fe9648389d24218611007d51cd3b4c8edbdd891080de995b7f11",
    "report.json": "f0758b4405670d45e4133c350b624e860e3ea7d2af3d86478703a1218c1cd57b",
}


def test_fig2_outputs_match_golden_digests(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scenario_to_dict(fig2_scenario())))
    d = tmp_path / "out"
    runs = {
        "synth": ["synth", "--spec", str(spec), "--out-dir", str(d)],
        "refine": ["refine", "--coarse", str(d / "coarse.json"),
                   "--tracked", str(d / "masklets.json"), "--out", str(d / "refined.json"),
                   "--window", "5", "--report", str(d / "report.json")],
        "eval": ["eval", "--pred", str(d / "coarse.json"), "--gt", str(d / "gt.json"),
                 "--json-out", str(d / "eval.json")],
        "ablate": ["ablate", "--coarse", str(d / "coarse.json"),
                   "--tracked", str(d / "masklets.json"), "--gt", str(d / "gt.json"),
                   "--windows", "2,5", "--json-out", str(d / "ablate.json")],
    }
    digests = {}
    for name, argv in runs.items():
        assert main(argv) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        if name in ("eval", "ablate"):  # the others print paths
            digests[f"{name} stdout"] = out.encode()
    digests.update((p.name, p.read_bytes()) for p in d.iterdir())
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in digests.items()}
    for name in sorted(digests.keys() | FIG2_GOLDEN.keys()):
        assert digests.get(name) == FIG2_GOLDEN.get(name), f"{name} differs from the golden output"
