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
    CorruptionSpec,
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


def wrong_kind_payload(kind: str) -> dict:
    """A 3x5 manifest of ``kind`` whose first frame is well formed and whose last is not."""
    good, bad = {"h": 3, "w": 5, "counts": [15]}, {"h": 3, "w": 5, "counts": [14]}
    header = {"video_id": "v", "kind": kind, "height": 3, "width": 5, "num_frames": 2}
    if kind == "masklets":
        return {**header, "instances": {"1": [good, good], "2": [good, bad]}}
    return {**header, "frames": [good, bad]}


ROLES = [("refine", "--coarse"), ("refine", "--tracked"), ("eval", "--pred"), ("eval", "--gt"),
         ("ablate", "--coarse"), ("ablate", "--tracked"), ("ablate", "--gt"), ("overlay", "--in")]


@pytest.mark.parametrize("command, flag", ROLES, ids=[f"{c}{f}" for c, f in ROLES])
def test_a_wrong_kind_fails_every_role_before_any_frame_is_decoded(tmp_path, capsys, monkeypatch,
                                                                   command, flag):
    # The kind used to be checked after the whole file was decoded, so these
    # files failed on their last frame with a ManifestIntegrityError.
    paths, _ = write_fig2_tree(tmp_path)
    out = tmp_path / "out"
    argv = {
        "refine": ["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                   "--out", str(out)],
        "eval": ["eval", "--pred", paths["coarse"], "--gt", paths["gt"]],
        "ablate": ["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                   "--gt", paths["gt"], "--windows", "5"],
        "overlay": ["overlay", "--in", paths["gt"], "--out-dir", str(out)],
    }[command]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(wrong_kind_payload("gt" if flag == "--tracked" else "masklets")))
    argv[argv.index(flag) + 1] = str(wrong)
    # Loading validates each RLE object and decodes none, so count the validations.
    read = []
    parse = maskfuse.RleMask.from_json_dict
    monkeypatch.setattr(maskfuse.RleMask, "from_json_dict",
                        staticmethod(lambda obj: read.append((obj["h"], obj["w"])) or parse(obj)))
    assert main(argv) == 1
    printed, err = capsys.readouterr()
    assert printed == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "ManifestKindError"
    assert (3, 5) not in read  # fig2 frames are 24x48: no frame of the wrong file
    assert not out.exists()


def test_wrong_kind_error_is_one_line_naming_the_role(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["eval", "--pred", paths["masklets"], "--gt", paths["gt"]]) == 1
    assert one_line_error(capsys) == {
        "type": "ManifestKindError",
        "message": f"{paths['masklets']}: kind 'masklets' where a coarse/refined/gt manifest "
                   "is required"}
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["gt"],
                 "--out", str(tmp_path / "o.json")]) == 1
    assert one_line_error(capsys) == {
        "type": "ManifestKindError",
        "message": f"{paths['gt']}: kind 'gt' where a masklets manifest is required"}


def test_failed_refine_writes_no_output(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    out = tmp_path / "refined.json"
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", str(out), "--tau", "1.5"]) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


def test_refine_whose_report_fails_leaves_no_refined_manifest(tmp_path, capsys):
    # The refined manifest used to stay behind, though the run exited 1.
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", str(tmp_path / "o.json"),
                 "--report", str(tmp_path / "nodir" / "r.json")]) == 1
    assert one_line_error(capsys)["type"] == "FileNotFoundError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coarse.json", "gt.json",
                                                          "masklets.json"]


def test_synth_whose_last_write_fails_leaves_no_manifests(tmp_path, capsys):
    # The three manifests used to stay behind, though the run exited 1.
    out_dir = tmp_path / "out"
    (out_dir / "corruption.json").mkdir(parents=True)
    code, _ = run_synth(tmp_path, synth_spec())
    assert code == 1
    assert capsys.readouterr().out == ""
    assert os.listdir(out_dir) == ["corruption.json"]
    assert list((out_dir / "corruption.json").iterdir()) == []


def test_failed_refine_leaves_an_existing_out_as_it_was(tmp_path, capsys, monkeypatch):
    # `echo old > o.json`, then a refine whose --report cannot be written: o.json used to
    # be replaced by the refined manifest and then removed, though the run exited 1.
    paths, _ = write_fig2_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.json").write_text("old\n")
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", "o.json", "--report", "nodir/r.json"]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "FileNotFoundError" and "nodir/r.json" in err["message"]
    assert ".tmp-" not in err["message"]
    assert (tmp_path / "o.json").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coarse.json", "gt.json",
                                                          "masklets.json", "o.json"]


def test_failed_synth_leaves_existing_outputs_as_they_were(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "corruption.json").mkdir(parents=True)
    (out_dir / "gt.json").write_text("old gt\n")
    code, _ = run_synth(tmp_path, synth_spec())
    assert code == 1
    err = one_line_error(capsys)
    assert err == {"type": "IsADirectoryError",
                   "message": f"[Errno 21] Is a directory: '{out_dir / 'corruption.json'}'"}
    assert sorted(os.listdir(out_dir)) == ["corruption.json", "gt.json"]
    assert (out_dir / "gt.json").read_text() == "old gt\n"


def test_ablate_whose_json_out_fails_prints_no_table(tmp_path, capsys):
    # The whole table used to be printed before the failed write.
    paths, _ = write_fig2_tree(tmp_path)
    assert main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--gt", paths["gt"], "--windows", "5",
                 "--json-out", str(tmp_path / "nodir" / "t.json")]) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("report", ["refined.json", "./refined.json"])
def test_refine_rejects_a_report_path_that_is_the_out_path(tmp_path, capsys, monkeypatch,
                                                           report):
    # The report used to overwrite the refined manifest, and the run exited 0.
    paths, _ = write_fig2_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", "refined.json", "--report", report]) == 1
    err = one_line_error(capsys)
    assert err["type"] == "ValueError" and "same file" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coarse.json", "gt.json",
                                                          "masklets.json"]


def test_cli_requires_a_subcommand(capsys):
    # argparse used to print its usage text and exit 2 here.
    assert main([]) == 1
    assert one_line_error(capsys) == {
        "type": "ValueError",
        "message": "maskfuse: the following arguments are required: command"}


# --- numbers and usage errors -------------------------------------------------------

REFINE = ["refine", "--coarse", "coarse.json", "--tracked", "masklets.json",
          "--out", "refined.json", "--report", "report.json"]
ABLATE = ["ablate", "--coarse", "coarse.json", "--tracked", "masklets.json", "--gt", "gt.json",
          "--json-out", "table.json"]
DEEP = "[" * 100_000


def cut(message: str) -> str:
    """``message`` as ``main`` prints it, cut to ``MAX_ERROR_CHARS``."""
    extra = len(message) - maskfuse.cli.MAX_ERROR_CHARS
    return message if extra <= 0 else f"{message[:-extra]}... [{extra} more characters cut]"


def not_json(command: str, flag: str, text: str) -> str:
    return cut(f"maskfuse {command}: argument {flag}: not JSON: {text!r}")


# (argv, the error message). Numbers are JSON numbers, checked only by RefineConfig:
# `1_5`, `١٥` and `+5` ran window 15, 15 and 5, `٠.٥` ran tau 0.5 and `5,,+2` ran
# windows 5 and 2, while `abc` and a missing flag gave argparse's usage text and exit 2.
REJECTED = [
    pytest.param([*REFINE, "--window", text], not_json("refine", "--window", text), id=name)
    for name, text in (("window-underscore", "1_5"), ("window-arabic-digits", "١٥"),
                       ("window-plus-sign", "+5"), ("window-empty", ""),
                       ("window-deep", DEEP))
] + [
    pytest.param([*REFINE, "--window", text], f"window must be an integer of at least 1, got {got}",
                 id=f"window-{text}")
    for text, got in (("5.0", "5.0"), ("0", "0"), ("true", "True"), ('"15"', "'15'"),
                      ("NaN", "nan"), ("1e999", "inf"), ("[15]", "[15]"))
] + [
    pytest.param([*REFINE, "--tau", text], not_json("refine", "--tau", text), id=name)
    for name, text in (("tau-arabic-digits", "٠.٥"), ("tau-word", "abc"), ("tau-deep", DEEP))
] + [
    pytest.param([*REFINE, "--tau", text], f"tau must be a finite real number, got {got}",
                 id=f"tau-{text[:8]}")
    for text, got in (("NaN", "nan"), ("Infinity", "inf"), ("1e999", "inf"), ("true", "True"),
                      ('"0.5"', "'0.5'"), ("null", "None"), ("1" + "0" * 400, "1" + "0" * 400))
] + [
    pytest.param([*REFINE, "--tau", "1"], "tau must satisfy 0 <= tau < 1, got 1.0", id="tau-1"),
] + [
    pytest.param([*ABLATE, "--windows", text], not_json("ablate", "--windows", item), id=name)
    for name, text, item in (("windows-empty-item", "5,,+2", ""), ("windows-empty", "", ""),
                             ("windows-trailing-comma", "5,", ""),
                             ("windows-underscore", "1_0, +5", "1_0"),
                             ("windows-words", "a,b", "a"), ("windows-deep", DEEP, DEEP))
] + [
    pytest.param([*ABLATE, "--windows", text], f"window must be an integer of at least 1, got {got}",
                 id=f"windows-{text}")
    for text, got in (("5,0", "0"), ("5.0", "5.0"), ("5,[10]", "[10]"))
] + [
    pytest.param([], "maskfuse: the following arguments are required: command",
                 id="no-subcommand"),
    pytest.param(["eval", "--pred", "x.json"],
                 "maskfuse eval: the following arguments are required: --gt", id="missing-flag"),
    pytest.param([*REFINE, "--bogus"], "maskfuse refine: unrecognized arguments: --bogus",
                 id="unknown-flag"),
    pytest.param(["--bogus", "eval", "--pred", "x", "--gt", "y"],
                 "maskfuse: unrecognized arguments: --bogus", id="unknown-flag-before-subcommand"),
    pytest.param(["eval", "--pred", "x", "--gt", "y", "--bogus"],
                 "maskfuse eval: unrecognized arguments: --bogus",
                 id="unknown-flag-after-subcommand"),
    pytest.param([*REFINE, "--tau", "-Infinity"],
                 "maskfuse refine: argument --tau: expected one argument", id="flag-like-value"),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_every_rejected_number_or_usage_is_one_json_error(tmp_path, capsys, monkeypatch, argv,
                                                          message):
    write_fig2_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}
    assert sorted(os.listdir(tmp_path)) == ["coarse.json", "gt.json", "masklets.json"]


def test_rejected_number_and_usage_exit_1_in_a_process(tmp_path):
    paths, _ = write_fig2_tree(tmp_path)
    out = tmp_path / "refined.json"
    for argv, message in (
        (["--window", "1_5"], "maskfuse refine: argument --window: not JSON: '1_5'"),
        (["--tau", "1"], "tau must satisfy 0 <= tau < 1, got 1.0"),
        (["--bogus"], "maskfuse refine: unrecognized arguments: --bogus"),
    ):
        proc = run_python("-m", "maskfuse.cli", "refine", "--coarse", paths["coarse"],
                          "--tracked", paths["masklets"], "--out", str(out), *argv, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == {"type": "ValueError", "message": message}
        assert not out.exists()
    proc = run_python("-m", "maskfuse.cli", "refine", "--help", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: maskfuse refine")


def test_run_exits_with_mains_code(monkeypatch, capsys):
    # run() is the installed `maskfuse` script's entry point.
    monkeypatch.setattr(sys, "argv", ["maskfuse", "eval", "--pred", "x.json"])
    with pytest.raises(SystemExit) as info:
        maskfuse.cli.run()
    assert info.value.code == 1
    assert one_line_error(capsys)["message"] == (
        "maskfuse eval: the following arguments are required: --gt")


def test_refine_checks_its_numbers_before_reading_the_manifests(tmp_path, capsys):
    # A bad --tau used to be reported only after both manifests were read, so a
    # missing manifest hid it.
    missing = str(tmp_path / "missing.json")
    assert main(["refine", "--coarse", missing, "--tracked", missing,
                 "--out", str(tmp_path / "out.json"), "--tau", "NaN"]) == 1
    assert one_line_error(capsys) == {"type": "ValueError",
                                      "message": "tau must be a finite real number, got nan"}


def test_default_window_and_tau_are_written_as_before(tmp_path, capsys):
    paths, _ = write_fig2_tree(tmp_path)
    report = tmp_path / "report.json"
    assert main(["refine", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--out", str(tmp_path / "refined.json"), "--report", str(report)]) == 0
    text = report.read_text()
    assert '"window": 15' in text and '"tau": 0.8' in text


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
    if payload["kind"] == "masklets":  # a masklet role, so the key is read and rejected
        paths, _ = write_fig2_tree(tmp_path)
        argv = ["refine", "--coarse", paths["coarse"], "--tracked", str(path),
                "--out", str(tmp_path / "o.json")]
    else:
        argv = ["eval", "--pred", str(path), "--gt", str(path)]
    assert main(argv) == 1
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

# sha256 of every file the CLI writes for a scene and of the score tables it
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

# A scene fig2 leaves out: eroded coarse frames, sampled drops and spurious
# additions, and both targets dropped in frames 6-10, so that with --window 5
# the second window falls back to its coarse frames.
FALLBACK_SCENE = Scenario(
    frames=15, height=48, width=80,
    instances=(ShapeTrack(kind="rect", size=(20, 24), start=(2, 2), velocity=(1, 2)),
               ShapeTrack(kind="disk", radius=9, start=(36, 66), velocity=(0, -2)),
               ShapeTrack(kind="rect", size=(18, 24), start=(28, 4), velocity=(-1, 1))),
    target=(1, 2),
    corruption=CorruptionSpec(flicker_drop_prob=0.1, spurious_add_prob=0.2,
                              boundary_erosion_px=1,
                              forced_drops=tuple((t, i) for t in range(5, 10) for i in (1, 2))),
    seed=7, video_id="fallback")
FALLBACK_GOLDEN = {
    "ablate stdout": "058b77afdc6edaec4f5d1d70cd50b7f1882af3ff230246ef3f53a22cd19131cd",
    "ablate.json": "17eb9737c9928b3946c3a76b952d2991060916d64504541def08bbbd68755642",
    "coarse.json": "9c1381790f291cedf69a7ac9411e2cb3426d8f17c42f4a83be6253832b82d65d",
    "corruption.json": "8a3ab50ccfd74a49b0c8ff86d3c7cfc918907f5d77f0ecc263a86db9efb95e18",
    "eval stdout": "4de7ec709eb0d964516e268bfe1b879e3083744c7ee301944753d178fa9974f6",
    "eval.json": "dcc9680e351f03dce97b7506d6a8419b55125cc5cd97680d32b93bbf20cf3bea",
    "gt.json": "d3a52c106b4fe3b6d0ea45cc64084e625bf308951be81117676933214475c08a",
    "masklets.json": "3e48b4a7079b86e43cb4f23a91c7f5c56c4fbc3f69fbe48526fe5f5bccfe9d36",
    "refined.json": "30d93984eefb381a68160121fdd3f443191fa474b9d94c308626f093b2cfa1d5",
    "report.json": "6bd2d8781665d7d2149a62dd9e121d90afd07212bf6a0812da9e470f31716068",
}


def check_golden_digests(tmp_path, capsys, scenario, golden) -> dict:
    """Run synth, refine --window 5, eval and ablate on ``scenario``, compare the
    sha256 of every output with ``golden``, and return the refine report."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scenario_to_dict(scenario)))
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
    for name in sorted(digests.keys() | golden.keys()):
        assert digests.get(name) == golden.get(name), f"{name} differs from the golden output"
    return json.loads((d / "report.json").read_text())


def test_fig2_outputs_match_golden_digests(tmp_path, capsys):
    check_golden_digests(tmp_path, capsys, fig2_scenario(), FIG2_GOLDEN)


def test_fallback_scene_outputs_match_golden_digests(tmp_path, capsys):
    report = check_golden_digests(tmp_path, capsys, FALLBACK_SCENE, FALLBACK_GOLDEN)
    assert [w["selected"] for w in report["windows"]] == [[1, 2], [], [1, 2]]
