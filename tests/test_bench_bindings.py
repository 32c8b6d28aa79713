"""The benchmark's tracer (perfbench/tracer.py) rebinds package names from
outside; these tests fail when one of those names goes or changes shape."""

import importlib.util
import json
import pathlib
from time import perf_counter

import maskfuse.cli
import maskfuse.manifest
import maskfuse.masks
import maskfuse.refine
from maskfuse import (
    RefineConfig,
    fig2_scenario,
    generate,
    masklet_manifest,
    refine_video,
    save_manifest,
    scenario_to_dict,
    sequence_manifest,
)

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def extra_bindings():
    """What the tracer rebinds besides ``BINDINGS``."""
    return (maskfuse.masks.RleMask.__dict__["from_json_dict"],
            maskfuse.refine.RefineReport.to_json_dict, maskfuse.manifest.json)


def test_traced_cli_pipeline_restores_every_binding(tmp_path, capsys):
    tracer_mod = load_tracer()
    originals = [getattr(module, attr) for module, attr, _, _ in tracer_mod.BINDINGS]
    others = extra_bindings()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scenario_to_dict(fig2_scenario())))
    d = tmp_path / "synth"
    argvs = [
        ["synth", "--spec", str(spec), "--out-dir", str(d)],
        ["refine", "--coarse", str(d / "coarse.json"), "--tracked", str(d / "masklets.json"),
         "--out", str(tmp_path / "refined.json"), "--window", "5",
         "--report", str(tmp_path / "report.json")],
        ["eval", "--pred", str(tmp_path / "refined.json"), "--gt", str(d / "gt.json")],
        ["ablate", "--coarse", str(d / "coarse.json"), "--tracked", str(d / "masklets.json"),
         "--gt", str(d / "gt.json"), "--windows", "2,5"],
    ]
    tracer = tracer_mod.Tracer()
    tracer.install(0)
    try:
        t0 = perf_counter()
        codes = [maskfuse.cli.main(argv) for argv in argvs]
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    restored = [getattr(module, attr) for module, attr, _, _ in tracer_mod.BINDINGS]
    assert all(a is b for a, b in zip(restored, originals))
    assert all(a is b for a, b in zip(extra_bindings(), others))
    assert tracer_mod.pass_summary(tracer.spans, 0, wall)["trace.nesting_ok"] == 1.0
    # Every span the tracer installs must fire, or a benchmark counter reads 0.
    names = {span[0] for span in tracer.spans}
    installed = {name for _, _, name, _ in tracer_mod.BINDINGS}
    installed |= {"masks.rle_validate", "refine.report", "manifest.json_parse",
                  "manifest.json_dump"}
    assert installed - names == set()
    # The manifest writer encodes each frame it saves once, inside the save: synth saves
    # gt, coarse and masklets, refine the refined sequence.
    scene = generate(fig2_scenario()).masklets
    encodes = [span for span in tracer.spans if span[0] == "masks.rle_encode"]
    assert len(encodes) == scene.num_frames * (scene.num_instances + 3)
    assert {tracer.spans[span[3]][0] for span in encodes} == {"manifest.save"}
    # Windows vote and rebuild from their rows of the gate table; they never gate.
    parents = {tracer.spans[span[3]][0] for span in tracer.spans
               if span[0] == "refine.gate" and span[3] >= 0}
    assert "refine.window" not in parents


def test_refine_video_accepts_the_workers_argument():
    result = generate(fig2_scenario())
    refined = refine_video(result.coarse, result.masklets, workers=2)
    assert refined.equals(refine_video(result.coarse, result.masklets))


def test_traced_ablate_gates_once_and_scores_each_frame_and_winner_once(tmp_path, capsys):
    result = generate(fig2_scenario())
    coarse, tracked = result.coarse, result.masklets
    paths = {}
    for name, manifest in (("coarse", sequence_manifest("fig2", "coarse", coarse)),
                           ("masklets", masklet_manifest("fig2", tracked)),
                           ("gt", sequence_manifest("fig2", "gt", result.gt))):
        paths[name] = str(tmp_path / f"{name}.json")
        save_manifest(paths[name], manifest)
    windows = (2, 5)
    keys = {(t, winner) for w in windows for t, winner in
            enumerate(refine_video(coarse, tracked, RefineConfig(window=w)).report.winners())}
    fresh = keys - {(t, ()) for t in range(coarse.num_frames)}
    tracer = load_tracer().Tracer()
    tracer.install(0)
    try:
        code = maskfuse.cli.main(["ablate", "--coarse", paths["coarse"],
                                  "--tracked", paths["masklets"], "--gt", paths["gt"],
                                  "--windows", ",".join(map(str, windows))])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    calls = [span[0] for span in tracer.spans]
    assert calls.count("refine.gate") == coarse.num_frames * tracked.num_instances
    assert calls.count("metrics.boundary_f") == coarse.num_frames + len(fresh)
