"""The benchmark's tracer (perfbench/tracer.py) rebinds package names from
outside; these tests fail when one of those names goes or changes shape, and
pin how often each traced name is called."""

import importlib.util
import json
import pathlib
from collections import Counter
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


def spy_on_gate(monkeypatch, tracer) -> list:
    """Record, for every ``gate`` call the CLI or ``refine_video`` makes, the name
    of the span it runs in (None at the top level)."""
    parents = []
    real_gate = maskfuse.refine.gate

    def gate(*args, **kwargs):
        parents.append(tracer.spans[tracer._stack[-1]][0] if tracer._stack else None)
        return real_gate(*args, **kwargs)

    monkeypatch.setattr(maskfuse.refine, "gate", gate)
    monkeypatch.setattr(maskfuse.cli, "gate", gate)
    return parents


# Spans of the traced fig2 pipeline below (synth; refine --window 5 --report; eval;
# ablate --windows 2,5). Refining works on runs: loading decodes nothing, saving
# encodes nothing, and the gate and the rebuild call neither the dense
# overlap_fraction nor union, so those four spans never fire.
PIPELINE_SPANS = {
    "manifest.json_dump": 22, "manifest.json_parse": 8, "manifest.load": 7,
    "manifest.save": 4, "manifest.wrap": 4, "manifest.write_json": 2,
    "masks.rle_decode": 0, "masks.rle_encode": 0, "masks.rle_validate": 45,
    "metrics.boundary_f": 17, "metrics.evaluate": 4, "metrics.mask_boundary": 34,
    "metrics.region_j": 17, "refine.gate": 0, "refine.rebuild": 0,
    "refine.refine_video": 3, "refine.report": 1, "refine.vote": 5, "refine.window": 5,
    "synth.corruption_report": 1, "synth.generate": 1, "synth.scenario": 1,
}


def test_traced_cli_pipeline_restores_every_binding(tmp_path, capsys, monkeypatch):
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
    gate_parents = spy_on_gate(monkeypatch, tracer)
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
    # Every span the tracer installs is accounted for, with its exact count.
    installed = {name for _, _, name, _ in tracer_mod.BINDINGS}
    installed |= {"masks.rle_validate", "refine.report", "manifest.json_parse",
                  "manifest.json_dump"}
    assert set(PIPELINE_SPANS) == installed
    fired = Counter(span[0] for span in tracer.spans)
    assert {name: fired[name] for name in installed} == PIPELINE_SPANS
    # Windows vote and rebuild from their rows of the gate table; they never gate.
    # refine gates inside refine_video, ablate once before its window sizes.
    assert gate_parents == ["refine.refine_video", None]


def test_refine_video_accepts_the_workers_argument():
    result = generate(fig2_scenario())
    refined = refine_video(result.coarse, result.masklets, workers=2)
    assert refined.equals(refine_video(result.coarse, result.masklets))


def test_traced_ablate_gates_once_and_scores_each_frame_and_winner_once(tmp_path, capsys,
                                                                        monkeypatch):
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
    gate_parents = spy_on_gate(monkeypatch, tracer)
    tracer.install(0)
    try:
        code = maskfuse.cli.main(["ablate", "--coarse", paths["coarse"],
                                  "--tracked", paths["masklets"], "--gt", paths["gt"],
                                  "--windows", ",".join(map(str, windows))])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    calls = [span[0] for span in tracer.spans]
    assert gate_parents == [None]
    assert calls.count("refine.window") == sum(-(-coarse.num_frames // w) for w in windows)
    assert calls.count("metrics.boundary_f") == coarse.num_frames + len(fresh)
