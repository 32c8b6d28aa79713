"""Acceptance gate: the package's headline guarantees, each with an explicit
budget, checked end to end. Every test prints one PASS line (visible with
``pytest -s``); a failed criterion fails its test."""

import json
from time import perf_counter

import numpy as np

import oracles
from conftest import flicker_scenario
from maskfuse import (
    CorruptionSpec,
    EvalResult,
    MaskletSet,
    MaskSequence,
    RefineConfig,
    Scenario,
    ShapeTrack,
    area,
    boundary_f,
    evaluate_sequence,
    fig2_scenario,
    generate,
    intersection_area,
    iou,
    masklet_manifest,
    refine_video,
    region_j,
    rle_decode,
    rle_encode,
    save_manifest,
    sequence_manifest,
    union,
)
from maskfuse.cli import main


def _report(name: str, elapsed: float, budget: float | None = None) -> None:
    if budget is None:
        print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s)")
    else:
        print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_fig2_golden_trace():
    t0 = perf_counter()
    result = generate(fig2_scenario())
    refined = refine_video(result.coarse, result.masklets, RefineConfig(window=5, tau=0.8))
    combos = [fr.combination for fr in refined.report.windows[0].frames]
    assert combos == [(2,), (2,), (1, 2), (2,), (2,)]
    assert refined.report.windows[0].selected == (2,)
    assert np.array_equal(refined.frames[2], result.masklets.frame(2, 2))
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report("fig2 golden trace", elapsed, 1.0)


def test_engine_matches_bruteforce_oracle():
    t0 = perf_counter()
    rng = np.random.default_rng(2024)
    cases = 1000
    for _ in range(cases):
        T = int(rng.integers(1, 21))
        N = int(rng.integers(0, 5))
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        tau = float(rng.random())
        window = int(rng.integers(1, 25))
        policy = ("earliest", "smallest")[int(rng.integers(0, 2))]

        coarse = MaskSequence(frames=tuple(
            rng.random((h, w)) < rng.choice([0.25, 0.5, 0.8]) for _ in range(T)))
        tracks = MaskletSet(
            tracks=[MaskSequence(frames=tuple(
                rng.random((h, w)) < rng.choice([0.2, 0.4, 0.7]) for _ in range(T)))
                    for _ in range(N)],
            num_frames=T, height=h, width=w)

        refined = refine_video(coarse, tracks,
                               RefineConfig(window=window, tau=tau, tie_break=policy))
        want_frames, want_traces = oracles.refine_naive(
            [oracles.to_grid(f) for f in coarse.frames],
            {i: [oracles.to_grid(f) for f in seq.frames]
             for i, seq in enumerate(tracks.tracks, start=1)},
            window, tau, policy)

        for got, want in zip(refined.frames, want_frames):
            assert np.array_equal(got, np.array(want, dtype=bool).reshape(h, w))
        assert len(refined.report.windows) == len(want_traces)
        for record, (s, e, combos, selected) in zip(refined.report.windows, want_traces):
            assert (record.start, record.stop) == (s, e)
            assert [f.combination for f in record.frames] == combos
            assert record.selected == selected
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    _report(f"engine matches brute-force oracle on {cases} random instances",
            elapsed, 30.0)


def _recovery_scenario(index: int, seed: int) -> Scenario:
    """Disjoint shapes in horizontal bands; last instance is a non-target."""
    n = 2 + index % 3  # 2..4 instances
    T = (15, 20, 30, 45)[index % 4]
    height = 10 * n + 4
    tracks = []
    for i in range(n):
        row = 10 * i + 3
        if i % 2 == 0:
            velocity = (0, 1) if T <= 20 else (0, 0)
            tracks.append(ShapeTrack(kind="rect", size=(5, 6), start=(row, 4),
                                     velocity=velocity))
        else:
            tracks.append(ShapeTrack(kind="disk", radius=2, start=(row + 2, 36),
                                     velocity=(0, 0)))
    return Scenario(
        frames=T,
        height=height,
        width=48,
        instances=tuple(tracks),
        target=tuple(range(1, n)),  # all but the last instance
        corruption=CorruptionSpec(flicker_drop_prob=0.08, spurious_add_prob=0.04),
        seed=seed,
        video_id=f"recovery-{index}",
    )


def test_recovery_from_minority_corruption():
    t0 = perf_counter()
    windows = (5, 7, 10, 15)
    accepted = 0
    seed = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 400, "scenario filter is rejecting far too many seeds"
        scenario = _recovery_scenario(accepted, seed)
        seed += 1
        window = windows[accepted % 4]
        result = generate(scenario)
        if not result.corrupted_frames or not result.minority_everywhere(window):
            continue
        accepted += 1

        refined = refine_video(result.coarse, result.masklets,
                               RefineConfig(window=window, tau=0.8))
        assert refined.equals(result.gt), \
            f"scenario {scenario.video_id} (seed {scenario.seed}) not recovered"
        score = evaluate_sequence(refined, result.gt)
        assert score.jf_mean * 100.0 == 100.0
        baseline = evaluate_sequence(result.coarse, result.gt)
        assert baseline.jf_mean * 100.0 < 100.0
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    _report(f"exact recovery on {accepted} minority-corruption scenarios "
            f"({attempts} seeds tried)", elapsed, 60.0)


def test_ablation_table_shape_and_direction(tmp_path, capsys):
    t0 = perf_counter()
    result = generate(flicker_scenario())
    paths = {}
    for name, manifest in (
        ("coarse", sequence_manifest("flicker", "coarse", result.coarse)),
        ("masklets", masklet_manifest("flicker", result.masklets)),
        ("gt", sequence_manifest("flicker", "gt", result.gt)),
    ):
        path = tmp_path / f"{name}.json"
        save_manifest(path, manifest)
        paths[name] = str(path)
    table_path = tmp_path / "table.json"
    code = main(["ablate", "--coarse", paths["coarse"], "--tracked", paths["masklets"],
                 "--gt", paths["gt"], "--windows", "5,10,15,20",
                 "--json-out", str(table_path)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(table_path.read_text())
    assert [r["method"] for r in rows] == ["baseline"] + ["refined"] * 4
    assert [r["window"] for r in rows] == [None, 5, 10, 15, 20]
    baseline_jf = rows[0]["J&F"]
    for row in rows[1:]:
        assert row["J&F"] >= baseline_jf
    elapsed = perf_counter() - t0
    _report("ablation table: baseline + one row per window, "
            "refined never below baseline", elapsed)


def test_boundary_metric_matches_bruteforce_oracle():
    t0 = perf_counter()
    assert region_j is iou
    rng = np.random.default_rng(77)
    pairs = 500
    per_j, per_f = [], []
    for k in range(pairs):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        if k % 25 == 0:
            pred = np.zeros((h, w), dtype=bool)
            gt = np.zeros((h, w), dtype=bool)
        elif k % 25 == 1:
            pred = rng.random((h, w)) < 0.5
            gt = pred.copy()
        else:
            pred = rng.random((h, w)) < rng.choice([0.15, 0.5, 0.85])
            gt = rng.random((h, w)) < rng.choice([0.15, 0.5, 0.85])
        tol = int(rng.integers(1, 4))
        got = boundary_f(pred, gt, tolerance_px=tol)
        want = oracles.boundary_f_naive(oracles.to_grid(pred), oracles.to_grid(gt), tol)
        assert got == want, f"pair {k}: {got!r} != {want!r}"
        per_j.append(region_j(pred, gt))
        per_f.append(got)
    result = evaluate_sequence([np.ones((3, 3), dtype=bool)], [np.ones((3, 3), dtype=bool)])
    assert result.jf_mean == (result.j_mean + result.f_mean) / 2.0
    bundled = EvalResult(per_j, per_f)
    assert bundled.jf_mean == (bundled.j_mean + bundled.f_mean) / 2.0
    elapsed = perf_counter() - t0
    _report(f"boundary metric equals brute-force oracle on {pairs} pairs, "
            "J&F identity holds", elapsed)


def test_rle_roundtrip_and_inclusion_exclusion():
    t0 = perf_counter()
    rng = np.random.default_rng(4242)
    masks = 10_000
    for _ in range(masks):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        p = rng.choice([0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0])
        m = rng.random((h, w)) < p
        rle = rle_encode(m)
        assert np.array_equal(rle_decode(rle), m)
    pair_checks = 2_000
    for _ in range(pair_checks):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        a = rng.random((h, w)) < rng.choice([0.1, 0.5, 0.9])
        b = rng.random((h, w)) < rng.choice([0.1, 0.5, 0.9])
        both = union([a, b])
        assert area(a) + area(b) == area(both) + intersection_area(a, b)
    elapsed = perf_counter() - t0
    _report(f"RLE roundtrip on {masks} masks, inclusion-exclusion on "
            f"{pair_checks} pairs", elapsed)


def _perf_fixture():
    """1000 frames of 480x854 with 5 instances; arrays aliased between the
    frames where nothing moves so the fixture fits in modest RAM."""
    T, H, W = 1000, 480, 854
    n_epochs = (T + 2) // 3  # instances step one column every 3 frames
    instance_epochs = []
    for i in range(5):
        r0 = 10 + i * 90
        c_base = 30 + i * 60
        epochs = []
        for e in range(n_epochs):
            m = np.zeros((H, W), dtype=bool)
            m[r0:r0 + 60, c_base + e:c_base + e + 50] = True
            epochs.append(m)
        instance_epochs.append(epochs)

    tracks = [MaskSequence(frames=tuple(instance_epochs[i][t // 3] for t in range(T)))
              for i in range(5)]
    masklets = MaskletSet(tracks=tracks)

    gt_epochs = [union([instance_epochs[i][e] for i in range(5)])
                 for e in range(n_epochs)]
    gt_frames = tuple(gt_epochs[t // 3] for t in range(T))

    coarse_frames = []
    for t in range(T):
        if t % 15 in (3, 9):  # drop one instance: 2 corrupted frames per window
            dropped = (t // 15) % 5
            keep = [i for i in range(5) if i != dropped]
            coarse_frames.append(union([instance_epochs[i][t // 3] for i in keep]))
        else:
            coarse_frames.append(gt_frames[t])
    return (MaskSequence(frames=tuple(coarse_frames)), masklets,
            MaskSequence(frames=gt_frames))


def test_throughput_and_worker_determinism():
    coarse, masklets, gt = _perf_fixture()
    t0 = perf_counter()
    refined = refine_video(coarse, masklets, RefineConfig(window=15, tau=0.8), workers=1)
    elapsed = perf_counter() - t0
    assert elapsed <= 10.0, f"single-core refine took {elapsed:.2f}s"

    assert refined.equals(gt)  # 2 corrupted frames per 15 is a minority

    threaded = refine_video(coarse, masklets, RefineConfig(window=15, tau=0.8), workers=8)
    assert refined.report == threaded.report
    assert all(np.array_equal(a, b) for a, b in zip(refined.frames, threaded.frames))
    _report(f"1000-frame 480x854 x5 refine in {elapsed:.2f}s single-core, "
            "bit-identical across 1 and 8 workers", elapsed, 10.0)
