"""Seeded workload definitions.

Everything here is plain data: the scenario JSON each workload renders and
the CLI arguments of one pass. Nothing imports ``maskfuse``, so the
orchestrator and the reference checks stay independent of the package.

Scene make-up (all workloads): 480x854 frames (DAVIS size), five instances
(three rects, two disks) each gliding horizontally in its own 66-row lane, so
no two instances ever touch and none ever leaves the image. Three of them,
drawn per seed, are the target. Coarse masks drop each target and add each non-target with
probability 0.1 per frame and are eroded by one pixel.
"""

from __future__ import annotations

import random
import zlib

HEIGHT, WIDTH = 480, 854
DEFAULT_WINDOW = 15  # the CLI's default window; refine passes run with it
DEFAULT_TAU = 0.8
ABLATE_WINDOWS = (5, 10, 15, 20)

# Frames per workload. ``ablate`` scores five sequences per pass, so it runs a
# shorter video to keep several passes inside one run.
FRAMES = {"refine": 300, "ablate": 20, "synth": 300}
WORKLOADS = tuple(FRAMES)

# Seed reserved for confirming a claimed gain; tune and develop on others.
HELD_OUT_SEED = 9001


def scene_seed(workload: str, seed: int) -> int:
    """The seed a workload's scene is drawn from; distinct per workload."""
    return (zlib.crc32(workload.encode()) * 1_000_003 + seed) % 2**31


# Shape of each instance slot. Kinds and sizes are fixed so that every seed asks
# for the same amount of work: rasterising, run counts and boundary lengths do
# not depend on the seed. A 61-row disk and a 60-row rect have nearly the same
# number of RLE runs.
SHAPES = (("rect", 60, 100), ("rect", 60, 140), ("rect", 60, 180), ("disk", 30), ("disk", 30))
# Lanes are 66 rows apart, leaving 5 or 6 empty rows between neighbouring
# shapes: they never touch, yet boundary distances between them straddle the
# F tolerance (8 px at 480x854), so a wrong tolerance changes the scores.
LANE = 66
TOP = (HEIGHT - LANE * len(SHAPES)) // 2


def _instance(rng: random.Random, shape: tuple, lane: int, frames: int) -> dict:
    """One shape in its lane, on a path that stays inside the image."""
    speed = rng.choice((-2, -1, 1, 2))
    travel = (frames - 1) * abs(speed)
    centre_row = TOP + lane * LANE + LANE // 2
    if shape[0] == "rect":
        _, h, w = shape
        entry = {"kind": "rect", "size": [h, w]}
        row, lo, hi = centre_row - h // 2, 0, WIDTH - w - travel
    else:
        r = shape[1]
        entry = {"kind": "disk", "radius": r}
        row, lo, hi = centre_row, r, WIDTH - 1 - r - travel
    col = rng.randint(lo, hi)
    if speed < 0:
        col += travel
    entry["start"] = [row, col]
    entry["velocity"] = [0, speed]
    return entry


def scenario(workload: str, seed: int) -> dict:
    """Scenario JSON (as accepted by ``maskfuse synth``) for one workload and seed.

    ``refine`` and ``synth`` videos also carry two scripted windows (of the
    default 15 frames): one where every target is dropped on every frame, so
    the vote is empty and the coarse frames pass through, and one where a
    target is dropped on 8 of 15 frames, so corruption is not a strict
    minority there.
    """
    frames = FRAMES[workload]
    rng = random.Random(scene_seed(workload, seed))
    lanes = list(range(len(SHAPES)))
    rng.shuffle(lanes)
    instances = [_instance(rng, shape, lane, frames) for shape, lane in zip(SHAPES, lanes)]
    target = sorted(rng.sample(range(1, len(SHAPES) + 1), 3))
    forced_drops = []
    if workload != "ablate":
        n_windows = frames // DEFAULT_WINDOW
        empty_w, majority_w = rng.sample(range(1, n_windows - 1), 2)
        for t in range(empty_w * DEFAULT_WINDOW, (empty_w + 1) * DEFAULT_WINDOW):
            forced_drops += [{"frame": t + 1, "instance": i} for i in target]
        victim = rng.choice(target)
        start = majority_w * DEFAULT_WINDOW
        for t in sorted(rng.sample(range(start, start + DEFAULT_WINDOW), 8)):
            forced_drops.append({"frame": t + 1, "instance": victim})
    return {
        "video_id": f"{workload}-{seed}",
        "frames": frames,
        "height": HEIGHT,
        "width": WIDTH,
        "seed": rng.randrange(2**31),
        "instances": instances,
        "target": target,
        "corruption": {
            "flicker_drop_prob": 0.1,
            "spurious_add_prob": 0.1,
            "boundary_erosion_px": 1,
            "forced_drops": forced_drops,
            "forced_adds": [],
        },
    }


def pass_argv(workload: str, inputs: str, out: str) -> list[str]:
    """CLI arguments of one pass: read from ``inputs``, write into ``out``."""
    if workload == "refine":
        return ["refine", "--coarse", f"{inputs}/coarse.json",
                "--tracked", f"{inputs}/masklets.json",
                "--out", f"{out}/refined.json", "--report", f"{out}/report.json"]
    if workload == "ablate":
        return ["ablate", "--coarse", f"{inputs}/coarse.json",
                "--tracked", f"{inputs}/masklets.json", "--gt", f"{inputs}/gt.json",
                "--windows", ",".join(map(str, ABLATE_WINDOWS)),
                "--json-out", f"{out}/table.json"]
    return ["synth", "--spec", f"{inputs}/scenario.json", "--out-dir", out]


def output_names(workload: str) -> tuple[str, ...]:
    """Files one pass writes into its output directory."""
    return {
        "refine": ("refined.json", "report.json"),
        "ablate": ("table.json",),
        "synth": ("gt.json", "masklets.json", "coarse.json", "corruption.json"),
    }[workload]
