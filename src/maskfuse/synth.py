"""Synthetic video scenarios for exercising the refinement engine.

A scenario places simple shapes (axis-aligned rectangles, discrete disks)
on straight integer-lattice paths, declares which instances make up the
target object, and renders three aligned artifacts:

* ground truth: union of the target instances per frame,
* masklets: exact per-instance tracks,
* coarse: ground truth with seeded corruption (instance dropout, spurious
  inclusion of non-targets, boundary erosion).

Rendering is deterministic: the same scenario always produces bit-identical
outputs. Corruption draws come from ``numpy.random.default_rng(seed)``
(PCG64): a (frames, target instances) array of uniforms, filled in
row-major (frame, then instance) order, for dropouts, followed by a
(frames, non-target instances) array for spurious additions. Draws
happen even when the corresponding probability is zero, so adding forced
events never shifts the stream.

Frame indices are 0-based in this API, 1-based in JSON and error messages.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ScenarioError
from .masks import (erode_runs, is_int, merge_runs, require_int, require_mask_budget, require_real,
                    rles_from_intervals, union_runs)
from .refine import MaskletSet, MaskSequence, window_spans

SHAPE_KINDS = ("rect", "disk")
# Frames that generate renders, unites and erodes in one call each.
_BLOCK_FRAMES = 32


def _int_pair(value, what: str) -> tuple[int, int]:
    """``value`` (a tuple or list of two integers) as a pair of ints, else a ScenarioError."""
    if not isinstance(value, (tuple, list)) or len(value) != 2 or not all(map(is_int, value)):
        raise ScenarioError(f"{what} must be an integer pair, got {value!r}")
    return tuple(map(int, value))


@dataclass(frozen=True)
class ShapeTrack:
    """One instance: a shape gliding along a straight path.

    ``size`` (height, width) applies to rectangles, ``radius`` to disks; the
    unused field stays ``None``. ``start`` is the position at frame 0 (the
    rectangle's top-left corner or the disk's centre, as (row, col)) and
    ``velocity`` the per-frame (row, col) step. Parts of the shape that
    leave the image are clipped.
    """

    kind: str
    start: tuple[int, int] = (0, 0)
    velocity: tuple[int, int] = (0, 0)
    size: tuple[int, int] | None = None
    radius: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ScenarioError(f"kind must be one of {SHAPE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "start", _int_pair(self.start, "start"))
        object.__setattr__(self, "velocity", _int_pair(self.velocity, "velocity"))
        if self.kind == "rect":
            if self.radius is not None:
                raise ScenarioError(f"a rect takes 'size', not 'radius' (got {self.radius!r})")
            size = _int_pair(self.size, "rect size")
            if min(size) < 1:
                raise ScenarioError(f"rect size must be positive, got {size}")
            object.__setattr__(self, "size", size)
        else:
            if self.size is not None:
                raise ScenarioError(f"a disk takes 'radius', not 'size' (got {self.size!r})")
            object.__setattr__(self, "radius",
                               require_int(self.radius, "disk radius", 0, ScenarioError))

    @property
    def extent(self) -> tuple[int, int]:
        """(height, width) of the shape's bounding box."""
        return self.size if self.kind == "rect" else (2 * self.radius + 1,) * 2

    def position(self, frame_index: int) -> tuple[int, int]:
        return (self.start[0] + frame_index * self.velocity[0],
                self.start[1] + frame_index * self.velocity[1])


@dataclass(frozen=True)
class CorruptionSpec:
    """How the coarse sequence deviates from ground truth.

    ``forced_drops`` / ``forced_adds`` are (frame, instance) pairs that
    fire regardless of the probabilities — handy for scripting corruption
    at exact frames. Frames here are 0-based.
    """

    flicker_drop_prob: float = 0.0
    spurious_add_prob: float = 0.0
    boundary_erosion_px: int = 0
    forced_drops: tuple[tuple[int, int], ...] = ()
    forced_adds: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("flicker_drop_prob", "spurious_add_prob"):
            p = getattr(self, name)
            object.__setattr__(self, name, require_real(p, name, ScenarioError))
            if not 0.0 <= p <= 1.0:
                raise ScenarioError(f"{name} must be a probability in [0, 1], got {p!r}")
        object.__setattr__(self, "boundary_erosion_px", require_int(
            self.boundary_erosion_px, "boundary_erosion_px", 0, ScenarioError))
        for name in ("forced_drops", "forced_adds"):
            events = getattr(self, name)
            if not isinstance(events, (tuple, list)):
                raise ScenarioError(f"{name} must be a list of integer pairs, got {events!r}")
            pairs = {_int_pair(e, f"{name} entry (0-based frame, instance)") for e in events}
            object.__setattr__(self, name, tuple(sorted(pairs)))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one synthetic video."""

    frames: int
    height: int
    width: int
    instances: tuple[ShapeTrack, ...]
    target: tuple[int, ...]
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)
    seed: int = 0
    video_id: str = "synthetic"

    def __post_init__(self) -> None:
        for name in ("frames", "height", "width"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 1, ScenarioError))
        if not isinstance(self.instances, (tuple, list)):
            raise ScenarioError(f"instances must be a list of ShapeTrack, got {self.instances!r}")
        instances = tuple(self.instances)
        object.__setattr__(self, "instances", instances)
        if not instances:
            raise ScenarioError("a scenario needs at least one instance")
        n = len(instances)
        # Every instance, the ground truth and the coarse sequence get T frames.
        require_mask_budget(n + 2, self.frames, self.height, self.width, ScenarioError)
        for idx, track in enumerate(instances, start=1):
            if not isinstance(track, ShapeTrack):
                raise ScenarioError(f"instance {idx} is not a ShapeTrack: {track!r}")
            box_h, box_w = track.extent
            if box_h > self.height or box_w > self.width:
                raise ScenarioError(
                    f"instance {idx}: {track.kind} of {box_h}x{box_w} pixels does not fit "
                    f"in {self.height}x{self.width}"
                )
        if not isinstance(self.target, (tuple, list)):
            raise ScenarioError(f"target must be a list of instance ids, got {self.target!r}")
        for iid in self.target:
            if not (is_int(iid) and 1 <= iid <= n):
                raise ScenarioError(f"target id {iid!r} is not an instance id in 1..{n}")
        target = tuple(sorted(set(map(int, self.target))))
        object.__setattr__(self, "target", target)
        if not target:
            raise ScenarioError("target must name at least one instance")
        if not isinstance(self.corruption, CorruptionSpec):
            raise ScenarioError(f"corruption is not a CorruptionSpec: {self.corruption!r}")
        for verb, forced, allowed, role in (
                ("drop", self.corruption.forced_drops, target, "a target"),
                ("add", self.corruption.forced_adds, self.non_target, "a non-target")):
            for frame, iid in forced:
                if not 0 <= frame < self.frames:
                    raise ScenarioError(f"forced {verb} frame {frame + 1} outside 1..{self.frames}")
                if iid not in allowed:
                    raise ScenarioError(f"forced {verb} instance {iid} is not {role} instance")
        object.__setattr__(self, "seed", require_int(self.seed, "seed", 0, ScenarioError))
        if not isinstance(self.video_id, str):
            raise ScenarioError(f"video_id must be a string, got {self.video_id!r}")

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def non_target(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.num_instances + 1) if i not in self.target)


def _track_runs(track: ShapeTrack, t0: int, t1: int, height: int, width: int):
    """One instance over frames ``[t0, t1)`` as flat intervals ``(starts, ends)``
    of the block, frame ``t`` at ``(t - t0) * H * W``: one per row the shape
    covers, clipped at the image edges. A rect's rows span its columns; a disk's
    row ``dy`` spans the ``x`` with ``(x - col)**2 <= r**2 - dy**2``,
    ``isqrt(r**2 - dy**2)`` either side."""
    box_h, box_w = track.extent
    # Clamped as Python ints, a shape beyond an edge stays beyond it, and int64 holds the numbers.
    at = np.array([(min(max(row, -box_h), height + box_h), min(max(col, -box_w), width + box_w))
                   for row, col in map(track.position, range(t0, t1))])
    if track.kind == "rect":
        dy, lo, hi = np.arange(box_h), 0, box_w
    else:
        r = track.radius
        dy = np.arange(-r, r + 1)
        half = np.array([math.isqrt(r * r - d * d) for d in dy.tolist()], dtype=np.int64)
        lo, hi = -half, half + 1
    y, x0, x1 = at[:, :1] + dy, np.clip(at[:, 1:] + lo, 0, width), np.clip(at[:, 1:] + hi, 0, width)
    frame = np.broadcast_to(np.arange(t1 - t0)[:, None], y.shape)
    keep = (y >= 0) & (y < height) & (x0 < x1)
    base = (frame * height + y) * width
    return (base + x0)[keep], (base + x1)[keep]


def _strict_minority(corrupted: int, frames: int) -> bool:
    """True when ``corrupted`` of a window's ``frames`` frames are fewer than half."""
    return 2 * corrupted < frames


@dataclass(frozen=True, eq=False)
class SynthResult:
    """Rendered scenario: aligned ground truth, masklets, and coarse masks.

    ``drops``/``adds`` list every corruption event that fired (0-based
    frame, instance), forced and sampled alike. ``corrupted_frames`` are the
    frames where the coarse mask actually differs from ground truth.
    """

    scenario: Scenario
    gt: MaskSequence
    masklets: MaskletSet
    coarse: MaskSequence
    drops: tuple[tuple[int, int], ...]
    adds: tuple[tuple[int, int], ...]
    corrupted_frames: tuple[int, ...]

    def window_corruption(self, window: int) -> tuple[tuple[int, int, int], ...]:
        """Per-window corruption as (start, stop, corrupted-count) triples."""
        corrupted = set(self.corrupted_frames)
        return tuple((s, e, sum(1 for t in range(s, e) if t in corrupted))
                     for s, e in window_spans(self.gt.num_frames, window))

    def minority_everywhere(self, window: int) -> bool:
        """True when corruption hits a strict minority of frames in every window."""
        return all(_strict_minority(n, e - s) for s, e, n in self.window_corruption(window))


def generate(scenario: Scenario) -> SynthResult:
    """Render a scenario. Same scenario, same bits — always.

    Frames are rendered a block at a time, with no pixels: each track becomes
    one interval per row it covers in each frame of the block, and each block's
    ground truth and coarse frames are unions of those intervals, the coarse
    ones eroded on their runs."""
    T, H, W = scenario.frames, scenario.height, scenario.width
    spec = scenario.corruption
    rng = np.random.default_rng(scenario.seed)
    drops, adds = set(spec.forced_drops), set(spec.forced_adds)
    for events, ids, prob in ((drops, scenario.target, spec.flicker_drop_prob),
                              (adds, scenario.non_target, spec.spurious_add_prob)):
        hits = np.argwhere(rng.random((T, len(ids))) < prob).tolist()
        events.update((t, ids[k]) for t, k in hits)
    # in_coarse[t, i - 1]: instance i is part of frame t's coarse union.
    in_coarse = np.zeros((T, scenario.num_instances), dtype=bool)
    in_coarse[:, [iid - 1 for iid in scenario.target]] = True
    for events, value in ((drops, False), (adds, True)):
        for t, iid in events:
            in_coarse[t, iid - 1] = value

    tracks = [[] for _ in scenario.instances]
    gt_frames, coarse_frames = [], []
    for t0 in range(0, T, _BLOCK_FRAMES):
        t1 = min(t0 + _BLOCK_FRAMES, T)
        runs = [_track_runs(track, t0, t1, H, W) for track in scenario.instances]
        for track, part in zip(tracks, runs):
            track += union_runs([part], t1 - t0, H, W)
        gt_frames += union_runs([runs[iid - 1] for iid in scenario.target], t1 - t0, H, W)
        parts = []
        for (starts, ends), keep in zip(runs, in_coarse[t0:t1].T):
            pick = keep[starts // (H * W)]  # each interval's frame in the block
            parts.append((starts[pick], ends[pick]))
        coarse = erode_runs(*merge_runs(parts, H, W), spec.boundary_erosion_px, H, W)
        coarse_frames += rles_from_intervals(*coarse, t1 - t0, H, W)
    return SynthResult(
        scenario=scenario,
        gt=MaskSequence(frames=gt_frames),
        masklets=MaskletSet(tracks=tracks),
        coarse=MaskSequence(frames=coarse_frames),
        drops=tuple(sorted(drops)),
        adds=tuple(sorted(adds)),
        corrupted_frames=tuple(t for t in range(T) if coarse_frames[t] != gt_frames[t]),
    )


def fig2_scenario() -> Scenario:
    """The canonical two-instance demo.

    Five frames, a rectangle (instance 1) and a disk (instance 2) on
    disjoint paths; the target is the disk alone, but the coarse prediction
    wrongly includes the rectangle at frame 3 of 5. Windowed voting keeps
    the disk-only combination and discards the intruder.
    """
    return Scenario(
        frames=5,
        height=24,
        width=48,
        instances=(
            ShapeTrack(kind="rect", size=(6, 8), start=(3, 4), velocity=(0, 1)),
            ShapeTrack(kind="disk", radius=4, start=(16, 30), velocity=(0, -1)),
        ),
        target=(2,),
        corruption=CorruptionSpec(forced_adds=((2, 1),)),
        seed=2024,
        video_id="fig2",
    )


def corruption_report(result: SynthResult, window: int) -> dict:
    """JSON-ready summary of what was corrupted and where recovery is at risk.

    Windows where corruption reaches half the frames or more are flagged
    (``strict_minority`` false): there the most-frequent-combination vote
    can lock onto a corrupted combination. Frames are 1-based here.
    """
    window = require_int(window, "window", 1)
    return {
        "video_id": result.scenario.video_id,
        "seed": result.scenario.seed,
        "num_frames": result.scenario.frames,
        "window": window,
        "drops": [{"frame": t + 1, "instance": i} for t, i in result.drops],
        "adds": [{"frame": t + 1, "instance": i} for t, i in result.adds],
        "corrupted_frames": [t + 1 for t in result.corrupted_frames],
        "windows": [
            {
                "first_frame": s + 1,
                "last_frame": e,
                "corrupted": n,
                "strict_minority": _strict_minority(n, e - s),
            }
            for s, e, n in result.window_corruption(window)
        ],
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON form of a scenario: :func:`dataclasses.asdict`, except that a shape's
    unused ``None`` field is left out and forced events become 1-based
    ``{"frame", "instance"}`` objects. ``instances`` is a list; other tuples stay tuples.
    """
    obj = asdict(scenario)
    obj["instances"] = [{key: value for key, value in track.items() if value is not None}
                        for track in obj["instances"]]
    spec = obj["corruption"]
    for name in ("forced_drops", "forced_adds"):
        spec[name] = [{"frame": t + 1, "instance": i} for t, i in spec[name]]
    return obj


def _events_from_json(obj, name: str) -> tuple[tuple[int, int], ...]:
    """1-based ``{"frame", "instance"}`` objects as 0-based (frame, instance) pairs."""
    if not isinstance(obj, list):
        raise ScenarioError(f"corruption.{name} must be a list")
    events = []
    for entry in obj:
        if not isinstance(entry, dict) or entry.keys() != {"frame", "instance"}:
            raise ScenarioError(
                f"corruption.{name} entries must be objects with keys 'frame' and 'instance', "
                f"got {entry!r}"
            )
        if not (is_int(entry["frame"]) and entry["frame"] >= 1 and is_int(entry["instance"])):
            raise ScenarioError(f"corruption.{name} entries need a 1-based integer frame and "
                                f"an integer instance, got {entry!r}")
        events.append((entry["frame"] - 1, entry["instance"]))
    return tuple(events)


def _build(cls, obj, where: str, **converted):
    """``cls`` from the JSON object ``obj``, with ``converted`` in place of those keys.

    A missing or unknown key (the constructor's ``TypeError``) or an invalid
    value becomes a ScenarioError that starts with ``where``.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {type(obj).__name__}")
    try:
        return cls(**{**obj, **converted})
    except (TypeError, ScenarioError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(obj) -> Scenario:
    """Parse the JSON form produced by :func:`scenario_to_dict`.

    The keys of each JSON object are the field names of the type it becomes
    (:class:`Scenario`, :class:`ShapeTrack`, :class:`CorruptionSpec`), and
    that type's constructor is the only check of its values.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(obj).__name__}")
    fields = {}
    if isinstance(obj.get("instances"), list):  # anything else is the Scenario's to reject
        fields["instances"] = tuple(_build(ShapeTrack, entry, f"instance {idx}")
                                    for idx, entry in enumerate(obj["instances"], start=1))
    if "corruption" in obj:
        spec = obj["corruption"]
        events = {name: _events_from_json(spec[name], name)
                  for name in ("forced_drops", "forced_adds")
                  if isinstance(spec, dict) and name in spec}
        fields["corruption"] = _build(CorruptionSpec, spec, "corruption", **events)
    return _build(Scenario, obj, "scenario", **fields)
