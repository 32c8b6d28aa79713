"""Temporal refinement of per-frame masks using tracked instance masklets.

The engine repairs flicker in a coarse per-frame mask sequence by consulting
per-instance tracked masklets:

1. per frame, keep every instance whose tracked mask overlaps the coarse
   mask by more than a threshold fraction of the instance's own area,
2. per fixed-size window of frames, pick the instance combination that the
   gate produced most often,
3. rebuild each frame in the window as the union of the selected instances'
   tracked masks (falling back to the unmodified coarse frames when the
   selected combination is empty).

Frame indices are 0-based throughout the Python API; instance ids are
1-based. Exported JSON reports use 1-based frame numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AlignmentError
from .masks import Mask, area, intersection_area, make_mask, require_int, require_real, union

# Supported policies for breaking ties between equally frequent combinations.
TIE_BREAK_POLICIES = ("earliest", "smallest")

DEFAULT_WINDOW = 15
DEFAULT_TAU = 0.8


@dataclass(frozen=True, eq=False)
class MaskSequence:
    """An ordered run of same-sized binary masks (one per video frame).

    ``frames`` may be any non-empty iterable of 2-D masks, including another
    mask sequence; this constructor is the one place such an iterable becomes
    a sequence. Frames that already are contiguous bool arrays are kept as
    the same objects, not copied. Ragged or non-2-D frames raise ``ValueError``.
    """

    frames: tuple[Mask, ...]

    def __post_init__(self) -> None:
        frames = tuple(make_mask(f) for f in self.frames)
        if not frames:
            raise ValueError("a mask sequence needs at least one frame")
        shape = frames[0].shape
        for idx, f in enumerate(frames, start=1):
            if f.shape != shape:
                raise ValueError(
                    f"frame {idx} has shape {f.shape}, expected {shape} from frame 1"
                )
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> Mask:
        return self.frames[index]

    def equals(self, other: "MaskSequence") -> bool:
        """True when both sequences match frame by frame, pixel by pixel."""
        if self.num_frames != other.num_frames:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.frames, other.frames))


@dataclass(frozen=True, eq=False)
class MaskletSet:
    """Tracked per-instance masklets, all covering the same frame range.

    ``tracks`` is a list or tuple of per-instance mask sequences (or iterables
    of masks, which become ones); instance ``i`` (1-based) is ``tracks[i - 1]``
    and is stored as a tuple. Every track must cover the same frames of the
    same size; the constructor checks this and takes the dimensions from the
    tracks. Explicit dimensions must be integers of at least 1 that agree with
    the tracks. ``N = 0`` (no tracked instances) is allowed with explicit
    dimensions, and makes the refiner fall back to the coarse input everywhere.
    """

    tracks: tuple[MaskSequence, ...]
    num_frames: int | None = None
    height: int | None = None
    width: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tracks, (list, tuple)):
            raise ValueError(f"tracks must be a list or tuple, got {type(self.tracks).__name__}")
        tracks = tuple(seq if isinstance(seq, MaskSequence) else MaskSequence(frames=seq)
                       for seq in self.tracks)
        object.__setattr__(self, "tracks", tracks)
        declared = (self.num_frames, self.height, self.width)
        if not tracks and any(d is None for d in declared):
            raise ValueError("an empty masklet set needs explicit num_frames, height and "
                             f"width, got {declared}")
        dims = (tracks[0].num_frames, tracks[0].height, tracks[0].width) if tracks else declared
        for name, d, t in zip(("num_frames", "height", "width"), declared, dims):
            object.__setattr__(self, name, t if d is None else require_int(d, name, 1))
        want = (self.num_frames, self.height, self.width)
        for iid, seq in enumerate(tracks, start=1):
            if (seq.num_frames, seq.height, seq.width) != want:
                raise ValueError(f"masklet {iid} covers {seq.num_frames} frames of {seq.height}x"
                                 f"{seq.width}, expected {want[0]} frames of {want[1]}x{want[2]}")

    @property
    def num_instances(self) -> int:
        return len(self.tracks)

    def frame(self, instance_id: int, frame_index: int) -> Mask:
        """Instance ``instance_id``'s mask at frame ``frame_index``; ``KeyError``
        for an id outside ``1..num_instances``."""
        if not 1 <= instance_id <= len(self.tracks):
            raise KeyError(instance_id)
        return self.tracks[instance_id - 1].frames[frame_index]


def require_aligned(a, b, a_name: str, b_name: str) -> None:
    """Raise :class:`AlignmentError` unless ``a`` and ``b`` (mask sequences or
    masklet sets) cover the same number of frames of the same size."""
    if (a.num_frames, a.height, a.width) != (b.num_frames, b.height, b.width):
        raise AlignmentError(
            f"{a_name} has {a.num_frames} frames of {a.height}x{a.width}, "
            f"{b_name} {b.num_frames} frames of {b.height}x{b.width}"
        )


def window_spans(num_frames: int, window: int) -> list[tuple[int, int]]:
    """Half-open (start, stop) spans of consecutive ``window``-frame voting
    windows over ``num_frames`` frames; the last one may be shorter."""
    window = require_int(window, "window", 1)
    return [(s, min(s + window, num_frames)) for s in range(0, num_frames, window)]


@dataclass(frozen=True)
class RefineConfig:
    """Tunable parameters of the refinement engine.

    ``window`` is the number of frames voting together; ``tau`` is the
    overlap-fraction threshold (an instance survives a frame's gate only
    when its fraction strictly exceeds ``tau``). ``tie_break`` picks among
    equally frequent combinations: ``"earliest"`` keeps the one first seen
    in the window, ``"smallest"`` the lexicographically smallest id tuple.
    """

    window: int = DEFAULT_WINDOW
    tau: float = DEFAULT_TAU
    tie_break: str = "earliest"

    def __post_init__(self) -> None:
        # numpy scalars are stored as Python numbers, so a report serialises as JSON.
        object.__setattr__(self, "window", require_int(self.window, "window", 1))
        object.__setattr__(self, "tau", require_real(self.tau, "tau"))
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must satisfy 0 <= tau < 1, got {self.tau}")
        if self.tie_break not in TIE_BREAK_POLICIES:
            raise ValueError(
                f"tie_break must be one of {TIE_BREAK_POLICIES}, got {self.tie_break!r}"
            )


@dataclass(frozen=True)
class FrameRecord:
    """Gating outcome for one frame: surviving combination and all fractions."""

    index: int
    combination: tuple[int, ...]
    fractions: tuple[float, ...]


@dataclass(frozen=True)
class WindowRecord:
    """One window's half-open frame span, its vote winner, and per-frame records."""

    start: int
    stop: int
    selected: tuple[int, ...]
    frames: tuple[FrameRecord, ...]


@dataclass(frozen=True)
class RefineReport:
    """Full trace of a refinement run and the config it ran with, suitable for JSON export."""

    num_frames: int
    num_instances: int
    config: RefineConfig
    windows: tuple[WindowRecord, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        """JSON form of the trace. Frame numbers are 1-based here."""
        return {
            "num_frames": self.num_frames,
            "num_instances": self.num_instances,
            **asdict(self.config),
            "windows": [
                {
                    "first_frame": w.start + 1,
                    "last_frame": w.stop,
                    "selected": list(w.selected),
                    "frames": [
                        {
                            "frame": fr.index + 1,
                            "combination": list(fr.combination),
                            "fractions": list(fr.fractions),
                        }
                        for fr in w.frames
                    ],
                }
                for w in self.windows
            ],
        }

    def winners(self) -> tuple[tuple[int, ...], ...]:
        """Each frame's winning combination, ``()`` where the coarse frame passes through.

        Refined frame ``t`` is determined by ``(t, winner)``, whatever the window or
        ``tau``: the union of the winners' masklets at ``t``, or coarse frame ``t`` for ``()``.
        """
        return tuple(w.selected for w in self.windows for _ in range(w.start, w.stop))


@dataclass(frozen=True, eq=False)
class RefinedSequence(MaskSequence):
    """Refined frames plus the trace of how they were produced."""

    report: RefineReport


def overlap_fraction(instance_mask: Mask, frame_mask: Mask) -> float:
    """Fraction of the instance's pixels covered by the frame mask.

    Zero when the instance mask is empty (an absent instance never passes
    the gate).
    """
    instance_px = area(instance_mask)
    if instance_px == 0:
        return 0.0
    return intersection_area(instance_mask, frame_mask) / instance_px


def gate(coarse: MaskSequence, tracked: MaskletSet) -> tuple[tuple[float, ...], ...]:
    """The (T, N) table of overlap fractions: one row per frame, in instance-id
    order. It depends on neither ``window`` nor ``tau``."""
    require_aligned(coarse, tracked, "coarse sequence", "masklets")
    return tuple(tuple(overlap_fraction(tracked.frame(iid, t), frame)
                       for iid in range(1, tracked.num_instances + 1))
                 for t, frame in enumerate(coarse.frames))


def select_combination(combinations, tie_break: str = "earliest") -> tuple[int, ...]:
    """Most frequent combination in the list, with the configured tie-break.

    Empty combinations vote like any other. ``"earliest"`` resolves ties to
    the combination whose first occurrence comes soonest; ``"smallest"`` to
    the lexicographically smallest tuple.
    """
    counts = Counter(tuple(c) for c in combinations)
    if not counts:
        raise ValueError("cannot select from an empty combination list")
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(f"tie_break must be one of {TIE_BREAK_POLICIES}, got {tie_break!r}")
    if tie_break == "earliest":
        # Counter keeps first-occurrence order and max() returns the first maximum.
        return max(counts, key=counts.__getitem__)
    best = max(counts.values())
    return min(c for c, n in counts.items() if n == best)


def refine_window(coarse_frames, tracked: MaskletSet, cfg: RefineConfig,
                  *, fractions, start: int = 0) -> tuple[tuple[Mask, ...], WindowRecord]:
    """Vote and rebuild one window of frames.

    ``coarse_frames`` are the window's coarse masks; ``start`` is the index
    of the first one within the full video (masklets are indexed by absolute
    frame). ``fractions`` are the window's rows of the :func:`gate` table.
    Returns the rebuilt frames and the window's trace record.
    """
    n = tracked.num_instances
    if len(fractions) != len(coarse_frames) or any(len(row) != n for row in fractions):
        raise ValueError(f"fractions must be {len(coarse_frames)} rows of {n} values")
    # A row's i-th fraction (from 1) belongs to instance i; it survives above tau.
    records = [FrameRecord(index=start + offset, fractions=tuple(row),
                           combination=tuple(i for i, f in enumerate(row, start=1)
                                             if f > cfg.tau))
               for offset, row in enumerate(fractions)]
    selected = select_combination([r.combination for r in records], cfg.tie_break)
    if not selected:
        # Nothing survived the vote: pass the coarse frames through untouched.
        out = tuple(coarse_frames)
    else:
        out = tuple(
            union([tracked.frame(iid, start + offset) for iid in selected])
            for offset in range(len(coarse_frames))
        )
    record = WindowRecord(start=start, stop=start + len(coarse_frames),
                          selected=selected, frames=tuple(records))
    return out, record


def refine_video(coarse: MaskSequence, tracked: MaskletSet,
                 cfg: RefineConfig | None = None, *, workers: int = 1,
                 fractions=None) -> RefinedSequence:
    """Refine a whole video.

    The video is split into consecutive non-overlapping windows of
    ``cfg.window`` frames (the last window may be shorter) and each window
    is refined independently, in order, on the calling thread. ``fractions``
    is the :func:`gate` table of these inputs; it is computed when not given.
    ``workers`` must be an integer of at least 1 and is otherwise ignored: a
    thread pool over windows measured slower than one thread, since the
    per-frame numpy calls are too short for threads to do much besides
    contending for the GIL.
    """
    if cfg is None:
        cfg = RefineConfig()
    require_int(workers, "workers", 1)
    if fractions is None:
        fractions = gate(coarse, tracked)  # gate checks the alignment
    else:
        require_aligned(coarse, tracked, "coarse sequence", "masklets")
        if len(fractions) != coarse.num_frames:
            raise ValueError(f"fractions must have {coarse.num_frames} rows, got {len(fractions)}")

    frames: list[Mask] = []
    window_records = []
    for start, stop in window_spans(coarse.num_frames, cfg.window):
        out_frames, record = refine_window(coarse.frames[start:stop], tracked, cfg,
                                           start=start, fractions=fractions[start:stop])
        frames.extend(out_frames)
        window_records.append(record)
    report = RefineReport(
        num_frames=coarse.num_frames,
        num_instances=tracked.num_instances,
        config=cfg,
        windows=tuple(window_records),
    )
    return RefinedSequence(frames=tuple(frames), report=report)
