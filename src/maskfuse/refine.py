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
from .masks import (Mask, RleMask, area, intersection_area, require_int, require_real,
                    require_same_shape, rle_decode, rle_encode)
from .masks import union  # noqa: F401  not called here; perfbench/tracer.py binds refine.union

# Supported policies for breaking ties between equally frequent combinations.
TIE_BREAK_POLICIES = ("earliest", "smallest")

DEFAULT_WINDOW = 15
DEFAULT_TAU = 0.8


class MaskSequence:
    """An ordered run of same-sized binary masks (one per video frame).

    ``frames`` may be any non-empty iterable of 2-D masks or :class:`RleMask`
    objects, including another mask sequence; this constructor is the one place
    such an iterable becomes a sequence. The sequence stores each frame's runs
    (``rles``), not its pixels: a dense frame is encoded once and not kept, an
    ``RleMask`` is kept as it is, and another sequence's runs are shared, with
    no decode and no re-encode. Indexing, iteration and ``frames`` decode on
    access, so each read gives a new array. Ragged or non-2-D frames raise
    ``ValueError``.
    """

    def __init__(self, frames) -> None:
        if isinstance(frames, MaskSequence):
            self.rles = frames.rles
            return
        rles: list[RleMask] = []
        for idx, frame in enumerate(frames, start=1):
            rles.append(frame if isinstance(frame, RleMask) else rle_encode(frame))
            shape, expected = (rles[-1].height, rles[-1].width), (rles[0].height, rles[0].width)
            if shape != expected:
                raise ValueError(f"frame {idx} has shape {shape}, expected {expected} from frame 1")
        if not rles:
            raise ValueError("a mask sequence needs at least one frame")
        self.rles: tuple[RleMask, ...] = tuple(rles)

    @property
    def frames(self) -> tuple[Mask, ...]:
        """Every frame, decoded."""
        return self[:]

    @property
    def num_frames(self) -> int:
        return len(self.rles)

    @property
    def height(self) -> int:
        return self.rles[0].height

    @property
    def width(self) -> int:
        return self.rles[0].width

    def __len__(self) -> int:
        return len(self.rles)

    def __getitem__(self, index):
        """Frame ``index``, decoded; a tuple of decoded frames for a slice."""
        if isinstance(index, slice):
            return tuple(map(rle_decode, self.rles[index]))
        return rle_decode(self.rles[index])

    def __iter__(self):
        return map(rle_decode, self.rles)

    def equals(self, other: "MaskSequence") -> bool:
        """True when both sequences match frame by frame, pixel by pixel. Runs
        are canonical (see ``masks``), so this compares the runs."""
        return self.rles == other.rles


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
        return self.tracks[instance_id - 1][frame_index]


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


class RefinedSequence(MaskSequence):
    """Refined frames plus the trace of how they were produced."""

    def __init__(self, frames, report: RefineReport) -> None:
        super().__init__(frames)
        self.report = report


def overlap_fraction(instance_mask: Mask, frame_mask: Mask) -> float:
    """Fraction of the instance's pixels covered by the frame mask.

    Zero when the instance mask is empty (an absent instance never passes
    the gate). Both masks are read only from the instance's first foreground
    pixel (row-major) on. :func:`gate` computes the same fractions from runs.
    """
    require_same_shape(instance_mask, frame_mask)
    inst = np.ravel(np.asarray(instance_mask, dtype=bool))
    first = int(inst.argmax())  # stops at the first True
    if not inst[first]:
        return 0.0
    inst = inst[first:]
    return intersection_area(inst, np.ravel(frame_mask)[first:]) / area(inst)


def _intervals(rles) -> tuple[np.ndarray, np.ndarray]:
    """The foreground runs of consecutive frames as sorted half-open intervals
    ``[starts, ends)`` of flat positions, frame ``k`` starting at ``k * H * W``.
    One ``cumsum`` over every count gives these positions, because each
    frame's counts sum to ``H * W``."""
    flat: list[int] = []
    for rle in rles:
        flat += rle.counts
    counts = np.array(flat, dtype=np.int64)
    lengths = np.array([len(rle.counts) for rle in rles])
    ends = np.cumsum(counts)
    # Runs alternate background, foreground, ... from each frame's first count.
    offset = np.arange(counts.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    foreground = offset % 2 == 1
    return ends[foreground] - counts[foreground], ends[foreground]


def _rles_from_intervals(starts, ends, num_frames: int, height: int,
                         width: int) -> tuple[RleMask, ...]:
    """The frames whose foreground is the sorted, disjoint, non-adjacent
    intervals ``[starts, ends)`` of flat positions (as :func:`_intervals`
    gives them), as counts: each frame's are the gaps between its first pixel,
    its interval ends and its last pixel, without a trailing 0."""
    size = height * width
    frame = starts // size
    first = np.searchsorted(frame, np.arange(num_frames + 1))  # each frame's first interval
    # Frame t's first pixel, then its intervals' ends, then frame t + 1's first pixel.
    at = np.arange(num_frames + 1) + 2 * first
    points = np.empty(2 * starts.size + num_frames + 1, dtype=np.int64)
    points[at] = np.arange(num_frames + 1) * size
    slots = frame + 1 + 2 * np.arange(starts.size)
    points[slots], points[slots + 1] = starts, ends
    counts, at = np.diff(points).tolist(), at.tolist()
    out = []
    for lo, hi in zip(at, at[1:]):
        frame_counts = counts[lo:hi]
        if not frame_counts[-1]:  # the frame ends in foreground: no background run after it
            frame_counts.pop()
        out.append(RleMask(height=height, width=width, counts=tuple(frame_counts)))
    return tuple(out)


def _union(tracks, start: int, stop: int) -> tuple[RleMask, ...]:
    """Frames ``start`` to ``stop`` of the union of the mask sequences ``tracks``."""
    first = tracks[0]
    parts = [_intervals(seq.rles[start:stop]) for seq in tracks]
    starts = np.concatenate([s for s, _ in parts])
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], np.concatenate([e for _, e in parts])[order]
    # An interval joins the one before it when it starts within the reach of
    # the intervals so far (adjacent ones too), unless it is in a later frame.
    reach = np.maximum.accumulate(ends)
    frame = starts // (first.height * first.width)
    new = np.ones(starts.size, dtype=bool)
    new[1:] = (starts[1:] > reach[:-1]) | (frame[1:] != frame[:-1])
    last = np.ones(starts.size, dtype=bool)
    last[:-1] = new[1:]
    return _rles_from_intervals(starts[new], reach[last], stop - start,
                                first.height, first.width)


def gate(coarse: MaskSequence, tracked: MaskletSet) -> tuple[tuple[float, ...], ...]:
    """The (T, N) table of overlap fractions: one row per frame, in instance-id
    order. It depends on neither ``window`` nor ``tau``. Each entry is the
    Python float :func:`overlap_fraction` gives for the decoded frames, computed
    from the runs: the area and the coarse-covered part of every instance
    interval, summed per frame."""
    require_aligned(coarse, tracked, "coarse sequence", "masklets")
    num_frames, size = coarse.num_frames, coarse.height * coarse.width
    starts, ends = _intervals(coarse.rles)
    # A sentinel interval past the last position keeps every searched index valid.
    starts, ends = np.append(starts, num_frames * size + 1), np.append(ends, num_frames * size + 1)
    below = np.concatenate(([0], np.cumsum(ends - starts)))

    def covered(x):
        """Coarse foreground pixels before each flat position in ``x``: the
        intervals that end by it, and the part of the next one before it."""
        j = np.searchsorted(ends, x, side="right")
        return below[j] + np.maximum(x - starts[j], 0)

    columns = []
    for track in tracked.tracks:
        s, e = _intervals(track.rles)
        frame = s // size
        # Sums of integers below 2**53 are exact as floats, and so is their
        # quotient's rounding: it equals Python's int / int.
        area_px = np.bincount(frame, weights=e - s, minlength=num_frames)
        inter_px = np.bincount(frame, weights=covered(e) - covered(s), minlength=num_frames)
        columns.append(np.divide(inter_px, area_px, out=np.zeros(num_frames),
                                 where=area_px > 0))
    table = np.column_stack(columns) if columns else np.zeros((num_frames, 0))
    return tuple(map(tuple, table.tolist()))


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
                  *, fractions, start: int = 0) -> tuple[MaskSequence, WindowRecord]:
    """Vote and rebuild one window of frames.

    ``coarse_frames`` are the window's coarse frames (anything
    :class:`MaskSequence` takes); ``start`` is the index of the first one
    within the full video (masklets are indexed by absolute frame).
    ``fractions`` are the window's rows of the :func:`gate` table. Returns
    the rebuilt frames, built from the runs, and the window's trace record.
    """
    coarse_frames = MaskSequence(frames=coarse_frames)
    n, count = tracked.num_instances, coarse_frames.num_frames
    if len(fractions) != count or any(len(row) != n for row in fractions):
        raise ValueError(f"fractions must be {count} rows of {n} values")
    # A row's i-th fraction (from 1) belongs to instance i; it survives above tau.
    records = [FrameRecord(index=start + offset, fractions=tuple(row),
                           combination=tuple(i for i, f in enumerate(row, start=1)
                                             if f > cfg.tau))
               for offset, row in enumerate(fractions)]
    selected = select_combination([r.combination for r in records], cfg.tie_break)
    if not selected:
        # Nothing survived the vote: pass the coarse frames through untouched.
        out = coarse_frames
    else:
        out = MaskSequence(frames=_union([tracked.tracks[iid - 1] for iid in selected],
                                         start, start + count))
    record = WindowRecord(start=start, stop=start + count,
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

    rles: list[RleMask] = []
    window_records = []
    for start, stop in window_spans(coarse.num_frames, cfg.window):
        out, record = refine_window(coarse.rles[start:stop], tracked, cfg,
                                    start=start, fractions=fractions[start:stop])
        rles.extend(out.rles)
        window_records.append(record)
    report = RefineReport(
        num_frames=coarse.num_frames,
        num_instances=tracked.num_instances,
        config=cfg,
        windows=tuple(window_records),
    )
    return RefinedSequence(frames=rles, report=report)
