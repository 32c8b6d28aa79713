import numpy as np

from maskfuse import CorruptionSpec, MaskletSet, MaskSequence, Scenario, ShapeTrack, refine_video

# The forms a mask sequence can take as an argument.
SEQUENCE_FORMS = ("MaskSequence", "RefinedSequence", "list")


def mask_from_rows(*rows: str) -> np.ndarray:
    """Build a bool mask from strings: '#' or '1' = foreground, anything else background."""
    return np.array([[ch in "#1" for ch in row] for row in rows], dtype=bool)


def rand_mask(rng: np.random.Generator, height: int, width: int, p: float = 0.5) -> np.ndarray:
    return rng.random((height, width)) < p


def sequence_as(form: str, frames):
    """``frames`` as a plain list, a ``MaskSequence``, or a ``RefinedSequence``
    (refined against no masklets, so its frames are the input frames)."""
    if form == "list":
        return list(frames)
    seq = MaskSequence(frames=frames)
    if form == "MaskSequence":
        return seq
    no_tracks = MaskletSet.from_tracks({}, num_frames=seq.num_frames,
                                       height=seq.height, width=seq.width)
    return refine_video(seq, no_tracks)


def flicker_scenario() -> Scenario:
    """Forty frames, three instances, a sparse forced-drop/add pattern that is a
    strict minority within every window for all sizes in {5, 10, 15, 20}."""
    return Scenario(
        frames=40,
        height=32,
        width=64,
        instances=(
            ShapeTrack(kind="rect", size=(6, 7), start=(2, 3), velocity=(0, 1)),
            ShapeTrack(kind="disk", radius=3, start=(14, 50), velocity=(0, -1)),
            ShapeTrack(kind="rect", size=(5, 5), start=(24, 20), velocity=(0, 0)),
        ),
        target=(1, 2),
        corruption=CorruptionSpec(
            forced_drops=((2, 1), (8, 2), (13, 1), (21, 2), (34, 1)),
            forced_adds=((27, 3),),
        ),
        seed=7,
        video_id="flicker",
    )


def fallback_scenario() -> Scenario:
    """Nine frames, two targets and one intruder. Frames 0-2 drop both targets
    and frame 3 drops target 2, so 3-frame windows fall back to the coarse
    frames at the start, 1-frame windows follow every corruption and a 9-frame
    window keeps both targets everywhere."""
    return Scenario(
        frames=9,
        height=24,
        width=48,
        instances=(
            ShapeTrack(kind="rect", size=(6, 8), start=(2, 4), velocity=(0, 1)),
            ShapeTrack(kind="disk", radius=4, start=(12, 30), velocity=(0, -1)),
            ShapeTrack(kind="rect", size=(4, 6), start=(18, 10), velocity=(0, 2)),
        ),
        target=(1, 2),
        corruption=CorruptionSpec(
            forced_drops=((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2)),
            forced_adds=((5, 3),),
        ),
        seed=11,
        video_id="fallback",
    )
