"""maskfuse: temporal consistency refinement for video segmentation masks.

Coarse per-frame predictions flicker; per-instance tracked masklets are
stable but unlabeled. This package fuses the two: per frame it keeps the
instances whose tracked masks are sufficiently covered by the coarse mask,
per window it votes for the most frequent instance combination, and it
rebuilds every frame of the window from the winning instances' tracks.

Ships with a J/F evaluator, an RLE mask codec, JSON manifest IO, a
synthetic scenario generator, and a CLI (``maskfuse``).
"""

from .errors import (
    AlignmentError,
    ManifestError,
    ManifestIntegrityError,
    ManifestKindError,
    ManifestParseError,
    ManifestSchemaError,
    MaskFuseError,
    RleFormatError,
    ScenarioError,
    ShapeMismatchError,
)
from .manifest import (
    VideoManifest,
    load_manifest,
    masklet_manifest,
    save_manifest,
    sequence_manifest,
)
from .masks import (
    Mask,
    RleMask,
    area,
    empty_mask,
    intersection_area,
    iou,
    make_mask,
    rle_decode,
    rle_encode,
    union,
)
from .metrics import (
    EvalResult,
    boundary_f,
    default_boundary_tolerance,
    evaluate_sequence,
    region_j,
)
from .overlay import export_overlay
from .refine import (
    DEFAULT_TAU,
    DEFAULT_WINDOW,
    FrameRecord,
    MaskletSet,
    MaskSequence,
    RefineConfig,
    RefinedSequence,
    RefineReport,
    WindowRecord,
    refine_video,
)
from .synth import (
    CorruptionSpec,
    Scenario,
    ShapeTrack,
    SynthResult,
    corruption_report,
    fig2_scenario,
    generate,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "CorruptionSpec",
    "DEFAULT_TAU",
    "DEFAULT_WINDOW",
    "EvalResult",
    "FrameRecord",
    "ManifestError",
    "ManifestIntegrityError",
    "ManifestKindError",
    "ManifestParseError",
    "ManifestSchemaError",
    "Mask",
    "MaskFuseError",
    "MaskletSet",
    "MaskSequence",
    "RefineConfig",
    "RefinedSequence",
    "RefineReport",
    "RleFormatError",
    "RleMask",
    "Scenario",
    "ScenarioError",
    "ShapeMismatchError",
    "ShapeTrack",
    "SynthResult",
    "VideoManifest",
    "WindowRecord",
    "area",
    "boundary_f",
    "corruption_report",
    "default_boundary_tolerance",
    "empty_mask",
    "evaluate_sequence",
    "export_overlay",
    "fig2_scenario",
    "generate",
    "intersection_area",
    "iou",
    "load_manifest",
    "make_mask",
    "masklet_manifest",
    "refine_video",
    "region_j",
    "rle_decode",
    "rle_encode",
    "save_manifest",
    "scenario_from_dict",
    "scenario_to_dict",
    "sequence_manifest",
    "union",
    "__version__",
]
