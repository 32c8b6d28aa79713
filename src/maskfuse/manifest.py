"""JSON manifest files: the on-disk interchange format for mask data.

A manifest is a single JSON object:

    {
      "video_id": "...",
      "kind": "coarse" | "refined" | "gt" | "masklets",
      "height": H, "width": W, "num_frames": T,
      "frames":    [RLE, ...]                    # sequence kinds
      "instances": {"1": [RLE, ...], "2": ...}   # kind == "masklets"
    }

where each RLE is ``{"h": .., "w": .., "counts": [..]}`` (see ``masks``).
Instance keys are contiguous decimal strings starting at "1"; instance "i"
is ``MaskletSet.tracks[i - 1]``. Frame and instance numbers in error messages
are 1-based, matching the file.

Writes are atomic: the JSON is fully serialized, written to a temporary
file in the target directory, and renamed into place, so a failed save
never leaves a partial manifest behind. The file gets the mode a plain
``open(path, "w")`` would give it, ``0o666`` less the process umask.

A manifest of a kind the caller did not ask for, or whose frames would exceed
the mask budget (``masks.require_mask_budget``), is rejected before any mask
data is decoded, and so is a JSON object that repeats a key.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from dataclasses import dataclass

from .errors import (
    ManifestIntegrityError,
    ManifestKindError,
    ManifestParseError,
    ManifestSchemaError,
    RleFormatError,
)
from .masks import Mask, RleMask, require_int, require_mask_budget, rle_decode, rle_encode
from .refine import MaskletSet, MaskSequence

KINDS = ("coarse", "masklets", "refined", "gt")
SEQUENCE_KINDS = tuple(k for k in KINDS if k != "masklets")


@dataclass(frozen=True, eq=False)
class VideoManifest:
    """In-memory manifest: identity plus fully validated mask data.

    ``data`` is a :class:`MaskletSet` for kind ``"masklets"``; for the other
    kinds it may be any mask sequence or iterable of masks, and is stored as
    a :class:`MaskSequence`.
    """

    video_id: str
    kind: str
    data: MaskSequence | MaskletSet

    def __post_init__(self) -> None:
        if not isinstance(self.video_id, str):
            raise ValueError(f"video_id must be a string, got {self.video_id!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        wants_masklets = self.kind == "masklets"
        if wants_masklets != isinstance(self.data, MaskletSet):
            raise ValueError(
                f"kind {self.kind!r} does not match data of type {type(self.data).__name__}"
            )
        if not wants_masklets:
            object.__setattr__(self, "data", MaskSequence(frames=self.data))

    @property
    def height(self) -> int:
        return self.data.height

    @property
    def width(self) -> int:
        return self.data.width

    @property
    def num_frames(self) -> int:
        return self.data.num_frames


def sequence_manifest(video_id: str, kind: str, sequence) -> VideoManifest:
    """Wrap a mask sequence, refined result or iterable of masks for saving."""
    return VideoManifest(video_id=video_id, kind=kind, data=sequence)


def masklet_manifest(video_id: str, masklets: MaskletSet) -> VideoManifest:
    """Wrap a masklet set for saving."""
    return VideoManifest(video_id=video_id, kind="masklets", data=masklets)


def manifest_to_json_dict(manifest: VideoManifest) -> dict:
    """Serializable form with canonical key order."""
    out = {
        "video_id": manifest.video_id,
        "kind": manifest.kind,
        "height": manifest.height,
        "width": manifest.width,
        "num_frames": manifest.num_frames,
    }
    if manifest.kind == "masklets":
        out["instances"] = {str(iid): _frames_to_json(seq)
                            for iid, seq in enumerate(manifest.data.tracks, start=1)}
    else:
        out["frames"] = _frames_to_json(manifest.data)
    return out


def _frames_to_json(sequence: MaskSequence) -> list[dict]:
    return [rle_encode(f).to_json_dict() for f in sequence.frames]


def write_json_atomic(path, obj) -> None:
    """Serialize ``obj`` fully, then write-and-rename so readers never see a partial file."""
    text = json.dumps(obj, indent=2) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.json")
    try:
        # O_EXCL never reuses an existing file; mode 0o666 lets the umask apply.
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp_path:  # gone: name the target
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


@contextlib.contextmanager
def removed_on_failure(directory=None):
    """Yield a list for the paths the block writes. If the block raises, those
    files are removed, and ``directory`` too if this call created it."""
    created = directory is not None and not os.path.isdir(directory)
    if created:
        os.makedirs(directory)
    written: list = []
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def save_manifest(path, manifest: VideoManifest) -> None:
    """Write a manifest to ``path`` atomically."""
    write_json_atomic(path, manifest_to_json_dict(manifest))


def _require_key(obj: dict, key: str, path) -> object:
    if key not in obj:
        raise ManifestSchemaError(f"{path}: missing key {key!r}")
    return obj[key]


def read_json(path, error: type[Exception], duplicate_error: type[Exception]):
    """The JSON value in the file at ``path``. A file that cannot be read or
    decoded (not UTF-8, nested too deeply, an integer too long) raises ``error``,
    and an object that repeats a key ``duplicate_error``; both name ``path``."""
    def object_without_duplicates(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise duplicate_error(f"{path}: duplicate key {key!r} in a JSON object")
        return obj

    try:
        with open(path) as handle:
            return json.load(handle, object_pairs_hook=object_without_duplicates)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def _frames_from_json(entries, instance: int | None, num_frames: int, height: int,
                     width: int, path) -> list[Mask]:
    """Decode one frame list: ``frames``, or instance ``instance``'s list of a masklet set."""
    name = "'frames'" if instance is None else f"instance {instance}"
    if not isinstance(entries, list):
        raise ManifestSchemaError(f"{path}: {name} must be a list of RLE objects")
    if len(entries) != num_frames:
        raise ManifestIntegrityError(
            f"{path}: {name} has {len(entries)} frames, manifest header says {num_frames}"
        )
    frames = []
    for t, entry in enumerate(entries, start=1):
        where = f"frame {t}" if instance is None else f"instance {instance} frame {t}"
        try:
            rle = RleMask.from_json_dict(entry)
        except RleFormatError as exc:
            raise ManifestIntegrityError(f"{path}: {where}: {exc}") from exc
        if (rle.height, rle.width) != (height, width):
            raise ManifestIntegrityError(
                f"{path}: {where}: RLE is {rle.height}x{rle.width}, "
                f"manifest header says {height}x{width}"
            )
        frames.append(rle_decode(rle))
    return frames


def load_manifest(path, *, kinds=KINDS) -> VideoManifest:
    """Read and fully validate a manifest file of one of ``kinds``.

    Raises :class:`ManifestParseError` when the file cannot be read or
    decoded as JSON (not UTF-8, nested too deeply, an integer too long),
    :class:`ManifestSchemaError` when fields are missing or of
    the wrong type, :class:`ManifestKindError` when the header's kind is
    valid but not one of ``kinds`` (checked before the dimensions and any
    frame), and :class:`ManifestIntegrityError` when the mask data
    violates an invariant (naming the offending frame or instance) or
    would exceed the mask budget (``masks.require_mask_budget``).
    """
    obj = read_json(path, ManifestParseError, ManifestSchemaError)
    if not isinstance(obj, dict):
        raise ManifestSchemaError(f"{path}: top level must be a JSON object")
    video_id = _require_key(obj, "video_id", path)
    if not isinstance(video_id, str):
        raise ManifestSchemaError(f"{path}: 'video_id' must be a string, got {video_id!r}")
    kind = _require_key(obj, "kind", path)
    if kind not in KINDS:
        raise ManifestSchemaError(f"{path}: 'kind' must be one of {KINDS}, got {kind!r}")
    if kind not in kinds:
        raise ManifestKindError(f"{path}: kind {kind!r} where a {'/'.join(kinds)} manifest "
                                "is required")
    height, width, num_frames = (
        require_int(_require_key(obj, key, path), f"{path}: {key!r}", 1, ManifestSchemaError)
        for key in ("height", "width", "num_frames"))

    if kind != "masklets":
        entries = _require_key(obj, "frames", path)
        require_mask_budget(1, num_frames, height, width, ManifestIntegrityError, f"{path}: ")
        frames = _frames_from_json(entries, None, num_frames, height, width, path)
        return VideoManifest(video_id=video_id, kind=kind, data=frames)

    instances = _require_key(obj, "instances", path)
    if not isinstance(instances, dict):
        raise ManifestSchemaError(f"{path}: 'instances' must be an object")
    for key in instances:
        try:
            canonical = key.isdecimal() and str(int(key)) == key
        except ValueError:  # more digits than int() converts
            canonical = False
        if not canonical:
            raise ManifestSchemaError(f"{path}: instance keys must be decimal strings, got {key!r}")
    ids = sorted(map(int, instances))
    if ids != list(range(1, len(ids) + 1)):
        raise ManifestIntegrityError(
            f"{path}: instance ids must be contiguous integers starting at 1, got {ids}")
    require_mask_budget(len(ids), num_frames, height, width, ManifestIntegrityError, f"{path}: ")
    tracks = [_frames_from_json(instances[str(iid)], iid, num_frames, height, width, path)
              for iid in ids]
    # Every track was checked against the header above, so the set cannot reject it.
    data = MaskletSet(tracks=tracks, num_frames=num_frames, height=height, width=width)
    return VideoManifest(video_id=video_id, kind=kind, data=data)
