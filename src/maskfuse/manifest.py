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

Writes are atomic: a manifest is streamed, a frame at a time, into a temporary
file beside the target, then renamed into place, so no reader sees a partial
manifest. Its text is ``json.dumps(<the manifest as a dict>, indent=2)`` and a
newline, but neither that text nor that dict is ever built whole. The file gets
the mode a plain ``open(path, "w")`` would give it, ``0o666`` less the umask.

Reading keeps each frame as the validated ``RleMask`` it parses to, and
writing streams the stored counts: neither decodes nor encodes a mask.
A manifest of a kind the caller did not ask for, or whose frames would exceed
the mask budget (``masks.require_mask_budget``), is rejected before any RLE
object is validated, and so is a JSON object that repeats a key.
"""

from __future__ import annotations

import contextlib
import errno
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
from .masks import RleMask, require_int, require_mask_budget
from .masks import rle_decode, rle_encode  # noqa: F401  not called here; perfbench/tracer.py binds them
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


def _rle_list_chunks(sequence: MaskSequence, indent: str):
    """The frames as RLE objects in ``json.dumps(indent=2)``'s layout, a list
    whose opening line is indented by ``indent``: one chunk per frame."""
    item, key, value = indent + "  ", indent + "    ", indent + "      "
    separator = "[\n"
    for rle in sequence.rles:
        counts = f",\n{value}".join(map(str, rle.counts))
        yield (f'{separator}{item}{{\n{key}"h": {rle.height},\n{key}"w": {rle.width},\n'
               f'{key}"counts": [\n{value}{counts}\n{key}]\n{item}}}')
        separator = ",\n"
    yield f"\n{indent}]"


def _manifest_chunks(manifest: VideoManifest):
    """``json.dumps(<the manifest as a dict>, indent=2) + "\\n"``, in chunks of
    one frame each; the dict's keys are in the order the module docstring shows."""
    header = (("video_id", manifest.video_id), ("kind", manifest.kind),
              ("height", manifest.height), ("width", manifest.width),
              ("num_frames", manifest.num_frames))
    yield "{\n" + "".join(f'  "{key}": {json.dumps(value)},\n' for key, value in header)
    if manifest.kind != "masklets":
        yield '  "frames": '
        yield from _rle_list_chunks(manifest.data, "  ")
        yield "\n}\n"
        return
    yield '  "instances": {'
    for iid, track in enumerate(manifest.data.tracks, start=1):
        yield f'{"," if iid > 1 else ""}\n    "{iid}": '
        yield from _rle_list_chunks(track, "    ")
    yield ("\n  }" if manifest.data.tracks else "}") + "\n}\n"


@contextlib.contextmanager
def staged_outputs(directory=None):
    """Yield ``stage``, which maps an output path to a temporary path beside it
    to write instead. When the block ends, every staged file is renamed to its
    output. If the block raises, or an output is a directory, the staged files
    are removed instead, and ``directory`` too if this call created it: a
    failed run leaves each output as it was and creates none."""
    created = directory is not None and not os.path.isdir(directory)
    if created:
        os.makedirs(directory)
    staged: dict = {}  # temporary path -> output path

    def stage(path) -> str:
        tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                f".tmp-{os.urandom(8).hex()}")
        staged[tmp_path] = path
        return tmp_path

    try:
        yield stage
        # A directory in an output's place is the one thing left that fails a rename.
        for path in staged.values():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp_path, path in staged.items():
            os.replace(tmp_path, path)
    except BaseException as exc:
        for tmp_path in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        if isinstance(exc, OSError) and exc.filename in staged:  # gone: name the output
            raise type(exc)(exc.errno, exc.strerror, staged[exc.filename]) from None
        raise


def _write_atomic(path, chunks) -> None:
    """Write the strings ``chunks`` yields to ``path`` atomically (``staged_outputs``).
    Mode "x" never reuses a file, and applies the umask as ``open(path, "w")`` does."""
    with staged_outputs() as stage, open(stage(path), "x") as handle:
        handle.writelines(chunks)


def write_json_atomic(path, obj) -> None:
    """Serialize ``obj`` fully, then write it to ``path`` atomically."""
    _write_atomic(path, (json.dumps(obj, indent=2), "\n"))


def save_manifest(path, manifest: VideoManifest) -> None:
    """Write a manifest to ``path`` atomically, one frame at a time, from the stored runs."""
    _write_atomic(path, _manifest_chunks(manifest))


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
                     width: int, path) -> list[RleMask]:
    """Validate one frame list: ``frames``, or instance ``instance``'s list of a masklet set."""
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
        frames.append(rle)
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
    would exceed the mask budget (``masks.require_mask_budget``). ``kinds``
    must hold names from ``KINDS`` and not be a string (whose substrings
    ``in`` would match); anything else is a ``ValueError``.
    """
    kinds = kinds if isinstance(kinds, str) else tuple(kinds)  # read a generator once
    if isinstance(kinds, str) or any(k not in KINDS for k in kinds):
        raise ValueError(f"kinds must be a collection of names from {KINDS}, got {kinds!r}")
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
