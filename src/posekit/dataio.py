"""Dataset files: annotations, predictions, response maps, prior banks.

A dataset directory holds:

  manifest.json        schema version, euler convention tag, class list,
                       keypoint names per class, symmetry pairs, excluded
                       classes for analysis
  instances.jsonl      one ground-truth object per line
  detections.jsonl     one scored prediction per line
  prior_bank.jsonl     one (rotation, normalized keypoints, present flags)
                       exemplar per line; the flags are JSON booleans
  responses/           <instance_id>_fine.vkrm and <instance_id>_coarse.vkrm

Text files are UTF-8 JSON. Records use sorted keys and compact separators
so identical data always serializes to identical bytes; floats use Python's
shortest round-trip representation, so load(save(x)) reproduces x exactly.
Response maps are binary: magic "VKRM", then version, class id, keypoint
count, H, W as little-endian uint32, then K*H*W little-endian float32
values row-major. Angles are radians in the ZYX-intrinsic convention named
by the manifest; loaders reject unknown convention tags and unknown schema
versions rather than guessing.

Each reader makes one validating pass over its input: a record's keys and
class are checked as it is converted, and one builder checks each keypoint
entry as it makes the record's keypoint map: {id: Keypoint},
{id: KeypointHypothesis} or, in a prediction file, {id: (x, y)}. The first
fault is raised naming "file:line" (bytes that are not UTF-8 included).
Every field must hold its JSON type: numbers are JSON numbers (not numeric
strings, not booleans), flags are JSON booleans, ids are JSON strings. No
record holds an integer field, so the record reader decodes every JSON
number as a float (an integer literal as float(int(text)), so -0 reads as
0.0) and the one number test is type(v) is float. read_json, the reader of
the manifest and of noise-profile files, keeps integers. The rotations of a
prior bank are checked as one stack once the file is read, and the earliest
bad row is named.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .fusion import COARSE_SIZE, GRID_SIZE, PriorBank
from .metrics import (
    Detection,
    EvalReport,
    Instance,
    Keypoint,
    KeypointHypothesis,
    by_class,
)
# rotation_matrix is bound here too: perfbench/selftest.py checks that the
# tracer wraps a re-exported function at every binding, this one included.
from .so3 import EulerAngles, RotationError, check_rotations, rotation_matrix  # noqa: F401

SCHEMA_VERSION = 1
EULER_CONVENTION = "ZYX-intrinsic"

RESPONSE_MAGIC = b"VKRM"
RESPONSE_VERSION = 1
_HEADER = struct.Struct("<4s5I")


class DatasetError(Exception):
    """Base class for dataset file problems."""


class ParseError(DatasetError):
    """Malformed text or binary content."""


class ValidationError(DatasetError):
    """Well-formed content that breaks a type invariant."""


class SchemaVersionError(DatasetError):
    """A schema version this library does not understand."""


class NonFiniteError(ParseError, ValidationError):
    """A NaN or Infinity literal: not JSON, and not a finite value."""


@dataclass
class Manifest:
    """Dataset-level metadata; the keypoint id space is per class.

    keypoint_names[c][k] names keypoint id k of class c, so ids are dense
    0..K_c-1 by construction. symmetry_pairs[c] is an involution on those
    ids (ids not listed are self-paired). load_manifest checks the file's
    version tags against SCHEMA_VERSION and EULER_CONVENTION, and
    save_manifest writes those constants.
    """

    classes: list[str]
    keypoint_names: dict[str, list[str]]
    symmetry_pairs: dict[str, dict[int, int]] = field(default_factory=dict)
    excluded_classes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("manifest classes must be unique")
        if set(self.keypoint_names) != set(self.classes):
            raise ValidationError("keypoint_names must cover exactly the classes")
        for cls, names in self.keypoint_names.items():
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValidationError(f"class {cls!r} repeats keypoint name {name!r}")
        for i, cls in enumerate(self.excluded_classes):
            if cls not in self.classes:
                raise ValidationError(f"excluded class {cls!r} is not in classes")
            if cls in self.excluded_classes[:i]:
                raise ValidationError(f"excluded class {cls!r} is listed twice")
        for cls, pairs in self.symmetry_pairs.items():
            if cls not in self.keypoint_names:
                raise ValidationError(f"symmetry pairs for unknown class {cls!r}")
            k_c = len(self.keypoint_names[cls])
            for a, b in pairs.items():
                if not (0 <= a < k_c and 0 <= b < k_c):
                    raise ValidationError(
                        f"symmetry pair ({a}, {b}) out of range for class {cls!r}"
                    )
                if pairs.get(b, b) != a:
                    raise ValidationError(
                        f"symmetry map for class {cls!r} is not an involution"
                    )

    @cached_property
    def keypoint_ids(self) -> dict[str, dict[str, int]]:
        """Per class, each keypoint id as a record key spells it: {"0": 0, ...}.

        Built on first use, for the record parsers; keypoint_names is not
        expected to change after that.
        """
        return {
            cls: {str(k): k for k in range(len(names))}
            for cls, names in self.keypoint_names.items()
        }


@dataclass
class Dataset:
    """The contents of one dataset directory: what save_dataset writes."""

    manifest: Manifest
    instances: list[Instance] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    response_maps: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    prior_banks: dict[str, PriorBank] = field(default_factory=dict)


# One encoder for every record line, rather than one built per json.dumps call.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _non_finite(name: str) -> None:
    raise NonFiniteError(f"non-finite number {name} is not JSON")


def _parse_int(text: str) -> int:
    if math.isinf(float(text)):
        raise NonFiniteError(f"integer of {len(text)} digits is beyond float range")
    return int(text)


# Python's json reads NaN, Infinity and -Infinity, and integers of any size;
# the formats never hold them. Records hold only floats (see the module
# docstring).
_DECODER = json.JSONDecoder(parse_constant=_non_finite, parse_int=_parse_int)
_RECORD_DECODER = json.JSONDecoder(
    parse_constant=_non_finite, parse_int=lambda text: float(_parse_int(text))
)


def _parse_json(text: str, where: str, decoder: json.JSONDecoder = _DECODER) -> object:
    try:
        return decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: bad JSON ({exc.msg})") from exc
    except NonFiniteError as exc:
        raise NonFiniteError(f"{where}: {exc}") from None


def _decode(raw: bytes, name: str, first_line: int = 1) -> str:
    """raw as UTF-8 text; an error names the line of the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + raw.count(b"\n", 0, exc.start)
        bad = raw[exc.start]
        raise ParseError(f"{name}:{line}: not UTF-8 (byte 0x{bad:02x}: {exc.reason})") from None


def _read_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Each non-blank line's record, with its "file:line" for messages."""
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = _decode(raw, name, line_no)
            if not line.strip():
                continue
            where = f"{name}:{line_no}"
            record = _parse_json(line, where, _RECORD_DECODER)
            if not isinstance(record, dict):
                raise ParseError(f"{where}: record is not an object")
            yield where, record


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dump(record) + "\n")


def _check_keys(record: dict, required: frozenset[str], where: str, what: str = "") -> None:
    if record.keys() == required:
        return
    missing = required - record.keys()
    extra = record.keys() - required
    parts = []
    if missing:
        parts.append(f"missing {sorted(missing)}")
    if extra:
        parts.append(f"unexpected {sorted(extra)}")
    raise ParseError(f"{where}{what}: {'; '.join(parts)}")


_JSON_TYPE_NAMES = {str: "a string", bool: "a JSON boolean"}


def _typed(record: dict, name: str, kind: type, where: str):
    """record[name], which must be of the JSON type kind (str or bool)."""
    value = record[name]
    if type(value) is not kind:
        raise ParseError(f"{where}: {name} must be {_JSON_TYPE_NAMES[kind]}")
    return value


def _as_bbox(value: object, where: str) -> tuple[float, float, float, float]:
    if isinstance(value, list) and len(value) == 4:
        x, y, w, h = value
        if type(x) is float and type(y) is float and type(w) is float and type(h) is float:
            return (x, y, w, h)
    raise ParseError(f"{where}: bbox must be a list of 4 numbers")


def _viewpoint_to_record(v: EulerAngles | None) -> dict | None:
    if v is None:
        return None
    return {
        "azimuth": v.azimuth,
        "elevation": v.elevation,
        "cyclorotation": v.cyclorotation,
    }


_VIEWPOINT_KEYS = frozenset({"azimuth", "elevation", "cyclorotation"})


def _viewpoint_from_record(value: object, where: str) -> EulerAngles | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ParseError(f"{where}: viewpoint must be an object or null")
    _check_keys(value, _VIEWPOINT_KEYS, where, " viewpoint")
    az, el, cy = value["azimuth"], value["elevation"], value["cyclorotation"]
    if not (type(az) is float and type(el) is float and type(cy) is float):
        raise ParseError(f"{where}: viewpoint angles must be numbers")
    try:
        return EulerAngles(az, el, cy)
    except ValueError as exc:
        raise ValidationError(f"{where}: bad viewpoint ({exc})") from exc


def _id_of(key: str) -> int | None:
    """k if the key is a keypoint id as saved, str(k) of an integer k >= 0;
    None for "00", "+1", " 7" and the like, not a second 0, 1 or 7."""
    k = int(key) if key.isdecimal() else None
    return k if str(k) == key else None


def _keypoint_map(
    record: dict, name: str, fields: tuple, ids: dict[str, int], where: str, make: Callable
) -> dict:
    """{id: make(*entry)} of the keypoint map record[name]. An entry is a list of
    one value per field, visible a JSON boolean and the rest floats; a key not
    in ids (each id of the class as saved) is refused as not canonical or out
    of range, and a ValueError of make is refused naming the line and the id."""
    mapping = record[name]
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: {name} must be an object")
    size = len(fields)
    last = bool if fields[-1] == "visible" else float
    built = {}
    for key, entry in mapping.items():
        k = ids.get(key)
        if k is None:
            if _id_of(key) is None:
                raise ParseError(
                    f"{where}: keypoint id {key!r} is not an integer in canonical form"
                )
            raise ValidationError(f"{where}: keypoint id {key} out of range ({len(ids)} keypoints)")
        if not (
            type(entry) is list and len(entry) == size
            and type(entry[0]) is float and type(entry[1]) is float and type(entry[-1]) is last
        ):
            raise ParseError(f"{where}: keypoint {k} must be [{', '.join(fields)}]")
        try:
            built[k] = make(*entry)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc} (id {k})") from exc
    return built


def _class_of(record: dict, manifest: Manifest, where: str) -> tuple[str, dict[str, int]]:
    """The record's class and that class's keypoint ids (see Manifest.keypoint_ids).

    The class name is interned, so the records of a class share one string
    instead of each holding the copy its line was decoded into.
    """
    cls = record["class"]
    ids = manifest.keypoint_ids.get(cls) if isinstance(cls, str) else None
    if ids is None:
        raise ValidationError(f"{where}: unknown class {cls!r}")
    return sys.intern(cls), ids


INSTANCE_FIELDS = frozenset({
    "id",
    "image_id",
    "class",
    "bbox",
    "occluded",
    "truncated",
    "viewpoint",
    "keypoints",
})


def instance_to_record(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "image_id": inst.image_id,
        "class": inst.class_name,
        "bbox": list(inst.bbox),
        "occluded": inst.occluded,
        "truncated": inst.truncated,
        "viewpoint": _viewpoint_to_record(inst.viewpoint),
        "keypoints": {
            str(k): [kp.x, kp.y, kp.visible] for k, kp in sorted(inst.keypoints.items())
        },
    }


def instance_from_record(record: dict, manifest: Manifest, where: str) -> Instance:
    _check_keys(record, INSTANCE_FIELDS, where)
    cls, ids = _class_of(record, manifest, where)
    keypoints = _keypoint_map(record, "keypoints", ("x", "y", "visible"), ids, where, Keypoint)
    try:
        return Instance(
            id=_typed(record, "id", str, where),
            image_id=_typed(record, "image_id", str, where),
            class_name=cls,
            bbox=_as_bbox(record["bbox"], where),
            occluded=_typed(record, "occluded", bool, where),
            truncated=_typed(record, "truncated", bool, where),
            viewpoint=_viewpoint_from_record(record["viewpoint"], where),
            keypoints=keypoints,
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


DETECTION_FIELDS = frozenset({
    "image_id",
    "class",
    "bbox",
    "score",
    "viewpoint",
    "keypoint_hypotheses",
})


def detection_to_record(det: Detection) -> dict:
    return {
        "image_id": det.image_id,
        "class": det.class_name,
        "bbox": list(det.bbox),
        "score": det.score,
        "viewpoint": _viewpoint_to_record(det.viewpoint),
        "keypoint_hypotheses": {
            str(k): [h.x, h.y, h.score]
            for k, h in sorted(det.keypoint_hypotheses.items())
        },
    }


def detection_from_record(record: dict, manifest: Manifest, where: str) -> Detection:
    _check_keys(record, DETECTION_FIELDS, where)
    cls, ids = _class_of(record, manifest, where)
    hypotheses = _keypoint_map(
        record, "keypoint_hypotheses", ("x", "y", "score"), ids, where, KeypointHypothesis
    )
    score = record["score"]
    if type(score) is not float:
        raise ParseError(f"{where}: score is not numeric")
    try:
        return Detection(
            image_id=_typed(record, "image_id", str, where),
            class_name=cls,
            bbox=_as_bbox(record["bbox"], where),
            score=score,
            viewpoint=_viewpoint_from_record(record["viewpoint"], where),
            keypoint_hypotheses=hypotheses,
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair_map(value: object) -> bool:
    """A symmetry map as saved: {"<keypoint id>": <keypoint id>}."""
    return isinstance(value, dict) and all(
        _id_of(a) is not None and _is_int(b) for a, b in value.items()
    )


# The type of every manifest field, as a test and the words that name it.
_MANIFEST_FIELDS = {
    "schema_version": (_is_int, "an integer"),
    "euler_convention": (lambda v: isinstance(v, str), "a string"),
    "classes": (_is_str_list, "a list of strings"),
    "keypoint_names": (
        lambda v: isinstance(v, dict) and all(_is_str_list(n) for n in v.values()),
        "an object mapping each class to a list of strings",
    ),
    "symmetry_pairs": (
        lambda v: isinstance(v, dict) and all(_is_pair_map(p) for p in v.values()),
        'an object mapping each class to {"<keypoint id>": <keypoint id>}',
    ),
    "excluded_classes": (_is_str_list, "a list of strings"),
}


def read_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file; errors name the file, NaN and Infinity are refused."""
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_json(_decode(raw, name), name)


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    record = read_json(path)
    if not isinstance(record, dict):
        raise ParseError(f"{path.name}: manifest must be an object")
    _check_keys(record, frozenset(_MANIFEST_FIELDS), path.name)
    for name, (ok, expected) in _MANIFEST_FIELDS.items():
        if not ok(record[name]):
            raise ParseError(f"{path.name}: {name} must be {expected}")
    if record["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path.name}: unknown schema version {record['schema_version']!r}"
            f" (this library reads version {SCHEMA_VERSION})"
        )
    if record["euler_convention"] != EULER_CONVENTION:
        raise ValidationError(
            f"{path.name}: unknown euler convention tag {record['euler_convention']!r}"
        )
    try:
        return Manifest(
            classes=record["classes"],
            keypoint_names=record["keypoint_names"],
            symmetry_pairs={
                cls: {int(a): b for a, b in pairs.items()}
                for cls, pairs in record["symmetry_pairs"].items()
            },
            excluded_classes=record["excluded_classes"],
        )
    except DatasetError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "euler_convention": EULER_CONVENTION,
        "classes": manifest.classes,
        "keypoint_names": manifest.keypoint_names,
        "symmetry_pairs": {
            cls: {str(a): b for a, b in sorted(pairs.items())}
            for cls, pairs in manifest.symmetry_pairs.items()
        },
        "excluded_classes": manifest.excluded_classes,
    }
    text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_instances(path: str | Path, manifest: Manifest) -> Iterator[Instance]:
    """Each instance of an instances.jsonl file, checked in full, as it is read."""
    seen: set[str] = set()
    for where, record in _read_jsonl(path):
        inst = instance_from_record(record, manifest, where)
        if inst.id in seen:
            raise ValidationError(f"{where}: duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        yield inst


def load_ground_truth(path: str | Path) -> tuple[Manifest, Iterator[Instance]]:
    """A dataset's manifest.json, read now, and the load_instances stream
    of its instances.jsonl; no other file of the dataset is read."""
    base = Path(path)
    manifest = load_manifest(base / "manifest.json")
    return manifest, load_instances(base / "instances.jsonl", manifest)


def save_instances(instances: Iterable[Instance], path: str | Path) -> None:
    _write_jsonl(path, map(instance_to_record, instances))


def load_detections(path: str | Path, manifest: Manifest) -> Iterator[Detection]:
    """Each detection of a detections.jsonl file, checked in full, as it is read."""
    for where, record in _read_jsonl(path):
        yield detection_from_record(record, manifest, where)


def save_detections(detections: Iterable[Detection], path: str | Path) -> None:
    _write_jsonl(path, map(detection_to_record, detections))


_BANK_FIELDS = frozenset({"class", "rotation", "keypoints", "present"})


def _is_float_rows(value: object, rows: int, cols: int) -> bool:
    """value is a list of rows lists of cols floats (numbers, as records are read)."""
    return (
        type(value) is list
        and len(value) == rows
        and all(type(row) is list and len(row) == cols for row in value)
        # one type set for the whole list, not one per row
        and set(map(type, chain.from_iterable(value))) <= {float}
    )


def load_prior_banks(path: str | Path, manifest: Manifest) -> dict[str, PriorBank]:
    """Group bank exemplars by class, preserving file order within a class.

    Order matters: the prior averages neighbor Gaussians in bank order, so
    reordering exemplars would change float summation order. Every field's
    type and shape, and that each present keypoint lies on the grid, are
    checked line by line; the numbers are then converted in one call per
    file (rotations) and per class (keypoints), and the rotations of the
    whole file are checked as one stack. Rows are not converted one by
    one: thousands of small buffers freed at once fragment the heap and
    raise the peak RSS.
    """
    wheres: list[str] = []
    rotations: list[list] = []
    # class -> (indices of its lines, their keypoints, their present flags)
    rows: dict[str, tuple[list[int], list[list], list[list]]] = {}
    for where, record in _read_jsonl(path):
        _check_keys(record, _BANK_FIELDS, where)
        cls, ids = _class_of(record, manifest, where)
        k_c = len(ids)
        present = record["present"]
        if not _is_float_rows(record["keypoints"], k_c, 2):
            raise ValidationError(
                f"{where}: bad keypoints (expected {k_c} [x, y] number pairs for class {cls!r})"
            )
        if not (type(present) is list and len(present) == k_c
                and set(map(type, present)) <= {bool}):
            raise ValidationError(
                f"{where}: present must hold JSON booleans, one per keypoint ({k_c})"
            )
        if not _is_float_rows(record["rotation"], 3, 3):
            raise ValidationError(f"{where}: bad rotation (expected 3 rows of 3 numbers)")
        placed = chain.from_iterable(compress(record["keypoints"], present))
        if not all(0.0 <= v < GRID_SIZE for v in placed):
            raise ValidationError(f"{where}: present keypoint coordinates must lie in [0, 12)")
        indices, keypoints, flags = rows.setdefault(cls, ([], [], []))
        indices.append(len(wheres))
        keypoints.append(record["keypoints"])
        flags.append(present)
        wheres.append(where)
        rotations.append(record["rotation"])
    stack = np.array(rotations, dtype=np.float64).reshape(-1, 3, 3)
    try:
        check_rotations(stack)
    except RotationError as exc:
        raise ValidationError(f"{wheres[exc.index]}: bad rotation ({exc})") from None
    banks = {}
    for cls, (indices, keypoints, flags) in rows.items():
        shape = (len(indices), len(manifest.keypoint_ids[cls]), 2)
        try:
            banks[cls] = PriorBank(
                class_name=cls,
                rotations=stack[indices],
                keypoints=np.array(keypoints, dtype=np.float64).reshape(shape),
                present=np.array(flags, dtype=bool),
            )
        except ValueError as exc:
            name = os.path.basename(path)
            raise ValidationError(f"{name}: bank for {cls!r}: {exc}") from exc
    return banks


def save_prior_banks(banks: Mapping[str, PriorBank], path: str | Path) -> None:
    _write_jsonl(
        path,
        (
            {
                "class": cls,
                "rotation": bank.rotations[i].tolist(),
                "keypoints": bank.keypoints[i].tolist(),
                "present": bank.present[i].tolist(),
            }
            for cls, bank in sorted(banks.items())
            for i in range(len(bank))
        ),
    )


def write_response_map(path: str | Path, grid: np.ndarray, class_id: int) -> None:
    """Write a (K, H, W) stack of response maps as a VKRM blob, refusing one
    that is not finite as float32 with read_response_map's message."""
    with np.errstate(over="ignore"):
        g = np.asarray(grid, dtype=np.float32)
    if g.ndim != 3:
        raise ValidationError(f"response stack must be (K, H, W), got {g.shape}")
    if not _finite(g):
        raise ValidationError(f"{os.path.basename(path)}: non-finite response values")
    header = _HEADER.pack(RESPONSE_MAGIC, RESPONSE_VERSION, class_id, *g.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(g, dtype="<f4").tobytes())


def read_response_map(path: str | Path) -> tuple[int, np.ndarray]:
    """Read a VKRM blob; returns (class_id, float32 array of shape (K, H, W)).

    The header is checked, and the file's size against the shape it
    declares, before the body is read: an oversized file is refused unread.
    """
    name = os.path.basename(path)
    with open(path, "rb", buffering=0) as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ParseError(f"{name}: truncated header")
        magic, version, class_id, k, h, w = _HEADER.unpack(header)
        if magic != RESPONSE_MAGIC:
            raise ParseError(f"{name}: bad magic {magic!r}")
        if version != RESPONSE_VERSION:
            raise SchemaVersionError(f"{name}: unknown blob version {version}")
        expected = _HEADER.size + 4 * k * h * w
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            data = np.empty((k, h, w), dtype="<f4")
            size = _HEADER.size + fh.readinto(data)
    if size != expected:
        raise ParseError(
            f"{name}: expected {expected} bytes for shape ({k}, {h}, {w}), got {size}"
        )
    if not _finite(data):
        raise ValidationError(f"{name}: non-finite response values")
    return class_id, data


_MAP_SIZES = {"fine": GRID_SIZE, "coarse": COARSE_SIZE}  # the map kinds


class ClassMaps(NamedTuple):
    """One class's response maps, row i for members[i] (members in id order).

    fine and coarse are (n_c, K, 12, 12) and (n_c, K, 6, 6) float32 stacks;
    read[kind] flags the rows that a map of that kind filled, and the other
    rows of that stack are zeros.
    """

    members: list[Instance]
    fine: np.ndarray
    coarse: np.ndarray
    read: dict[str, np.ndarray]


def _class_maps(members: list[Instance], k_c: int) -> ClassMaps:
    """members' ClassMaps with K = k_c: zero stacks, no row read."""
    stacks = {
        kind: np.zeros((len(members), k_c, size, size), dtype="<f4")
        for kind, size in _MAP_SIZES.items()
    }
    read = {kind: np.zeros(len(members), dtype=bool) for kind in _MAP_SIZES}
    return ClassMaps(members, stacks["fine"], stacks["coarse"], read)


def _put(maps: ClassMaps, i: int, kind: str, where: str, data: np.ndarray) -> None:
    """Copy one map array into row i of its kind's stack, refusing one that
    is not (K, 12, 12) for a fine map or (K, 6, 6) for a coarse one with a
    message that starts with where."""
    stack = getattr(maps, kind)
    if np.shape(data) != stack.shape[1:]:
        raise ValidationError(f"{where}: shape {np.shape(data)}, expected {stack.shape[1:]}")
    stack[i] = data
    maps.read[kind][i] = True


def _finite(stack: np.ndarray) -> bool:
    # NaN propagates through min and max, and an infinity is one of them
    return stack.size == 0 or (math.isfinite(stack.min()) and math.isfinite(stack.max()))


def _read_blob(path: str, buffers: list) -> int:
    """Bytes read from the file at path into buffers, in order, by one
    readv, or -1 if the open or read fails (a directory, say): read_response_map
    then opens the file again and raises the error with its name."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            return os.readv(fd, buffers)
        finally:
            os.close(fd)
    except OSError:
        return -1


def _read_class(
    prefix: str,
    members: list[Instance],
    k_c: int,
    blobs: list[tuple[str, str]],
    cls: str,
    class_id: int,
) -> ClassMaps:
    """One class's ClassMaps, filled from its blobs, (instance id, kind)
    each in name order; the first fault in that order is raised.

    Each blob is read by one readv: its header into a buffer, checked
    against the one its class and kind expect, and its body straight into
    its row of the stack, plus one byte more to catch an over-long file.
    The loop only records the blobs that came back with another size or
    header. Then, if one did or a stack is not finite (checked once per
    stack), one scan in name order sends the first blob that was recorded,
    or whose row is not finite, to read_response_map, which words its
    fault, and checks it against the class id and shape.
    """
    maps = _class_maps(members, k_c)
    row = {inst.id: i for i, inst in enumerate(members)}
    expect = {  # each kind's header and file size
        kind: (_HEADER.pack(RESPONSE_MAGIC, RESPONSE_VERSION, class_id, k_c, size, size),
               _HEADER.size + 4 * k_c * size * size)
        for kind, size in _MAP_SIZES.items()
    }
    header, spare = bytearray(_HEADER.size), bytearray(1)
    refused = []  # the blobs that came back with another size or header
    for iid, kind in blobs:
        i, stack, (want, size) = row[iid], getattr(maps, kind), expect[kind]
        if _read_blob(f"{prefix}{iid}_{kind}.vkrm", [header, stack[i], spare]) != size or (
            header != want
        ):
            refused.append((iid, kind))
        maps.read[kind][i] = True
    if refused or not (_finite(maps.fine) and _finite(maps.coarse)):
        for iid, kind in blobs:
            if (iid, kind) in refused or not _finite(getattr(maps, kind)[row[iid]]):
                name = f"{iid}_{kind}.vkrm"
                found, data = read_response_map(prefix + name)
                if found != class_id:
                    raise ValidationError(
                        f"{name}: class id {found} but instance {iid!r} is {cls!r} (id {class_id})"
                    )
                _put(maps, row[iid], kind, name, data)
    return maps


def response_maps_by_class(
    directory: str | Path, manifest: Manifest, instances: Iterable[Instance]
) -> Iterator[ClassMaps]:
    """Read the VKRM blobs of a directory one class at a time.

    Every blob name is checked first, before any blob is read: it must be
    <id>_fine.vkrm or <id>_coarse.vkrm for a known instance. Then, in sorted
    class order, yields each class's ClassMaps: its instances in id order
    and one stack of each map kind, its blobs read in name order, the first
    fault raised. A class without blobs yields stacks of zeros, no row read.
    The reader keeps no class's maps once the next class is asked for.
    """
    by_id = {inst.id: inst for inst in instances}
    # class -> (instance id, kind) of each blob, in name order; the tuples
    # hold the instance's own id and the interned kind, not the strings
    # the name was split into, and the name is rebuilt when it is read
    blobs: dict[str, list[tuple[str, str]]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".vkrm"):
            continue
        stem = name[: -len(".vkrm")]
        iid, sep, kind = stem.rpartition("_")
        if not sep or kind not in _MAP_SIZES:
            raise ValidationError(f"{name}: expected <id>_fine.vkrm or <id>_coarse.vkrm")
        inst = by_id.get(iid)
        if inst is None:
            raise ValidationError(f"{name}: unknown instance id {iid!r}")
        blobs.setdefault(inst.class_name, []).append((inst.id, sys.intern(kind)))
    prefix = os.path.join(directory, "")
    for cls, members in by_class(by_id[iid] for iid in sorted(by_id)).items():
        k_c = len(manifest.keypoint_names[cls])
        yield _read_class(
            prefix, members, k_c, blobs.get(cls, []), cls, manifest.classes.index(cls)
        )


def _map_owners(dataset: Dataset) -> dict[str, Instance]:
    """The dataset's instances by id; refuses response maps of any other
    id, then a map kind other than fine and coarse, then a map that is not
    finite as float32 (the reader's dtype), each naming the first in sorted
    (id, kind) order."""
    by_id = {inst.id: inst for inst in dataset.instances}
    unknown = dataset.response_maps.keys() - by_id.keys()
    if unknown:
        raise ValidationError(f"response maps for unknown instance {min(unknown)!r}")
    bad = [(iid, kind) for iid, maps in dataset.response_maps.items()
           for kind in maps if kind not in _MAP_SIZES]
    if bad:
        raise ValidationError(f"unknown response-map kind {min(bad)[1]!r}")
    with np.errstate(over="ignore"):  # a float64 beyond float32's range is inf
        for iid, kind in sorted((i, k) for i, maps in dataset.response_maps.items() for k in maps):
            if not _finite(np.asarray(dataset.response_maps[iid][kind], dtype="<f4")):
                raise ValidationError(f"instance {iid!r} {kind} maps: non-finite response values")
    return by_id


def _maps_in_memory(dataset: Dataset, members: list[Instance], k_c: int) -> ClassMaps:
    """One class's ClassMaps, filled from dataset.response_maps."""
    maps = _class_maps(members, k_c)
    for i, inst in enumerate(members):
        grids = dataset.response_maps.get(inst.id, {})
        for kind in sorted(grids):
            _put(maps, i, kind, f"instance {inst.id!r} {kind} maps", grids[kind])
    return maps


def class_maps(dataset: Dataset) -> Iterator[ClassMaps]:
    """response_maps_by_class on the directory save_dataset would write: after
    save_dataset's checks (_map_owners), the same classes, rows and float32
    values, a map of the wrong shape named by its instance and kind."""
    by_id = _map_owners(dataset)
    for cls, members in by_class(by_id[iid] for iid in sorted(by_id)).items():
        yield _maps_in_memory(dataset, members, len(dataset.manifest.keypoint_names[cls]))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory in the documented formats.

    Raises ValidationError unless the directory is new or empty, so that no
    file of another dataset (a response map, say) is read back with this one,
    and, before it writes any file, for maps of an unknown instance or kind
    or with a value that is not finite as float32.
    """
    base = Path(path)
    if base.is_dir() and any(base.iterdir()):
        raise ValidationError(f"{base}: not empty; a dataset needs a new or empty directory")
    by_id = _map_owners(dataset)
    base.mkdir(parents=True, exist_ok=True)
    save_manifest(dataset.manifest, base / "manifest.json")
    save_instances(dataset.instances, base / "instances.jsonl")
    save_detections(dataset.detections, base / "detections.jsonl")
    save_prior_banks(dataset.prior_banks, base / "prior_bank.jsonl")
    if dataset.response_maps:
        responses = base / "responses"
        responses.mkdir(exist_ok=True)
        prefix = os.path.join(responses, "")  # each blob's path is prefix + name
        for iid in sorted(dataset.response_maps):
            class_id = dataset.manifest.classes.index(by_id[iid].class_name)
            for kind, grid in sorted(dataset.response_maps[iid].items()):
                write_response_map(f"{prefix}{iid}_{kind}.vkrm", grid, class_id)


_PREDICTION_FIELDS = frozenset({"id", "keypoints"})


def _point(x: float, y: float) -> tuple[float, float]:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("keypoint has non-finite coordinates")
    return (x, y)


def load_keypoint_predictions(
    path: str | Path, manifest: Manifest, classes: Mapping[str, str]
) -> Iterator[tuple[str, dict[int, tuple[float, float]]]]:
    """Each (instance id, {keypoint id: (x, y)}) of a keypoint-prediction
    file ({"id", "keypoints"} lines), checked in full, as it is read.

    classes maps each instance id to its class: an id must be one of them,
    at most once, and its keypoint ids must be in range for that class.
    """
    seen: set[str] = set()
    for where, record in _read_jsonl(path):
        _check_keys(record, _PREDICTION_FIELDS, where)
        iid = _typed(record, "id", str, where)
        if iid in seen:
            raise ValidationError(f"{where}: duplicate prediction for {iid!r}")
        cls = classes.get(iid)
        if cls is None:
            raise ValidationError(f"{where}: unknown instance id {iid!r}")
        seen.add(iid)
        ids = manifest.keypoint_ids[cls]
        yield iid, _keypoint_map(record, "keypoints", ("x", "y"), ids, where, _point)


def save_keypoint_predictions(
    rows: Iterable[tuple[str, Mapping[int, tuple[float, float]]]], path: str | Path
) -> None:
    """Write (instance id, {keypoint id: (x, y)}) rows as {"id", "keypoints"}
    lines, in the order given; each record is built as it is written."""
    _write_jsonl(
        path,
        (
            {"id": iid, "keypoints": {str(k): list(p) for k, p in points.items()}}
            for iid, points in rows
        ),
    )


def _fmt(value: float | None) -> str:
    if value is None:
        return "absent"
    return f"{float(value):.6g}"


def render_report(report: EvalReport, format: str = "table") -> str:
    """Serialize a report deterministically.

    "table" is aligned text for reading; "machine" is JSON. Sections and
    rows are emitted in sorted order and floats are fixed at 6 significant
    digits, so equal reports produce byte-identical output. Absent values
    (empty slices) appear as "absent" in tables and null in JSON.
    """
    report.validate()
    if format == "machine":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "sections": {
                name: {
                    row: (None if v is None else float(_fmt(v)))
                    for row, v in rows.items()
                }
                for name, rows in report.sections.items()
            },
            "curves": {
                name: {
                    "recall": [float(_fmt(v)) for v in rec],
                    "precision": [float(_fmt(v)) for v in prec],
                }
                for name, (rec, prec) in report.curves.items()
            },
        }
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif format == "table":
        lines = []
        for name in sorted(report.sections):
            lines.append(f"[{name}]")
            rows = report.sections[name]
            width = max((len(r) for r in rows), default=0)
            for row in sorted(rows):
                lines.append(f"  {row:<{width}}  {_fmt(rows[row])}")
            lines.append("")
        for name in sorted(report.curves):
            rec, _ = report.curves[name]
            lines.append(f"curve {name}: {len(rec)} points")
        text = "\n".join(lines).rstrip("\n") + "\n"
    else:
        raise ValueError(f"unknown report format {format!r}")
    return text


def write_report(report: EvalReport, path: str | Path, format: str = "table") -> None:
    """Render a report (see render_report) and write it to a file."""
    Path(path).write_text(render_report(report, format), encoding="utf-8")
