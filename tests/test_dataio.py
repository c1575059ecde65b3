"""Tests for dataset serialization: manifests, JSONL records, response map
blobs, prior banks, and report rendering.

Roundtrips are checked for exact equality, floats included: writing and
re-reading a dataset must reproduce the numbers bit for bit.
"""

import dataclasses
import json
import math
import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from posekit.dataio import (
    EULER_CONVENTION,
    SCHEMA_VERSION,
    DatasetError,
    Manifest,
    NonFiniteError,
    ParseError,
    SchemaVersionError,
    ValidationError,
    class_maps,
    load_detections,
    load_ground_truth,
    load_instances,
    load_keypoint_predictions,
    load_manifest,
    load_prior_banks,
    read_response_map,
    render_report,
    response_maps_by_class,
    save_dataset,
    save_detections,
    save_instances,
    save_keypoint_predictions,
    save_manifest,
    save_prior_banks,
    write_report,
    write_response_map,
)
from posekit.fusion import PriorBank
from posekit.metrics import Detection, EvalReport, Instance, Keypoint, KeypointHypothesis
from posekit.so3 import EulerAngles, euler_to_rotation, rotation_matrix
from posekit.synth import generate_scene, noise_preset


def _classes(instances):
    """The class of each instance, by id: what load_keypoint_predictions checks against."""
    return {inst.id: inst.class_name for inst in instances}


def _classes_beside(path, manifest):
    """The classes of the instances saved in the directory of path."""
    return _classes(load_instances(path.parent / "instances.jsonl", manifest))


def _manifest():
    return Manifest(
        classes=["car", "chair"],
        keypoint_names={
            "car": ["fl_wheel", "fr_wheel", "roof"],
            "chair": ["seat", "back"],
        },
        symmetry_pairs={"car": {0: 1, 1: 0}},
        excluded_classes=["chair"],
    )


def _awkward_floats():
    # values whose decimal text must survive a write/read cycle exactly
    return [math.pi, 0.1 + 0.2, 1e-17, 2.0 ** -40, 123456.789012345]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = _manifest()
        save_manifest(m, tmp_path / "manifest.json")
        assert load_manifest(tmp_path / "manifest.json") == m

    def test_rejects_future_schema_version(self, tmp_path):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        record["schema_version"] = SCHEMA_VERSION + 1
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(SchemaVersionError, match="schema version"):
            load_manifest(tmp_path / "manifest.json")

    def test_rejects_unknown_convention(self, tmp_path):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        record["euler_convention"] = "XYZ-extrinsic"
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(ValidationError, match="convention"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("schema_version", 99, SchemaVersionError,
             "manifest.json: unknown schema version 99 (this library reads version 1)"),
            ("euler_convention", "XYZ-extrinsic", ValidationError,
             "manifest.json: unknown euler convention tag 'XYZ-extrinsic'"),
        ],
        ids=["schema_version", "euler_convention"],
    )
    def test_version_tags_checked_before_classes(self, tmp_path, field, value, error, message):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        record[field] = value
        record["classes"] = ["car", "car"]
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(error) as info:
            load_manifest(tmp_path / "manifest.json")
        assert str(info.value) == message

    def test_rejects_missing_key(self, tmp_path):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        del record["classes"]
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(ParseError, match="missing"):
            load_manifest(tmp_path / "manifest.json")

    def test_rejects_non_involutive_symmetry(self):
        with pytest.raises(ValidationError, match="involution"):
            Manifest(
                classes=["car"],
                keypoint_names={"car": ["a", "b", "c"]},
                symmetry_pairs={"car": {0: 1, 1: 2}},
            )

    def test_rejects_out_of_range_symmetry(self):
        with pytest.raises(ValidationError, match="out of range"):
            Manifest(
                classes=["car"],
                keypoint_names={"car": ["a"]},
                symmetry_pairs={"car": {0: 5}},
            )

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ValidationError, match="unique"):
            Manifest(classes=["car", "car"], keypoint_names={"car": ["a"]})

    def test_rejects_keypoint_names_mismatch(self):
        with pytest.raises(ValidationError, match="keypoint_names"):
            Manifest(classes=["car"], keypoint_names={"chair": ["a"]})

    def test_convention_tag_value(self):
        assert EULER_CONVENTION == "ZYX-intrinsic"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"keypoint_names": {"car": ["roof", "wheel", "roof"], "chair": ["seat", "back"]}},
             "class 'car' repeats keypoint name 'roof'"),
            ({"excluded_classes": ["cars"]}, "excluded class 'cars' is not in classes"),
            ({"excluded_classes": ["car", "chair", "car"]}, "excluded class 'car' is listed twice"),
        ],
        ids=["repeated-keypoint-name", "unknown-excluded-class", "repeated-excluded-class"],
    )
    def test_rejects_ambiguous_names(self, tmp_path, edit, message):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        record.update(edit)
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(ValidationError) as exc:
            load_manifest(tmp_path / "manifest.json")
        assert str(exc.value) == f"manifest.json: {message}"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("classes", "car"),
            ("classes", ["car", 3]),
            ("keypoint_names", ["a", "b"]),
            ("keypoint_names", {"car": ["a", None]}),
            ("symmetry_pairs", {"car": {"0": 1.0}}),
            ("symmetry_pairs", {"car": {"01": 1}}),
            ("symmetry_pairs", {"car": [[0, 1]]}),
            ("excluded_classes", {"car": True}),
            ("schema_version", "1"),
            ("schema_version", 1.0),
            ("euler_convention", None),
        ],
    )
    def test_rejects_wrong_field_type(self, tmp_path, field, value):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        record = json.loads((tmp_path / "manifest.json").read_text())
        record[field] = value
        (tmp_path / "manifest.json").write_text(json.dumps(record))
        with pytest.raises(ParseError, match=f"manifest.json: {field} must be"):
            load_manifest(tmp_path / "manifest.json")


class TestNonFiniteLiterals:
    """NaN and Infinity are not JSON: every text format refuses them at parse time."""

    @staticmethod
    def _poison(path, constant):
        """Put `constant` in place of the first decimal number of line 2."""
        lines = path.read_text().splitlines()
        lines[1] = re.sub(r"-?\d+\.\d+(?:e-?\d+)?", constant, lines[1], count=1)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "name, load",
        [
            ("instances.jsonl", lambda p, m: list(load_instances(p, m))),
            ("detections.jsonl", lambda p, m: list(load_detections(p, m))),
            ("prior_bank.jsonl", lambda p, m: load_prior_banks(p, m)),
            ("fused.jsonl",
             lambda p, m: list(load_keypoint_predictions(p, m, _classes_beside(p, m)))),
        ],
    )
    def test_jsonl_names_file_and_line(self, tmp_path, name, load, constant):
        scene = generate_scene(seed=3, n_instances=3, profile=noise_preset("mild"),
                               bank_size=2)
        save_dataset(scene, tmp_path)
        preds = {inst.id: {0: (inst.bbox[0] + 0.5, inst.bbox[1] + 0.25)}
                 for inst in scene.instances}
        save_keypoint_predictions(preds.items(), tmp_path / "fused.jsonl")
        self._poison(tmp_path / name, constant)
        with pytest.raises(NonFiniteError, match=f"{name}:2: non-finite number {constant}"):
            load(tmp_path / name, scene.manifest)

    def test_manifest(self, tmp_path):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        path = tmp_path / "manifest.json"
        text = re.sub(r'"schema_version": \d+', '"schema_version": NaN', path.read_text())
        path.write_text(text)
        with pytest.raises(NonFiniteError, match="manifest.json: non-finite number NaN"):
            load_manifest(path)

    def test_is_both_a_parse_and_a_validation_error(self):
        assert issubclass(NonFiniteError, ParseError)
        assert issubclass(NonFiniteError, ValidationError)

    @pytest.mark.parametrize(
        "name, load, pattern",
        [
            ("instances.jsonl", lambda p, m: list(load_instances(p, m)), r'"keypoints":\{"0":\['),
            ("detections.jsonl", lambda p, m: list(load_detections(p, m)),
             r'"keypoint_hypotheses":\{"0":\['),
            ("fused.jsonl",
             lambda p, m: list(load_keypoint_predictions(p, m, _classes_beside(p, m))),
             r'"keypoints":\{"0":\['),
        ],
    )
    def test_overflowing_keypoint_names_line(self, tmp_path, name, load, pattern):
        """1e999 parses to infinity; the keypoint's one finiteness check names the line."""
        scene = generate_scene(seed=3, n_instances=3, profile=noise_preset("mild"),
                               bank_size=2)
        save_dataset(scene, tmp_path)
        preds = {inst.id: {0: (1.5, 2.5)} for inst in scene.instances}
        save_keypoint_predictions(preds.items(), tmp_path / "fused.jsonl")
        path = tmp_path / name
        lines = path.read_text().splitlines()
        forged = re.sub(pattern + r"-?[\d.e-]+", lambda m: m[0].split("[")[0] + "[1e999", lines[1])
        assert forged != lines[1]
        path.write_text("\n".join([lines[0], forged, *lines[2:]]) + "\n")
        with pytest.raises(ValidationError, match=f"{name}:2: .*non-finite"):
            load(path, scene.manifest)

    @pytest.mark.parametrize(
        "name, load, pattern, message",
        [
            ("instances.jsonl", lambda p, m: list(load_instances(p, m)), r'"keypoints":\{"0":\[',
             "instances.jsonl:2: keypoint has non-finite coordinates (id 0)"),
            ("detections.jsonl", lambda p, m: list(load_detections(p, m)),
             r'"keypoint_hypotheses":\{"0":\[',
             "detections.jsonl:2: keypoint hypothesis has non-finite values (id 0)"),
            ("fused.jsonl",
             lambda p, m: list(load_keypoint_predictions(p, m, _classes_beside(p, m))),
             r'"keypoints":\{"0":\[',
             "fused.jsonl:2: keypoint has non-finite coordinates (id 0)"),
        ],
    )
    def test_keypoint_builder_message(self, tmp_path, name, load, pattern, message):
        """The keypoint-map builder refuses what the record type (or, for
        predictions, the point check) refuses, with the line and the id."""
        scene = generate_scene(seed=3, n_instances=3, profile=noise_preset("mild"),
                               bank_size=2)
        save_dataset(scene, tmp_path)
        save_keypoint_predictions([(inst.id, {0: (1.5, 2.5)}) for inst in scene.instances],
                                  tmp_path / "fused.jsonl")
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[1] = re.sub(pattern + r"-?[\d.e-]+", lambda m: m[0].split("[")[0] + "[1e999",
                          lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as caught:
            load(path, scene.manifest)
        assert str(caught.value) == message
        assert isinstance(caught.value.__cause__, ValueError)


class TestTextEncoding:
    """Text that is not UTF-8 is refused with the file and the line of the bad byte."""

    @staticmethod
    def _spoil(path, line_no, at=5):
        """Replace two bytes of line `line_no` (1-based) with \\xff\\xfe."""
        lines = path.read_bytes().split(b"\n")
        line = lines[line_no - 1]
        lines[line_no - 1] = line[:at] + b"\xff\xfe" + line[at + 2:]
        path.write_bytes(b"\n".join(lines))

    @pytest.mark.parametrize(
        "name, load",
        [
            ("instances.jsonl", lambda p, m: list(load_instances(p, m))),
            ("detections.jsonl", lambda p, m: list(load_detections(p, m))),
            ("prior_bank.jsonl", lambda p, m: load_prior_banks(p, m)),
            ("fused.jsonl",
             lambda p, m: list(load_keypoint_predictions(p, m, _classes_beside(p, m)))),
        ],
    )
    def test_jsonl_names_file_and_line(self, tmp_path, name, load):
        scene = generate_scene(seed=3, n_instances=3, profile=noise_preset("mild"),
                               bank_size=2)
        save_dataset(scene, tmp_path)
        preds = {inst.id: {0: (1.5, 2.5)} for inst in scene.instances}
        save_keypoint_predictions(preds.items(), tmp_path / "fused.jsonl")
        self._spoil(tmp_path / name, 3)
        with pytest.raises(ParseError, match=rf"^{name}:3: not UTF-8 \(byte 0xff: "):
            load(tmp_path / name, scene.manifest)

    def test_manifest_names_line(self, tmp_path):
        save_manifest(_manifest(), tmp_path / "manifest.json")
        self._spoil(tmp_path / "manifest.json", 4)
        with pytest.raises(ParseError, match=r"^manifest.json:4: not UTF-8"):
            load_manifest(tmp_path / "manifest.json")

    def test_non_ascii_utf8_is_read(self, tmp_path):
        manifest = _manifest()
        manifest.keypoint_names["car"][2] = "toit \u00e9"
        save_manifest(manifest, tmp_path / "manifest.json")
        path = tmp_path / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b"\\u00e9", "\u00e9".encode()))
        assert b"\xc3\xa9" in path.read_bytes()
        assert load_manifest(path).keypoint_names["car"][2] == "toit \u00e9"


class TestInstanceRecords:
    def _write(self, tmp_path, instances):
        save_instances(instances, tmp_path / "instances.jsonl")
        return tmp_path / "instances.jsonl"

    def test_roundtrip_is_exact(self, tmp_path):
        vals = _awkward_floats()
        inst = Instance(
            id="i0",
            image_id="im0",
            class_name="car",
            bbox=(vals[0], vals[1], vals[2] + 10.0, vals[3] + 10.0),
            occluded=True,
            truncated=False,
            viewpoint=EulerAngles(vals[0], 0.3, -vals[1]),
            keypoints={0: Keypoint(vals[4], -vals[4]), 2: Keypoint(1.5, 2.5, False)},
        )
        path = self._write(tmp_path, [inst])
        loaded = list(load_instances(path, _manifest()))
        assert loaded == [inst]
        assert loaded[0].viewpoint.azimuth == vals[0]
        assert loaded[0].keypoints[0].x == vals[4]

    def test_null_viewpoint(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="chair",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        loaded = list(load_instances(self._write(tmp_path, [inst]), _manifest()))
        assert loaded[0].viewpoint is None

    def test_duplicate_ids_rejected(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        line = path.read_text()
        path.write_text(line + line)
        with pytest.raises(ValidationError, match="duplicate instance id"):
            list(load_instances(path, _manifest()))

    def test_load_instances_streams_up_to_a_duplicate_id_naming_its_line(self, tmp_path):
        """The instances before the repeat are yielded as they are read."""
        insts = [Instance(id=iid, image_id="im0", class_name="car", bbox=(0.0, 0.0, 5.0, 5.0))
                 for iid in ("i0", "i1", "i0")]
        path = self._write(tmp_path, insts)
        read = load_instances(path, _manifest())
        assert [next(read).id, next(read).id] == ["i0", "i1"]
        with pytest.raises(ValidationError) as exc:
            next(read)
        assert str(exc.value) == f"{path.name}:3: duplicate instance id 'i0'"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "instances.jsonl"
        path.write_text('{"id": "i0"\n')
        with pytest.raises(ParseError, match="instances.jsonl:1"):
            list(load_instances(path, _manifest()))

    def test_missing_and_extra_keys_rejected(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        record = json.loads(path.read_text())
        del record["bbox"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r"missing \['bbox'\]"):
            list(load_instances(path, _manifest()))
        record["bbox"] = [0, 0, 5, 5]
        record["surprise"] = 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r"unexpected \['surprise'\]"):
            list(load_instances(path, _manifest()))

    def test_unknown_class_rejected(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        path.write_text(path.read_text().replace('"car"', '"boat"'))
        with pytest.raises(ValidationError, match="unknown class 'boat'"):
            list(load_instances(path, _manifest()))

    def test_degenerate_bbox_names_record(self, tmp_path):
        inst = Instance(id="i7", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        record = json.loads(path.read_text())
        record["bbox"] = [0.0, 0.0, 0.0, 5.0]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="i7"):
            list(load_instances(path, _manifest()))

    def test_non_finite_bbox_rejected(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        record = json.loads(path.read_text())
        record["bbox"] = [0.0, 0.0, float("nan"), 5.0]
        # json.dumps would refuse NaN under our writer; forge the line
        text = json.dumps(record).replace("NaN", "NaN")
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="non-finite"):
            list(load_instances(path, _manifest()))

    def test_keypoint_id_out_of_range(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0), keypoints={0: Keypoint(1.0, 1.0)})
        path = self._write(tmp_path, [inst])
        path.write_text(path.read_text().replace('"0":', '"9":'))
        with pytest.raises(ValidationError, match="out of range"):
            list(load_instances(path, _manifest()))

    def test_non_integer_keypoint_id(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0), keypoints={0: Keypoint(1.0, 1.0)})
        path = self._write(tmp_path, [inst])
        path.write_text(path.read_text().replace('"0":', '"left":'))
        with pytest.raises(ParseError, match="not an integer"):
            list(load_instances(path, _manifest()))

    def test_blank_lines_skipped(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        path = self._write(tmp_path, [inst])
        path.write_text("\n" + path.read_text() + "\n\n")
        assert len(list(load_instances(path, _manifest()))) == 1


def _car_pair():
    """Car instances i0 and i1 of _manifest(), keypoint 0 annotated."""
    inst = Instance(id="i0", image_id="im0", class_name="car", bbox=(0.0, 0.0, 5.0, 5.0),
                    keypoints={0: Keypoint(1.0, 2.0)})
    return [inst, dataclasses.replace(inst, id="i1")]


def _two_instances(path):
    save_instances(_car_pair(), path)


def _two_detections(path):
    det = Detection(image_id="im0", class_name="car", bbox=(0.0, 0.0, 5.0, 5.0), score=0.5,
                    keypoint_hypotheses={0: KeypointHypothesis(1.0, 2.0, 0.5)})
    save_detections([det, det], path)


def _two_predictions(path):
    save_keypoint_predictions([("i0", {0: (1.0, 2.0)}), ("i1", {0: (1.0, 2.0)})], path)


class TestKeypointIds:
    """A keypoint id must read back exactly as written: str(k) of an int k >= 0."""

    KINDS = {
        "instances": (_two_instances, lambda p: list(load_instances(p, _manifest()))),
        "detections": (_two_detections, lambda p: list(load_detections(p, _manifest()))),
        "predictions": (_two_predictions,
                        lambda p: list(
                            load_keypoint_predictions(p, _manifest(), _classes(_car_pair()))
                        )),
    }

    @pytest.mark.parametrize("key", ["00", "01", "+1", " 7", "-3", "\u0663"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_non_canonical_id_names_line(self, tmp_path, kind, key):
        save, load = self.KINDS[kind]
        path = tmp_path / "records.jsonl"
        save(path)
        first, second = path.read_text().splitlines()
        # keep the canonical "0" and add the same entry under the other spelling
        forged = re.sub(r'"0":(\[[^\]]*\])', lambda m: f'"0":{m[1]},{json.dumps(key)}:{m[1]}', second)
        assert forged != second
        path.write_text(first + "\n" + forged + "\n")
        with pytest.raises(ParseError, match=rf"records.jsonl:2: keypoint id {re.escape(repr(key))}"):
            load(path)


def _two_bank_rows(path):
    bank = PriorBank("car", np.stack([np.eye(3)] * 2), np.full((2, 3, 2), 1.5),
                     np.ones((2, 3), dtype=bool))
    save_prior_banks({"car": bank}, path)


class TestFieldTypes:
    """Numbers must be JSON numbers (not numeric strings, not booleans), flags
    JSON booleans and ids JSON strings; anything else names its file and line."""

    KINDS = {
        "instances": (_two_instances, lambda p: list(load_instances(p, _manifest()))),
        "detections": (_two_detections, lambda p: list(load_detections(p, _manifest()))),
        "predictions": (_two_predictions,
                        lambda p: list(
                            load_keypoint_predictions(p, _manifest(), _classes(_car_pair()))
                        )),
        "bank": (_two_bank_rows, lambda p: load_prior_banks(p, _manifest())),
    }
    VIEWPOINT = {"azimuth": 0.5, "elevation": 0.0, "cyclorotation": 0.0}

    @pytest.mark.parametrize(
        "kind, at, value",
        [
            ("instances", ("id",), {"a": 1}),
            ("instances", ("id",), 7),
            ("instances", ("image_id",), None),
            ("instances", ("occluded",), "no"),
            ("instances", ("occluded",), 1),
            ("instances", ("truncated",), None),
            ("instances", ("keypoints", "0", 2), "no"),
            ("instances", ("keypoints", "0", 2), 0),
            ("instances", ("keypoints", "0", 0), "1.0"),
            ("instances", ("keypoints", "0", 1), True),
            ("instances", ("bbox", 2), "5.0"),
            ("instances", ("bbox", 0), False),
            ("instances", ("viewpoint",), {**VIEWPOINT, "azimuth": "0.5"}),
            ("instances", ("viewpoint",), {**VIEWPOINT, "elevation": True}),
            ("detections", ("image_id",), 3),
            ("detections", ("score",), "0.5"),
            ("detections", ("score",), True),
            ("detections", ("bbox", 3), "5.0"),
            ("detections", ("viewpoint",), {**VIEWPOINT, "cyclorotation": "0"}),
            ("detections", ("keypoint_hypotheses", "0", 0), "1.0"),
            ("detections", ("keypoint_hypotheses", "0", 2), False),
            ("predictions", ("id",), 5),
            ("predictions", ("id",), ["i1"]),
            ("predictions", ("keypoints", "0", 0), "1.0"),
            ("predictions", ("keypoints", "0", 1), True),
            ("bank", ("rotation", 1, 1), "1.0"),
            ("bank", ("rotation", 0, 0), True),
            ("bank", ("keypoints", 2, 0), "1.5"),
            ("bank", ("keypoints", 0, 1), False),
        ],
        ids=lambda v: v if v in ("instances", "detections", "predictions", "bank")
        else json.dumps(v, separators=(",", ":")),
    )
    def test_wrong_type_names_line(self, tmp_path, kind, at, value):
        save, load = self.KINDS[kind]
        path = tmp_path / "records.jsonl"
        save(path)
        first, second = path.read_text().splitlines()
        record = json.loads(second)
        target = record
        for key in at[:-1]:
            target = target[key]
        target[at[-1]] = value
        path.write_text(first + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DatasetError) as exc:
            load(path)
        assert str(exc.value).startswith("records.jsonl:2: "), str(exc.value)

    def test_integers_are_numbers(self, tmp_path):
        save_instances([Instance(id="i0", image_id="im0", class_name="car", bbox=(0, 0, 5, 5),
                                 viewpoint=EulerAngles(1, 0, 0), keypoints={0: Keypoint(1, 2)})],
                       tmp_path / "instances.jsonl")
        (inst,) = load_instances(tmp_path / "instances.jsonl", _manifest())
        assert inst.bbox == (0.0, 0.0, 5.0, 5.0) and type(inst.bbox[0]) is float
        assert type(inst.keypoints[0].x) is float

        # Every record kind, each number an integer literal, -0 among them.
        angles = '"viewpoint":{"azimuth":1,"cyclorotation":-0,"elevation":0}'
        lines = {
            "instances": '{"bbox":[0,-0,5,5],"class":"car","id":"i1","image_id":"im0",'
                         '"keypoints":{"0":[1,-0,true]},"occluded":false,"truncated":false,'
                         + angles + "}",
            "detections": '{"bbox":[-0,0,5,5],"class":"car","image_id":"im0",'
                          '"keypoint_hypotheses":{"0":[1,2,-0]},"score":-0,' + angles + "}",
            "predictions": '{"id":"i1","keypoints":{"0":[3,-0]}}',
            "bank": '{"class":"car","keypoints":[[1,2],[3,-0],[0,0]],"present":[true,true,true],'
                    '"rotation":[[1,0,0],[0,1,-0],[0,0,1]]}',
        }
        for kind, line in lines.items():
            (tmp_path / f"{kind}.jsonl").write_text(line + "\n")
        manifest = _manifest()
        (inst,) = load_instances(tmp_path / "instances.jsonl", manifest)
        (det,) = load_detections(tmp_path / "detections.jsonl", manifest)
        preds = dict(load_keypoint_predictions(tmp_path / "predictions.jsonl", manifest,
                                               _classes([inst])))
        bank = load_prior_banks(tmp_path / "bank.jsonl", manifest)["car"]
        kp, hyp = inst.keypoints[0], det.keypoint_hypotheses[0]
        numbers = [
            *inst.bbox, kp.x, kp.y, *det.bbox, det.score, hyp.x, hyp.y, hyp.score,
            *preds["i1"][0],
            *(getattr(v, name) for v in (inst.viewpoint, det.viewpoint)
              for name in ("azimuth", "elevation", "cyclorotation")),
        ]
        assert all(type(v) is float for v in numbers)
        assert numbers == [0.0, 0.0, 5.0, 5.0, 1.0, 0.0, 0.0, 0.0, 5.0, 5.0, 0.0, 1.0, 2.0, 0.0,
                           3.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        assert not any(math.copysign(1.0, v) < 0 for v in numbers)
        assert bank.rotations.tolist() == [np.eye(3).tolist()]
        assert bank.keypoints.tolist() == [[[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]]]
        assert not np.signbit(bank.rotations).any() and not np.signbit(bank.keypoints).any()


class TestDetectionRecords:
    def test_roundtrip_is_exact(self, tmp_path):
        det = Detection(
            image_id="im3",
            class_name="car",
            bbox=(1.25, -3.5, 40.0, 30.0),
            score=0.875,
            viewpoint=EulerAngles(math.pi / 3, -0.25, 0.5),
            keypoint_hypotheses={
                0: KeypointHypothesis(10.0 / 3.0, 7.0, -0.125),
                1: KeypointHypothesis(0.1, 0.2, 0.3),
            },
        )
        save_detections([det], tmp_path / "detections.jsonl")
        loaded = list(load_detections(tmp_path / "detections.jsonl", _manifest()))
        assert loaded == [det]
        assert loaded[0].keypoint_hypotheses[0].x == 10.0 / 3.0

    def test_bad_score_rejected(self, tmp_path):
        det = Detection(image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0), score=0.5)
        save_detections([det], tmp_path / "detections.jsonl")
        p = tmp_path / "detections.jsonl"
        p.write_text(p.read_text().replace("0.5", "Infinity"))
        with pytest.raises(ValidationError):
            list(load_detections(p, _manifest()))

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["x", "y", "score"])
    def test_non_finite_hypothesis_names_line(self, tmp_path, field):
        det = Detection(image_id="im0", class_name="car", bbox=(0.0, 0.0, 5.0, 5.0),
                        score=0.5, keypoint_hypotheses={1: KeypointHypothesis(1.0, 2.0, 3.0)})
        p = tmp_path / "detections.jsonl"
        save_detections([det, det], p)
        first, second = p.read_text().splitlines()
        values = ["1.0", "2.0", "3.0"]
        values[field] = "NaN"
        forged = second.replace("[1.0,2.0,3.0]", "[" + ",".join(values) + "]")
        assert forged != second
        p.write_text(first + "\n" + forged + "\n")
        with pytest.raises(ValidationError, match="detections.jsonl:2: .*non-finite"):
            list(load_detections(p, _manifest()))


class TestPriorBankIO:
    def _bank(self, cls, n, k, seed):
        rng = np.random.default_rng(seed)
        rots = np.stack([
            euler_to_rotation(EulerAngles(
                float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(-1.2, 1.2)),
                float(rng.uniform(-3, 3)),
            ))
            for _ in range(n)
        ])
        kps = rng.uniform(0, 11.9, size=(n, k, 2))
        present = rng.random((n, k)) > 0.2
        return PriorBank(cls, rots, kps, present)

    def test_roundtrip_exact(self, tmp_path):
        banks = {"car": self._bank("car", 7, 3, 60), "chair": self._bank("chair", 4, 2, 61)}
        save_prior_banks(banks, tmp_path / "prior_bank.jsonl")
        loaded = load_prior_banks(tmp_path / "prior_bank.jsonl", _manifest())
        assert set(loaded) == {"car", "chair"}
        for cls in banks:
            np.testing.assert_array_equal(loaded[cls].rotations, banks[cls].rotations)
            np.testing.assert_array_equal(loaded[cls].keypoints, banks[cls].keypoints)
            np.testing.assert_array_equal(loaded[cls].present, banks[cls].present)

    def test_file_order_preserved_within_class(self, tmp_path):
        """Exemplar order is meaningful (mixture summation order), so
        loading must not reorder rows."""
        bank = self._bank("car", 5, 3, 62)
        save_prior_banks({"car": bank}, tmp_path / "prior_bank.jsonl")
        loaded = load_prior_banks(tmp_path / "prior_bank.jsonl", _manifest())
        np.testing.assert_array_equal(loaded["car"].keypoints, bank.keypoints)

    def test_bad_rotation_rejected(self, tmp_path):
        bank = self._bank("car", 2, 3, 63)
        save_prior_banks({"car": bank}, tmp_path / "prior_bank.jsonl")
        p = tmp_path / "prior_bank.jsonl"
        lines = p.read_text().splitlines()
        record = json.loads(lines[0])
        record["rotation"][0][0] = 5.0
        lines[0] = json.dumps(record)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="prior_bank.jsonl:1"):
            load_prior_banks(p, _manifest())

    def test_wrong_keypoint_count_rejected(self, tmp_path):
        bank = self._bank("car", 2, 2, 64)  # manifest says car has 3
        save_prior_banks({"car": bank}, tmp_path / "prior_bank.jsonl")
        with pytest.raises(ValidationError, match="keypoint"):
            load_prior_banks(tmp_path / "prior_bank.jsonl", _manifest())

    def _forge(self, tmp_path, edits):
        """A 5-row car bank with edits {line: (field, value)} applied."""
        p = tmp_path / "prior_bank.jsonl"
        save_prior_banks({"car": self._bank("car", 5, 3, 65)}, p)
        records = [json.loads(line) for line in p.read_text().splitlines()]
        for line, (field, value) in edits.items():
            records[line - 1][field] = value
        p.write_text("".join(json.dumps(r) + "\n" for r in records))
        return p

    @staticmethod
    def _defect(m):
        """rotation_matrix's message for the matrix m."""
        with pytest.raises(ValueError) as exc:
            rotation_matrix(np.array(m, dtype=np.float64))
        return str(exc.value)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("reflection", "skewed"),
            ("skewed", "reflection"),
            ("overflow", "reflection"),
            ("reflection", "overflow"),
        ],
    )
    def test_two_bad_rotations_name_the_earlier_line(self, tmp_path, first, second):
        bad = {
            "reflection": np.diag([1.0, 1.0, -1.0]).tolist(),
            "skewed": [[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "overflow": [[1e999, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
        p = self._forge(tmp_path, {2: ("rotation", bad[first]), 4: ("rotation", bad[second])})
        text = p.read_text().replace("Infinity", "1e999")
        p.write_text(text)
        message = f"prior_bank.jsonl:2: bad rotation ({self._defect(bad[first])})"
        with pytest.raises(ValidationError) as exc:
            load_prior_banks(p, _manifest())
        assert str(exc.value) == message

    @pytest.mark.parametrize("flag", ["car", 1, 0, None, 2.5, [], {}])
    def test_present_must_hold_booleans(self, tmp_path, flag):
        p = self._forge(tmp_path, {3: ("present", [True, flag, False])})
        with pytest.raises(ValidationError, match=r"^prior_bank.jsonl:3: present must hold"):
            load_prior_banks(p, _manifest())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("keypoints", [[1.0, 2.0], [3.0], [4.0, 5.0]]),
            ("keypoints", [[1.0, 2.0], ["a", 3.0], [4.0, 5.0]]),
            ("keypoints", [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [4.0, 5.0, 0.0]]),
            ("keypoints", [[1.0, 2.0], {"x": 3.0}, [4.0, 5.0]]),
            ("rotation", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
            ("rotation", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            ("rotation", "eye"),
        ],
        ids=["ragged", "string", "triples", "object", "ragged-rotation", "2x3", "string-rotation"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, field, value):
        p = self._forge(tmp_path, {3: (field, value)})
        with pytest.raises(ValidationError, match=rf"^prior_bank.jsonl:3: bad {field} \("):
            load_prior_banks(p, _manifest())

    @pytest.mark.parametrize(
        "first",
        [("present", [True, 1.0, False]), ("keypoints", [[1.0, 2.0], ["a", 3.0], [4.0, 5.0]])],
        ids=["flag", "number"],
    )
    def test_type_error_names_its_line_before_a_later_shape_error(self, tmp_path, first):
        """A value of the wrong type is named at its line, ahead of a shape
        or JSON error on a later line."""
        p = self._forge(tmp_path, {2: first, 4: ("rotation", "eye")})
        with pytest.raises(ValidationError, match=rf"^prior_bank.jsonl:2: (present|bad {first[0]})"):
            load_prior_banks(p, _manifest())
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:3] + ["{not json"] + lines[4:]) + "\n")
        with pytest.raises(ValidationError, match=r"^prior_bank.jsonl:2: "):
            load_prior_banks(p, _manifest())


    @pytest.mark.parametrize(
        "point", [[12.5, 3.0], [3.0, 12.0], [-0.1, 3.0], [3.0, 1e999]],
        ids=["x-past-grid", "y-at-12", "negative", "overflow"],
    )
    def test_out_of_grid_keypoint_names_its_line(self, tmp_path, point):
        """Checked at its line, ahead of a bad rotation on a later line; the
        same coordinates on an absent keypoint are not read."""
        p = self._forge(tmp_path, {4: ("rotation", "eye")})
        records = [json.loads(line) for line in p.read_text().splitlines()]
        for line, flag in ((1, False), (3, True)):
            records[line - 1].update(
                keypoints=[[1.0, 2.0], point, [4.0, 5.0]], present=[True, flag, True]
            )
        text = "".join(json.dumps(r) + "\n" for r in records)
        p.write_text(text.replace("Infinity", "1e999"))
        message = "prior_bank.jsonl:3: present keypoint coordinates must lie in [0, 12)"
        with pytest.raises(ValidationError) as exc:
            load_prior_banks(p, _manifest())
        assert str(exc.value) == message


class TestResponseMapIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(65)
        grid = rng.normal(size=(3, 12, 12)).astype(np.float32)
        write_response_map(tmp_path / "i0_fine.vkrm", grid, class_id=0)
        class_id, back = read_response_map(tmp_path / "i0_fine.vkrm")
        assert class_id == 0
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, grid)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.vkrm"
        write_response_map(p, np.zeros((1, 6, 6), np.float32), class_id=0)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"JUNK"
        p.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="magic"):
            read_response_map(p)

    def test_unknown_version(self, tmp_path):
        p = tmp_path / "x.vkrm"
        write_response_map(p, np.zeros((1, 6, 6), np.float32), class_id=0)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(SchemaVersionError, match="version"):
            read_response_map(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.vkrm"
        write_response_map(p, np.zeros((2, 12, 12), np.float32), class_id=0)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(ParseError, match="expected"):
            read_response_map(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.vkrm"
        p.write_bytes(b"VKRM\x01")
        with pytest.raises(ParseError, match="truncated"):
            read_response_map(p)

    def test_writer_refuses_non_finite(self, tmp_path):
        grid = np.zeros((1, 6, 6), np.float32)
        grid[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            write_response_map(tmp_path / "x.vkrm", grid, class_id=0)

    def test_writer_refuses_a_map_beyond_float32_naming_the_blob(self, tmp_path):
        """A float64 1e300 is inf as float32: refused with the reader's
        message for the blob, no numpy overflow warning, and no file."""
        grid = np.zeros((1, 6, 6))
        grid[0, 0, 0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                write_response_map(tmp_path / "i0_coarse.vkrm", grid, class_id=0)
        assert str(exc.value) == "i0_coarse.vkrm: non-finite response values"
        assert not (tmp_path / "i0_coarse.vkrm").exists()

    def test_non_finite_payload(self, tmp_path):
        p = tmp_path / "x.vkrm"
        write_response_map(p, np.zeros((1, 6, 6), np.float32), class_id=0)
        blob = bytearray(p.read_bytes())
        blob[-4:] = struct.pack("<f", math.inf)
        p.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="non-finite"):
            read_response_map(p)

    def test_oversized_blob_refused_unread(self, tmp_path):
        """A 64 MB sparse file behind a valid header is refused from its size,
        by the one-blob reader and by the class reader, with the body unread."""
        d, insts = self._responses_dir(tmp_path)
        path = d / "i0_coarse.vkrm"
        size = 64 * 2**20
        os.truncate(path, size)
        message = f"i0_coarse.vkrm: expected 456 bytes for shape (3, 6, 6), got {size}"
        for read in (
            lambda: read_response_map(path),
            lambda: list(response_maps_by_class(d, _manifest(), insts)),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(ParseError) as exc:
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(exc.value) == message
            assert peak < 2**20

    def test_unreadable_blob_error_names_the_file(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        path = d / "i0_fine.vkrm"
        path.unlink()
        path.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            list(response_maps_by_class(d, _manifest(), insts))
        assert exc.value.filename == str(path)

    def _responses_dir(self, tmp_path):
        inst = Instance(id="i0", image_id="im0", class_name="car",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        d = tmp_path / "responses"
        d.mkdir()
        write_response_map(d / "i0_fine.vkrm", np.zeros((3, 12, 12), np.float32), 0)
        write_response_map(d / "i0_coarse.vkrm", np.zeros((3, 6, 6), np.float32), 0)
        return d, [inst]

    def test_load_directory(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        [maps] = response_maps_by_class(d, _manifest(), insts)
        assert maps.members == insts
        assert maps.fine.shape == (1, 3, 12, 12) and maps.fine.dtype == np.float32
        assert maps.coarse.shape == (1, 3, 6, 6) and maps.coarse.dtype == np.float32
        assert {kind: flags.tolist() for kind, flags in maps.read.items()} == {
            "fine": [True], "coarse": [True]
        }

    def test_unknown_instance_rejected(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        write_response_map(d / "ghost_fine.vkrm", np.zeros((3, 12, 12), np.float32), 0)
        with pytest.raises(ValidationError, match="unknown instance"):
            list(response_maps_by_class(d, _manifest(), insts))

    def test_class_id_mismatch_rejected(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        write_response_map(d / "i0_fine.vkrm", np.zeros((3, 12, 12), np.float32), 1)
        with pytest.raises(ValidationError) as exc:
            list(response_maps_by_class(d, _manifest(), insts))
        assert str(exc.value) == "i0_fine.vkrm: class id 1 but instance 'i0' is 'car' (id 0)"

    def test_shape_mismatch_rejected(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        write_response_map(d / "i0_fine.vkrm", np.zeros((2, 12, 12), np.float32), 0)
        with pytest.raises(ValidationError) as exc:
            list(response_maps_by_class(d, _manifest(), insts))
        assert str(exc.value) == "i0_fine.vkrm: shape (2, 12, 12), expected (3, 12, 12)"

    def test_map_of_the_other_kind_rejected(self, tmp_path):
        """A fine blob holding 6x6 maps does not fill a coarse row."""
        d, insts = self._responses_dir(tmp_path)
        write_response_map(d / "i0_fine.vkrm", np.zeros((3, 6, 6), np.float32), 0)
        with pytest.raises(ValidationError, match=r"i0_fine.vkrm: shape \(3, 6, 6\)"):
            list(response_maps_by_class(d, _manifest(), insts))

    def test_bad_filename_rejected(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        write_response_map(d / "whatever.vkrm", np.zeros((3, 12, 12), np.float32), 0)
        with pytest.raises(ValidationError, match="expected <id>"):
            list(response_maps_by_class(d, _manifest(), insts))

    def test_non_blob_files_ignored(self, tmp_path):
        d, insts = self._responses_dir(tmp_path)
        (d / "README.txt").write_text("notes\n")
        [maps] = response_maps_by_class(d, _manifest(), insts)
        assert maps.members == insts and maps.read["fine"].tolist() == [True]

    def test_names_checked_before_any_blob_is_read(self, tmp_path):
        """A blob that sorts first is corrupt and a later name is unknown:
        the name is refused, as no blob is read before every name is checked."""
        d, insts = self._responses_dir(tmp_path)
        (d / "i0_coarse.vkrm").write_bytes(b"not a response map")
        write_response_map(d / "zz_fine.vkrm", np.zeros((3, 12, 12), np.float32), 0)
        with pytest.raises(ValidationError, match="zz_fine.vkrm: unknown instance id 'zz'"):
            next(response_maps_by_class(d, _manifest(), insts))

    def test_one_class_at_a_time_in_class_order(self, tmp_path):
        """Each class is yielded with its members in id order, in sorted
        class order, and its blobs are read only when it is asked for; a
        class with no blobs still comes, with zero stacks and no row read."""
        d, insts = self._responses_dir(tmp_path)
        seat = Instance(id="a0", image_id="im0", class_name="chair",
                        bbox=(0.0, 0.0, 5.0, 5.0))
        bare = Instance(id="b0", image_id="im0", class_name="car",
                        bbox=(1.0, 0.0, 5.0, 5.0))
        write_response_map(d / "a0_fine.vkrm", np.ones((2, 12, 12), np.float32), 1)
        reader = response_maps_by_class(d, _manifest(), [seat, *insts, bare])
        cars = next(reader)
        assert cars.members == [bare, *insts]
        assert cars.read["fine"].tolist() == [False, True]
        assert cars.read["coarse"].tolist() == [False, True]
        assert not cars.fine[0].any() and not cars.coarse[0].any()
        (d / "a0_fine.vkrm").write_bytes(b"not a response map")
        with pytest.raises(ParseError, match="a0_fine.vkrm"):
            next(reader)
        empty = tmp_path / "empty"
        empty.mkdir()
        bare_car, lone_seat = response_maps_by_class(empty, _manifest(), [seat, bare])
        assert (bare_car.members, lone_seat.members) == ([bare], [seat])
        assert lone_seat.fine.shape == (1, 2, 12, 12) and lone_seat.coarse.shape == (1, 2, 6, 6)
        for maps in (bare_car, lone_seat):
            assert not maps.fine.any() and not maps.coarse.any()
            assert not any(flags.any() for flags in maps.read.values())


class TestStackedReader:
    """response_maps_by_class fills one stack per class and map kind from
    the per-blob reader: the same values, and the same first fault."""

    @staticmethod
    def _scene(tmp_path):
        scene = generate_scene(seed=11, n_instances=24, profile=noise_preset("moderate"),
                               bank_size=2)
        save_dataset(scene, tmp_path / "ds")
        return scene, tmp_path / "ds"

    def test_stacks_equal_each_blob_bit_for_bit(self, tmp_path):
        scene, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        classes = []
        for maps in response_maps_by_class(ds / "responses", manifest, instances):
            ids = [inst.id for inst in maps.members]
            assert ids == sorted(ids)
            cls = maps.members[0].class_name
            assert {inst.class_name for inst in maps.members} == {cls}
            classes.append(cls)
            for kind, stack in (("fine", maps.fine), ("coarse", maps.coarse)):
                assert stack.dtype == np.float32 and maps.read[kind].all()
                for row, iid in zip(stack, ids):
                    class_id, blob = read_response_map(ds / "responses" / f"{iid}_{kind}.vkrm")
                    assert class_id == manifest.classes.index(cls)
                    assert row.tobytes() == blob.tobytes()
                    assert row.tobytes() == scene.response_maps[iid][kind].tobytes()
        assert classes == sorted({inst.class_name for inst in instances})

    @staticmethod
    def _bad_magic(path, iid, class_id):
        path.write_bytes(b"VKRX" + path.read_bytes()[4:])
        return f"{path.name}: bad magic b'VKRX'"

    @staticmethod
    def _truncated(path, iid, class_id):
        path.write_bytes(path.read_bytes()[:-4])
        shape = (8, 12, 12) if path.name.endswith("_fine.vkrm") else (8, 6, 6)
        size = 24 + 4 * math.prod(shape)
        return f"{path.name}: expected {size} bytes for shape {shape}, got {size - 4}"

    @staticmethod
    def _oversized(path, iid, class_id):
        path.write_bytes(path.read_bytes() + bytes(4))
        shape = (8, 12, 12) if path.name.endswith("_fine.vkrm") else (8, 6, 6)
        size = 24 + 4 * math.prod(shape)
        return f"{path.name}: expected {size} bytes for shape {shape}, got {size + 4}"

    @staticmethod
    def _short_header(path, iid, class_id):
        path.write_bytes(b"VKRM\x01")
        return f"{path.name}: truncated header"

    @staticmethod
    def _version(path, iid, class_id):
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        return f"{path.name}: unknown blob version 9"

    @staticmethod
    def _non_finite(path, iid, class_id):
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", math.nan)
        path.write_bytes(bytes(blob))
        return f"{path.name}: non-finite response values"

    @staticmethod
    def _class_id(path, iid, class_id):
        _, data = read_response_map(path)
        write_response_map(path, data, class_id + 1)
        return f"{path.name}: class id {class_id + 1} but instance {iid!r} is 'car' (id {class_id})"

    @staticmethod
    def _shape(path, iid, class_id):
        _, data = read_response_map(path)
        write_response_map(path, data[:-1], class_id)
        size = 12 if path.name.endswith("_fine.vkrm") else 6
        return f"{path.name}: shape (7, {size}, {size}), expected (8, {size}, {size})"

    FAULTS = ("bad_magic", "truncated", "short_header", "version", "non_finite", "class_id")

    def _spoil(self, path, fault, iid, class_id):
        """Spoil a car's blob with the fault; returns the message it raises."""
        return getattr(self, f"_{fault}")(path, iid, class_id)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_blob_fault_keeps_its_message(self, tmp_path, fault):
        """The reader raises read_response_map's own error, or the class id
        check's, for a blob of the car class (8 keypoints)."""
        _, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        car = sorted(inst.id for inst in instances if inst.class_name == "car")[1]
        path = ds / "responses" / f"{car}_coarse.vkrm"
        message = self._spoil(path, fault, car, manifest.classes.index("car"))
        with pytest.raises(DatasetError) as exc:
            list(response_maps_by_class(ds / "responses", manifest, instances))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "first, later",
        [
            ("non_finite", "bad_magic"),
            ("class_id", "truncated"),
            ("version", "non_finite"),
            ("non_finite", "class_id"),
            ("non_finite", "shape"),
            ("oversized", "non_finite"),
            ("shape", "non_finite"),
            ("non_finite", "non_finite"),
        ],
    )
    def test_first_fault_in_blob_name_order_wins(self, tmp_path, first, later):
        """Three spoiled blobs of one class: the one whose name sorts first
        is named, whatever the faults of the others."""
        _, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        cars = sorted(inst.id for inst in instances if inst.class_name == "car")
        class_id = manifest.classes.index("car")
        # "<id>_coarse.vkrm" sorts before "<id>_fine.vkrm" of the same id
        early = ds / "responses" / f"{cars[2]}_coarse.vkrm"
        late = ds / "responses" / f"{cars[2]}_fine.vkrm"
        message = self._spoil(early, first, cars[2], class_id)
        self._spoil(late, later, cars[2], class_id)
        self._spoil(ds / "responses" / f"{cars[3]}_coarse.vkrm", later, cars[3], class_id)
        with pytest.raises(DatasetError) as exc:
            list(response_maps_by_class(ds / "responses", manifest, instances))
        assert str(exc.value) == message

    def test_clean_class_yielded_before_a_later_class_fault(self, tmp_path):
        """A non-finite blob of the second class, behind a valid header: the
        first class is yielded whole, then the blob is named."""
        scene, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        chair = sorted(inst.id for inst in instances if inst.class_name == "chair")[-1]
        path = ds / "responses" / f"{chair}_fine.vkrm"
        message = self._spoil(path, "non_finite", chair, manifest.classes.index("chair"))
        reader = response_maps_by_class(ds / "responses", manifest, instances)
        cars = next(reader)
        assert {inst.class_name for inst in cars.members} == {"car"}
        assert cars.read["fine"].all() and cars.read["coarse"].all()
        for inst, row in zip(cars.members, cars.fine):
            assert row.tobytes() == scene.response_maps[inst.id]["fine"].tobytes()
        with pytest.raises(ValidationError) as exc:
            next(reader)
        assert str(exc.value) == message

    def test_shape_fault_names_the_blob_and_both_shapes(self, tmp_path):
        _, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        car = min(inst.id for inst in instances if inst.class_name == "car")
        path = ds / "responses" / f"{car}_fine.vkrm"
        _, data = read_response_map(path)
        write_response_map(path, data[:-1], manifest.classes.index("car"))
        with pytest.raises(ValidationError) as exc:
            list(response_maps_by_class(ds / "responses", manifest, instances))
        assert str(exc.value) == f"{path.name}: shape (7, 12, 12), expected (8, 12, 12)"

    def test_missing_kind_flags_the_row_only(self, tmp_path):
        """A missing blob leaves its row unread and zero; every other row
        of the class is read."""
        _, ds = self._scene(tmp_path)
        manifest, instances = load_ground_truth(ds)
        instances = list(instances)
        cars = sorted(inst.id for inst in instances if inst.class_name == "car")
        (ds / "responses" / f"{cars[1]}_fine.vkrm").unlink()
        maps = next(response_maps_by_class(ds / "responses", manifest, instances))
        assert [inst.id for inst in maps.members] == cars
        assert maps.read["fine"].tolist() == [i != 1 for i in range(len(cars))]
        assert maps.read["coarse"].all()
        assert not maps.fine[1].any() and maps.fine[0].any()


class TestInMemoryClassMaps:
    """class_maps yields the ClassMaps that response_maps_by_class reads
    from the directory save_dataset writes: the same classes, rows, float32
    values and read flags."""

    @staticmethod
    def _scene():
        return generate_scene(seed=11, n_instances=24, profile=noise_preset("moderate"),
                              bank_size=2)

    @staticmethod
    def _equal(got, want):
        assert got.members == want.members
        for kind in ("fine", "coarse"):
            stack, other = getattr(got, kind), getattr(want, kind)
            assert stack.dtype == np.float32 and stack.tobytes() == other.tobytes()
            assert got.read[kind].tolist() == want.read[kind].tolist()

    def test_equal_to_the_saved_directory(self, tmp_path):
        """A row whose map kind is missing stays unread and zero, in memory
        as on disk; a float64 map holds the float32 values its blob stores."""
        scene = self._scene()
        cars = sorted(inst.id for inst in scene.instances if inst.class_name == "car")
        maps = scene.response_maps
        maps[cars[1]] = {"coarse": maps[cars[1]]["coarse"]}
        maps[cars[2]] = {
            kind: grid.astype(np.float64) + 0.1 for kind, grid in maps[cars[2]].items()
        }
        save_dataset(scene, tmp_path / "ds")
        manifest, instances = load_ground_truth(tmp_path / "ds")
        saved = list(response_maps_by_class(tmp_path / "ds" / "responses", manifest, instances))
        in_memory = list(class_maps(scene))
        assert len(in_memory) == len(saved) == 3
        for got, want in zip(in_memory, saved):
            self._equal(got, want)
        car_maps = next(m for m in in_memory if m.members[0].class_name == "car")
        assert car_maps.members[1].id == cars[1] and not car_maps.read["fine"][1]

    def test_unknown_map_ids_refused_as_save_dataset_refuses_them(self, tmp_path):
        """The first unknown id in sorted order is named, and save_dataset
        refuses before it writes any file."""
        scene = self._scene()
        grids = next(iter(scene.response_maps.values()))
        scene.response_maps.update(zz=grids, ghost=grids)
        message = "^response maps for unknown instance 'ghost'$"
        with pytest.raises(ValidationError, match=message):
            next(class_maps(scene))
        with pytest.raises(ValidationError, match=message):
            save_dataset(scene, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_unknown_map_kinds_refused_as_save_dataset_refuses_them(self, tmp_path):
        """The kind of the first bad (id, kind) in sorted order is named, and
        save_dataset refuses before it writes any file."""
        scene = self._scene()
        ids = sorted(scene.response_maps)
        grid = scene.response_maps[ids[0]]["fine"]
        scene.response_maps[ids[5]]["aaa"] = grid
        scene.response_maps[ids[2]].update(zzz=grid, extra=grid)
        message = "^unknown response-map kind 'extra'$"
        with pytest.raises(ValidationError, match=message):
            next(class_maps(scene))
        (tmp_path / "ds").mkdir()
        with pytest.raises(ValidationError, match=message):
            save_dataset(scene, tmp_path / "ds")
        assert list((tmp_path / "ds").iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e300], ids=["nan", "inf", "1e300"])
    def test_non_finite_maps_refused_as_save_dataset_refuses_them(self, tmp_path, value):
        """A map that is not finite as float32 (1e300 is a finite float64, inf
        as float32) is refused without numpy's overflow warning, the first bad
        (id, kind) in sorted order named, and save_dataset refuses before it
        writes any file."""
        scene = self._scene()
        ids = sorted(scene.response_maps)
        for iid, kind in ((ids[5], "coarse"), (ids[2], "fine"), (ids[2], "coarse")):
            grid = np.array(scene.response_maps[iid][kind], dtype=np.float64)
            grid[-1, 1, 2] = value
            scene.response_maps[iid][kind] = grid
        message = f"^instance {re.escape(repr(ids[2]))} coarse maps: non-finite response values$"
        (tmp_path / "ds").mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                next(class_maps(scene))
            with pytest.raises(ValidationError, match=message):
                save_dataset(scene, tmp_path / "ds")
        assert list((tmp_path / "ds").iterdir()) == []


class TestDatasetRoundtrip:
    def test_synthetic_scene_roundtrips_exactly(self, tmp_path):
        scene = generate_scene(seed=101, n_instances=20, profile=noise_preset("moderate"))
        d = tmp_path / "ds"
        save_dataset(scene, d)
        manifest, instances = load_ground_truth(d)
        instances = list(instances)
        assert manifest == scene.manifest
        assert instances == scene.instances
        assert list(load_detections(d / "detections.jsonl", manifest)) == scene.detections
        response_maps = {
            inst.id: {"fine": fine, "coarse": coarse}
            for maps in response_maps_by_class(d / "responses", manifest, instances)
            for inst, fine, coarse in zip(maps.members, maps.fine, maps.coarse)
        }
        assert set(response_maps) == set(scene.response_maps)
        for iid, kinds in scene.response_maps.items():
            for kind, grid in kinds.items():
                np.testing.assert_array_equal(response_maps[iid][kind], grid)
        prior_banks = load_prior_banks(d / "prior_bank.jsonl", manifest)
        assert set(prior_banks) == set(scene.prior_banks)
        for cls, bank in scene.prior_banks.items():
            np.testing.assert_array_equal(prior_banks[cls].rotations, bank.rotations)
            np.testing.assert_array_equal(prior_banks[cls].keypoints, bank.keypoints)

    def test_records_of_a_class_share_one_class_string(self, tmp_path):
        """Instances and detections read back hold one string per class,
        not one per record."""
        scene = generate_scene(seed=101, n_instances=20, profile=noise_preset("moderate"))
        save_dataset(scene, tmp_path / "ds")
        manifest, instances = load_ground_truth(tmp_path / "ds")
        records = [*instances, *load_detections(tmp_path / "ds" / "detections.jsonl", manifest)]
        names = {id(r.class_name): r.class_name for r in records}
        assert sorted(names.values()) == sorted({r.class_name for r in records})

    def test_save_twice_is_byte_identical(self, tmp_path):
        scene = generate_scene(seed=102, n_instances=10, profile=noise_preset("mild"))
        save_dataset(scene, tmp_path / "a")
        save_dataset(scene, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_ground_truth(tmp_path / "nope")


class TestKeypointPredictions:
    @staticmethod
    def _load(path, instances=None):
        classes = _classes(instances or _car_pair())
        return dict(load_keypoint_predictions(path, _manifest(), classes))

    def test_roundtrip(self, tmp_path):
        preds = {"i1": {0: (1.5, 2.5), 2: (math.pi, 0.125)}, "i0": {1: (4.0, 5.0)}}
        save_keypoint_predictions(preds.items(), tmp_path / "preds.jsonl")
        assert self._load(tmp_path / "preds.jsonl") == preds

    def test_duplicate_id_rejected(self, tmp_path):
        save_keypoint_predictions([("i0", {0: (1.0, 2.0)})], tmp_path / "p.jsonl")
        p = tmp_path / "p.jsonl"
        p.write_text(p.read_text() * 2)
        with pytest.raises(ValidationError, match="duplicate"):
            self._load(p)

    def test_malformed_record_rejected(self, tmp_path):
        (tmp_path / "p.jsonl").write_text('{"id": "i0"}\n')
        with pytest.raises(ParseError):
            self._load(tmp_path / "p.jsonl")

    def test_unknown_instance_id_names_line(self, tmp_path):
        preds = {"i0": {0: (1.0, 2.0)}, "nosuch": {0: (1.0, 2.0)}}
        save_keypoint_predictions(preds.items(), tmp_path / "p.jsonl")
        with pytest.raises(ValidationError, match="^p.jsonl:2: unknown instance id 'nosuch'$"):
            self._load(tmp_path / "p.jsonl")

    def test_keypoint_ids_bounded_by_the_instance_class(self, tmp_path):
        """Car has 3 keypoints and chair 2: id 2 is a car's roof, but out of
        range on a chair."""
        chair = dataclasses.replace(_car_pair()[1], class_name="chair", keypoints={})
        save_keypoint_predictions([("i1", {2: (1.0, 2.0)})], tmp_path / "p.jsonl")
        assert self._load(tmp_path / "p.jsonl") == {"i1": {2: (1.0, 2.0)}}
        with pytest.raises(ValidationError,
                           match=r"^p.jsonl:1: keypoint id 2 out of range \(2 keypoints\)$"):
            self._load(tmp_path / "p.jsonl", [chair])


class TestReports:
    def _report(self):
        return EvalReport(
            sections={
                "pck/car": {"wheel": 0.123456789, "roof": None},
                "acc": {"car": 1.0, "chair": 2.0 / 3.0},
            },
            curves={"avp/car": (np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 0.75]))},
        )

    def test_table_format(self):
        text = render_report(self._report(), format="table")
        assert "[acc]" in text
        assert "[pck/car]" in text
        assert "absent" in text
        assert "0.123457" in text  # six significant digits
        assert "0.666667" in text
        assert "avp/car: 3 points" in text

    def test_table_sections_sorted(self):
        text = render_report(self._report(), format="table")
        assert text.index("[acc]") < text.index("[pck/car]")

    def test_machine_format_reparses(self):
        text = render_report(self._report(), format="machine")
        record = json.loads(text)
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["sections"]["pck/car"]["roof"] is None
        # values carry six significant digits
        np.testing.assert_allclose(
            record["sections"]["pck/car"]["wheel"], 0.123456789, rtol=5e-6
        )
        curve = record["curves"]["avp/car"]
        assert curve["recall"] == [0.0, 0.5, 1.0]
        assert curve["precision"] == [1.0, 1.0, 0.75]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(self._report(), format="yaml")

    def test_write_is_deterministic(self, tmp_path):
        write_report(self._report(), tmp_path / "r1.txt")
        write_report(self._report(), tmp_path / "r2.txt")
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        write_report(self._report(), tmp_path / "m1.json", format="machine")
        write_report(self._report(), tmp_path / "m2.json", format="machine")
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
