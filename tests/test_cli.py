"""End-to-end tests for the posekit command line.

Every test drives cli.main in process and checks exit codes, written files,
and report contents. Datasets come from the synth subcommand, so each test
exercises the same chain a shell user would: generate, serialize, reload,
evaluate, report. Exit codes: 0 success, 2 bad input, 3 I/O failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from posekit import cli, dataio, diagnostics, fusion, metrics, so3, synth


def _synth(root: Path, *, seed: int = 7, n: int = 12, noise: str = "zero") -> Path:
    out = root / f"ds-{seed}-{noise}"
    rc = cli.main(
        [
            "synth",
            "--seed",
            str(seed),
            "--n",
            str(n),
            "--noise-profile",
            noise,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def _machine(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _tree(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes for every file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=5)
        for name in ("manifest.json", "instances.jsonl", "detections.jsonl", "prior_bank.jsonl"):
            assert (ds / name).is_file()
        ids = [
            json.loads(line)["id"]
            for line in (ds / "instances.jsonl").read_text().splitlines()
            if line
        ]
        assert len(ids) == 5
        for iid in ids:
            assert (ds / "responses" / f"{iid}_fine.vkrm").is_file()
            assert (ds / "responses" / f"{iid}_coarse.vkrm").is_file()
        assert "wrote 5 instances" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a = _tree(_synth(tmp_path / "a", seed=31, n=8))
        b = _tree(_synth(tmp_path / "b", seed=31, n=8))
        assert a == b

    def test_refuses_an_out_directory_that_is_not_empty(self, tmp_path, capsys):
        """A second scene over a first would leave the first one's response
        maps for instances the second lacks, which fuse then refuses: the
        second synth exits 2 and writes nothing. An empty directory is fine."""
        ds = _synth(tmp_path, seed=1, n=10)
        before = _tree(ds)
        rc = cli.main(["synth", "--seed", "2", "--n", "5", "--out", str(ds)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {ds}: not empty")
        assert _tree(ds) == before
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(tmp_path / "f.jsonl")]) == 0
        (tmp_path / "empty").mkdir()
        assert cli.main(["synth", "--seed", "2", "--n", "5", "--out", str(tmp_path / "empty")]) == 0

    def test_different_seeds_differ(self, tmp_path):
        a = _tree(_synth(tmp_path / "a", seed=31, n=8))
        b = _tree(_synth(tmp_path / "b", seed=32, n=8))
        assert a != b

    def test_profiles_share_ground_truth(self, tmp_path):
        """Noise only perturbs predictions, never the annotations."""
        a = _synth(tmp_path / "a", seed=5, n=10, noise="zero")
        b = _synth(tmp_path / "b", seed=5, n=10, noise="heavy")
        for name in ("manifest.json", "instances.jsonl", "prior_bank.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "detections.jsonl").read_bytes() != (b / "detections.jsonl").read_bytes()

    def test_noise_alias(self, tmp_path):
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", "mild", "--out", str(tmp_path / "d")]
        )
        assert rc == 0

    def test_profile_from_json_file(self, tmp_path):
        prof = tmp_path / "jitter.json"
        prof.write_text(json.dumps({"keypoint_jitter": 2.0}))
        ds = _synth(tmp_path, seed=5, n=6, noise=str(prof))
        zero = _synth(tmp_path / "z", seed=5, n=6, noise="zero")
        assert (ds / "instances.jsonl").read_bytes() == (zero / "instances.jsonl").read_bytes()
        assert (ds / "detections.jsonl").read_bytes() != (zero / "detections.jsonl").read_bytes()

    def test_profile_file_must_be_object(self, tmp_path, capsys):
        prof = tmp_path / "bad.json"
        prof.write_text("[1, 2]")
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", str(prof), "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "must be an object" in capsys.readouterr().err

    def test_profile_file_unknown_key(self, tmp_path, capsys):
        prof = tmp_path / "typo.json"
        prof.write_text(json.dumps({"keypoint_jiter": 2.0}))
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", str(prof), "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "'keypoint_jiter'" in capsys.readouterr().err

    def test_profile_file_bad_json_names_the_file(self, tmp_path, capsys):
        prof = tmp_path / "p.json"
        prof.write_text("{pi_flip_prob: 0.5}")
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", str(prof), "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "error: p.json: bad JSON (" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ['{"pi_flip_prob": true}', '{"keypoint_jitter": false}', '{"score_noise": NaN}']
    )
    def test_profile_file_refuses_booleans_and_non_finite(self, tmp_path, capsys, text):
        prof = tmp_path / "p.json"
        prof.write_text(text)
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", str(prof), "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "error: p.json: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_unknown_preset(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--seed", "1", "--n", "2", "--noise", "blurry", "--out", str(tmp_path / "d")]
        )
        assert rc == 2
        assert "unknown noise profile" in capsys.readouterr().err

    def test_zero_instances_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--seed", "1", "--n", "0", "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
        assert "argument --n: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestEvaluateViewpoint:
    def test_known_boxes_perfect(self, tmp_path):
        """A noiseless scene scores its own detections perfectly."""
        ds = _synth(tmp_path, n=12)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--gt-boxes",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        assert sections["mean"]["acc"] == 1.0
        assert sections["mean"]["mederr_deg"] == 0.0
        for cls in ("car", "chair", "sofa"):
            assert sections[cls]["acc"] == 1.0

    def test_table_goes_to_stdout(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=6)
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--gt-boxes",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "[mean]" in text
        assert "acc" in text
        assert "mederr_deg" in text

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=6)
        capsys.readouterr()  # drop the synth summary line
        args = [
            "evaluate-viewpoint",
            "--dataset",
            str(ds),
            "--preds",
            str(ds / "detections.jsonl"),
            "--gt-boxes",
        ]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        out = tmp_path / "r.txt"
        assert cli.main(args + ["--report", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text

    def test_detection_setting_sections(self, tmp_path):
        ds = _synth(tmp_path, n=12)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--detections",
                "--bins",
                "8",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        payload = _machine(out)
        rows = payload["sections"]["mean"]
        assert rows["avp8"] == 1.0
        assert rows["avp_theta"] == 1.0
        assert rows["arp_theta"] == 1.0
        curves = payload["curves"]
        assert "avp/car" in curves
        assert len(curves["avp/car"]["recall"]) == len(curves["avp/car"]["precision"])

    def test_requires_exactly_one_mode(self, tmp_path):
        ds = _synth(tmp_path, n=2)
        base = ["evaluate-viewpoint", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl")]
        with pytest.raises(SystemExit) as exc:
            cli.main(base)
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(base + ["--gt-boxes", "--detections"])
        assert exc.value.code == 2

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(tmp_path / "nowhere"),
                "--preds",
                str(tmp_path / "nowhere.jsonl"),
                "--gt-boxes",
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_unmatched_instance_rejected(self, tmp_path, capsys):
        """Known-box mode insists on one prediction per annotated box."""
        ds = _synth(tmp_path, n=4)
        lines = (ds / "detections.jsonl").read_text().splitlines(keepends=True)
        short = tmp_path / "short.jsonl"
        short.write_text("".join(lines[1:]))
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(short),
                "--gt-boxes",
            ]
        )
        assert rc == 2
        assert "expected exactly one" in capsys.readouterr().err

    def test_missing_viewpoint_names_the_claim(self, tmp_path, capsys):
        """A localized detection with a null viewpoint: the refusal names
        its image and class."""
        ds = _synth(tmp_path, seed=3, n=12, noise="moderate")
        path = ds / "detections.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        culprit = next(r for r in records if r["image_id"] == "im000003")
        culprit["viewpoint"] = None
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        rc = cli.main(
            ["evaluate-viewpoint", "--dataset", str(ds), "--preds", str(path), "--detections"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "viewpoint metrics need viewpoints on detections and GT" in err
        assert f"image im000003, class {culprit['class']!r}" in err

    def test_schema_version_rejected(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=2)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["schema_version"] = 99
        (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--gt-boxes",
            ]
        )
        assert rc == 2
        assert "schema version" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--detections", "--gt-boxes"])
    def test_evaluation_gets_no_keypoint(self, tmp_path, monkeypatch, mode):
        """Viewpoint metrics read no keypoint: every instance and detection
        that evaluate-viewpoint hands to evaluation has an empty keypoint
        map, though the files carry keypoints and hypotheses."""
        ds = _synth(tmp_path, n=12)
        for name, key in (("instances", "keypoints"), ("detections", "keypoint_hypotheses")):
            lines = (ds / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
            assert all(json.loads(line)[key] for line in lines)
        handed = []  # (instances, their keypoints, detections, their hypotheses) per call

        def record(instances, detections):
            handed.append((
                len(instances), sum(len(inst.keypoints) for inst in instances),
                len(detections), sum(len(det.keypoint_hypotheses) for det in detections),
            ))

        evaluate, pairs = metrics.evaluate_detection_tests, diagnostics.viewpoint_pairs

        def spy_evaluate(detections, instances, *args):
            detections, instances = list(detections), list(instances)
            record(instances, detections)
            return evaluate(detections, instances, *args)

        def spy_pairs(instances, matched):
            record(instances, list(matched.values()))
            return pairs(instances, matched)

        monkeypatch.setattr(metrics, "evaluate_detection_tests", spy_evaluate)
        monkeypatch.setattr(diagnostics, "viewpoint_pairs", spy_pairs)
        argv = ["evaluate-viewpoint", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl")]
        assert cli.main([*argv, mode]) == 0
        assert handed == [(12, 0, 12, 0)]


class TestFuseCommand:
    def test_fuse_writes_predictions(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=6)
        out = tmp_path / "preds.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(out)])
        assert rc == 0
        assert "fused 6 instances" in capsys.readouterr().out
        records = [json.loads(line) for line in out.read_text().splitlines() if line]
        assert len(records) == 6
        for rec in records:
            assert set(rec) == {"id", "keypoints"}
            assert all(len(point) == 2 for point in rec["keypoints"].values())

    def test_detection_viewpoints_match_annotated_when_noiseless(self, tmp_path):
        ds = _synth(tmp_path, n=6)
        a = tmp_path / "annotated.jsonl"
        b = tmp_path / "detected.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(a)]) == 0
        rc = cli.main(
            [
                "fuse",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--out",
                str(b),
            ]
        )
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_sigma(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=2)
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["fuse", "--dataset", str(ds), "--sigma", "0", "--out", str(tmp_path / "p.jsonl")]
            )
        assert exc.value.code == 2
        assert "argument --sigma" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
    def test_sigma_without_a_finite_gaussian_refused(self, tmp_path, capsys, sigma):
        """2 sigma^2 rounds to 0 (1e-200) or the norm 1 / (2 pi sigma^2)
        overflows (1e-160): refused, not a crash or NaN priors."""
        ds = _synth(tmp_path, seed=3, n=12, noise="moderate")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--sigma", sigma, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma must be positive with a finite Gaussian")
        assert "Traceback" not in err
        assert not out.exists()

    def test_tiny_sigma_fuses_without_a_warning(self):
        """At 1e-154 the exponent of every far cell overflows to -inf, whose
        exp is the exact limit 0: no warning, not even one raised as an
        error, and the cells of a run that ignores warnings."""
        scene = synth.generate_scene(3, 12, synth.noise_preset("moderate"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = cli.fuse_predictions(scene, sigma=1e-154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.fuse_predictions(scene, sigma=1e-154) == quiet

    def test_maps_and_bank_from_their_flags(self, tmp_path):
        """--maps and --prior-bank replace the dataset's own files: the fused
        bytes match a default run, with corrupt decoys left in their place."""
        ds = _synth(tmp_path, seed=3, n=12, noise="moderate")
        default = tmp_path / "default.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(default)]) == 0
        maps, bank = tmp_path / "maps", tmp_path / "bank.jsonl"
        (ds / "responses").rename(maps)
        (ds / "prior_bank.jsonl").rename(bank)
        (ds / "responses").mkdir()
        for blob in maps.iterdir():
            (ds / "responses" / blob.name).write_bytes(b"not a response map")
        (ds / "prior_bank.jsonl").write_text("{not json\n")
        out = tmp_path / "flags.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--maps", str(maps),
                       "--prior-bank", str(bank), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize(
        "iid, kinds",
        [
            ("inst000004", ("fine", "coarse")),
            ("inst000004", ("coarse",)),
            ("inst000005", ("fine", "coarse")),
            ("inst000005", ("coarse",)),
        ],
        ids=["no-maps", "fine-only", "no-maps-first-class", "fine-only-first-class"],
    )
    def test_instance_missing_maps_rejected(self, tmp_path, capsys, iid, kinds):
        """An instance with one map kind or none exits 2; it is never dropped.
        inst000005 is a car, the first class fused; inst000004 is the only
        chair, fused after the cars, so without maps its class has none."""
        ds = _synth(tmp_path, n=6)
        for kind in kinds:
            (ds / "responses" / f"{iid}_{kind}.vkrm").unlink()
        out = tmp_path / "p.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(out)])
        assert rc == 2
        message = f"instance {iid!r}: needs both fine and coarse response maps"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_first_instance_missing_a_kind_in_id_order(self, tmp_path, capsys):
        """Two cars each lack a map kind: the one whose id sorts first is
        named, whichever map kind it lacks."""
        ds = _synth(tmp_path, n=12)
        _, instances = dataio.load_ground_truth(ds)
        cars = sorted(inst.id for inst in instances if inst.class_name == "car")
        (ds / "responses" / f"{cars[1]}_fine.vkrm").unlink()
        (ds / "responses" / f"{cars[2]}_coarse.vkrm").unlink()
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: instance {cars[1]!r}: needs both fine and coarse response maps\n"
        )

    def test_refused_class_stops_before_a_later_class_is_read(self, tmp_path, capsys):
        """The maps are read and fused one class at a time: a missing
        viewpoint in the first class is refused before the corrupt blob of
        a later class is read."""
        ds = _synth(tmp_path, n=6)
        manifest, instances = dataio.load_ground_truth(ds)
        classes = sorted({inst.class_name for inst in instances})
        victim = min(inst.id for inst in instances if inst.class_name == classes[0])
        later = min(inst.id for inst in instances if inst.class_name == classes[-1])
        box = {inst.id: (inst.image_id, inst.bbox) for inst in instances}
        dets = [
            dataclasses.replace(det, viewpoint=None)
            if (det.image_id, det.bbox) == box[victim] else det
            for det in dataio.load_detections(ds / "detections.jsonl", manifest)
        ]
        dataio.save_detections(dets, ds / "detections.jsonl")
        (ds / "responses" / f"{later}_fine.vkrm").write_bytes(b"not a response map")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"instance {victim!r}: no viewpoint to condition on" in err
        assert f"{later}_fine.vkrm" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("[1.0,2.0]", "keypoint 0 must be [x, y, score]"),
            ("[1.0,2.0,1e999]", "keypoint hypothesis has non-finite values (id 0)"),
        ],
    )
    def test_bad_hypothesis_of_a_matched_detection_names_its_line(
        self, tmp_path, capsys, entry, message
    ):
        """fuse keeps only each detection's box and viewpoint, but every
        line is still checked in full: a bad hypothesis exits 2 naming it."""
        ds = _synth(tmp_path, n=6)
        path = ds / "detections.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["keypoint_hypotheses"]["0"] = "ENTRY"
        lines[2] = json.dumps(record, sort_keys=True).replace('"ENTRY"', entry)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: detections.jsonl:3: {message}\n"
        assert not out.exists()

    def test_duplicated_detection_refused(self, tmp_path, capsys):
        """Detections are matched as they stream, and a box that two of
        them claim still refuses its instance."""
        ds = _synth(tmp_path, n=6)
        manifest, instances = dataio.load_ground_truth(ds)
        path = ds / "detections.jsonl"
        lines = path.read_text().splitlines()
        det = dataio.detection_from_record(json.loads(lines[3]), manifest, "here")
        iid = next(i.id for i in instances if (i.image_id, i.bbox) == (det.image_id, det.bbox))
        path.write_text("\n".join([*lines, lines[3]]) + "\n")
        out = tmp_path / "p.jsonl"
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: instance {iid!r}: expected exactly one prediction at its box, found 2\n"
        )
        assert not out.exists()

    def test_fuse_predictions_equals_the_fuse_command(self, tmp_path):
        """The rows of fuse_predictions are the fused JSONL of posekit fuse
        --preds on the saved scene, value for value and in the same order."""
        scene = synth.generate_scene(3, 40, synth.noise_preset("moderate"), bank_size=200)
        fused = cli.fuse_predictions(scene, cli.match_by_box(scene.instances, scene.detections))
        ds, out = tmp_path / "ds", tmp_path / "fused.jsonl"
        dataio.save_dataset(scene, ds)
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                       "--out", str(out)])
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        rows = [(r["id"], {int(k): tuple(v) for k, v in r["keypoints"].items()}) for r in records]
        assert rows == list(fused.items())

    def test_fuse_predictions_keeps_the_instances_keypoints(self):
        """Only the fuse command drops the annotated keypoints it reads; the
        in-memory fuse leaves the caller's instances as they were."""
        scene = synth.generate_scene(3, 12, synth.noise_preset("moderate"), bank_size=20)
        before = [dict(inst.keypoints) for inst in scene.instances]
        assert all(before)
        cli.fuse_predictions(scene, cli.match_by_box(scene.instances, scene.detections))
        assert [inst.keypoints for inst in scene.instances] == before

    def test_missing_bank_file(self, tmp_path):
        ds = _synth(tmp_path, n=2)
        rc = cli.main(
            [
                "fuse",
                "--dataset",
                str(ds),
                "--prior-bank",
                str(tmp_path / "absent.jsonl"),
                "--out",
                str(tmp_path / "p.jsonl"),
            ]
        )
        assert rc == 3


class TestMatchByBox:
    """Known-box pairing: each instance takes the one detection at its image
    id and exact box."""

    class _Probe(metrics.Detection):
        """A Detection that a weak reference can watch (no __slots__ here)."""

    @staticmethod
    def _inst(iid: str, box=(1.0, 2.0, 3.0, 4.0), image: str = "im0") -> metrics.Instance:
        return metrics.Instance(id=iid, image_id=image, class_name="car", bbox=box)

    @classmethod
    def _det(cls, box=(1.0, 2.0, 3.0, 4.0), image: str = "im0") -> metrics.Detection:
        return cls._Probe(image_id=image, class_name="car", bbox=box, score=0.5)

    def test_detection_at_no_instance_box_is_ignored_and_dropped_at_once(self):
        a, b = self._inst("a"), self._inst("b", box=(5.0, 5.0, 2.0, 2.0))
        at_a, at_b = self._det(), self._det(box=b.bbox)
        dropped = []

        def stream():
            # a stray (another box, then a's box in another image), then a match
            for box, image, match in [((1.0, 2.0, 3.0, 5.0), "im0", at_a), (a.bbox, "im1", at_b)]:
                stray = self._det(box, image)
                ref = weakref.ref(stray)
                yield stray
                del stray
                yield match
                # match_by_box's loop now holds the match: only its index
                # could still hold the stray
                dropped.append(ref() is None)

        assert cli.match_by_box([a, b], stream()) == {"a": at_a, "b": at_b}
        assert dropped == [True, True]

    @pytest.mark.parametrize("found", [0, 2])
    def test_the_first_instance_in_order_without_one_candidate_is_named(self, found):
        boxes = [(float(i), 0.0, 1.0, 1.0) for i in range(3)]
        insts = [self._inst(iid, box) for iid, box in zip("xyz", boxes)]
        dets = [self._det(boxes[0])] + [self._det(boxes[1])] * found
        with pytest.raises(dataio.ValidationError) as exc:
            cli.match_by_box(insts, dets)
        assert str(exc.value) == (
            f"instance 'y': expected exactly one prediction at its box, found {found}"
        )

    def test_two_instances_at_one_box_see_the_same_candidates(self):
        insts = [self._inst("a"), self._inst("b")]
        det = self._det()
        matched = cli.match_by_box(insts, [det])
        assert list(matched) == ["a", "b"] and matched["a"] is matched["b"] is det
        with pytest.raises(dataio.ValidationError) as exc:
            cli.match_by_box(insts, [det, self._det()])
        assert str(exc.value) == "instance 'a': expected exactly one prediction at its box, found 2"


class TestFuseFirstError:
    """fuse_predictions is the fuse command without the files: it reports
    the command's first fault. Classes are fused in sorted order; within a
    class its map faults come first, in reading order, then its members in
    id order. So a bad instance of the class fused first is named even when
    a bad instance of a later class has a smaller id."""

    @staticmethod
    def _break(dataset, viewpoints, iid, kind):
        inst = next(i for i in dataset.instances if i.id == iid)
        if kind == "viewpoint":
            # in memory the match is gone; on disk its detection has no viewpoint
            det = viewpoints.pop(iid)
            dataset.detections[dataset.detections.index(det)] = dataclasses.replace(
                det, viewpoint=None
            )
            return f"instance {iid!r}: no viewpoint to condition on"
        if kind == "bank":
            del dataset.prior_banks[inst.class_name]
            return f"instance {iid!r}: no prior bank for class {inst.class_name!r}"
        if kind == "none":
            del dataset.response_maps[iid]
        else:
            dataset.response_maps[iid] = {"fine": dataset.response_maps[iid]["fine"]}
        return f"instance {iid!r}: needs both fine and coarse response maps"

    @staticmethod
    def _fuse_saved(dataset, root, capsys):
        """posekit fuse --preds on a save_dataset copy: (exit code, stderr)."""
        ds = root / "saved"
        dataio.save_dataset(dataset, ds)
        capsys.readouterr()
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                       "--out", str(root / "fused.jsonl")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "other, head",
        [("viewpoint", "maps"), ("bank", "viewpoint"), ("maps", "viewpoint"), ("none", "viewpoint")],
    )
    def test_bad_instance_of_the_first_class_is_reported(self, tmp_path, capsys, other, head):
        scene = synth.generate_scene(3, 30, synth.noise_preset("mild"), bank_size=50)
        dataset = dataclasses.replace(
            scene, detections=list(scene.detections), prior_banks=dict(scene.prior_banks),
            response_maps=dict(scene.response_maps),
        )
        viewpoints = cli.match_by_box(scene.instances, scene.detections)
        ids = sorted(dataset.response_maps)
        cls_of = {inst.id: inst.class_name for inst in scene.instances}
        # the head class sorts first by name, so it is fused first; a bad
        # instance of another class sorts before the head's bad instance
        head_cls = cls_of[ids[0]]
        assert head_cls == min(cls_of.values())
        early = next(i for i in ids if cls_of[i] != head_cls)
        head_bad = [i for i in ids if cls_of[i] == head_cls][-1]
        assert early < head_bad
        self._break(dataset, viewpoints, early, other)
        expected = self._break(dataset, viewpoints, head_bad, head)
        with pytest.raises(dataio.ValidationError) as exc:
            cli.fuse_predictions(dataset, viewpoints)
        assert str(exc.value) == expected
        assert self._fuse_saved(dataset, tmp_path, capsys) == (2, f"error: {expected}\n")

    @pytest.mark.parametrize(
        "kinds", [("fine",), ("coarse",), ("coarse", "fine")], ids=["fine", "coarse", "both"]
    )
    @pytest.mark.parametrize("channels", [2, 7])
    def test_maps_of_another_channel_count_refused(self, tmp_path, capsys, channels, kinds):
        """A sofa has 6 keypoints: maps with 2 or 7 channels, of one kind or
        both, are refused in memory naming the instance and the first kind
        read, and by the command naming that blob; none is fused to fewer
        keypoints. The map fault comes before the missing viewpoint of a
        sofa whose id sorts first."""
        scene = synth.generate_scene(3, 12, synth.noise_preset("moderate"))
        first, sofa = sorted(inst.id for inst in scene.instances if inst.class_name == "sofa")
        assert len(scene.manifest.keypoint_names["sofa"]) == 6
        maps = dict(scene.response_maps[sofa])
        for kind in kinds:
            maps[kind] = np.resize(maps[kind], (channels, *maps[kind].shape[1:]))
        dataset = dataclasses.replace(
            scene, detections=list(scene.detections),
            response_maps={**scene.response_maps, sofa: maps},
        )
        viewpoints = cli.match_by_box(scene.instances, scene.detections)
        self._break(dataset, viewpoints, first, "viewpoint")
        size = maps[kinds[0]].shape[-1]
        shape = f"shape ({channels}, {size}, {size}), expected (6, {size}, {size})"
        with pytest.raises(dataio.ValidationError) as exc:
            cli.fuse_predictions(dataset, viewpoints)
        assert str(exc.value) == f"instance {sofa!r} {kinds[0]} maps: {shape}"
        assert self._fuse_saved(dataset, tmp_path, capsys) == (
            2, f"error: {sofa}_{kinds[0]}.vkrm: {shape}\n"
        )


class TestEvaluateKeypoints:
    def test_pck_after_fuse_is_perfect(self, tmp_path):
        """Fused noiseless maps land within a grid cell of every keypoint."""
        ds = _synth(tmp_path, n=10)
        preds = tmp_path / "preds.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(preds)]) == 0
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate-keypoints",
                "--dataset",
                str(ds),
                "--preds",
                str(preds),
                "--mode",
                "pck",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        assert sections["pck/mean"]["all"] == 1.0
        assert "pck/pooled" in sections
        assert "pair0_left" in sections["pck/car"]

    def test_apk_mode(self, tmp_path):
        ds = _synth(tmp_path, n=10)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate-keypoints",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--mode",
                "apk",
                "--lambda",
                "0.3",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        assert sections["apk/mean"]["all"] == 1.0
        assert "pair0_right" in sections["apk/car"]

    @pytest.mark.parametrize("lam", ["3", "-2"])
    def test_overflowing_rescore_exits_2_naming_the_hypothesis(self, tmp_path, capsys, lam):
        """Scores of 1e308 are finite, but their mix is not at these lambdas:
        inf - inf at 3, -inf + inf at -2."""
        ds = _synth(tmp_path, n=2)
        path = ds / "detections.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for record in records:
            record["score"] = 1e308
            for hyp in record["keypoint_hypotheses"].values():
                hyp[2] = 1e308
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        rc = cli.main(
            ["evaluate-keypoints", "--dataset", str(ds), "--preds", str(path),
             "--mode", "apk", "--lambda", lam]
        )
        assert rc == 2
        err = capsys.readouterr().err
        first = records[0]
        assert f"image {first['image_id']}, class {first['class']!r}, keypoint 0:" in err
        assert f"lambda {float(lam)}" in err

    def test_apk_names_the_instances_line_before_the_detections_line(self, tmp_path, capsys):
        """apk reads the ground truth before the detections, so with a bad
        line in each file the instances.jsonl line is the one named."""
        ds = _synth(tmp_path, n=4)
        for name in ("instances.jsonl", "detections.jsonl"):
            lines = (ds / name).read_text(encoding="utf-8").splitlines(keepends=True)
            lines[1] = "not json\n"
            (ds / name).write_text("".join(lines), encoding="utf-8")
        rc = cli.main(
            ["evaluate-keypoints", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
             "--mode", "apk"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: instances.jsonl:2: bad JSON (Expecting value)\n"

    def test_apk_builds_each_hypothesis_once(self, tmp_path, monkeypatch):
        """Rescoring ranks the loaded hypotheses; it builds no second copy."""
        ds = _synth(tmp_path, n=10)
        path = ds / "detections.jsonl"
        in_file = sum(
            len(json.loads(line)["keypoint_hypotheses"])
            for line in path.read_text(encoding="utf-8").splitlines()
        )
        built = []
        init = metrics.KeypointHypothesis.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(metrics.KeypointHypothesis, "__init__", counted)
        rc = cli.main(
            ["evaluate-keypoints", "--dataset", str(ds), "--preds", str(path), "--mode", "apk"]
        )
        assert rc == 0
        assert in_file > 0
        assert len(built) == in_file

    def test_detection_file_rejected_for_pck(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=2)
        rc = cli.main(
            [
                "evaluate-keypoints",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--mode",
                "pck",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda r: r.update(id="nosuch"), "unknown instance id 'nosuch'"),
            (lambda r: r["keypoints"].update({"99": [1.0, 2.0]}),
             "keypoint id 99 out of range ({k} keypoints)"),
        ],
        ids=["unknown-id", "keypoint-out-of-range"],
    )
    def test_pck_refuses_a_prediction_outside_the_dataset(self, tmp_path, capsys, spoil, message):
        """A fused line must name a known instance and only its class's keypoints."""
        ds = _synth(tmp_path, n=4)
        fused = tmp_path / "fused.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(fused)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in fused.read_text(encoding="utf-8").splitlines()]
        manifest, instances = dataio.load_ground_truth(ds)
        cls = next(inst.class_name for inst in instances if inst.id == records[2]["id"])
        spoil(records[2])
        fused.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        rc = cli.main(
            ["evaluate-keypoints", "--dataset", str(ds), "--preds", str(fused), "--mode", "pck"]
        )
        assert rc == 2
        k = len(manifest.keypoint_names[cls])
        assert capsys.readouterr().err == f"error: fused.jsonl:3: {message.format(k=k)}\n"

    def test_mode_choices_enforced(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "evaluate-keypoints",
                    "--dataset",
                    "x",
                    "--preds",
                    "y",
                    "--mode",
                    "oks",
                ]
            )
        assert exc.value.code == 2


class TestDiagnoseCommand:
    def test_full_diagnosis_sections(self, tmp_path):
        ds = _synth(tmp_path, seed=17, n=18)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "diagnose",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--slices",
                "size,occlusion,truncation",
                "--error-modes",
                "--left-right",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        for name in (
            "slice/small",
            "slice/medium",
            "slice/large",
            "slice/occluded",
            "slice/truncated",
            "error-modes",
            "pck",
            "left-right-pck",
        ):
            assert name in sections
        assert sections["error-modes"]["correct"] == 100.0
        assert sections["error-modes"]["count"] == 18.0
        assert sections["slice/small"]["acc"] == 1.0
        assert sections["slice/small"]["mederr_deg"] == 0.0
        assert sections["pck"]["all"] == 1.0
        assert sections["left-right-pck"]["all"] == 1.0

    def test_empty_slice_reports_absent(self, tmp_path, capsys):
        """A slice nothing falls into renders as absent, not a crash."""
        ds = _synth(tmp_path, seed=3, n=4)
        flags = [
            json.loads(line)["occluded"]
            for line in (ds / "instances.jsonl").read_text().splitlines()
            if line
        ]
        if any(flags):  # only exercises the empty-slice path when none are set
            pytest.skip("seed produced occluded instances")
        rc = cli.main(
            [
                "diagnose",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--slices",
                "occlusion",
            ]
        )
        assert rc == 0
        assert "absent" in capsys.readouterr().out

    def test_requires_a_request(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=3)
        rc = cli.main(
            ["diagnose", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl")]
        )
        assert rc == 2
        assert "nothing to diagnose" in capsys.readouterr().err

    def test_request_checked_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        rc = cli.main(
            ["diagnose", "--dataset", str(missing), "--preds", str(missing / "detections.jsonl")]
        )
        assert rc == 2
        assert "nothing to diagnose" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "empty, message",
        [
            (True, "instances.jsonl holds no instances"),
            (False, "no instances left after class exclusion"),
        ],
        ids=["empty-file", "all-excluded"],
    )
    def test_no_instance_to_diagnose_names_the_cause(self, tmp_path, capsys, empty, message):
        """An empty instances file is not reported as a class exclusion."""
        ds = _synth(tmp_path, n=3)
        if empty:
            (ds / "instances.jsonl").write_text("")
            (ds / "detections.jsonl").write_text("")
        else:
            manifest = json.loads((ds / "manifest.json").read_text())
            manifest["excluded_classes"] = manifest["classes"]
            (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(
            [
                "diagnose", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                "--slices", "size",
            ]
        )
        assert rc == 2
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_unknown_slice_token(self, tmp_path, capsys):
        ds = _synth(tmp_path, n=3)
        rc = cli.main(
            [
                "diagnose",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--slices",
                "size,banana",
            ]
        )
        assert rc == 2
        assert "unknown slice" in capsys.readouterr().err

    def test_error_modes_count_flipped(self, tmp_path):
        """Forced azimuth flips land in the pi_flip bucket."""
        profile = tmp_path / "flips.json"
        profile.write_text(json.dumps({"pi_flip_prob": 1.0}))
        ds = _synth(tmp_path, seed=9, n=15, noise=str(profile))
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "diagnose",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--error-modes",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        rows = _machine(out)["sections"]["error-modes"]
        assert rows["pi_flip"] == 100.0
        assert rows["correct"] == 0.0


class TestReportFormats:
    def test_unknown_format_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "evaluate-viewpoint",
                    "--dataset",
                    "x",
                    "--preds",
                    "y",
                    "--gt-boxes",
                    "--format",
                    "yaml",
                ]
            )
        assert exc.value.code == 2

    def test_machine_report_is_deterministic(self, tmp_path):
        ds = _synth(tmp_path, n=8)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = cli.main(
                [
                    "evaluate-viewpoint",
                    "--dataset",
                    str(ds),
                    "--preds",
                    str(ds / "detections.jsonl"),
                    "--detections",
                    "--report",
                    str(out),
                    "--format",
                    "machine",
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_machine_report_has_schema_version(self, tmp_path):
        ds = _synth(tmp_path, n=4)
        out = tmp_path / "r.json"
        rc = cli.main(
            [
                "evaluate-viewpoint",
                "--dataset",
                str(ds),
                "--preds",
                str(ds / "detections.jsonl"),
                "--gt-boxes",
                "--report",
                str(out),
                "--format",
                "machine",
            ]
        )
        assert rc == 0
        assert _machine(out)["schema_version"] == 1


class TestInputsRead:
    def test_evaluate_commands_skip_response_maps(self, tmp_path, capsys):
        """Only fuse reads the VKRM blobs; a corrupt one fails fuse alone."""
        ds = _synth(tmp_path, n=6)
        fused = tmp_path / "fused.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(fused)]) == 0
        blob = sorted((ds / "responses").glob("*.vkrm"))[0]
        blob.write_bytes(b"not a response map")
        dets = str(ds / "detections.jsonl")
        for args in (
            ["evaluate-viewpoint", "--preds", dets, "--gt-boxes"],
            ["evaluate-viewpoint", "--preds", dets, "--detections"],
            ["evaluate-keypoints", "--preds", str(fused), "--mode", "pck"],
            ["evaluate-keypoints", "--preds", dets, "--mode", "apk"],
            ["diagnose", "--preds", dets, "--slices", "size", "--error-modes", "--left-right"],
        ):
            assert cli.main(args + ["--dataset", str(ds)]) == 0, args
        capsys.readouterr()
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(tmp_path / "again.jsonl")])
        assert rc == 2
        assert blob.name in capsys.readouterr().err

    def test_fuse_reads_each_blob_once_and_checks_rotations_once(self, tmp_path, monkeypatch):
        """No redundant loading work: one read per VKRM blob, and one rotation
        check for the whole bank file rather than one per row."""
        ds = _synth(tmp_path, n=6)
        n = len((ds / "instances.jsonl").read_text().splitlines())
        rows = len((ds / "prior_bank.jsonl").read_text().splitlines())
        assert n >= 6 and rows > 1
        calls = {"read_response_map": 0, "check_rotations": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            dataio, "read_response_map", counted("read_response_map", dataio.read_response_map)
        )
        check = counted("check_rotations", so3.check_rotations)
        monkeypatch.setattr(dataio, "check_rotations", check)
        monkeypatch.setattr(so3, "check_rotations", check)  # reached via rotation_matrix
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                       "--out", str(tmp_path / "fused.jsonl")])
        assert rc == 0
        assert calls == {"read_response_map": 2 * n, "check_rotations": 1}

    def test_fuse_holds_one_class_of_maps_at_a_time(self, tmp_path, monkeypatch):
        """When the first blob of a class is read, no map of an earlier
        class is still alive: fuse reads, fuses and frees class by class.
        While a class is fused, no per-blob array is alive (each was copied
        into its class's stack), nor any detection that carries keypoint
        hypotheses (only box and viewpoint outlive a detection's line), nor
        any instance of the command that carries keypoints."""
        ds = _synth(tmp_path, n=12)
        _, instances = dataio.load_ground_truth(ds)
        class_of = {inst.id: inst.class_name for inst in instances}
        read = dataio.read_response_map
        alive: list[tuple[str, weakref.ref]] = []
        order, stale = [], []

        def watched(path):
            cls = class_of[os.path.basename(path).rpartition("_")[0]]
            if cls not in order:
                order.append(cls)
                stale.extend(c for c, ref in alive if ref() is not None)
            class_id, data = read(path)
            alive.append((cls, weakref.ref(data)))
            return class_id, data

        # a Detection or Instance has slots and no weakref slot: find the
        # live ones among the collector's objects, by the ids of those built
        # here, that still carry keypoints
        built = {metrics.Detection: set(), metrics.Instance: set()}

        def carrying(kind: type) -> int:
            return sum(
                1 for obj in gc.get_objects()
                if id(obj) in built[kind] and type(obj) is kind
                and (obj.keypoints if kind is metrics.Instance else obj.keypoint_hypotheses)
            )

        def tracked(name: str, kind: type):
            build = getattr(dataio, name)

            def wrapper(*args):
                record = build(*args)
                built[kind].add(id(record))
                if len(built[kind]) == 1:
                    assert carrying(kind) == 1  # the probe sees a live one
                return record

            monkeypatch.setattr(dataio, name, wrapper)

        fuse = fusion.fuse_instances
        held = []  # live (blob arrays, detections, instances) with their data, per class

        def fused(rs, bank, fine, coarse, *args):
            blobs = sum(ref() is not None for _, ref in alive)
            held.append((blobs, carrying(metrics.Detection), carrying(metrics.Instance)))
            assert fine.shape[0] == coarse.shape[0] == len(rs)
            return fuse(rs, bank, fine, coarse, *args)

        monkeypatch.setattr(dataio, "read_response_map", watched)
        tracked("detection_from_record", metrics.Detection)
        tracked("instance_from_record", metrics.Instance)
        monkeypatch.setattr(fusion, "fuse_instances", fused)
        rc = cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                       "--out", str(tmp_path / "fused.jsonl")])
        assert rc == 0
        assert order == sorted(set(class_of.values())) and len(order) == 3
        assert stale == []
        assert len(alive) == 2 * len(instances)
        assert len(built[metrics.Detection]) >= len(instances)
        assert len(built[metrics.Instance]) == len(instances)
        assert held == [(0, 0, 0)] * 3

    def test_fuse_makes_one_distance_pass_per_chunk_of_a_class(self, tmp_path, monkeypatch):
        """Neighbour search runs once per stacked chunk, ceil(n_c / chunk)
        passes for a class of n_c instances, not once per instance."""
        ds = _synth(tmp_path, n=12)
        banks = {}
        load_banks = dataio.load_prior_banks

        def kept_banks(*args, **kwargs):
            banks.update(load_banks(*args, **kwargs))
            return banks

        passes = Counter()
        distances = fusion.geodesic_distances

        def counted(r, rs):
            passes[id(rs)] += 1
            return distances(r, rs)

        monkeypatch.setattr(dataio, "load_prior_banks", kept_banks)
        monkeypatch.setattr(fusion, "geodesic_distances", counted)
        monkeypatch.setattr(fusion, "FUSE_CHUNK", 3)
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(tmp_path / "fused.jsonl")])
        assert rc == 0
        _, instances = dataio.load_ground_truth(ds)
        per_class = Counter(inst.class_name for inst in instances)
        assert max(per_class.values()) > 3
        assert {cls: passes[id(banks[cls].rotations)] for cls in per_class} == {
            cls: math.ceil(n / 3) for cls, n in per_class.items()
        }
        assert sum(passes.values()) == sum(math.ceil(n / 3) for n in per_class.values())


class TestImports:
    def test_known_box_commands_skip_numpy_ma(self, tmp_path):
        """evaluate-viewpoint --gt-boxes and diagnose take their medians
        without importing numpy.ma, in a fresh process."""
        ds = _synth(tmp_path, n=12, noise="moderate")
        dets = str(ds / "detections.jsonl")
        script = "; ".join(
            [
                "import sys",
                "from posekit import cli",
                "ds, dets, out = sys.argv[1:]",
                "assert cli.main(['evaluate-viewpoint', '--dataset', ds, '--preds', dets,"
                " '--gt-boxes', '--report', out + '/vp.txt']) == 0",
                "assert cli.main(['diagnose', '--dataset', ds, '--preds', dets, '--slices',"
                " 'size', '--error-modes', '--left-right', '--report', out + '/dx.txt']) == 0",
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'",
            ]
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ds), dets, str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestThresholdFlags:
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "0"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["evaluate-viewpoint", "--detections"], "--theta"),
            (["evaluate-keypoints", "--mode", "apk"], "--alpha"),
            (["diagnose", "--error-modes"], "--theta"),
            (["diagnose", "--left-right"], "--alpha"),
        ],
    )
    def test_rejects_non_positive_or_non_finite(self, capsys, command, flag, value):
        args = command + ["--dataset", "ds", "--preds", "p.jsonl", flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["fuse"], "--w-fine", "-1"),
            (["fuse"], "--w-fine", "nan"),
            (["fuse"], "--w-coarse", "-0.5"),
            (["fuse"], "--w-coarse", "inf"),
            (["fuse"], "--sigma", "-1"),
            (["fuse"], "--sigma", "nan"),
            (["fuse"], "--threshold", "-1"),
            (["fuse"], "--threshold", "0"),
            (["fuse"], "--threshold", "inf"),
            (["evaluate-viewpoint", "--preds", "p.jsonl", "--detections"], "--bins", "0"),
            (["evaluate-viewpoint", "--preds", "p.jsonl", "--detections"], "--bins", "-3"),
            (["evaluate-viewpoint", "--preds", "p.jsonl", "--detections"], "--bins", "2.5"),
            (["evaluate-keypoints", "--preds", "p.jsonl", "--mode", "apk"], "--lambda", "nan"),
            (["evaluate-keypoints", "--preds", "p.jsonl", "--mode", "apk"], "--lambda", "-inf"),
            (["synth", "--n", "2"], "--seed", "-1"),
            (["synth", "--n", "2"], "--seed", "1.5"),
            (["synth", "--seed", "1"], "--n", "-3"),
            (["synth", "--seed", "1"], "--n", "2.5"),
        ],
    )
    def test_rejected_at_the_parser(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "fused.jsonl"
        args = command + [flag, value]
        if command[0] != "synth":
            args += ["--dataset", "ds"]
        if command[0] in ("fuse", "synth"):
            args += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_values_accepted(self, tmp_path):
        ds = _synth(tmp_path, n=4, noise="mild")
        out = tmp_path / "fused.jsonl"
        rc = cli.main(
            ["fuse", "--dataset", str(ds), "--w-fine", "0", "--w-coarse", "0", "--out", str(out)]
        )
        assert rc == 0 and out.exists()
        rc = cli.main(
            [
                "evaluate-viewpoint", "--dataset", str(ds), "--preds",
                str(ds / "detections.jsonl"), "--detections", "--bins", "1",
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "evaluate-keypoints", "--dataset", str(ds), "--preds",
                str(ds / "detections.jsonl"), "--mode", "apk", "--lambda", "-2",
            ]
        )
        assert rc == 0


class TestManifestFieldTypes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("classes", "car"),
            ("classes", [1, 2]),
            ("keypoint_names", ["a", "b"]),
            ("keypoint_names", {"car": "abc"}),
            ("symmetry_pairs", []),
            ("symmetry_pairs", {"car": {"0": "1"}}),
            ("excluded_classes", "car"),
            ("schema_version", True),
            ("euler_convention", 7),
        ],
    )
    def test_wrong_type_exits_2_naming_the_field(self, tmp_path, capsys, field, value):
        ds = _synth(tmp_path, n=3)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest[field] = value
        (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(
            [
                "evaluate-viewpoint", "--dataset", str(ds), "--preds",
                str(ds / "detections.jsonl"), "--gt-boxes",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"manifest.json: {field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            ("evaluate-keypoints", "keypoint_names", ["pair0_left"] * 8,
             "class 'car' repeats keypoint name 'pair0_left'"),
            ("diagnose", "excluded_classes", ["cars"], "excluded class 'cars' is not in classes"),
            ("diagnose", "excluded_classes", ["car", "car"],
             "excluded class 'car' is listed twice"),
        ],
        ids=["repeated-keypoint-name", "unknown-excluded-class", "repeated-excluded-class"],
    )
    def test_ambiguous_name_exits_2(self, tmp_path, capsys, command, field, value, message):
        ds = _synth(tmp_path, n=3)
        manifest = json.loads((ds / "manifest.json").read_text())
        if field == "keypoint_names":
            manifest[field]["car"] = value
        else:
            manifest[field] = value
        (ds / "manifest.json").write_text(json.dumps(manifest))
        extra = {"evaluate-keypoints": ["--mode", "apk"], "diagnose": ["--error-modes"]}[command]
        rc = cli.main(
            [command, "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"), *extra]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"manifest.json: {message}" in err
        assert "Traceback" not in err


class TestDiagnoseExclusion:
    def test_excluded_class_dropped_from_every_section(self, tmp_path):
        ds = _synth(tmp_path, seed=17, n=18)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["excluded_classes"] = ["car"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        classes = [
            json.loads(line)["class"]
            for line in (ds / "instances.jsonl").read_text().splitlines()
            if line
        ]
        assert 0 < classes.count("car") < len(classes)
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "diagnose", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                "--slices", "size", "--error-modes", "--left-right",
                "--report", str(out), "--format", "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        kept = len(classes) - classes.count("car")
        assert sections["error-modes"]["count"] == float(kept)
        for name in ("pck", "left-right-pck"):
            assert "car" not in sections[name]
            assert set(sections[name]) == set(classes) - {"car"} | {"all"}

    def test_excluded_instances_need_no_prediction(self, tmp_path):
        """Instances of an excluded class are dropped before pairing, so a
        missing detection for one of them is not an error."""
        ds = _synth(tmp_path, seed=3, n=12)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["excluded_classes"] = ["car"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        instances = [
            json.loads(line) for line in (ds / "instances.jsonl").read_text().splitlines() if line
        ]
        car = next(inst for inst in instances if inst["class"] == "car")
        lines = (ds / "detections.jsonl").read_text().splitlines(keepends=True)
        kept_lines = [
            line for line in lines
            if not (json.loads(line)["image_id"] == car["image_id"]
                    and json.loads(line)["bbox"] == car["bbox"])
        ]
        assert len(kept_lines) == len(lines) - 1
        (ds / "detections.jsonl").write_text("".join(kept_lines))
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                "diagnose", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                "--slices", "size,occlusion,truncation", "--error-modes", "--left-right",
                "--report", str(out), "--format", "machine",
            ]
        )
        assert rc == 0
        sections = _machine(out)["sections"]
        kept = [inst for inst in instances if inst["class"] != "car"]
        assert sections["error-modes"]["count"] == float(len(kept))
        for name in ("pck", "left-right-pck"):
            assert set(sections[name]) == {inst["class"] for inst in kept} | {"all"}
        assert not any("car" in name or "car" in rows for name, rows in sections.items())

    def test_every_class_excluded_refused_before_reading_preds(self, tmp_path, capsys):
        ds = _synth(tmp_path, seed=3, n=12)
        manifest = json.loads((ds / "manifest.json").read_text())
        manifest["excluded_classes"] = manifest["classes"]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(
            [
                "diagnose", "--dataset", str(ds), "--preds", str(tmp_path / "missing.jsonl"),
                "--error-modes",
            ]
        )
        assert rc == 2
        assert "no instances left after class exclusion" in capsys.readouterr().err


class TestCollectorPause:
    """cli.main runs its command with the cyclic garbage collector off."""

    @pytest.mark.parametrize("caller_collects", [True, False])
    def test_paused_for_the_command_and_caller_setting_restored(
        self, tmp_path, monkeypatch, caller_collects
    ):
        ds = _synth(tmp_path)
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        runs = {  # exit code -> (dataset, preds)
            0: (ds, ds / "detections.jsonl"),
            2: (ds, garbled),
            3: (tmp_path / "missing", ds / "detections.jsonl"),
        }
        seen = []
        load = dataio.load_manifest  # every command's first read, the exit-3 run's too

        def spy(*args):
            seen.append(gc.isenabled())
            return load(*args)

        monkeypatch.setattr(dataio, "load_manifest", spy)
        was = gc.isenabled()
        try:
            for code, (dataset, preds) in runs.items():
                (gc.enable if caller_collects else gc.disable)()
                argv = ["evaluate-viewpoint", "--gt-boxes", "--dataset", str(dataset)]
                assert cli.main([*argv, "--preds", str(preds)]) == code
                assert gc.isenabled() is caller_collects
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * len(runs)

    def test_commands_leave_no_garbage_that_grows_with_the_input(self, tmp_path):
        """What the collector would find after each command is the same at
        n = 12 and n = 48 (the argument parser's own cycles), so no record
        type or loader makes reference cycles per record, and pausing the
        collector for a command leaks nothing that grows with its input.
        A first pass at n = 12 settles one-time lazy set-up; each pass
        writes its own dataset directory."""

        def commands(run: int, n: int) -> list[list[str]]:
            ds, out = tmp_path / f"ds{run}", tmp_path / f"out{run}"
            dets, fused, report = str(ds / "detections.jsonl"), str(out), str(out) + ".json"
            evaluate = ["--dataset", str(ds), "--report", report]
            return [
                ["synth", "--seed", "5", "--n", str(n), "--noise", "heavy", "--out", str(ds)],
                ["fuse", "--dataset", str(ds), "--preds", dets, "--out", fused],
                ["evaluate-viewpoint", *evaluate, "--preds", dets, "--gt-boxes"],
                ["evaluate-viewpoint", *evaluate, "--preds", dets, "--detections"],
                ["evaluate-keypoints", *evaluate, "--preds", fused, "--mode", "pck"],
                ["evaluate-keypoints", *evaluate, "--preds", dets, "--mode", "apk"],
                [
                    "diagnose", *evaluate, "--preds", dets,
                    "--slices", "size,occlusion,truncation", "--error-modes", "--left-right",
                ],
            ]

        was = gc.isenabled()
        gc.disable()
        try:
            found = {}
            for run, n in enumerate((12, 12, 48)):
                gc.collect()
                counts = []
                for argv in commands(run, n):
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert cli.main(argv) == 0, argv
                    counts.append(gc.collect())
                found[n] = counts
        finally:
            (gc.enable if was else gc.disable)()
        assert found[48] == found[12]


@pytest.fixture(scope="module")
def moderate_scene(tmp_path_factory) -> Path:
    """The seeded moderate scene whose CLI outputs are pinned by digest."""
    ds = tmp_path_factory.mktemp("moderate") / "scene"
    scene = synth.generate_scene(1, 60, synth.noise_preset("moderate"), bank_size=200)
    dataio.save_dataset(scene, ds)
    return ds


class TestKnownBoxReportBytes:
    """The known-box reports of a seeded moderate scene, pinned by digest.

    The digests were recorded from the reports as they stood before
    slices became named instance lists; any change to the bytes of
    either report fails here.
    """

    DIGESTS = {
        "evaluate-viewpoint": "5eb3b63bcfb52f4c2deb776d00ad0687465bfbdf53894ee6686ac9658fca0f65",
        "diagnose": "5a372ee4b614b2fa7ea854bddfe52bad9011c830eb50125e29a270d2635c3b9b",
    }
    FLAGS = {
        "evaluate-viewpoint": ["--gt-boxes"],
        "diagnose": ["--slices", "size,occlusion,truncation", "--error-modes", "--left-right"],
    }

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_report_digest(self, tmp_path, moderate_scene, command):
        ds = moderate_scene
        out = tmp_path / "report.json"
        rc = cli.main(
            [
                command, "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                *self.FLAGS[command], "--report", str(out), "--format", "machine",
            ]
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[command]


class TestCliOutputBytes:
    """The other CLI outputs of the same scene, pinned by digest: fused
    keypoints under predicted and under annotated viewpoints, PCK of the
    first, APK, and the detection-setting viewpoint report.

    The digests were recorded while the package still re-exported its
    modules' names; any change to the bytes of an output fails here.
    """

    DIGESTS = {
        "fuse-preds": "4aa7f53b242d16d78f36dfa82e8300707ce9b46be66ac9e025ae828f03e67ee3",
        "fuse-annotated": "e349a5434d8a849dbf83a6242c69872a5263a2da88e2e0b322e4a2567a491807",
        "pck": "010eeae8322b9a0e320a66dcb3bca8fb7714e5ed922b47f9b6b2da0298d3100c",
        "apk": "a5be20e4a25134c3093a936bca1cc35142293b00e3b314dfdc3038c4c10198b9",
        "viewpoint-detections": "c408a0558c0c89ef1975ebdffd36de4ac1c8cbac6900f00ba9418c719a50c170",
    }

    @pytest.fixture(scope="class")
    def outputs(self, moderate_scene, tmp_path_factory) -> dict[str, bytes]:
        """Run each command once, in order (pck reads the fuse-preds file);
        the last argument of each is the file it writes."""
        ds, dets = str(moderate_scene), str(moderate_scene / "detections.jsonl")
        out = tmp_path_factory.mktemp("outputs")
        fused = str(out / "fused.jsonl")
        machine = ["--format", "machine", "--report"]
        runs = {
            "fuse-preds": ["fuse", "--dataset", ds, "--preds", dets, "--out", fused],
            "fuse-annotated": ["fuse", "--dataset", ds, "--out", str(out / "annotated.jsonl")],
            "pck": [
                "evaluate-keypoints", "--dataset", ds, "--preds", fused, "--mode", "pck",
                *machine, str(out / "pck.json"),
            ],
            "apk": [
                "evaluate-keypoints", "--dataset", ds, "--preds", dets, "--mode", "apk",
                *machine, str(out / "apk.json"),
            ],
            "viewpoint-detections": [
                "evaluate-viewpoint", "--dataset", ds, "--preds", dets, "--detections",
                *machine, str(out / "viewpoint.json"),
            ],
        }
        written = {}
        for name, argv in runs.items():
            assert cli.main(argv) == 0, name
            written[name] = Path(argv[-1]).read_bytes()
        return written

    @pytest.mark.parametrize("output", list(DIGESTS))
    def test_output_digest(self, outputs, output):
        assert hashlib.sha256(outputs[output]).hexdigest() == self.DIGESTS[output]


def _set(field, value):
    def mutate(record):
        record[field] = value

    return mutate


def _set_keypoint(key, value):
    def mutate(record):
        record["keypoints"][key] = value

    return mutate


def _set_item(*at, value):
    """Set the entry at path `at` (keys and indices) inside the record."""

    def mutate(record):
        target = record
        for key in at[:-1]:
            target = target[key]
        target[at[-1]] = value

    return mutate


def _stringify(field):
    """Spell every number in a list of rows as a JSON string."""

    def mutate(record):
        record[field] = [[str(v) for v in row] for row in record[field]]

    return mutate


def _respell_keypoint(key):
    """Add keypoint 0's entry again under another spelling of its id."""

    def mutate(record):
        record["keypoints"][key] = record["keypoints"]["0"]

    return mutate


class TestBoundaryErrors:
    """Malformed records exit 2 naming file and line, never with a traceback."""

    @pytest.mark.parametrize(
        "name, mutate",
        [
            ("instances.jsonl", _set("class", ["car"])),
            ("detections.jsonl", _set("class", {"a": 1})),
            ("prior_bank.jsonl", _set("keypoints", 5)),
            ("fused.jsonl", _set_keypoint("0", [None, 1.0])),
            ("instances.jsonl", _respell_keypoint("00")),
            ("instances.jsonl", _set("occluded", "no")),
            ("instances.jsonl", _set("truncated", 0)),
            ("instances.jsonl", _set_item("keypoints", "0", 2, value="no")),
            ("instances.jsonl", _set("id", {"a": 1})),
            ("instances.jsonl", _set("image_id", 7)),
            ("instances.jsonl", _set_item("bbox", 2, value="40.0")),
            ("instances.jsonl", _set_item("viewpoint", "azimuth", value=True)),
            ("instances.jsonl", _set_item("keypoints", "0", 0, value="1.5")),
            ("detections.jsonl", _set("score", "0.5")),
            ("detections.jsonl", _set("image_id", None)),
            ("detections.jsonl", _set_item("bbox", 0, value=False)),
            ("detections.jsonl", _set_item("viewpoint", "elevation", value="0")),
            ("detections.jsonl", _set_item("keypoint_hypotheses", "0", 2, value="1")),
            ("prior_bank.jsonl", _stringify("rotation")),
            ("prior_bank.jsonl", _stringify("keypoints")),
            ("prior_bank.jsonl", _set("rotation", [[True, False, False], [False, True, False],
                                                   [False, False, True]])),
            ("fused.jsonl", _set_keypoint("0", ["1.5", 1.0])),
            ("fused.jsonl", _set("id", 5)),
        ],
        ids=["instance-class-list", "detection-class-object", "bank-keypoints-int",
             "prediction-null-coordinate", "instance-keypoint-id-00",
             "instance-occluded-string", "instance-truncated-int", "instance-visible-string",
             "instance-id-object", "instance-image-id-int", "instance-bbox-string",
             "instance-azimuth-bool", "instance-keypoint-x-string", "detection-score-string",
             "detection-image-id-null", "detection-bbox-bool", "detection-elevation-string",
             "detection-hypothesis-score-string", "bank-rotation-strings",
             "bank-keypoints-strings", "bank-rotation-booleans", "prediction-x-string",
             "prediction-id-int"],
    )
    def test_exits_2_naming_file_and_line(self, tmp_path, capsys, name, mutate):
        ds = _synth(tmp_path, seed=1, n=4, noise="mild")
        fused = ds / "fused.jsonl"
        assert cli.main(["fuse", "--dataset", str(ds), "--out", str(fused)]) == 0
        path = ds / name
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        mutate(record)
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        preds = ["--preds", str(ds / "detections.jsonl")]
        argv = {
            "instances.jsonl": ["evaluate-viewpoint", *preds, "--gt-boxes"],
            "detections.jsonl": ["evaluate-viewpoint", *preds, "--gt-boxes"],
            "prior_bank.jsonl": ["fuse", "--out", str(tmp_path / "out.jsonl")],
            "fused.jsonl": ["evaluate-keypoints", "--preds", str(fused), "--mode", "pck"],
        }[name]
        rc = cli.main([*argv, "--dataset", str(ds)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {name}:2: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["instances.jsonl", "detections.jsonl", "manifest.json"])
    def test_non_utf8_exits_2_naming_file_and_line(self, tmp_path, capsys, name):
        ds = _synth(tmp_path, seed=1, n=4, noise="mild")
        path = ds / name
        raw = path.read_bytes()
        at = raw.index(b"\n", raw.index(b"\n") + 1) + 3  # in the third line
        path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at + 2:])
        capsys.readouterr()
        rc = cli.main(["evaluate-viewpoint", "--dataset", str(ds),
                       "--preds", str(ds / "detections.jsonl"), "--gt-boxes"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {name}:3: not UTF-8 (byte 0xff: invalid start byte)" in err

    def test_non_utf8_profile_exits_2_naming_file_and_line(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_bytes(b'{\n  "keypoint_jitter": 2.0\xff\n}\n')
        rc = cli.main(["synth", "--seed", "1", "--n", "2", "--noise-profile", str(profile),
                       "--out", str(tmp_path / "ds")])
        assert rc == 2
        assert "error: profile.json:2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["car", 1, None])
    def test_non_boolean_present_exits_2_naming_line(self, tmp_path, capsys, flag):
        ds = _synth(tmp_path, seed=1, n=4, noise="mild")
        path = ds / "prior_bank.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["present"] = [flag] * len(record["present"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = cli.main(["fuse", "--dataset", str(ds), "--out", str(tmp_path / "fused.jsonl")])
        assert rc == 2
        assert "error: prior_bank.jsonl:2: present must hold JSON booleans" in (
            capsys.readouterr().err
        )
