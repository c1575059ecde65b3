"""Property test of the dataset boundary: no mutated input file crashes the CLI.

A small valid synth dataset (one VKRM blob included), a fused prediction
file and a noise-profile file are mutated one file at a time: truncated or garbage bytes, a field
replaced by a value of another JSON type, a key added or removed, a number
replaced by a non-finite one, a keypoint id spelled non-canonically, a run
of bytes that is not UTF-8, a number of a JSONL record replaced by a numeric
string or a boolean, or a flag (`occluded`, `truncated`, `visible`, a bank
`present` entry) replaced by a value that is not a boolean.
Every subcommand then runs in process through cli.main. Each must exit 0,
2 (bad input) or 3 (I/O failure); any exception that escapes fails the test.
The last three mutations have a known culprit line: every command must then
exit 0 (it does not read the file) or 2 with that file and line in its
message, and at least one command must exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from posekit import cli, dataio, synth

TEXT_FILES = (
    "manifest.json",
    "instances.jsonl",
    "detections.jsonl",
    "prior_bank.jsonl",
    "fused.jsonl",
    "profile.json",
)
BLOB = "responses/inst000001_fine.vkrm"

OTHER_TYPES = (None, True, 0, -1, 2.5, "", "car", [], [None], ["car"], {}, {"a": 1})
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "-1" + "0" * 400)
BAD_IDS = ("00", "01", "+1", " 7", "-3", "1.0", "x")
NOT_BOOLEANS = tuple(v for v in OTHER_TYPES if not isinstance(v, bool))
NOT_NUMBERS = ("0", "1", "-2.5", "1e3", True, False)
# Bytes that cannot begin a UTF-8 sequence, so a run that starts with one is
# not UTF-8 wherever it lands in ASCII text.
NOT_UTF8_LEAD = (*range(0x80, 0xC2), *range(0xF5, 0x100))

# Hypothesis caches the constants it reads from local source files under its
# home directory, .hypothesis/ in the working directory unless told otherwise;
# its pytest plugin reads them during collection, before any fixture runs.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "posekit-hypothesis")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz-base")
    scene = synth.generate_scene(1, 4, synth.noise_preset("mild"), bank_size=3)
    dataio.save_dataset(scene, root)
    assert cli.main(["fuse", "--dataset", str(root), "--out", str(root / "fused.jsonl")]) == 0
    (root / "profile.json").write_text(json.dumps({"keypoint_jitter": 2.0}))
    return root


def _commands(ds: Path, out: Path) -> list[list[str]]:
    dets = ["--dataset", str(ds), "--preds", str(ds / "detections.jsonl")]
    report = ["--report", str(out / "report.txt")]
    return [
        ["evaluate-viewpoint", *dets, "--gt-boxes", *report],
        ["evaluate-viewpoint", *dets, "--detections", *report],
        ["evaluate-keypoints", "--dataset", str(ds), "--preds", str(ds / "fused.jsonl"),
         "--mode", "pck", *report],
        ["evaluate-keypoints", *dets, "--mode", "apk", *report],
        ["fuse", "--dataset", str(ds), "--out", str(out / "fused.jsonl")],
        ["fuse", *dets, "--out", str(out / "fused-pred.jsonl")],
        ["diagnose", *dets, "--slices", "size,occlusion,truncation", "--error-modes",
         "--left-right", *report],
        ["synth", "--seed", "2", "--n", "3", "--noise-profile", str(ds / "profile.json"),
         "--out", str(out / "synth")],
    ]


def _paths(value, prefix=()):
    """Every path (tuple of keys/indices) into a JSON value, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate_json(data, doc):
    """Mutate one parsed JSON document; returns the new text."""
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(("type", "keys", "non-finite", "ids")))
    if kind == "type":
        value = data.draw(st.sampled_from(OTHER_TYPES))
        path = data.draw(st.sampled_from(paths))
        if not path:
            return json.dumps(value)
        _at(doc, path[:-1])[path[-1]] = value
    elif kind == "keys":
        objects = [_at(doc, p) for p in paths if isinstance(_at(doc, p), dict)]
        if objects:
            obj = data.draw(st.sampled_from(objects))
            if obj and data.draw(st.booleans()):
                del obj[data.draw(st.sampled_from(sorted(obj)))]
            else:
                obj[data.draw(st.sampled_from(("extra", "id", "class", "0")))] = 1
    elif kind == "non-finite":
        numbers = [p for p in paths if type(_at(doc, p)) in (int, float)]
        if numbers:
            path = data.draw(st.sampled_from(numbers))
            constant = data.draw(st.sampled_from(NON_FINITE))
            if not path:
                return constant
            _at(doc, path[:-1])[path[-1]] = "@NONFINITE@"
            return json.dumps(doc).replace('"@NONFINITE@"', constant)
    else:
        maps = [
            _at(doc, p) for p in paths
            if isinstance(_at(doc, p), dict) and any(k.isdigit() for k in _at(doc, p))
        ]
        if maps:
            obj = data.draw(st.sampled_from(maps))
            key = data.draw(st.sampled_from(sorted(k for k in obj if k.isdigit())))
            bad = data.draw(st.sampled_from(BAD_IDS))
            obj[bad] = obj.pop(key) if data.draw(st.booleans()) else obj[key]
    return json.dumps(doc)


def _mutate(data, path: Path) -> str | None:
    """Mutate one file; returns the "file:line" a refusal must name, when known."""
    raw = path.read_bytes()
    kinds = ["bytes"]
    if path.suffix != ".vkrm":
        kinds += ["json"] * 4 + ["not-utf8"]
    if path.suffix == ".jsonl":
        kinds.append("number")
    if path.name in ("instances.jsonl", "prior_bank.jsonl"):
        kinds.append("flag")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "bytes":
        at = data.draw(st.integers(0, len(raw)))
        if data.draw(st.booleans()):
            path.write_bytes(raw[:at])
        else:
            garbage = data.draw(st.binary(min_size=1, max_size=8))
            path.write_bytes(raw[:at] + garbage + raw[at + len(garbage):])
        return None
    if kind == "not-utf8":
        at = data.draw(st.integers(0, len(raw)))
        run = bytes([data.draw(st.sampled_from(NOT_UTF8_LEAD))]) + data.draw(
            st.binary(max_size=3)
        )
        path.write_bytes(raw[:at] + run + raw[at + len(run):])
        line = raw.count(b"\n", 0, at) + 1
        return f"{path.name}:{line}"
    lines = raw.decode("utf-8").splitlines()
    if path.suffix == ".json":
        path.write_text(_mutate_json(data, json.loads(raw)) + "\n")
        return None
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind in ("number", "flag"):
        record = json.loads(lines[i])
        types, values = ((int, float), NOT_NUMBERS) if kind == "number" else ((bool,), NOT_BOOLEANS)
        targets = [p for p in _paths(record) if type(_at(record, p)) in types]
        at = data.draw(st.sampled_from(targets))
        _at(record, at[:-1])[at[-1]] = data.draw(st.sampled_from(values))
        lines[i] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return f"{path.name}:{i + 1}"
    lines[i] = _mutate_json(data, json.loads(lines[i]))
    path.write_text("\n".join(lines) + "\n")
    return None


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_inputs_never_crash(base, data):
    name = data.draw(st.sampled_from(TEXT_FILES + (BLOB,)))
    with tempfile.TemporaryDirectory(dir=base.parent) as scratch:
        ds = Path(scratch) / "ds"
        shutil.copytree(base, ds)
        culprit = _mutate(data, ds / name)
        out = Path(scratch) / "out"
        out.mkdir()
        codes = []
        for argv in _commands(ds, out):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            assert code in (0, 2, 3), argv
            if culprit is not None:
                assert code == 0 or f"error: {culprit}: " in err.getvalue(), (argv, err.getvalue())
            codes.append(code)
        if culprit is not None:
            assert 2 in codes, culprit
