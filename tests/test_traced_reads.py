"""The benchmark's per-layer counts see every record file a command reads.

perfbench/tracer.py counts the JSONL bytes a command reads in its hooks on
dataio's load_* readers, taking the size of the file each is called on.
The count, and the calls of load_instances and load_detections, are right
only if every command reads each record file once, through its one
reader: a read by any other path goes uncounted. Each of the six command
modes runs here in process under the tracer's install, which is imported,
not copied.
"""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from posekit import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# command mode -> (its command line without --dataset, the JSONL files it reads)
MODES = {
    "viewpoint-known-box": (
        ["evaluate-viewpoint", "--preds", "{ds}/detections.jsonl", "--gt-boxes"],
        ["instances.jsonl", "detections.jsonl"],
    ),
    "viewpoint-detections": (
        ["evaluate-viewpoint", "--preds", "{ds}/detections.jsonl", "--detections"],
        ["instances.jsonl", "detections.jsonl"],
    ),
    "pck": (
        ["evaluate-keypoints", "--preds", "{fused}", "--mode", "pck"],
        ["instances.jsonl", "{fused}"],
    ),
    "apk": (
        ["evaluate-keypoints", "--preds", "{ds}/detections.jsonl", "--mode", "apk"],
        ["instances.jsonl", "detections.jsonl"],
    ),
    "fuse": (
        ["fuse", "--preds", "{ds}/detections.jsonl", "--out", "{out}"],
        ["instances.jsonl", "prior_bank.jsonl", "detections.jsonl"],
    ),
    "diagnose": (
        ["diagnose", "--preds", "{ds}/detections.jsonl", "--slices", "size", "--error-modes",
         "--left-right"],
        ["instances.jsonl", "detections.jsonl"],
    ),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small heavy-noise scene and the fused predictions of its detections."""
    root = tmp_path_factory.mktemp("traced")
    ds, fused = root / "ds", root / "fused.jsonl"
    assert cli.main(["synth", "--seed", "5", "--n", "16", "--noise", "heavy",
                     "--out", str(ds)]) == 0
    assert cli.main(["fuse", "--dataset", str(ds), "--preds", str(ds / "detections.jsonl"),
                     "--out", str(fused)]) == 0
    return ds, fused


@pytest.mark.parametrize("mode", MODES)
def test_jsonl_bytes_are_the_files_the_command_reads(dataset, tmp_path, capsys, mode):
    ds, fused = dataset
    places = {"ds": ds, "fused": fused, "out": tmp_path / "out.jsonl"}
    args, files = MODES[mode]
    command, *rest = (a.format(**places) for a in args)
    reads = [ds / f.format(**places) for f in files]
    trace = tracer.Tracer()
    restore = tracer.install(trace)
    try:
        assert cli.main([command, "--dataset", str(ds), *rest]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert trace.counters["dataio.jsonl_bytes"] == sum(os.path.getsize(p) for p in reads)
    calls = Counter(trace.names[span[0]] for span in trace.spans)
    assert calls["dataio.load_ground_truth"] == calls["dataio.load_instances"] == 1
    assert calls["dataio.load_detections"] == ("detections.jsonl" in files)
