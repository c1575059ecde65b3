"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at N instances and seed
SEED, for which digests.json stores the outputs, and checks that:
- each run checks its outputs against the stored digests, ends with the
  result line, correct, with every metric of BENCHMARK.json emitted under
  its unit and an error rate of 0, and prints the time of each command;
- the traced counts are exact: pose_prior once per fused keypoint, two
  VKRM reads per instance for each eval-known-box command, two
  detection loads per evaluate or diagnose command that loads a dataset
  and reads detections as predictions, three matching runs per
  evaluate-viewpoint --detections;
- the tracer wraps the module-level bindings that re-export a function,
  and puts every original back;
- predictions.json covers exactly the per-layer metrics;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import ROOT, SRC, WORK, WORKLOADS
import tracer

N = 60
SEED = 1

BINDINGS = (
    ("fusion", "geodesic_distances"),
    ("metrics", "geodesic_distance"),
    ("metrics", "euler_to_rotation"),
    ("cli", "euler_to_rotation"),
    ("metrics", "angle_to_bin"),
    ("cli", "angle_to_bin"),
    ("dataio", "rotation_matrix"),
)


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--n", str(N)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def check_result(result: dict, stdout: str, wanted: list[dict], where: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: {result}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    expect([m["name"] for m in wanted] == list(result["metrics"]), f"{where}: metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), where)
    rate = [line for line in stdout.splitlines() if line.startswith("error_rate")]
    expect(len(rate) == 1 and float(rate[0].split()[1]) == 0.0, f"{where}: error_rate")


def check_counts(layers: dict[str, dict]) -> None:
    from posekit import synth

    value = {w: {k: v["value"] for k, v in m.items()} for w, m in layers.items()}
    wl = WORKLOADS["fuse-bank"]
    scene = synth.generate_scene(SEED, N, synth.noise_preset(wl.profile), bank_size=wl.bank_size)
    keypoints = sum(len(inst.keypoints) for inst in scene.instances)
    exact = (
        ("fuse-bank", "fusion.pose_prior.calls", keypoints),
        ("eval-detect", "fusion.pose_prior.calls", 0),
        ("eval-known-box", "dataio.read_response_map.calls", 2 * (2 * N)),
        # fuse reads the detections once, evaluate-keypoints --mode pck once
        ("fuse-bank", "dataio.load_detections.calls", 2),
        ("eval-detect", "dataio.load_detections.calls", 2 * 2),
        ("eval-known-box", "dataio.load_detections.calls", 2 * 2),
        ("eval-detect", "metrics.evaluate_detections.calls", 3),
    )
    for workload, metric, want in exact:
        got = value[workload][metric]
        expect(got == want, f"{workload}: {metric} is {got}, expected {want}")


def check_bindings() -> None:
    import importlib

    modules = {m: importlib.import_module(f"posekit.{m}") for m in tracer.MODULES}
    before = {(m, name): getattr(modules[m], name) for m, name in BINDINGS}
    restore = tracer.install(tracer.Tracer())
    try:
        for (m, name), original in before.items():
            wrapped = getattr(modules[m], name)
            expect(getattr(wrapped, "__wrapped__", None) is original, f"{m}.{name} not traced")
    finally:
        restore()
    for (m, name), original in before.items():
        expect(getattr(modules[m], name) is original, f"{m}.{name} not restored")


def check_predictions(spec: dict) -> None:
    table = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")
    covered = [name for group in table["layers"] for name in group["metrics"]]
    expect(sorted(covered) == sorted(m["name"] for m in spec["per_layer"]), "prediction table")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180,
                              check=False)
        expect(done.returncode != 0, "bare directory: exited 0")
        expect('"correct"' not in done.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    check_predictions(spec)
    check_bindings()
    layers = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run_bench(workload, trace)
            where = f"{workload} trace={trace}"
            check_result(result, stdout, spec[key], where)
            checked = f"outputs checked against stored digests: True ({workload}/n{N}/seed{SEED})"
            expect(checked in stdout.splitlines(), f"{where}: no stored digests")
            if trace == 0:
                for cmd in WORKLOADS[workload].commands:
                    printed = [l.split() for l in stdout.splitlines() if l.startswith(cmd.name)]
                    expect(len(printed) == 1 and printed[0][2] == "s", f"{cmd.name} not printed")
        layers[workload] = result["metrics"]
        print(f"{workload}: ok", flush=True)
    check_counts(layers)
    check_bare_directory()
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
