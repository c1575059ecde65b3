"""posekit benchmark: the CLI run the way a researcher runs it.

    python3 perfbench/run.py --workload fuse-bank --seed 1 --seconds 25 --trace 0

Each run builds the workload's synthetic dataset from ``--seed`` (the
set-up, timed several times in fresh processes), then repeats passes over
the workload's two posekit commands for ``--seconds`` seconds. Every command
is a fresh ``python -m posekit.cli`` process, one at a time, with the BLAS
thread variables set to 1 so a small host is not oversubscribed.

Every report is written with ``--format machine``; each report and the
fused JSONL are hashed and compared with the digests stored in
``digests.json`` for the seeds this benchmark ships, and, for any seed,
with the first pass of the run. A nonzero exit, an invalid output or a
digest mismatch is a failed operation.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced passes with passes run under ``tracer.py`` and prints
the per-layer metrics; the traced outputs must be byte-identical to the
untraced ones. The run and every process it starts are pinned to one CPU,
and each process's time is scaled to a reference host speed measured by
``probe()`` just before and after it. The last line of standard output is the JSON
result; the lines before it record the environment, the host speed, and
each metric with its sample count and its median as timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = BENCH / "digests.json"

N_INSTANCES = 4000
SETUP_REPEATS = 3
# Time of probe() on the reference host (2-core Xeon at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6) when it runs at full speed; see probe().
PROBE_REFERENCE_S = 0.15
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _report(name: str) -> tuple[str, ...]:
    return ("--format", "machine", "--report", f"{{out}}/{name}")


@dataclass(frozen=True)
class Command:
    """One posekit CLI invocation of a pass and the file it writes."""

    name: str  # its time, printed above the result line
    args: tuple[str, ...]  # {data} is the dataset, {out} the output directory
    output: str


@dataclass(frozen=True)
class Workload:
    profile: str
    bank_size: int
    commands: tuple[Command, Command]


WORKLOADS = {
    "fuse-bank": Workload(
        "moderate",
        1000,
        (
            Command(
                "fuse_s",
                ("fuse", "--dataset", "{data}", "--preds", "{data}/detections.jsonl",
                 "--out", "{out}/fused.jsonl"),
                "fused.jsonl",
            ),
            Command(
                "pck_s",
                ("evaluate-keypoints", "--dataset", "{data}", "--preds",
                 "{out}/fused.jsonl", "--mode", "pck", *_report("pck.json")),
                "pck.json",
            ),
        ),
    ),
    "eval-detect": Workload(
        "heavy",
        200,
        (
            Command(
                "avp_s",
                ("evaluate-viewpoint", "--dataset", "{data}", "--preds",
                 "{data}/detections.jsonl", "--detections", *_report("avp.json")),
                "avp.json",
            ),
            Command(
                "apk_s",
                ("evaluate-keypoints", "--dataset", "{data}", "--preds",
                 "{data}/detections.jsonl", "--mode", "apk", *_report("apk.json")),
                "apk.json",
            ),
        ),
    ),
    "eval-known-box": Workload(
        "moderate",
        200,
        (
            Command(
                "vp_known_s",
                ("evaluate-viewpoint", "--dataset", "{data}", "--preds",
                 "{data}/detections.jsonl", "--gt-boxes", *_report("vp_known.json")),
                "vp_known.json",
            ),
            Command(
                "diagnose_s",
                ("diagnose", "--dataset", "{data}", "--preds", "{data}/detections.jsonl",
                 "--slices", "size,occlusion,truncation", "--error-modes", "--left-right",
                 *_report("diagnose.json")),
                "diagnose.json",
            ),
        ),
    ),
}

# Per-layer metrics that come from the traced set-up rather than the pass.
SETUP_LAYERS = ("synth.", "dataio.save_dataset.", "dataio.write_response_map.")


class BenchError(Exception):
    """A run that cannot produce metrics: a set-up failed or no pass completed."""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    factor: float = 1.0  # turns wall_s into reference-host time; see probe()

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


@dataclass
class Pass:
    procs: list[Proc] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.scaled_s for p in self.procs)


@dataclass
class Tally:
    """Program invocations attempted and failed, with what went wrong."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(problem)


def probe() -> float:
    """Time a bare interpreter start that imports numpy: one host-speed sample.

    Every posekit command pays this start-up too, but the probe runs no
    posekit code, so a change to posekit cannot move it. The run takes a
    sample just before and just after every process it times and scales
    that process's time by PROBE_REFERENCE_S over the mean of the two: a
    shared host that slows the CPU by some share for seconds to minutes
    then moves the probe and the command alike, and the scaled time stays
    put. On the pinned CPU (see pin_to_one_cpu) a fresh process tracks the
    commands' speed much more closely than a task timed inside this
    long-lived process does.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import json, numpy"], cwd=ROOT,
                   env=child_env(), check=True)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_process(argv: list[str], log: Path) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_problem(path: Path, n: int) -> str | None:
    """Structural check of one command output, independent of stored digests."""
    if not path.is_file():
        return f"{path.name} not written"
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        lines = text.splitlines()
        if len(lines) != n:
            return f"{path.name}: {len(lines)} predictions for {n} instances"
        return None
    try:
        report = json.loads(text)
    except ValueError:
        return f"{path.name}: not JSON"
    if set(report) != {"schema_version", "sections", "curves"} or not report["sections"]:
        return f"{path.name}: not a machine report"
    for section, rows in report["sections"].items():
        for row, value in rows.items():
            if value is not None and not math.isfinite(value):
                return f"{path.name}: {section}/{row} is {value!r}"
    return None


class Run:
    """One benchmark run: set-up, timed passes, output checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, n: int):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n = n
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.out = self.dir / "out"
        self.log = self.dir / "commands.log"
        self.tally = Tally()
        self.probes: list[float] = []
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.expected: dict[str, str] | None = stored.get(self.digest_key)

    def log_tail(self, lines: int = 20) -> str:
        if not self.log.is_file():
            return ""
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])

    def clean(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    @property
    def digest_key(self) -> str:
        return f"{self.name}/n{self.n}/seed{self.seed}"

    def entry_argv(self, traced: bool, spans: Path, target: str) -> list[str]:
        """Command line that starts the CLI or the set-up, under the tracer if traced."""
        if traced:
            return [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), target]
        if target == "cli":
            return [sys.executable, "-m", "posekit.cli"]
        return [sys.executable, str(BENCH / "setup_dataset.py")]

    def timed(self, argv: list[str]) -> Proc:
        """Run one process between two host-speed samples that scale its time."""
        before = probe()
        proc = run_process(argv, self.log)
        after = probe()
        self.probes += [before, after]
        proc.factor = PROBE_REFERENCE_S / ((before + after) / 2)
        return proc

    def check_digest(self, key: str, digest: str, first: dict[str, str]) -> str | None:
        if self.expected is not None and self.expected.get(key) != digest:
            return f"{key}: digest differs from the stored one for {self.digest_key}"
        if first.setdefault(key, digest) != digest:
            return f"{key}: differs between passes"
        return None

    def setup(self, index: int, traced: bool, first: dict[str, str]) -> tuple[Proc, Path, Path]:
        data = self.dir / f"data{index}"
        spans = self.dir / f"setup{index}.npz"
        wl = self.workload
        argv = self.entry_argv(traced, spans, "setup") + [
            "--seed", str(self.seed), "--n", str(self.n), "--profile", wl.profile,
            "--bank-size", str(wl.bank_size), "--out", str(data),
        ]
        proc = self.timed(argv)
        if proc.code:
            self.tally.record(f"set-up {index} exited {proc.code}")
            raise BenchError(self.tally.problems[-1])
        self.tally.record(self.check_digest("dataset", sha256_tree(data), first))
        return proc, data, spans

    def run_pass(self, data: Path, traced: bool, index: int, first: dict[str, str]) -> Pass | None:
        """One pass over the workload's commands; None if a command exits nonzero.

        A wrong or invalid output is a failed operation, but the pass still
        counts for timing.
        """
        self.out.mkdir(parents=True, exist_ok=True)
        result = Pass()
        for c, cmd in enumerate(self.workload.commands):
            spans = self.dir / f"pass{index}-{c}.npz"
            args = [a.format(data=data, out=self.out) for a in cmd.args]
            path = self.out / cmd.output
            path.unlink(missing_ok=True)
            proc = self.timed(self.entry_argv(traced, spans, "cli") + args)
            if proc.code:
                self.tally.record(f"{cmd.name} exited {proc.code}")
                return None
            problem = output_problem(path, self.n)
            self.tally.record(problem or self.check_digest(cmd.output, sha256_file(path), first))
            result.procs.append(proc)
            if traced:
                result.spans.append(spans)
        return result

    def measure(self, data: Path, first: dict[str, str]) -> tuple[list[Pass], list[Pass]]:
        """Passes while the next one is expected to end within --seconds.

        At least one pass runs (one of each kind when tracing); when
        tracing, every other pass is traced.
        """
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        index = 0
        while True:
            use_trace = self.trace and index % 2 == 1
            done = self.run_pass(data, use_trace, index, first)
            if done is None:
                break
            (traced if use_trace else plain).append(done)
            index += 1
            elapsed = time.perf_counter() - start
            if self.trace and not traced:
                continue
            if elapsed + elapsed / index > self.seconds:
                break
        if not plain or (self.trace and not traced):
            raise BenchError("; ".join(self.tally.problems) or "no pass completed")
        return plain, traced

    def execute(self) -> tuple[dict[str, float], dict[str, str]]:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        first: dict[str, str] = {}
        if self.trace:
            _, data, _ = self.setup(0, False, first)
            setup_proc, _, setup_spans = self.setup(1, True, first)
            plain, traced = self.measure(data, first)
            return self.layer_metrics(plain, traced, setup_proc, setup_spans)
        setups = [self.setup(i, False, first) for i in range(SETUP_REPEATS)]
        for _, extra, _ in setups[1:]:
            shutil.rmtree(extra)
        plain, _ = self.measure(setups[0][1], first)
        return self.end_to_end([p for p, _, _ in setups], plain)

    def end_to_end(
        self, setups: list[Proc], passes: list[Pass]
    ) -> tuple[dict[str, float], dict[str, str]]:
        commands = [proc for p in passes for proc in p.procs]
        samples = {"setup_s": [[p] for p in setups], "wall_s": [p.procs for p in passes]}
        for c, cmd in enumerate(self.workload.commands):
            samples[cmd.name] = [[p.procs[c]] for p in passes]
        values, notes = {}, {}
        med = statistics.median
        for name, groups in samples.items():
            values[name] = med(sum(p.scaled_s for p in g) for g in groups)
            timed = [sum(p.wall_s for p in g) for g in groups]
            notes[name] = (f"median of {len(groups)}: {med(timed):.4f} s as timed,"
                           f" range {min(timed):.4f}-{max(timed):.4f}")
        for name, procs in (("setup_s", setups), ("wall_s", commands)):
            share = sum(p.cpu_s for p in procs) / sum(p.wall_s for p in procs)
            notes[name] += f", cpu/wall {share:.3f}"
        notes["peak_rss_mb"] = f"largest of {len(commands)} command processes"
        values["peak_rss_mb"] = max(p.rss_mb for p in commands)
        return values, notes

    def layer_metrics(
        self, plain: list[Pass], traced: list[Pass], setup_proc: Proc, setup_spans: Path
    ) -> tuple[dict[str, float], dict[str, str]]:
        setup = tracer.summarize(setup_spans)
        setup.scale_times(setup_proc.factor)
        per_pass = []
        for p in traced:
            total = tracer.Summary()
            for c, (spans, proc) in enumerate(zip(p.spans, p.procs), start=1):
                one = tracer.summarize(spans)
                one.scale_times(proc.factor)
                total.add(one)
                for stage, value in one.stages.items():
                    total.stages[f"cli.cmd{c}.{stage}"] = value
            per_pass.append(total)
        if any(s.calls != per_pass[0].calls or s.counters != per_pass[0].counters
               for s in per_pass):
            self.tally.problems.append("traced passes disagree on call counts")
        med = statistics.median
        overhead = med(p.wall_s for p in traced) / med(p.wall_s for p in plain) - 1
        values = {"trace.overhead": overhead}
        notes = {"trace.overhead": f"{len(traced)} traced against {len(plain)} untraced passes"}
        for name in (m["name"] for m in load_spec()["per_layer"]):
            if name in values:
                continue
            if name.startswith(SETUP_LAYERS):
                values[name] = layer_value(setup, name)
                notes[name] = "traced set-up"
            else:
                values[name] = med(layer_value(s, name) for s in per_pass)
                notes[name] = f"median of {len(per_pass)} traced passes"
        return values, notes


def layer_value(s: tracer.Summary, name: str) -> float:
    """Value of one per-layer metric, read off its name."""
    if name == "fusion.neighbors_mean":
        calls = s.calls.get("fusion.neighbor_set", 0)
        return s.counters.get("fusion.neighbors_total", 0.0) / calls if calls else 0.0
    if name == "fusion.uniform_fallbacks":
        return s.counters.get("fusion.pose_prior.raised", 0.0)
    if name in s.stages:
        return s.stages[name]
    if name.startswith("cli.cmd"):
        return 0.0
    func, _, kind = name.rpartition(".")
    if kind == "calls":
        return float(s.calls.get(func, 0))
    if kind == "self_s":
        return s.self_s.get(func, 0.0)
    return s.counters.get(name, 0.0)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_to_one_cpu() -> int:
    """Run this process and every process it starts on one CPU; return it.

    The commands are single-threaded and run one at a time, so one CPU is
    all they use. On a shared host the CPUs are slowed by different shares
    at different times; on one CPU the probe samples the same CPU as the
    commands and tracks their speed, while processes that land on either
    CPU do not. The last CPU is taken because the first one usually serves
    more of the guest's interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(load_start: str, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": load_start,
        "loadavg_end": read_loadavg(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_vars_in_commands": "1",
    }


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="posekit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, default=N_INSTANCES,
                        help="instances per dataset (the self-test uses a tiny n)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_process stops the running command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_start = read_loadavg()
    if not (SRC / "posekit" / "cli.py").is_file():
        print(f"error: no posekit sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cpu = pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    failure = None
    try:
        values, notes = run.execute()
    except BenchError as exc:
        failure = str(exc)
    finally:
        if failure or run.tally.failed:
            what = failure or "; ".join(run.tally.problems)
            print(f"error: {what}\n{run.log_tail()}", file=sys.stderr)
        run.clean()
    if failure:
        return 1
    if {m["name"] for m in wanted} - set(values):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(load_start, cpu), sort_keys=True))
    print(f"outputs checked against stored digests: {run.expected is not None}"
          f" ({run.digest_key})")
    print(f"host speed: probe median {statistics.median(run.probes):.4f} s over"
          f" {len(run.probes)} samples, range {min(run.probes):.4f}-{max(run.probes):.4f};"
          f" each time below is scaled to a {PROBE_REFERENCE_S} s probe by the mean"
          f" of the samples just before and after its process")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<6} {notes[m['name']]}")
    for name in (n for n in values if n not in metrics):
        print(f"{name:<44} {values[name]:>14.6g} s      {notes[name]}; not in the result")
    error_rate = run.tally.failed / run.tally.attempted
    print(f"{'error_rate':<44} {error_rate:>14.6g} ratio  "
          f"{run.tally.failed} failed of {run.tally.attempted} invocations")
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
