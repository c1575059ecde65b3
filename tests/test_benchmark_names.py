"""Every per-layer benchmark metric that counts calls or self time names a
function posekit still defines.

BENCHMARK.json lists per-layer metrics as <module>.<function>.calls and
<module>.<function>.self_s. The tracer wraps only public functions defined
in each posekit module, so a metric whose function was renamed, deleted or
moved to another module reads 0 without any error. BENCHMARK.json is only
read here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRACED = [
    metric["name"]
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    if metric["name"].endswith((".calls", ".self_s"))
]


def test_benchmark_lists_traced_metrics():
    assert TRACED


@pytest.mark.parametrize("metric", TRACED)
def test_metric_names_a_defined_function(metric):
    module_name, function_name, _ = metric.split(".")
    module = importlib.import_module(f"posekit.{module_name}")
    fn = getattr(module, function_name, None)
    assert not function_name.startswith("_"), f"{metric}: private functions are not traced"
    assert inspect.isfunction(fn), f"{metric}: posekit.{module_name} has no {function_name}"
    assert fn.__module__ == module.__name__, f"{metric}: {function_name} is defined elsewhere"
