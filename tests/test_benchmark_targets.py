"""The benchmark tracer's targets must all exist in the package.

A target the package no longer defines is skipped with a warning, and every
metric of its layer then reads null in the traced result line.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gsdelay_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _load_tracer().TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_trace_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
