"""Tests of the benchmark's own machinery.  Run with

    python3 -m pytest -q benchmarks
"""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from wavetomo import fileio  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_merged_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("a.inner", 1.5, 2.0, 1, "r"),
        Span("b", 2.0, 4.0, 0, "r"),     # overlaps a: [1, 4] is covered once
        Span("c", 9.0, 12.0, 0, "r"),    # runs past the parent: clipped to [9, 10]
        Span("d", 5.0, 5.0, 0, "r"),     # empty
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 2.0, 3.0, 0.0])


def test_tracer_records_parents_and_runs():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x
    ns.outer = lambda x: ns.inner(x) + 1
    outer = ns.outer
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    tracer.run = "solve"
    assert ns.outer(1) == 2
    tracer.restore()
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("outer", -1, "solve"), ("inner", 0, "solve")]
    assert ns.outer is outer


def test_restore_leaves_every_site_identical():
    before = {(m, c, a): layers.site_owner(m, c).__dict__[a]
              for m, c, a, _, _ in layers.SITES}
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(layers.site_owner(m, c).__dict__[a] is not orig
                   for (m, c, a), orig in before.items())
    finally:
        tracer.restore()
    for (m, c, a), orig in before.items():
        assert layers.site_owner(m, c).__dict__[a] is orig


def test_layer_metrics_emit_the_declared_names():
    info = {"iterations": 0, "n_tx": 1, "grid_shape": (4, 4), "measurement_bytes": 0,
            "analytic_warnings": 0, "solve_s": 1.0, "traced_solve_s": 1.0}
    assert list(layers.layer_metrics([], info)) == [n for n, _ in layers.METRICS]


def test_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "benchmarks/run.py"
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    assert declared["workloads"] == list(workloads.WORKLOADS)
    assert declared["end_to_end"] == run.END_TO_END
    assert declared["per_layer"] == layers.METRICS
    names = declared["workloads"] + [n for n, _ in run.END_TO_END + layers.METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def _criterion_5_config():
    """The config dict of the end_to_end_setup fixture in tests/test_acceptance.py."""
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "end_to_end_setup":
            assign = next(n for n in node.body if isinstance(n, ast.Assign))
            expr = ast.Expression(assign.value)
            return eval(compile(expr, "test_acceptance.py", "eval"), {"WL": workloads.WL})
    raise AssertionError("criterion-5 fixture not found")


def test_seed_zero_is_the_criterion_5_config():
    ours = workloads.WORKLOADS["recon_full_2d"].config(0)
    assert fileio.serialize_config(ours) == fileio.serialize_config(_criterion_5_config())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_configs_are_seeded(name):
    w = workloads.WORKLOADS[name]
    assert fileio.serialize_config(w.config(3)) == fileio.serialize_config(w.config(3))
    assert fileio.serialize_config(w.config(3)) != fileio.serialize_config(w.config(4))


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail(list(range(50)))
    assert (value, n) == (39, 50)
    assert sum(1 for s in range(50) if s > value) == 10
    assert pct == pytest.approx(100 * 39 / 49)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_untraced_run_does_not_import_the_tracer():
    code = ("import sys, run, workloads; "
            "assert 'tracer' not in sys.modules and 'layers' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{HERE}")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, timeout=120)
    assert done.returncode == 0
