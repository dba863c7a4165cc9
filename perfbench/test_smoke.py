"""Smoke test of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
Each workload runs at a tiny size, untraced and traced; the test checks the
result shape against BENCHMARK.json, that the tracer restores every function
it wrapped, and that the benchmark refuses to run without the sources.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return workloads.build_workload(
        name, sizes=((3,), 3, 3, 4),
        chain={"swap": "1,2", "cutoff": "1", "distill": "1", "markov": "1",
               "compare": "1,2", "sampled": "1"},
        samples=40, replay_n=2, probes=workloads.WORKLOADS[name].probes)


def originals():
    out = {}
    for module_name, attr, *_ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr)
    return out


def check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, tmp_path):
    run.import_cli()
    before = originals()
    result, _ = run.run(tiny(name), seed=3, seconds=0.1, trace=False,
                        setup_runs=1)
    check_result(result, {m["name"] for m in SPEC["end_to_end"]})
    expected_failures = len(workloads.WORKLOADS[name].probes)
    assert result["failed"] == expected_failures

    spans = tmp_path / "spans.csv"
    result, _ = run.run(tiny(name), seed=3, seconds=0.1, trace=True,
                        setup_runs=1, spans_path=spans)
    check_result(result, {m["name"] for m in SPEC["per_layer"]})
    assert spans.read_text().startswith("id,name,start,end,parent,thread")
    assert originals() == before


def test_tracer_restores_wrapped_functions():
    run.import_cli()
    before = originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert any(originals()[key] is not fn for key, fn in before.items())
    assert all(originals()[key] is fn for key, fn in before.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
