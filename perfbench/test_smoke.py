"""Smoke test of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload on a 6^3 lattice for a fraction of a second, untraced and
traced, and checks that each metric named in BENCHMARK.json is reported with
its unit and that every correctness gate ran.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    wl = harness.WORKLOADS[name]
    return dataclasses.replace(wl, cfg=wl.cfg.with_overrides(unit_cells=(6, 6, 6)).validate())


def assert_named(metrics, spec):
    assert {m["name"]: m["unit"] for m in spec} == {k: unit for k, (_, unit) in metrics.items()}
    for name, (value, _) in metrics.items():
        assert math.isfinite(value), name


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_end_to_end_metrics_present(name):
    tally = run.Tally()
    metrics, info = run.end_to_end(tiny(name), seed=7, seconds=0.05, tally=tally)
    assert_named(metrics, BENCH["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    assert tally.attempted == tally.completed > 0
    assert info["gates"]["p1_max_deviation"] <= harness.EQUIVALENCE_TOL
    assert ("energy_drift_per_particle" in info["gates"]) == (harness.WORKLOADS[name].cfg.potential_kind == "lj")


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_metrics_present(name):
    metrics, info = run.traced(tiny(name), seed=7, seconds=0.05, tally=run.Tally())
    assert_named(metrics, BENCH["per_layer"])
    assert info["spans"] > 0
    assert 0 < metrics["potential.useful_ratio"][0] <= 1
    assert 0 < metrics["neighbor.fill_ratio"][0] <= 1


def test_tracing_leaves_no_wrapper_behind():
    from nanopair import driver
    from nanopair.layout import ArrayHandle

    before = (driver.compute_forces, ArrayHandle.read_rows)
    run.traced(tiny("lj-p1-full"), seed=7, seconds=0.05, tally=run.Tally())
    assert (driver.compute_forces, ArrayHandle.read_rows) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = BENCH["command"] + ["--workload", "lj-p1-full", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
