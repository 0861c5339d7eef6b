"""Smoke tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They show that each workload runs and passes its checks, that a wrong
output from the library raises `failed` above 0, that the report's last
line has the keys and metric names BENCHMARK.json declares, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import gravwitness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_pass(name):
    wl = workloads.WORKLOADS[name]
    return wl.run_pass(wl.build(7, tiny=True))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_its_checks(name):
    res = tiny_pass(name)
    assert res.attempted > 0
    assert res.failed == 0
    assert res.points > 0 and res.calls_s and res.digest


def test_wrong_negativity_fails_grid_quiet(monkeypatch):
    negativity = gravwitness.spinstate.negativity
    monkeypatch.setattr(gravwitness.spinstate, "negativity",
                        lambda state: negativity(state) + 1e-6)
    res = tiny_pass("grid_quiet")
    assert res.failed == res.attempted > 0


def test_infeasible_maximum_fails_search_mixed(monkeypatch):
    maximize = gravwitness.maximize

    def wrong(spec, base):
        config, row = maximize(spec, base)
        return config, dataclasses.replace(row, feasible=False)
    monkeypatch.setattr(gravwitness, "maximize", wrong)
    assert tiny_pass("search_mixed").failed == 1


def test_invalid_row_with_objective_fails_search_mixed(monkeypatch):
    run_sweep = gravwitness.run_sweep

    def wrong(spec, base):
        result = run_sweep(spec, base)
        rows = tuple(dataclasses.replace(r, objective=0.0)
                     if r.reason.startswith("invalid config") else r
                     for r in result.rows)
        return dataclasses.replace(result, rows=rows)
    monkeypatch.setattr(gravwitness, "run_sweep", wrong)
    res = tiny_pass("search_mixed")
    assert res.failed == res.row_mix["invalid"] > 0


def test_worse_optimized_witness_fails_cli_points(monkeypatch):
    optimize = gravwitness.spinstate.optimize_witness

    def wrong(state):
        settings, result = optimize(state)
        return settings, dataclasses.replace(result, w=-1.0)
    monkeypatch.setattr(gravwitness.spinstate, "optimize_witness", wrong)
    res = tiny_pass("cli_points")
    assert res.failed == len(res.calls_s) // len(workloads.CLI_COMMANDS)


def test_witness_check_allows_rounding_only():
    check = workloads._check_cli_payload
    # a one-ulp shortfall seen at a point whose optimum is the default angle
    assert check("witness", {"w": 0.7315261354431931, "wOptimized": 0.731526135443193})
    assert not check("witness", {"w": 0.5, "wOptimized": 0.5 - 1e-9})


def test_nonzero_exit_fails_cli_points(monkeypatch):
    monkeypatch.setattr(gravwitness.cli, "main", lambda argv: 1)
    res = tiny_pass("cli_points")
    assert res.failed == res.exit_nonzero == len(res.calls_s)


def test_tracer_restores_the_library():
    originals = (gravwitness.sweep.validate, gravwitness.spinstate.negativity,
                 gravwitness.constraints.cp_ratio,
                 gravwitness.spinstate.TwoQubitState.__post_init__)
    wl = workloads.WORKLOADS["grid_quiet"]
    inputs = wl.build(7, tiny=True)
    tracer = Tracer(gravwitness)
    tracer.begin_pass()
    tracer.install()
    try:
        assert gravwitness.sweep.validate is not originals[0]
        res = wl.run_pass(inputs)
    finally:
        tracer.uninstall()
    assert (gravwitness.sweep.validate, gravwitness.spinstate.negativity,
            gravwitness.constraints.cp_ratio,
            gravwitness.spinstate.TwoQubitState.__post_init__) == originals
    layers = tracer.layer_metrics(0)
    rows = res.row_mix["rows"]
    assert layers["core.validate.calls"] == rows
    assert layers["spinstate.state_checks"] == 2 * rows
    assert layers["sweep.calls"] == 1
    assert res.failed == 0


def test_differing_passes_fail_the_run(monkeypatch, capsys):
    monkeypatch.setenv("GRAVWITNESS_THREADS", "1")
    wl = workloads.WORKLOADS["grid_quiet"]
    passes = itertools.count()

    def varying(inputs):
        res = wl.run_pass(inputs)
        res.digest += str(next(passes))
        return res
    monkeypatch.setitem(workloads.WORKLOADS, "grid_quiet",
                        dataclasses.replace(wl, run_pass=varying))
    assert run.main(["--workload", "grid_quiet", "--seed", "1", "--seconds",
                     "0", "--trace", "0", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_report_matches_benchmark_json(name, trace):
    done = run_bench(run.ROOT, "--workload", name, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "grid_quiet", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
