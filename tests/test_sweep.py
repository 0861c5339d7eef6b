import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravwitness.constraints import feasibility_report
from gravwitness.core import validate
from gravwitness.gravphase import static_phases
from gravwitness.spinstate import negativity
from gravwitness.sweep import (SweepAxis, SweepRow, SweepSpec, evaluate,
                               maximize, run_sweep)

from test_spinstate import closed_form_dephased_negativity


@pytest.fixture(scope="session")
def quiet_config(paper_config):
    """Paper geometry with a negligible-decoherence environment, so the
    dephased objective coincides with the pure closed form."""
    return dataclasses.replace(paper_config, pressure=1e-30, tEnv=1e-3,
                               tInt=1e-3)


def tau_axis(lo=0.1, hi=5.0, count=20):
    return SweepSpec(axes=(SweepAxis("tau", lo, hi, count),))


def test_axis_validation():
    with pytest.raises(ValueError, match="unknown parameter"):
        SweepAxis("bogus", 0.0, 1.0, 5)
    with pytest.raises(ValueError, match="min < max"):
        SweepAxis("tau", 2.0, 1.0, 5)
    with pytest.raises(ValueError, match="count"):
        SweepAxis("tau", 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="spacing"):
        SweepAxis("tau", 0.0, 1.0, 5, "cubic")
    with pytest.raises(ValueError, match="log"):
        SweepAxis("tau", 0.0, 1.0, 5, "log")


def test_spec_validation():
    axis = SweepAxis("tau", 0.1, 1.0, 5)
    with pytest.raises(ValueError, match="axes"):
        SweepSpec(axes=())
    with pytest.raises(ValueError, match="axes"):
        SweepSpec(axes=(axis,) * 5)
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(axes=(axis, axis))
    with pytest.raises(ValueError, match="objective"):
        SweepSpec(axes=(axis,), objective="entropy")
    with pytest.raises(ValueError, match="requireTauCollOver"):
        SweepSpec(axes=(axis,), requireTauCollOver=0.5)


def test_log_axis_values():
    axis = SweepAxis("pressure", 1e-16, 1e-12, 5, "log")
    assert np.allclose(axis.values(), np.geomspace(1e-16, 1e-12, 5))


def test_row_major_order(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 1.0, 2.0, 2),
                           SweepAxis("d", 400e-6, 500e-6, 3)))
    result = run_sweep(spec, paper_config)
    taus = [row.params["tau"] for row in result.rows]
    ds = [row.params["d"] for row in result.rows]
    assert taus == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert ds == pytest.approx([400e-6, 450e-6, 500e-6] * 2)


def test_three_axis_grid(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 1.0, 2.0, 2),
                           SweepAxis("d", 400e-6, 500e-6, 2),
                           SweepAxis("m1", 0.5e-14, 1e-14, 2)))
    result = run_sweep(spec, paper_config)
    assert len(result.rows) == 8
    assert [r.params["m1"] for r in result.rows[:2]] == \
        pytest.approx([0.5e-14, 1e-14])
    assert result.csv_header()[:3] == ["tau", "d", "m1"]


def test_quiet_sweep_matches_closed_form(quiet_config):
    result = run_sweep(tau_axis(), quiet_config)
    for row in result.rows:
        expected = abs(math.sin((row.dPhiLR + row.dPhiRL) / 2)) / 2
        assert row.objective == pytest.approx(expected, abs=1e-10)
        assert row.feasible


def test_quiet_sweep_strictly_increasing(quiet_config):
    result = run_sweep(tau_axis(), quiet_config)
    values = [row.objective for row in result.rows]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_paper_sweep_matches_dephased_closed_form(paper_config):
    from gravwitness.decoherence import dephasing_budget
    result = run_sweep(tau_axis(count=10), paper_config)
    for row in result.rows:
        cfg = validate(dataclasses.replace(paper_config, tau=row.params["tau"]))
        p = dephasing_budget(cfg).totalDephasing / 2
        expected = closed_form_dephased_negativity(row.dPhiLR, row.dPhiRL, p, p)
        assert row.objective == pytest.approx(expected, abs=1e-10)


def test_evaluate_coherences_decay_by_budget(paper_config):
    # each qubit's coherences keep e^{-Gamma T} = 1 - totalDephasing
    ev = evaluate(paper_config)
    keep = 1 - ev.budget.totalDephasing
    ratio = ev.dephased.rho / ev.state.rho
    assert ratio[0, 0] == ratio[3, 3] == 1.0
    assert ratio[0, 1] == pytest.approx(keep, rel=1e-12)   # qubit 2 differs
    assert ratio[0, 2] == pytest.approx(keep, rel=1e-12)   # qubit 1 differs
    assert ratio[0, 3] == pytest.approx(keep ** 2, rel=1e-12)


def test_evaluate_reports_regime_error(paper_config):
    hot = dataclasses.replace(paper_config, tEnv=300.0)
    ev = evaluate(hot)
    assert ev.budget is None and ev.dephased is None
    assert "thermal wavelength" in ev.regimeError
    assert negativity(ev.state) > 0


@given(lo=st.floats(-18.0, -11.0), hi=st.floats(-18.0, -11.0))
@settings(max_examples=60, deadline=None)
def test_dephased_negativity_never_increases_with_pressure(paper_config, lo,
                                                           hi):
    lo, hi = sorted((lo, hi))
    quieter = evaluate(dataclasses.replace(paper_config, pressure=10.0 ** lo))
    noisier = evaluate(dataclasses.replace(paper_config, pressure=10.0 ** hi))
    assert quieter.phases == noisier.phases
    assert negativity(noisier.dephased) <= negativity(quieter.dephased) + 1e-15


def test_witness_objectives(quiet_config):
    spec_w = SweepSpec(axes=(SweepAxis("tau", 1.0, 5.0, 4),), objective="witness")
    spec_wo = SweepSpec(axes=(SweepAxis("tau", 1.0, 5.0, 4),),
                        objective="witnessOptimized")
    rows_w = run_sweep(spec_w, quiet_config).rows
    rows_wo = run_sweep(spec_wo, quiet_config).rows
    for row_w, row_wo in zip(rows_w, rows_wo):
        s = row_w.dPhiLR + row_w.dPhiRL
        assert row_wo.objective == pytest.approx(
            math.sqrt(2) * abs(math.sin(s / 2)), abs=1e-6)
        assert row_wo.objective >= row_w.objective - 1e-12


def test_all_points_infeasible(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 0.1, 5.0, 5),), cpRatioMax=1e-6)
    result = run_sweep(spec, paper_config)
    assert all(not row.feasible for row in result.rows)
    assert all("cpRatio" in row.reason for row in result.rows)


def test_invalid_points_become_rows(paper_config):
    spec = SweepSpec(axes=(SweepAxis("dx", 100e-6, 460e-6, 10),))
    result = run_sweep(spec, paper_config)
    assert len(result.rows) == 10
    invalid = [row for row in result.rows if "invalid config" in row.reason]
    assert invalid and all(not row.feasible for row in invalid)
    assert all(math.isnan(row.objective) for row in invalid)


def test_feasibility_flags_agree_with_reports(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 0.5, 40.0, 6),))
    result = run_sweep(spec, paper_config)
    for row in result.rows:
        cfg = validate(dataclasses.replace(paper_config, tau=row.params["tau"]))
        report = feasibility_report(cfg, targetRatio=spec.cpRatioMax,
                                    tauCollFactor=spec.requireTauCollOver)
        assert row.feasible == report.feasible


def test_csv_deterministic_across_runs(quiet_config):
    spec = tau_axis(count=30)
    runs = [run_sweep(spec, quiet_config).to_csv() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_csv_header_and_formatting(quiet_config):
    result = run_sweep(tau_axis(count=3), quiet_config)
    lines = result.to_csv().splitlines()
    assert lines[0] == "tau,dPhiLR,dPhiRL,objective,cpRatio,tauColl,feasible,reason"
    first = lines[1].split(",")
    assert first[1] == f"{result.rows[0].dPhiLR:.12g}"
    assert first[6] == "true"


def test_maximize_pushes_to_phase_boundary(quiet_config):
    # negativity peaks where the phase sum reaches pi (tau ~ 25.02 s here)
    spec = SweepSpec(axes=(SweepAxis("tau", 0.1, 50.0, 41),))
    best_config, best_row = maximize(spec, quiet_config)
    rows = run_sweep(spec, quiet_config).rows
    assert best_row.objective >= max(r.objective for r in rows if r.feasible)
    assert best_row.objective == pytest.approx(0.5, abs=1e-6)
    assert best_config.tau == pytest.approx(25.0176, rel=1e-3)
    assert best_row.feasible


def test_maximize_respects_axis_limit(quiet_config):
    # within [0.1, 5] the objective is still rising, so the axis edge wins
    spec = tau_axis(count=10)
    best_config, best_row = maximize(spec, quiet_config)
    assert best_config.tau == pytest.approx(5.0, rel=1e-6)


def test_maximize_single_feasible_point(paper_config):
    # only the shortest tau keeps the collision bound satisfied
    spec = SweepSpec(axes=(SweepAxis("tau", 20.0, 100.0, 5),),
                     requireTauCollOver=1.0)
    rows = run_sweep(spec, paper_config).rows
    feasible = [r for r in rows if r.feasible]
    assert len(feasible) == 1
    best_config, best_row = maximize(spec, paper_config)
    assert best_row.feasible
    assert best_row.objective >= feasible[0].objective


def test_maximize_without_feasible_point(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 0.1, 5.0, 4),), cpRatioMax=1e-9)
    with pytest.raises(ValueError, match="feasible"):
        maximize(spec, paper_config)


def test_maximize_never_returns_infeasible(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 0.5, 30.0, 8),))
    best_config, best_row = maximize(spec, paper_config)
    report = feasibility_report(best_config, targetRatio=spec.cpRatioMax,
                                tauCollFactor=spec.requireTauCollOver)
    assert best_row.feasible and report.feasible


def test_maximize_deterministic(quiet_config):
    spec = tau_axis(count=10)
    runs = [maximize(spec, quiet_config) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
