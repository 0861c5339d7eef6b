import dataclasses
import itertools
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gravwitness import constraints, decoherence, sweep
from gravwitness.constraints import (casimir_polder_potential, cp_ratio,
                                     feasibility_report,
                                     gravitational_potential,
                                     magnetic_interaction_ratio)
from gravwitness.core import (ARRAY_OPS, NAN_OPS,
                              ConfigConsistencyWarning, ConfigError,
                              ExperimentConfig, RegimeError, load_config,
                              paper_defaults, validate)
from gravwitness.decoherence import (DecoherenceRates, collisional_time,
                                     dephasing_budget, thermal_rates)
from gravwitness.gravphase import PhaseSet, static_phases
from gravwitness.spinstate import TwoQubitState, negativity
from gravwitness.sweep import (OBJECTIVES, SweepAxis, SweepRow, SweepSpec,
                               _evaluate_point, _line_search, evaluate,
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
    for count in (2.5, 3.0, "3"):
        with pytest.raises(ValueError,
                           match="axis tau: count must be an integer"):
            SweepAxis("tau", 0.0, 1.0, count)
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


def test_numpy_integer_count(paper_config):
    spec = SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, np.int64(3)),))
    assert len(run_sweep(spec, paper_config).rows) == 3


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
    # infeasible, as the sweep row at this point is
    assert not ev.report.feasible
    assert ev.report.reasons == (f"decoherence regime: {ev.regimeError}",)
    with pytest.raises(RegimeError) as err:
        dephasing_budget(hot)
    assert ev.regimeError == str(err.value)


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
            math.sqrt(2) * abs(math.sin(s / 2)), abs=1e-12)
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
    _, cold = _outcome(maximize, spec, paper_config)
    run_sweep(spec, paper_config)
    # the start row a sweep of the same objects kept: none
    _, kept = _outcome(maximize, spec, paper_config)
    assert repr(kept) == repr(cold) == repr(
        ValueError("no feasible grid point to start from"))


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


# ------------------------------------------------- batched grid vs scalar

# axis name -> (min, max) for linear axes; log axes use the positive part
_AXIS_RANGES = {
    "tau": (0.05, 12.0),
    "dx": (1e-9, 6e-4),         # collisional guard below ~2e-8; dx >= d, contact
    "d": (1e-4, 1e-3),
    "pressure": (0.0, 1e-11),   # pressure = 0 is an invalid row
    "tEnv": (1e-7, 300.0),      # collisional guard when cold, thermal when hot
    "tInt": (0.0, 30.0),        # tInt = 0 switches emission off
    "tauAcc": (1e-3, 1.0),      # with dx=None: kinematic dx from 4e-10 m up
    "m1": (1e-15, 1e-13),
    "radius": (1e-7, 5e-6),
}


@st.composite
def grids(draw, max_count=4):
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_RANGES)), min_size=1,
                          max_size=4, unique=True))
    axes = []
    for name in names:
        lo, hi = _AXIS_RANGES[name]
        spacing = draw(st.sampled_from(("linear", "log")))
        if spacing == "log":
            lo = max(lo, hi * 1e-8)
            a, b = sorted(10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
                          for _ in range(2))
        else:
            a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
            if draw(st.booleans()):
                a = lo
        assume(a < b)
        axes.append(SweepAxis(name, a, b, draw(st.integers(2, max_count)),
                              spacing))
    return SweepSpec(axes=tuple(axes),
                     objective=draw(st.sampled_from(OBJECTIVES)),
                     cpRatioMax=10.0 ** draw(st.floats(-2.0, 1.0)),
                     requireTauCollOver=draw(st.floats(1.0, 3.0)))


def _kinematic_unequal(paper_config):
    return dataclasses.replace(paper_config, dx=None, m2=2e-14)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as err:        # compared by the caller
        return None, err


def _scalar_rows(spec, base):
    names = [a.name for a in spec.axes]
    return [_evaluate_point(base, spec, dict(zip(names, map(float, combo))))
            for combo in itertools.product(*(a.values() for a in spec.axes))]


@given(spec=grids(), kinematic=st.booleans())
@example(spec=SweepSpec(axes=(SweepAxis("pressure", 0.0, 2e-15, 3),
                              SweepAxis("tInt", 0.0, 20.0, 3),
                              SweepAxis("dx", 1e-9, 5.9867e-4, 5),
                              SweepAxis("tEnv", 1e-6, 50.0, 4, "log")),
                        objective="witnessOptimized"),
         kinematic=False)
@example(spec=SweepSpec(axes=(SweepAxis("tauAcc", 1e-3, 0.6, 4, "log"),
                              SweepAxis("m1", 5e-15, 2e-14, 3),
                              SweepAxis("tInt", 0.0, 10.0, 3))),
         kinematic=True)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_equal_scalar_rows_bitwise(paper_config, spec, kinematic):
    base = _kinematic_unequal(paper_config) if kinematic else paper_config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        expected = _scalar_rows(spec, base)
    rows = run_sweep(spec, base).rows
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        # repr round-trips every float (-0.0 and nan included) and shows
        # a numpy scalar where a Python float belongs
        assert repr(row) == repr(want)


# enough rows that a last-bit slip in exp, pow or an inversion shows
_DENSE_AXES = (SweepAxis("tau", 0.5, 8.0, 8),
               SweepAxis("dx", 1e-4, 5.5e-4, 6),
               SweepAxis("pressure", 1e-17, 1e-12, 5, "log"),
               SweepAxis("tEnv", 0.05, 20.0, 4, "log"))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_sweep_rows_equal_scalar_rows_on_a_dense_grid(paper_config, objective):
    spec = SweepSpec(axes=_DENSE_AXES, objective=objective)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        expected = _scalar_rows(spec, paper_config)
    assert [repr(r) for r in run_sweep(spec, paper_config).rows] == \
        [repr(r) for r in expected]


def test_sweep_rows_cover_every_kind(paper_config):
    # the explicit examples above reach each kind of row
    spec = SweepSpec(axes=(SweepAxis("pressure", 0.0, 2e-15, 3),
                           SweepAxis("tInt", 0.0, 20.0, 3),
                           SweepAxis("dx", 1e-9, 5.9867e-4, 5),
                           SweepAxis("tEnv", 1e-6, 50.0, 4, "log")))
    reasons = [row.reason for row in run_sweep(spec, paper_config).rows]
    assert any(r.startswith("invalid config: pressure") for r in reasons)
    assert any("dx < d violated" in r for r in reasons)
    assert any("d - dx > 2*radius violated" in r for r in reasons)
    assert any("saturated collisional regime" in r for r in reasons)
    assert any("long-wavelength photon regime" in r for r in reasons)
    assert any(r.startswith("cpRatio") for r in reasons)
    assert "" in reasons


@given(spec=grids(max_count=3), kinematic=st.booleans())
@settings(max_examples=25, deadline=None)
def test_maximize_dominates_the_grid(paper_config, spec, kinematic):
    base = _kinematic_unequal(paper_config) if kinematic else paper_config
    feasible = [r.objective for r in run_sweep(spec, base).rows
                if r.feasible and math.isfinite(r.objective)]
    if not feasible:
        with pytest.raises(ValueError, match="feasible"):
            maximize(spec, base)
        return
    best_config, best_row = maximize(spec, base)
    assert best_row.feasible
    assert best_row.objective >= max(feasible)
    assert best_config == validate(dataclasses.replace(base, **best_row.params))


def _maximize_every_round(spec, base):
    """`maximize` as written before it skipped repeated line searches:
    three full rounds of a line search along every axis."""
    best = max((r for r in run_sweep(spec, base).rows
                if r.feasible and math.isfinite(r.objective)),
               key=lambda r: r.objective)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        for _ in range(3):
            for axis in spec.axes:
                best = _line_search(base, spec, axis, best)
        return validate(dataclasses.replace(base, **best.params)), best


@given(spec=grids(max_count=3), kinematic=st.booleans())
# the second round improves on the first here
@example(spec=SweepSpec(axes=(SweepAxis("d", 1e-4, 9e-4, 2),
                              SweepAxis("radius", 1e-7, 1e-6, 2, "log"),
                              SweepAxis("m1", 1e-14, 1e-13, 2, "log"),
                              SweepAxis("tau", 1.0, 2.0, 2)),
                        cpRatioMax=1.0),
         kinematic=False)
@settings(max_examples=25, deadline=None)
def test_maximize_skips_only_searches_that_repeat(paper_config, spec,
                                                  kinematic):
    base = _kinematic_unequal(paper_config) if kinematic else paper_config
    assume(any(r.feasible and math.isfinite(r.objective)
               for r in run_sweep(spec, base).rows))
    assert repr(maximize(spec, base)) == repr(_maximize_every_round(spec, base))


def _dephased_negativities(spec, base):
    rows = run_sweep(spec, base).rows
    assert len({(r.dPhiLR, r.dPhiRL) for r in rows}) == 1     # fixed phases
    return [r.objective for r in rows if "decoherence regime" not in r.reason]


@given(tau=st.floats(0.5, 8.0), pressure=st.floats(-18.0, -12.0),
       hi=st.floats(0.5, 30.0))
@settings(max_examples=40, deadline=None)
def test_dephased_negativity_never_increases_with_tint(paper_config, tau,
                                                      pressure, hi):
    base = dataclasses.replace(paper_config, tau=tau, pressure=10.0 ** pressure)
    values = _dephased_negativities(
        SweepSpec(axes=(SweepAxis("tInt", 0.0, hi, 12),)), base)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


@given(tau=st.floats(0.5, 8.0), pressure=st.floats(-45.0, -40.0),
       lo=st.floats(-4.0, -0.5), hi=st.floats(0.0, 1.5))
@settings(max_examples=40, deadline=None)
def test_dephased_negativity_never_increases_with_tenv(paper_config, tau,
                                                      pressure, lo, hi):
    # Without the gas: below 1e-40 Pa its collision rate (< 1e-26 /s) is
    # under the rounding of the photon-emission rate at tInt = 0.15 K.  At
    # fixed pressure a warmer gas is thinner; see the next test.
    base = dataclasses.replace(paper_config, tau=tau, pressure=10.0 ** pressure)
    values = _dephased_negativities(
        SweepSpec(axes=(SweepAxis("tEnv", 10.0 ** lo, 10.0 ** hi, 12, "log"),)),
        base)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_warmer_gas_at_fixed_pressure_decoheres_less(paper_config):
    # collisions scale as n vbar ~ P / sqrt(tEnv): at 1e-15 Pa, warming from
    # 0.1 K to 0.2 K lowers the collision rate more than it raises the
    # thermal-photon rates, and entanglement comes back
    spec = SweepSpec(axes=(SweepAxis("tEnv", 0.1, 0.2, 2),))
    cold, warm = run_sweep(spec, paper_config).rows
    assert cold.objective == 0.0 < warm.objective
    assert warm.tauColl > cold.tauColl


def _hash(record):
    try:
        return hash(record)
    except TypeError as err:        # a SweepRow holds its params dict
        return repr(err)


def test_point_configs_are_what_replace_builds(paper_config):
    # core._frozen skips the dataclass __init__, which is sound only while
    # the __init__ of each class it builds just stores the fields
    overrides = {"tau": 2, "dx": None, "tEnv": 1e-3}
    built = sweep._config(vars(paper_config), overrides)
    assert built == dataclasses.replace(paper_config, **overrides)
    spec = SweepSpec(axes=(SweepAxis("tau", 1.0, 2.0, 2),))
    records = (built, _evaluate_point(paper_config, spec, {"tau": 2.0}),
               static_phases(paper_config),
               decoherence._budget(paper_config, NAN_OPS)[3])
    assert list(map(type, records)) == [ExperimentConfig, SweepRow, PhaseSet,
                                        DecoherenceRates]
    for built in records:
        cls = type(built)
        fields = dataclasses.fields(cls)
        assert not hasattr(cls, "__post_init__")
        assert not hasattr(cls, "__slots__")
        assert all(f.init for f in fields)
        want = cls(**{f.name: getattr(built, f.name) for f in fields})
        assert built == want and vars(built) == vars(want)
        assert list(vars(built)) == list(vars(want))
        assert repr(built) == repr(want)
        assert _hash(built) == _hash(want)
        assert dataclasses.asdict(built) == dataclasses.asdict(want)
        name = fields[1].name
        assert dataclasses.replace(built) == want
        assert (dataclasses.replace(built, **{name: 7.0})
                == dataclasses.replace(want, **{name: 7.0}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, 7.0)


def test_sweep_from_a_json_config_with_integer_fields(tmp_path, paper_config):
    # a hand-written config file holds ints where floats are meant
    path = tmp_path / "cfg.json"
    path.write_text('{"tau": 2, "tauAcc": 1, "dBdx": 250000, "tInt": 0, '
                    '"epsRel": 6, "dx": null}')
    base = load_config(path)
    assert type(base.tau) is int and type(base.tauAcc) is int
    for objective in OBJECTIVES:
        spec = SweepSpec(axes=(SweepAxis("tEnv", 0.05, 2.0, 4, "log"),
                               SweepAxis("d", 4e-4, 1.2e-3, 5)),
                         objective=objective)
        rows = run_sweep(spec, base).rows
        assert [repr(r) for r in rows] == \
            [repr(r) for r in _scalar_rows(spec, base)]
        assert any(r.feasible for r in rows)


# base fields every point of a grid shares, where a number computed from
# them fails
_SHARED_FAILURES = [
    # the photon guard fires at tEnv, where kT**9 would overflow
    dict(tEnv=1e32),
    # and at tInt, where kT**6 would
    dict(tInt=1e49),
    # n vbar pi R^2 overflows: tauColl is 0 and the budget's rate inf
    dict(pressure=1e300),
    # G m1 m2 underflows to 0, and cpRatio divides by zero
    dict(m1=1e-150, m2=1e-170),
    # and radius**6 overflows first, which the scalar path raises
    dict(m1=1e-150, m2=1e-170, radius=1e52, d=3e52),
]


@pytest.mark.parametrize("fields", _SHARED_FAILURES)
def test_sweep_equals_the_scalar_sweep_where_a_shared_number_fails(
        paper_config, fields):
    # every point shares the failing number, which the batch computes once
    base = dataclasses.replace(paper_config, **fields)
    for objective in OBJECTIVES:
        spec = SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, 4),),
                         objective=objective)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigConsistencyWarning)
            want, want_err = _outcome(_scalar_rows, spec, base)
        rows, err = _outcome(run_sweep, spec, base)
        assert repr(err) == repr(want_err)
        if want_err is None:
            assert [repr(r) for r in rows.rows] == [repr(r) for r in want]


@pytest.mark.parametrize("axis, fields, error", [
    # the second row's phases overflow to inf - inf
    (SweepAxis("tau", 1.0, 1.7e308, 2), dict(m1=1e-12, m2=1e-12),
     "phases must be finite"),
    # radius**6 / r**7 overflows in the Casimir-Polder ratio: a nan ratio,
    # which nothing raises on
    (SweepAxis("d", 1e46, 2e46, 2), dict(radius=1e45), None),
    # the first row fails on its phases, the second one's ratio overflows
    (SweepAxis("d", 4.5e-4, 1e46, 2), dict(m1=1e-12, m2=1e-12, tau=1.7e308),
     "phases must be finite"),
    # the second row's kinematic dx overflows in tauAcc**2, an invalid row
    (SweepAxis("tauAcc", 0.5, 1e155, 2),
     dict(m1=1e-12, m2=1e-12, tau=1.7e308), "phases must be finite"),
])
def test_sweep_raises_what_the_scalar_path_raises(paper_config, axis, fields,
                                                  error):
    # evaluate, the scalar path of the CLI witness, returns at every valid
    # point, with the row's feasibility and reasons; its spin states raise
    # where the phases are not finite, ``error`` first, and the row is an
    # arithmetic row there.  The sweep raises nothing, and its rows are the
    # scalar pipeline's
    base = dataclasses.replace(paper_config, **fields)
    for objective in OBJECTIVES:
        spec = SweepSpec(axes=(axis,), objective=objective)
        rows = run_sweep(spec, base).rows
        assert [repr(r) for r in rows] == \
            [repr(r) for r in _scalar_rows(spec, base)]
        errors = []
        for row in rows:
            try:
                cfg = validate(dataclasses.replace(base, **row.params))
            except ConfigError:
                assert row.reason.startswith("invalid config: ")
                continue
            ev = evaluate(cfg, spec.cpRatioMax, spec.requireTauCollOver)
            assert (ev.report.feasible, "; ".join(ev.report.reasons)) == \
                (row.feasible, row.reason)
            _, err = _outcome(lambda: (ev.state, ev.dephased))
            if err is not None:
                assert "arithmetic: dPhiLR nan, dPhiRL nan" in row.reason
                errors.append(err)
        if error is None:
            assert errors == []
        else:
            assert isinstance(errors[0], ValueError)
            assert re.search(error, str(errors[0]))
        arithmetic = [r for r in rows if "arithmetic: " in r.reason]
        assert arithmetic
        assert all(math.isnan(r.objective) and not r.feasible
                   for r in arithmetic)
        best, err = _outcome(maximize, spec, base)
        if err is None:
            assert best[1].feasible
        else:
            assert repr(err) == repr(
                ValueError("no feasible grid point to start from"))


def _best_row(spec, base):
    """`maximize`'s start row as `run_sweep` gives it: the first of the
    feasible rows with finite objectives whose objective is the largest."""
    feasible = [r for r in run_sweep(spec, base).rows
                if r.feasible and math.isfinite(r.objective)]
    if not feasible:
        raise ValueError("no feasible grid point to start from")
    return max(feasible, key=lambda r: r.objective)


def _check_start_rows(spec, base):
    for objective in OBJECTIVES:
        spec = dataclasses.replace(spec, objective=objective)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigConsistencyWarning)
            want, want_err = _outcome(_best_row, spec, base)
            got, err = _outcome(sweep._start_row, spec, base)
        assert repr(err) == repr(want_err)
        assert repr(got) == repr(want)


@given(spec=grids(), kinematic=st.booleans())
# every kind of row, and many feasible rows whose objective is 0
@example(spec=SweepSpec(axes=_DENSE_AXES), kinematic=False)
@settings(max_examples=40, deadline=None)
def test_start_row_is_the_best_sweep_row(paper_config, spec, kinematic):
    _check_start_rows(spec, _kinematic_unequal(paper_config) if kinematic
                      else paper_config)


@pytest.mark.parametrize("fields", _SHARED_FAILURES)
def test_start_row_is_the_best_sweep_row_where_a_shared_number_fails(
        paper_config, fields):
    _check_start_rows(SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, 4),)),
                      dataclasses.replace(paper_config, **fields))


def test_maximize_builds_one_row_from_its_start_grid(paper_config,
                                                     monkeypatch):
    # the start grid is scanned as arrays: one row, and no scalar budget
    # (the scalar pipeline's, with NAN_OPS) outside the line searches, for
    # the messages of the regime rows it passes over
    spec = SweepSpec(axes=_DENSE_AXES, objective="witnessOptimized")
    assert any("decoherence regime" in r.reason
               for r in run_sweep(spec, paper_config).rows)
    counts = {"rows": 0, "start rows": 0, "evaluations": 0,
              "scalar budgets": 0}
    searching = []

    def new_row(*args):
        counts["rows"] += 1
        counts["start rows"] += not searching
        return new_row_of_sweep(*args)

    def evaluate_point(*args):
        counts["evaluations"] += 1
        return _evaluate_point(*args)

    def line_search(*args):
        searching.append(True)
        try:
            return _line_search(*args)
        finally:
            searching.pop()

    scalar_budget, new_row_of_sweep = decoherence._budget, sweep._new_row

    def budget(cfg, ops):
        counts["scalar budgets"] += ops is NAN_OPS and not searching
        return scalar_budget(cfg, ops)

    # every row the sweep builds goes through _new_row
    monkeypatch.setattr(sweep, "_new_row", new_row)
    monkeypatch.setattr(sweep, "_evaluate_point", evaluate_point)
    monkeypatch.setattr(sweep, "_line_search", line_search)
    monkeypatch.setattr(decoherence, "_budget", budget)
    # an equal spec, not the swept one: maximize scans its own grid
    maximize(dataclasses.replace(spec), paper_config)
    assert counts["evaluations"] > 0
    assert counts["rows"] <= 1 + counts["evaluations"]
    assert counts["start rows"] == 1
    assert counts["scalar budgets"] == 0
    # the counters see a scalar row and its budget
    rows = counts["rows"]
    _evaluate_point(paper_config, spec, {})
    assert counts["scalar budgets"] == 1 and counts["rows"] == rows + 1


@given(spec=grids(max_count=3), kinematic=st.booleans())
@example(spec=SweepSpec(axes=_DENSE_AXES), kinematic=False)
@example(spec=SweepSpec(axes=_DENSE_AXES), kinematic=True)
@settings(max_examples=15, deadline=None)
def test_maximize_after_run_sweep_equals_a_cold_maximize(paper_config, spec,
                                                         kinematic):
    base = _kinematic_unequal(paper_config) if kinematic else paper_config
    stale = SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, 2),))
    for objective in OBJECTIVES:
        spec = dataclasses.replace(spec, objective=objective)
        want = repr(_outcome(maximize, spec, base))     # no sweep of spec yet
        for row in run_sweep(spec, base).rows:
            row.params.clear()          # the caller's rows, not the kept one
        # the same objects start from the kept row, equal copies scan
        got = _outcome(maximize, spec, base)
        assert repr(got) == want
        if got[0] is not None:
            got[0][1].params.clear()
        assert repr(_outcome(maximize, spec, base)) == want
        assert repr(_outcome(maximize, dataclasses.replace(spec),
                             dataclasses.replace(base))) == want
        # a slot another spec or base left
        run_sweep(stale, base)
        assert repr(_outcome(maximize, spec, base)) == want
        run_sweep(spec, dataclasses.replace(base))
        assert repr(_outcome(maximize, spec, base)) == want


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_maximize_after_run_sweep_scans_no_grid(paper_config, monkeypatch,
                                                objective):
    counts = dict.fromkeys(("_grid_points", "_objectives"), 0)
    for name in counts:
        def counting(*args, _name=name, _original=getattr(sweep, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(sweep, name, counting)

    def stages(swept, maximized):
        counts.update(dict.fromkeys(counts, 0))
        run_sweep(*swept)
        maximize(*maximized)
        return counts["_grid_points"], counts["_objectives"]
    spec = SweepSpec(axes=_DENSE_AXES, objective=objective)
    same = (spec, paper_config)
    # one grid stage, and run_sweep finds its start row in the objectives
    # its rows hold
    assert stages(same, same) == (1, 1)
    for other in [(dataclasses.replace(spec), paper_config),
                  (spec, dataclasses.replace(paper_config))]:
        assert stages(same, other) == (2, 2)
        assert stages(other, same) == (2, 2)


# ------------------------------------- batched cores vs the scalar functions

# per field, values of either type a hand-written config may hold
_FIELD_VALUES = {
    "tau": st.one_of(st.floats(0.05, 12.0), st.integers(1, 12)),
    "d": st.floats(1e-4, 1e-3),
    "dx": st.floats(1e-9, 6e-4),            # collisional guard below ~2e-8
    "pressure": st.one_of(st.floats(-30.0, -10.0).map(lambda e: 10.0 ** e),
                          st.integers(1, 3)),
    # thermal guard when hot; kB T underflows to 0 at 1e-310 and 5e-324;
    # at 1e32 the guard fires where kT**9 would overflow
    "tEnv": st.one_of(st.floats(-7.0, 2.5).map(lambda e: 10.0 ** e),
                      st.integers(1, 300),
                      st.sampled_from([1e-310, 5e-324, 1e32])),
    # at 1e49 the guard fires where kT**6 would overflow
    "tInt": st.one_of(st.just(0), st.just(0.0), st.floats(0.0, 30.0),
                      st.sampled_from([1e-310, 1e49])),
    "radius": st.floats(1e-7, 5e-6),
    "epsRel": st.one_of(st.floats(1.5, 10.0), st.integers(2, 10)),
    "m1": st.floats(1e-15, 1e-13),
}


@st.composite
def batches(draw):
    """A base configuration and validated points that differ from it in a
    few fields, as a grid's points do; a field no point varies is a number
    shared by the batch.  At ``huge``, radius**6 / r**7 overflows, with d
    varied or shared."""
    huge = draw(st.booleans()) and draw(st.booleans())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        base = validate(paper_defaults())
    base = dataclasses.replace(base, **{
        name: draw(values) for name, values in _FIELD_VALUES.items()
        if draw(st.booleans())})
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=1,
                          max_size=4, unique=True))
    if huge:
        base = dataclasses.replace(base, radius=1e45, d=1.5e46)
        names = [name for name in names if name not in ("d", "radius")]
        if draw(st.booleans()):
            names.insert(0, "d")
    points = []
    for _ in range(draw(st.integers(1, 6))):
        values = {name: draw(st.floats(1e46, 2e46) if huge and name == "d"
                             else _FIELD_VALUES[name]) for name in names}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConfigConsistencyWarning)
                points.append(validate(dataclasses.replace(base, **values)))
        except ConfigError:
            pass
    assume(points)
    return base, names, points


@given(batch=batches(), target=st.floats(0.01, 10.0),
       factor=st.floats(1.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_array_cores_equal_the_scalar_functions(batch, target, factor):
    base, names, points = batch
    arrays = SimpleNamespace(**{**vars(base), **{
        name: np.array([getattr(cfg, name) for cfg in points], dtype=float)
        for name in names}})
    n = len(points)

    def column(x):
        return np.broadcast_to(x, (n,)).tolist()

    with np.errstate(all="ignore"):
        report = constraints._closest_approach(arrays, 0.0, ARRAY_OPS)
        collisions = decoherence._collisions(arrays, ARRAY_OPS)
        guard, tau, wavelengths, rates = decoherence._budget(arrays,
                                                             ARRAY_OPS)
        duration = decoherence.experiment_duration(arrays)
        failing = [column(x) for x in constraints._failing(
            report[2], report[3], target, tau, factor, duration)]
        point = sweep._point(arrays, ARRAY_OPS)
    report = [column(x) for x in report]
    collisions = [column(x) for x in collisions]
    guard, tau, duration = map(column, (guard, tau, duration))
    wavelengths = [column(x) for x in wavelengths]
    rates = {f.name: column(getattr(rates, f.name))
             for f in dataclasses.fields(rates)}
    exists = column(point.exists)
    phases = [column(x) for x in (point.dPhiLR, point.dPhiRL)]
    times = [column(x) for x in (point.tauColl, point.collisionalTime)]

    for j, cfg in enumerate(points):
        # the scalar cores with NAN_OPS, guard numbers included, at every
        # point: they raise nowhere
        assert [repr(x[j]) for x in report] == \
            [repr(v) for v in constraints._closest_approach(cfg, 0.0, NAN_OPS)]
        assert repr([x[j] for x in collisions]) == \
            repr(list(decoherence._collisions(cfg, NAN_OPS)))
        budget = decoherence._budget(cfg, NAN_OPS)
        assert repr((guard[j], tau[j], [x[j] for x in wavelengths])) == \
            repr((budget[0], budget[1], list(budget[2])))
        assert {k: repr(v[j]) for k, v in rates.items()} == \
            {k: repr(getattr(budget[3], k)) for k in rates}
        # the row's tauColl, the budget's, and the one the check compares
        assert repr([x[j] for x in times]) == repr(
            [math.nan if guard[j] else budget[3].tauColl, budget[1]])
        fired = collisions[0][j]
        assert fired == (guard[j] == decoherence._COLLISIONAL)
        want_phases = static_phases(cfg)
        assert repr([x[j] for x in phases]) == \
            repr([want_phases.dPhiLR, want_phases.dPhiRL])
        p = 0.0 if guard[j] else budget[3].totalDephasing / 2.0
        assert exists[j] == sweep._exists(want_phases.dPhiLR,
                                          want_phases.dPhiRL, report[2][j],
                                          report[3][j], p)

        # the public functions read these cores: their values bit for
        # bit, and where a guard fires the RegimeError of its message
        want_report = feasibility_report(cfg, target, 0.0, factor)
        want_tau, tau_err = _outcome(collisional_time, cfg)
        want_rates, rates_err = _outcome(dephasing_budget, cfg)
        want_photons, photons_err = _outcome(thermal_rates, cfg)
        assert all(err is None or isinstance(err, RegimeError)
                   for err in (tau_err, rates_err, photons_err))
        coll_error = decoherence._first_guard_message(
            cfg, fired, [wavelengths[0][j]])
        got = dict(zip(("vCP", "vGrav", "cpRatio", "magRatio"),
                       (x[j] for x in report)))
        assert [repr(v) for v in got.values()] == \
            [repr(getattr(want_report, k)) for k in got]
        r = cfg.d - cfg.dx
        assert [repr(v) for v in got.values()] == [repr(v) for v in (
            casimir_polder_potential(cfg, r), gravitational_potential(cfg, r),
            cp_ratio(cfg), magnetic_interaction_ratio(cfg, 0.0))]
        missing = [k for k in ("cpRatio", "magRatio") if math.isnan(got[k])]
        assert want_report.reasons == tuple(constraints._reasons(
            got["cpRatio"], got["magRatio"], target, tau[j], factor,
            duration[j], coll_error) + (
                ["arithmetic: " + ", ".join(f"{k} nan" for k in missing)]
                if missing else []))
        # the decision on arrays: a failing check, the collisional guard or
        # a ratio that does not exist
        assert want_report.feasible == \
            (not (fired or missing or any(mask[j] for mask in failing)))
        assert str(tau_err or "") == coll_error
        if tau_err is None:
            assert repr(tau[j]) == repr(want_tau)
        assert str(rates_err or "") == decoherence._first_guard_message(
            cfg, guard[j], [x[j] for x in wavelengths])
        assert bool(guard[j]) == (rates_err is not None)
        if rates_err is None:
            assert {k: repr(v[j]) for k, v in rates.items()} == \
                {k: repr(getattr(want_rates, k)) for k in rates}
        # thermal_rates raises at the budget's photon guard, where the
        # collisional guard does not fire first
        if guard[j] != decoherence._COLLISIONAL:
            assert str(photons_err or "") == str(rates_err or "")
        if photons_err is None:
            assert [repr(v) for v in want_photons] == [
                repr(rates[k][j]) for k in ("gammaSc", "gammaEm", "gammaAbs")]


@pytest.fixture
def scalar_calls(monkeypatch):
    """Calls of the scalar feasibility_report, and of the cores it and
    `evaluate` read, with NAN_OPS: `constraints._closest_approach`,
    `decoherence._collisions` and `decoherence._budget`, which the
    sweep's scalar pipeline reaches too."""
    calls = dict.fromkeys(
        ("feasibility_report", "_closest_approach", "_collisions", "_budget"),
        0)
    report = feasibility_report

    def counting_report(*args, **kwargs):
        calls["feasibility_report"] += 1
        return report(*args, **kwargs)
    monkeypatch.setattr(constraints, "feasibility_report", counting_report)
    for module, name in ((constraints, "_closest_approach"),
                         (decoherence, "_collisions"),
                         (decoherence, "_budget")):
        def counting(*args, core=getattr(module, name), name=name):
            calls[name] += args[-1] is NAN_OPS
            return core(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_witness_grid_calls_no_scalar_report(paper_config, scalar_calls):
    spec = SweepSpec(axes=_DENSE_AXES, objective="witnessOptimized")
    rows = run_sweep(spec, paper_config).rows
    assert any("decoherence regime" in r.reason for r in rows)
    # a regime row formats its guard's message from the batch's numbers
    assert set(scalar_calls.values()) == {0}
    # evaluate reads each core once, and no report of its own
    evaluate(paper_config)
    assert scalar_calls == {"feasibility_report": 0, "_closest_approach": 1,
                            "_collisions": 1, "_budget": 1}
    # the counters see the public report, which reads two of them
    constraints.feasibility_report(paper_config)
    assert scalar_calls == {"feasibility_report": 1, "_closest_approach": 2,
                            "_collisions": 2, "_budget": 1}


@pytest.fixture
def scalar_points(monkeypatch):
    """The single configurations `sweep._point` is called with; a batch
    of them is not counted."""
    calls = []
    original = sweep._point

    def counting(cfg, ops=NAN_OPS):
        if isinstance(cfg, ExperimentConfig):
            calls.append(cfg)
        return original(cfg, ops)
    monkeypatch.setattr(sweep, "_point", counting)
    return calls


# up to a pressure where n vbar pi R^2 overflows: the collision rate is inf
# and the budget saturated, in the scalar pipeline as in the batch
_SATURATING_AXES = (SweepAxis("pressure", 1e-15, 1e300, 6, "log"),
                    SweepAxis("tau", 0.5, 8.0, 3))


def _check_batched(scalar_points, spec, base):
    """`run_sweep` and `_start_row` call no scalar pipeline, and the rows
    are the scalar rows."""
    rows = run_sweep(spec, base).rows
    _outcome(sweep._start_row, spec, base)
    assert scalar_points == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        expected = _scalar_rows(spec, base)
    assert [repr(r) for r in rows] == [repr(r) for r in expected]
    # the scalar rows show the fixture counting: one call a valid point
    assert len(scalar_points) == sum(
        not r.reason.startswith("invalid config") for r in rows) > 0
    scalar_points.clear()
    return rows


@pytest.mark.parametrize("axes", [_DENSE_AXES, _SATURATING_AXES])
def test_batched_grids_call_no_scalar_pipeline(paper_config, scalar_points,
                                               axes):
    for objective in OBJECTIVES:
        rows = _check_batched(scalar_points,
                              SweepSpec(axes=axes, objective=objective),
                              paper_config)
    if axes is _SATURATING_AXES:
        assert any(r.tauColl == 0.0 for r in rows)


# the grid of a separation and a radius out to 1e46 m: invalid, feasible,
# infeasible and arithmetic rows
_OVERFLOWING_AXES = (SweepAxis("d", 3e-4, 1e46, 4, "log"),
                     SweepAxis("radius", 1e-6, 1e45, 3, "log"))


@pytest.mark.parametrize("fields, axes, reason", [
    # kT**9 overflows at a tEnv every point shares: regime and invalid rows
    pytest.param(dict(tEnv=1e32), (SweepAxis("tau", 0.5, 8.0, 3),
                                   SweepAxis("dx", 1e-4, 5.5e-4, 4)),
                 "invalid config: dx < d", id="tEnv-dx"),
    *[pytest.param(fields, (SweepAxis("tau", 0.5, 8.0, 4),), reason,
                   id=f"shared{k}")
      for k, (fields, reason) in enumerate(zip(_SHARED_FAILURES, [
          "long-wavelength photon regime", "long-wavelength photon regime",
          "tauColl 0 s", "cpRatio inf > 0.1", "arithmetic: cpRatio nan"]))],
    pytest.param({}, _OVERFLOWING_AXES, "arithmetic: cpRatio nan",
                 id="overflowing"),
])
def test_grids_with_failing_numbers_call_no_scalar_pipeline(
        paper_config, scalar_points, fields, axes, reason):
    base = dataclasses.replace(paper_config, **fields)
    for objective in OBJECTIVES:
        rows = _check_batched(scalar_points,
                              SweepSpec(axes=axes, objective=objective), base)
        assert any(reason in r.reason for r in rows)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# log-uniform fields out to where powers overflow and potentials underflow
_EXTREME_FIELDS = {
    **dict.fromkeys(("d", "dx", "radius"), _log_uniform(1e-300, 1e60)),
    "pressure": _log_uniform(1e-300, 1e300),
    **dict.fromkeys(("tEnv", "tInt"), _log_uniform(1e-300, 1e60)),
    **dict.fromkeys(("m1", "m2"), _log_uniform(1e-200, 1e30)),
    "tau": _log_uniform(1e-3, 1.7e308),
}


@st.composite
def extreme_grids(draw):
    """A spec of one or two log axes over extreme ranges, and base fields
    drawn from the same ranges."""
    names = draw(st.lists(st.sampled_from(sorted(_EXTREME_FIELDS)),
                          min_size=1, max_size=2, unique=True))
    axes = []
    for name in names:
        a, b = sorted(draw(_EXTREME_FIELDS[name]) for _ in range(2))
        assume(a < b)
        axes.append(SweepAxis(name, a, b, draw(st.integers(2, 3)), "log"))
    fields = {name: draw(values) for name, values in _EXTREME_FIELDS.items()
              if draw(st.booleans())}
    return (SweepSpec(axes=tuple(axes),
                      objective=draw(st.sampled_from(OBJECTIVES))), fields)


@given(grid=extreme_grids())
# r**3 and r**7 underflow to 0 at every point
@example(grid=(SweepSpec(axes=(SweepAxis("tau", 0.5, 8.0, 2),),
                         objective="witness"),
               dict(d=1e-200, dx=5e-201, radius=1e-202)))
@example(grid=(SweepSpec(axes=_OVERFLOWING_AXES), {}))
@settings(max_examples=40, deadline=None)
def test_extreme_grids_are_rows_that_maximize_reads(paper_config, grid):
    spec, fields = grid
    base = dataclasses.replace(paper_config, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning escapes
        expected = _scalar_rows(spec, base)
        rows = run_sweep(spec, base).rows
        best, err = _outcome(maximize, spec, base)
    assert [repr(r) for r in rows] == [repr(r) for r in expected]
    feasible = [r.objective for r in rows if r.feasible]
    assert all(math.isfinite(x) for x in feasible)
    if err is None:
        assert best[1].feasible and best[1].objective >= max(feasible)
    else:
        assert not feasible
        assert repr(err) == repr(
            ValueError("no feasible grid point to start from"))


# ------------------------------------------------ spin states a sweep builds

# invalid, regime-error, infeasible and feasible rows
_MIXED_AXES = (SweepAxis("tau", 0.5, 8.0, 4),
               SweepAxis("dx", 1e-4, 5.5e-4, 4),
               SweepAxis("pressure", 1e-17, 1e-12, 3, "log"),
               SweepAxis("tEnv", 0.05, 20.0, 3, "log"))


@pytest.fixture
def built_states(monkeypatch):
    """Every TwoQubitState constructed while the test runs."""
    built = []
    post_init = TwoQubitState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(TwoQubitState, "__post_init__", counting)
    return built


def _row_kinds(rows):
    return {"invalid" if r.reason.startswith("invalid config")
            else "regime" if "decoherence regime" in r.reason
            else "feasible" if r.feasible else "infeasible" for r in rows}


def test_witness_sweep_and_maximize_build_no_state(paper_config,
                                                   built_states):
    spec = SweepSpec(axes=_MIXED_AXES, objective="witnessOptimized")
    rows = run_sweep(spec, paper_config).rows
    maximize(spec, paper_config)
    maximize(dataclasses.replace(spec), paper_config)   # scans its own grid
    assert _row_kinds(rows) == {"invalid", "regime", "infeasible", "feasible"}
    assert built_states == []


def test_negativity_sweep_builds_two_states_a_row(paper_config, built_states):
    # the noiseless and the dephased state of each row outside the regime
    # errors, in the batched and in the scalar sweep alike
    spec = SweepSpec(axes=_MIXED_AXES)
    rows = run_sweep(spec, paper_config).rows
    assert _row_kinds(rows) == {"invalid", "regime", "infeasible", "feasible"}
    with_states = sum(1 for r in rows if not r.reason.startswith("invalid")
                      and "decoherence regime" not in r.reason)
    assert len(built_states) == 2 * with_states
    built_states.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        _scalar_rows(spec, paper_config)
    assert len(built_states) == 2 * with_states


# ----------------------------------------------- line-search probes and rows

# base fields where a probe's phases overflow, where radius**6 / r**7 does,
# and where a number every point shares fails
_PROBE_BASES = [{}, dict(tau=1.7e308, m1=1e-12, m2=1e-12),
                dict(radius=1e45, d=1e46), *_SHARED_FAILURES]


@st.composite
def probes(draw):
    """A spec, and overrides of its axes inside their bounds."""
    spec = draw(grids(max_count=2))
    overrides = {}
    for axis in spec.axes:
        if axis.spacing == "log":
            overrides[axis.name] = math.exp(draw(st.floats(
                math.log(axis.min), math.log(axis.max))))
        else:
            overrides[axis.name] = draw(st.floats(axis.min, axis.max))
    return spec, overrides


def _mixed_probe(objective, **overrides):
    point = dict(tau=2.5, dx=2.5e-4, pressure=1e-15, tEnv=0.15)
    return SweepSpec(axes=_MIXED_AXES, objective=objective), {**point,
                                                              **overrides}


@given(probe=probes(), fields=st.sampled_from(_PROBE_BASES),
       kinematic=st.booleans())
@example(probe=_mixed_probe("witnessOptimized"), fields={}, kinematic=False)
@example(probe=_mixed_probe("negativity"), fields={}, kinematic=False)
# an invalid, a regime-error and an infeasible probe
@example(probe=_mixed_probe("negativity", dx=5e-4), fields={},
         kinematic=False)
@example(probe=_mixed_probe("witness", tEnv=20.0), fields={}, kinematic=False)
@example(probe=_mixed_probe("witness", pressure=1e-12), fields={},
         kinematic=False)
@settings(max_examples=150, deadline=None)
def test_line_search_score_is_the_rows(paper_config, probe, fields, kinematic):
    spec, overrides = probe
    base = dataclasses.replace(
        _kinematic_unequal(paper_config) if kinematic else paper_config,
        **fields)
    row, row_err = _outcome(_evaluate_point, base, spec, overrides)
    scored, score_err = _outcome(_evaluate_point, base, spec, overrides, True)
    assert repr(score_err) == repr(row_err)     # the same type and message
    if row_err is None:
        want = (row.objective if row.feasible and math.isfinite(row.objective)
                else -math.inf)
        assert repr(scored[0]) == repr(want)


@given(probe=probes(), fields=st.sampled_from(_PROBE_BASES),
       kinematic=st.booleans())
@example(probe=_mixed_probe("witness", tEnv=20.0), fields={},
         kinematic=False)
@example(probe=_mixed_probe("witness", dx=1e-9), fields={}, kinematic=False)
@example(probe=_mixed_probe("negativity", pressure=1e-12), fields={},
         kinematic=False)
@settings(max_examples=150, deadline=None)
def test_scalar_rows_read_what_evaluate_gives(paper_config, probe, fields,
                                              kinematic):
    # evaluate, with its full feasibility report and budget, is the
    # reference for the numbers a row and a line-search score read.  It
    # returns at every valid point, with the row's feasibility and reasons;
    # its spin states raise exactly where the phases or the flip
    # probability do not exist, which the row's arithmetic reason names
    spec, overrides = probe
    base = dataclasses.replace(
        _kinematic_unequal(paper_config) if kinematic else paper_config,
        **fields)
    try:
        cfg = validate(dataclasses.replace(base, **overrides))
    except ConfigError:
        return
    ev = evaluate(cfg, spec.cpRatioMax, spec.requireTauCollOver)
    report = feasibility_report(cfg, spec.cpRatioMax, 0.0,
                                spec.requireTauCollOver)
    row = _evaluate_point(base, spec, overrides)
    missing = {item.split()[0] for r in row.reason.split("; ")
               if r.startswith("arithmetic: ")
               for item in r[len("arithmetic: "):].split(", ")}
    _, state_err = _outcome(lambda: (ev.state, ev.dephased))
    assert (state_err is not None) == bool(missing & {"dPhiLR", "dPhiRL",
                                                      "p"})
    reasons = list(ev.report.reasons)
    if ev.regimeError:
        assert f"decoherence regime: {ev.regimeError}" in reasons
    assert ev.report.feasible == (not reasons)
    assert row.reason == "; ".join(reasons)
    assert row.feasible == ev.report.feasible
    # the public report's numbers, and its reasons before its own
    # arithmetic one, which names the ratios only
    numbers = ("vCP", "vGrav", "cpRatio", "magRatio", "minSeparation")
    assert [repr(getattr(ev.report, k)) for k in numbers] == \
        [repr(getattr(report, k)) for k in numbers]
    checks = [r for r in report.reasons if not r.startswith("arithmetic: ")]
    assert list(ev.report.reasons[:len(checks)]) == checks
    assert (len(checks) < len(report.reasons)) == \
        bool(missing & {"cpRatio", "magRatio"})
    assert repr((row.dPhiLR, row.dPhiRL, row.cpRatio)) == \
        repr((ev.phases.dPhiLR, ev.phases.dPhiRL, ev.report.cpRatio))
    assert repr(row.tauColl) == repr(
        math.nan if ev.budget is None else ev.budget.tauColl)
    # a row whose numbers do not all exist has no objective
    if (spec.objective == "negativity" and not missing
            and ev.dephased is not None):
        assert repr(row.objective) == repr(negativity(ev.dephased))


@given(spec=grids(max_count=3), kinematic=st.booleans())
@settings(max_examples=25, deadline=None)
def test_maximize_row_is_the_scalar_row_at_its_params(paper_config, spec,
                                                      kinematic):
    # a line search builds its best row from the numbers of the probe
    base = _kinematic_unequal(paper_config) if kinematic else paper_config
    assume(any(r.feasible and math.isfinite(r.objective)
               for r in run_sweep(spec, base).rows))
    _, row = maximize(spec, base)
    assert repr(row) == repr(_evaluate_point(base, spec, row.params))


@pytest.mark.parametrize("axis, guard", [
    (SweepAxis("dx", 1e-9, 4e-8, 4), "saturated collisional regime"),
    (SweepAxis("tEnv", 1.0, 300.0, 4, "log"), "K"),
    # tEnv stays at 0.15 K: only the guard at tInt fires
    (SweepAxis("tInt", 1.0, 40.0, 4), "K"),
])
def test_regime_reasons_are_the_scalar_guard_texts(paper_config, axis, guard):
    spec = SweepSpec(axes=(axis, SweepAxis("tau", 0.5, 8.0, 2)))
    hot = 0
    for row in run_sweep(spec, paper_config).rows:
        cfg = validate(dataclasses.replace(paper_config, **row.params))
        try:
            dephasing_budget(cfg)
        except RegimeError as err:
            if axis.name != "dx":
                temp = getattr(cfg, axis.name)
                assert str(err).endswith(f"at {temp:g} {guard}")
            else:
                assert str(err).startswith(guard)
            assert row.reason.endswith(f"decoherence regime: {err}")
            hot += 1
        else:
            assert "decoherence regime" not in row.reason
    assert 0 < hot < len(spec.axes[0].values()) * 2


def _regime_rows_match_the_raised_guards(spec, base):
    """Every regime row of the sweep carries, as its last reason, the text
    of the RegimeError that `dephasing_budget` raises at its point; the
    count of rows per guard."""
    counts = dict.fromkeys(("saturated collisional", "at tEnv", "at tInt"), 0)
    for row in run_sweep(spec, base).rows:
        if "decoherence regime: " not in row.reason:
            continue
        cfg = validate(dataclasses.replace(base, **row.params))
        with pytest.raises(RegimeError) as err:
            dephasing_budget(cfg)
        assert row.reason.endswith(f"decoherence regime: {err.value}")
        text = str(err.value)
        if text.startswith("saturated collisional"):
            counts["saturated collisional"] += 1
        else:
            assert text.startswith("long-wavelength photon")
            counts["at tEnv" if text.endswith(f"at {cfg.tEnv:g} K")
                   else "at tInt"] += 1
    return counts


def test_regime_rows_carry_the_public_guard_texts(paper_config,
                                                  monkeypatch):
    # the public budget, which raises, is the reference for the guard order
    # and texts the sweep reads from the batch's guard numbers
    spec = SweepSpec(axes=(SweepAxis("tEnv", 1e-20, 30.0, 6, "log"),
                           SweepAxis("tInt", 0.1, 30.0, 3, "log")))
    assert _regime_rows_match_the_raised_guards(spec, paper_config) == {
        "saturated collisional": 9, "at tEnv": 3, "at tInt": 2}
    # and on the benchmark's mixed grid
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    mixed = workloads.build_search_mixed(7)
    counts = _regime_rows_match_the_raised_guards(mixed.spec, mixed.base)
    assert sum(counts.values()) == 240


def test_an_int_whose_power_overflows_gives_arithmetic_rows(paper_config):
    # an int power is exact, and used to overflow only when converted to a
    # float; the sweep takes the power of the int as a float
    spec = SweepSpec(axes=(SweepAxis("tau", 1.0, 2.0, 2),))
    rows = run_sweep(spec, validate(dataclasses.replace(
        paper_config, radius=10**52, d=1e53))).rows
    want = run_sweep(spec, validate(dataclasses.replace(
        paper_config, radius=1e52, d=1e53))).rows
    assert [repr(r) for r in rows] == [repr(r) for r in want]
    assert all(r.reason.endswith("arithmetic: cpRatio nan, p nan")
               for r in rows)
    # where it does not overflow, the int's exact power, rounded once, as
    # the public functions take it: 475.0**6 rounds differently
    base = validate(dataclasses.replace(paper_config, radius=475, d=1500.0,
                                        dx=1.0, m1=1e6, m2=1e6))
    row = run_sweep(spec, base).rows[0]
    report = feasibility_report(dataclasses.replace(base, tau=1.0))
    assert repr(row.cpRatio) == repr(report.cpRatio)
