import dataclasses
import math

import pytest

from gravwitness.core import RegimeError
from gravwitness.decoherence import (collisional_time, dephasing_budget,
                                     experiment_duration,
                                     gas_de_broglie_wavelength, gas_density,
                                     thermal_rates, thermal_wavelength)
from gravwitness.spinstate import apply_dephasing, entangled_state, witness

# frozen by 50-digit evaluation of the adopted models with the package
# constants at the reference point
GAS_DENSITY_REF = 4.8286470106932802e8
TAU_COLL_REF = 23.402545257090436
GAMMA_SC_REF = 1.7721626341701768e-15
GAMMA_EM_REF = 1.4288564372711942e-5
TOTAL_DEPHASING_REF = 0.13899623524459437


def test_gas_density_value():
    assert gas_density(1e-15, 0.15) == pytest.approx(GAS_DENSITY_REF, rel=1e-12)


def test_gas_density_scalings():
    n = gas_density(1e-15, 0.15)
    assert gas_density(2e-15, 0.15) == pytest.approx(2 * n, rel=1e-12)
    assert gas_density(1e-15, 0.30) == pytest.approx(n / 2, rel=1e-12)


def test_gas_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gas_density(-1.0, 0.15)
    with pytest.raises(ValueError):
        gas_density(1e-15, 0.0)


def test_gas_density_where_kT_underflows():
    # kB * 1e-310 K rounds to 0: no division by zero
    for t_env in (1e-310, 5e-324):
        assert gas_density(1e-15, t_env) == math.inf
        assert gas_density(0.0, t_env) == 0.0


def test_collisional_time_value(paper_config):
    t = collisional_time(paper_config)
    assert t == pytest.approx(TAU_COLL_REF, rel=1e-12)
    # same order as the 3.5 s fall time
    assert 3.5 <= t <= 35.0


def test_collisional_time_pressure_scaling(paper_config):
    denser = dataclasses.replace(paper_config, pressure=1e-14)
    assert collisional_time(denser) == pytest.approx(
        collisional_time(paper_config) / 10, rel=1e-12)


def test_collisional_time_radius_scaling(paper_config):
    bigger = dataclasses.replace(paper_config, radius=2e-6)
    assert collisional_time(bigger) == pytest.approx(
        collisional_time(paper_config) / 4, rel=1e-12)


def test_collisional_time_zero_pressure(paper_config):
    assert collisional_time(dataclasses.replace(paper_config, pressure=0.0)) \
        == math.inf


def test_collisional_time_without_gas_is_the_budgets(paper_config):
    # no gas, no collisional guard: even where the gas de Broglie wavelength
    # is infinite, at tEnv = 0, the time is inf, as in the budget
    empty = dataclasses.replace(paper_config, pressure=0.0, tEnv=0.0)
    assert collisional_time(empty) == dephasing_budget(empty).tauColl \
        == math.inf


def test_collisional_regime_guard(paper_config):
    # a split below the gas de Broglie wavelength is out of regime
    lam = gas_de_broglie_wavelength(paper_config)
    cfg = dataclasses.replace(paper_config, dx=0.5 * lam)
    with pytest.raises(RegimeError, match="de Broglie"):
        collisional_time(cfg)


def test_gas_wavelength_is_infinite_where_mkT_underflows(paper_config):
    # 2 pi m kB * 1e-300 K rounds to 0: the collisional guard names it
    cold = dataclasses.replace(paper_config, tEnv=1e-300)
    assert gas_de_broglie_wavelength(cold) == math.inf
    with pytest.raises(RegimeError, match="de Broglie"):
        collisional_time(cold)


def test_thermal_rates_reference_values(paper_config):
    g_sc, g_em, g_abs = thermal_rates(paper_config)
    assert g_sc == pytest.approx(GAMMA_SC_REF, rel=1e-9)
    assert g_em == pytest.approx(GAMMA_EM_REF, rel=1e-9)
    assert g_abs == pytest.approx(GAMMA_EM_REF, rel=1e-9)  # tEnv == tInt here


def test_thermal_rates_negligible_over_drop(paper_config):
    rates = thermal_rates(paper_config)
    t_exp = paper_config.tau + 2 * paper_config.tauAcc
    assert sum(rates) * t_exp < 1e-3


def test_thermal_rates_zero_temperature(paper_config):
    cold = dataclasses.replace(paper_config, tEnv=0.0, tInt=0.0)
    assert thermal_rates(cold) == (0.0, 0.0, 0.0)


def test_thermal_rates_vanish_where_kT_underflows(paper_config):
    # kB * 1e-310 K rounds to 0: no photons, not a division by zero
    for t_int in (5e-324, 1e-310):
        faint = dataclasses.replace(paper_config, tInt=t_int)
        assert thermal_rates(faint)[1] == 0.0
        assert (dephasing_budget(faint)
                == dephasing_budget(dataclasses.replace(paper_config, tInt=0.0)))


def test_thermal_rates_quadratic_in_split(paper_config):
    wide = dataclasses.replace(paper_config, dx=2 * paper_config.dx)
    for narrow_rate, wide_rate in zip(thermal_rates(paper_config),
                                      thermal_rates(wide)):
        assert wide_rate == pytest.approx(4 * narrow_rate, rel=1e-12)


def test_thermal_regime_guard(paper_config):
    # at room temperature the thermal wavelength drops below the split
    hot = dataclasses.replace(paper_config, tEnv=300.0)
    assert thermal_wavelength(300.0) < paper_config.dx * 10
    with pytest.raises(RegimeError, match="wavelength"):
        thermal_rates(hot)


def test_budget_reference_point(paper_config):
    budget = dephasing_budget(paper_config)
    assert budget.totalDephasing == pytest.approx(TOTAL_DEPHASING_REF, rel=1e-9)
    assert budget.totalDephasing < 0.15
    assert budget.tauColl == pytest.approx(TAU_COLL_REF, rel=1e-12)
    assert 0.0 <= budget.totalDephasing < 1.0



@pytest.mark.parametrize("fields", [
    {},
    # Gamma T ~ 2e-15, where 1 - exp(-Gamma T) in floats was 2.5 % off
    dict(pressure=1e-30, tEnv=1e-3, tInt=1e-3),
])
def test_total_dephasing_against_mpmath(paper_config, fields):
    # 1 - e^{-Gamma T} at 50 digits from the budget's own rates
    from mpmath import mp, mpf

    config = dataclasses.replace(paper_config, **fields)
    budget = dephasing_budget(config)
    with mp.workdps(50):
        rate = sum(mpf(x) for x in (budget.gammaColl, budget.gammaSc,
                                    budget.gammaEm, budget.gammaAbs))
        want = float(1 - mp.exp(-rate * experiment_duration(config)))
    assert budget.totalDephasing == pytest.approx(want, rel=1e-14, abs=0.0)

def test_budget_quiet_limit(paper_config):
    quiet = dataclasses.replace(paper_config, pressure=0.0, tEnv=0.0, tInt=0.0)
    budget = dephasing_budget(quiet)
    assert budget.totalDephasing == 0.0
    assert budget.tauColl == math.inf
    assert budget.gammaColl == budget.gammaSc == budget.gammaEm == budget.gammaAbs == 0.0


def test_budget_saturates_where_the_collision_rate_overflows(paper_config):
    # n vbar pi R^2 overflows to inf, so tauColl is 0 and the rate inf
    dense = dataclasses.replace(paper_config, pressure=1e300)
    assert collisional_time(dense) == 0.0
    budget = dephasing_budget(dense)
    assert budget.gammaColl == math.inf
    assert budget.tauColl == 0.0
    assert budget.totalDephasing == 1.0


def test_budget_propagates_regime_errors(paper_config):
    hot = dataclasses.replace(paper_config, tEnv=300.0)
    with pytest.raises(RegimeError):
        dephasing_budget(hot)


def test_budget_monotone_in_pressure_and_radius(paper_config):
    base = dephasing_budget(paper_config).totalDephasing
    for name, value in (("pressure", 1e-14), ("radius", 2e-6)):
        worse = dephasing_budget(dataclasses.replace(paper_config,
                                                     **{name: value}))
        assert worse.totalDephasing >= base


def test_thermal_rates_monotone_in_temperature(paper_config):
    warmer = dataclasses.replace(paper_config, tEnv=0.3, tInt=0.3)
    for cold_rate, warm_rate in zip(thermal_rates(paper_config),
                                    thermal_rates(warmer)):
        assert warm_rate >= cold_rate


def test_witness_shrinks_under_budget_dephasing(paper_config):
    # coherences decay by 1 - totalDephasing: a phase-flip p of half of it
    p = dephasing_budget(paper_config).totalDephasing / 2
    state = entangled_state(-0.2, 0.7)
    dephased = apply_dephasing(state, p, p)
    assert witness(dephased).w <= witness(state).w
