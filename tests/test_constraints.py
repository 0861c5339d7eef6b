import dataclasses

import pytest

from gravwitness.constraints import (casimir_polder_potential, cp_ratio,
                                     feasibility_report, gravitational_potential,
                                     magnetic_interaction_ratio, min_separation)
from gravwitness.sweep import evaluate

# frozen by 50-digit evaluation of the closed forms with the package constants
VCP_200UM = 1.6842987704487485e-36
VGRAV_200UM = 3.33715e-35
CP_RATIO_DEFAULT = 0.050471173619667936
MIN_SEP_01 = 1.7845849643197966e-4
MAG_RATIO_REF = 4.1619012874243336e-7


def test_casimir_polder_value(paper_config):
    assert casimir_polder_potential(paper_config, 200e-6) == pytest.approx(
        VCP_200UM, rel=1e-12)


def test_casimir_polder_r_power(paper_config):
    v1 = casimir_polder_potential(paper_config, 200e-6)
    v2 = casimir_polder_potential(paper_config, 400e-6)
    assert v1 / v2 == pytest.approx(128.0, rel=1e-12)


def test_casimir_polder_vanishes_for_unit_dielectric(paper_config):
    cfg = dataclasses.replace(paper_config, epsRel=1.0)
    assert casimir_polder_potential(cfg, 200e-6) == 0.0


def test_casimir_polder_rejects_overlapping_spheres(paper_config):
    with pytest.raises(ValueError, match="overlap"):
        casimir_polder_potential(paper_config, 1.5e-6)


def test_gravitational_potential_value(paper_config):
    assert gravitational_potential(paper_config, 200e-6) == pytest.approx(
        VGRAV_200UM, rel=1e-12)


def test_gravitational_potential_scalings(paper_config):
    v = gravitational_potential(paper_config, 200e-6)
    assert gravitational_potential(paper_config, 400e-6) == pytest.approx(
        v / 2, rel=1e-12)
    heavier = dataclasses.replace(paper_config, m1=2e-14)
    assert gravitational_potential(heavier, 200e-6) == pytest.approx(
        2 * v, rel=1e-12)


def test_cp_ratio_default(paper_config):
    ratio = cp_ratio(paper_config)
    assert ratio == pytest.approx(CP_RATIO_DEFAULT, rel=1e-12)
    assert 0.03 <= ratio <= 0.2  # consistent with the order-0.1 target


def test_cp_ratio_unit_dielectric(paper_config):
    cfg = dataclasses.replace(paper_config, epsRel=1.0)
    assert cp_ratio(cfg) == 0.0


def test_cp_ratio_mass_scaling(paper_config):
    halved = dataclasses.replace(paper_config, m1=0.5e-14, m2=0.5e-14)
    assert cp_ratio(halved) == pytest.approx(4 * cp_ratio(paper_config), rel=1e-12)


def test_cp_ratio_strictly_decreasing(paper_config):
    radii = [150e-6, 200e-6, 300e-6, 500e-6]
    values = [cp_ratio(paper_config, r) for r in radii]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_min_separation_value(paper_config):
    root = min_separation(paper_config, 0.1)
    assert root == pytest.approx(MIN_SEP_01, rel=1e-9)
    assert 150e-6 <= root <= 250e-6


@pytest.mark.parametrize("target", [0.02, 0.1, 0.5, 3.0])
def test_min_separation_inverts_cp_ratio(paper_config, target):
    root = min_separation(paper_config, target)
    assert cp_ratio(paper_config, root) == pytest.approx(target, rel=1e-6)


def test_min_separation_monotone(paper_config):
    assert min_separation(paper_config, 0.2) < min_separation(paper_config, 0.05)


def test_min_separation_limit_behaviour(paper_config):
    # enormous target: the root collapses toward contact or leaves the bracket
    try:
        root = min_separation(paper_config, 1e18)
        assert root < 3 * paper_config.radius
    except ValueError:
        pass
    with pytest.raises(ValueError):
        min_separation(paper_config, 0.0)


def test_magnetic_ratio_zero_field(paper_config):
    assert magnetic_interaction_ratio(paper_config, 0.0) == 0.0


def test_magnetic_ratio_chi_squared_scaling(paper_config):
    soft = dataclasses.replace(paper_config, chiM=1e-7)
    r_hard = magnetic_interaction_ratio(paper_config, 1e-6)
    r_soft = magnetic_interaction_ratio(soft, 1e-6)
    assert r_hard / r_soft == pytest.approx(1e4, rel=1e-9)


def test_magnetic_ratio_reference_value(paper_config):
    assert magnetic_interaction_ratio(paper_config, 1e-6) == pytest.approx(
        MAG_RATIO_REF, rel=1e-12)


def test_magnetic_ratio_rejects_negative_field(paper_config):
    with pytest.raises(ValueError):
        magnetic_interaction_ratio(paper_config, -1.0)


def test_feasibility_report_defaults(paper_config):
    report = feasibility_report(paper_config)
    assert report.feasible
    assert report.reasons == ()
    assert report.vCP > 0 and report.vGrav > 0 and report.cpRatio > 0


def test_feasibility_report_close_approach(paper_config):
    cfg = dataclasses.replace(paper_config, dx=400e-6)  # d - dx = 50 um
    report = feasibility_report(cfg)
    assert not report.feasible
    assert any("cpRatio" in r for r in report.reasons)


def test_feasibility_report_decoherence_bound(paper_config):
    cfg = dataclasses.replace(paper_config, tau=1e4)
    report = feasibility_report(cfg)
    assert not report.feasible
    assert any("tauColl" in r for r in report.reasons)


def test_feasibility_report_magnetic_bound(paper_config):
    report = feasibility_report(paper_config, bResidual=1.0)
    assert any("magRatio" in r for r in report.reasons)


def test_feasibility_report_deterministic(paper_config):
    assert feasibility_report(paper_config) == feasibility_report(paper_config)


def test_feasibility_report_handles_unbracketable_target(paper_config):
    # masses so small that Casimir-Polder dominates out to a metre
    tiny = dataclasses.replace(paper_config, m1=1e-26, m2=1e-26)
    report = feasibility_report(tiny)
    assert not report.feasible
    assert report.minSeparation == float("inf")
    assert any("cpRatio" in r for r in report.reasons)


@pytest.mark.parametrize("target", [float("nan"), 0.0, -1.0])
def test_feasibility_report_rejects_a_target_it_cannot_compare_with(
        paper_config, target):
    # every cpRatio > nan is False, and a negative target fails every point
    with pytest.raises(ValueError, match="targetRatio must be positive"):
        feasibility_report(paper_config, targetRatio=target)
    with pytest.raises(ValueError, match="targetRatio must be positive"):
        min_separation(paper_config, target)
    with pytest.raises(ValueError, match="targetRatio must be positive"):
        evaluate(paper_config, cpRatioMax=target)


@pytest.mark.parametrize("factor", [float("nan"), 0.5])
def test_feasibility_report_rejects_a_tau_coll_factor_below_one(paper_config,
                                                               factor):
    with pytest.raises(ValueError, match="tauCollFactor must be >= 1"):
        feasibility_report(paper_config, tauCollFactor=factor)
    with pytest.raises(ValueError, match="tauCollFactor must be >= 1"):
        evaluate(paper_config, tauCollOver=factor)


def test_a_ratio_over_an_underflowing_potential_is_inf(paper_config):
    # G m1 m2 underflows to 0: the Casimir-Polder ratio is inf, not a
    # division by zero, and the point is infeasible
    light = dataclasses.replace(paper_config, m1=1e-150, m2=1e-170)
    assert gravitational_potential(light, light.d - light.dx) == 0.0
    assert cp_ratio(light) == float("inf")
    assert magnetic_interaction_ratio(light, 0.0) == 0.0
    assert magnetic_interaction_ratio(light, 1.0) == float("inf")
    report = feasibility_report(light)
    assert (report.cpRatio, report.magRatio) == (float("inf"), 0.0)
    assert not report.feasible and report.reasons[0] == "cpRatio inf > 0.1"
