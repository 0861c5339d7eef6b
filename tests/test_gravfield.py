import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from gravwitness import gravfield
from gravwitness.core import CONSTANTS
from gravwitness.gravfield import (BranchDisplacements, FieldModeSet,
                                   branch_displacement_set, branch_overlap,
                                   branch_overlaps, branch_phase, build_modes,
                                   classicalize, dephase_branch_basis,
                                   displacements, mode_sum_ratio,
                                   modes_for_separation, newtonian_phase,
                                   reduced_mass_state)
from gravwitness.gravphase import BRANCHES, branch_positions, static_phases
from gravwitness.spinstate import entangled_state, negativity


def damped_closed_form(config, modes, separation, t):
    """Quadrature oracle: (2/pi) arctan(kCut r)/r replaces the mode sum."""
    pref = CONSTANTS.G * config.m1 * config.m2 * t / CONSTANTS.hbar
    return pref * (2.0 / math.pi) * math.atan(modes.kCut * separation) / separation


def test_build_modes_two_point_grid():
    modes = build_modes(1.0, 1e6, 2, 1e5)
    assert modes.nModes == 2
    assert np.all(modes.weights > 0)


def test_build_modes_weights_integrate_dk():
    modes = build_modes(10.0, 1e4, 500, 1e3)
    # trapezoidal weights telescope to the covered range
    assert modes.weights.sum() == pytest.approx(1e4 - 10.0, rel=1e-12)


def test_build_modes_rejects_bad_bounds():
    with pytest.raises(ValueError):
        build_modes(1e6, 1.0, 100, 1e5)
    with pytest.raises(ValueError):
        build_modes(0.0, 1e6, 100, 1e5)
    with pytest.raises(ValueError):
        build_modes(1.0, 1e6, 1, 1e5)
    with pytest.raises(ValueError):
        build_modes(1.0, 1e6, 100, -1.0)


def test_mode_set_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        FieldModeSet(kGrid=np.array([2.0, 1.0]), weights=np.array([1.0, 1.0]),
                     kCut=1.0)


def test_branch_phase_zero_time(paper_config):
    modes = modes_for_separation(200e-6, nModes=100)
    assert branch_phase(modes, paper_config, 200e-6, 0.0) == 0.0


def test_branch_phase_rejects_bad_inputs(paper_config):
    modes = modes_for_separation(200e-6, nModes=100)
    with pytest.raises(ValueError):
        branch_phase(modes, paper_config, -1.0, 1.0)
    with pytest.raises(ValueError):
        branch_phase(modes, paper_config, 200e-6, -1.0)


def test_branch_phase_matches_quadrature_oracle(paper_config):
    r = 200e-6
    modes = modes_for_separation(r)
    got = branch_phase(modes, paper_config, r, paper_config.tau)
    oracle = damped_closed_form(paper_config, modes, r, paper_config.tau)
    assert got == pytest.approx(oracle, rel=0.02)


@pytest.mark.parametrize("r", [100e-6, 200e-6, 450e-6, 700e-6])
def test_branch_phase_converges_to_newtonian(paper_config, r):
    modes = modes_for_separation(r, nModes=4000, kCutTimesR=2e3)
    assert modes.kCut * r >= 1e3
    got = branch_phase(modes, paper_config, r, paper_config.tau)
    target = newtonian_phase(paper_config, r, paper_config.tau)
    assert 0.95 * target <= got <= 1.05 * target


def test_branch_phase_refinement_is_stable(paper_config):
    r = 200e-6
    coarse = branch_phase(modes_for_separation(r, nModes=1000), paper_config,
                          r, paper_config.tau)
    fine = branch_phase(modes_for_separation(r, nModes=10_000), paper_config,
                        r, paper_config.tau)
    assert abs(fine - coarse) / fine < 0.005


def test_branch_phase_one_over_r(paper_config):
    r = 200e-6
    modes_r = modes_for_separation(r)
    modes_2r = modes_for_separation(2 * r)
    p_r = branch_phase(modes_r, paper_config, r, paper_config.tau)
    p_2r = branch_phase(modes_2r, paper_config, 2 * r, paper_config.tau)
    assert p_2r / p_r == pytest.approx(0.5, rel=0.02)


log_uniform = st.floats(-9.0, 3.0).map(lambda e: 10.0 ** e)


@given(r=log_uniform, t=st.floats(1e-3, 1e3), n=st.integers(2, 3000),
       kappa=st.floats(0.0, 5.0).map(lambda e: 10.0 ** e))
@settings(max_examples=100, deadline=None)
def test_mode_sum_ratio_is_the_ratio_at_every_point(paper_config, r, t, n, kappa):
    # the grid built at r is the unit grid over r up to its rounding
    phase = branch_phase(modes_for_separation(r, n, kappa), paper_config, r, t)
    want = phase / newtonian_phase(paper_config, r, t)
    assert abs(mode_sum_ratio(n, kappa) - want) <= 1e-13 * abs(want)


def test_mode_sum_ratio_cache_returns_the_computed_bits():
    mode_sum_ratio.cache_clear()
    first = mode_sum_ratio(300, 2e3)
    assert mode_sum_ratio.cache_info().misses == 1
    assert mode_sum_ratio(300, 2e3) == first
    assert mode_sum_ratio.cache_info().hits == 1
    assert mode_sum_ratio.__wrapped__(300, 2e3) == first


@pytest.mark.parametrize("kappa", [1.0, 2e3, 1e5])
def test_mode_sum_ratio_against_mpmath(kappa):
    # the float unit grid re-summed exactly: only the float sum's rounding
    # separates the two (2.5e-16 seen at kappa = 2e3)
    modes = modes_for_separation(1.0, 250, kappa)
    with mp.workdps(50):
        total = sum(mpf(w) * mp.sin(mpf(k)) / mpf(k) * mp.exp(-mpf(k) / mpf(kappa))
                    for k, w in zip(modes.kGrid.tolist(), modes.weights.tolist()))
        want = 2 / mp.pi * total
    assert abs(mode_sum_ratio(250, kappa) - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("r", [1e-300, 1e-280, 3e-290])
def test_newtonian_phase_where_hbar_r_is_subnormal(paper_config, r):
    # hbar r is below the smallest normal float, or 0 at 1e-300
    assert CONSTANTS.hbar * r < 2.2250738585072014e-308
    t = paper_config.tau
    phase = newtonian_phase(paper_config, r, t)
    with mp.workdps(50):
        want = float(mpf(CONSTANTS.G) * mpf(paper_config.m1)
                     * mpf(paper_config.m2) * mpf(t)
                     / (mpf(CONSTANTS.hbar) * mpf(r)))
    assert math.isfinite(phase)
    assert abs(phase - want) <= 1e-15 * want


@pytest.mark.parametrize("r", [2e-4, 1e-200, 3e-274])
def test_newtonian_phase_keeps_its_bits_where_hbar_r_is_normal(paper_config,
                                                               r):
    t = paper_config.tau
    assert newtonian_phase(paper_config, r, t) == (
        CONSTANTS.G * paper_config.m1 * paper_config.m2 * t
        / (CONSTANTS.hbar * r))


def test_displacements_zero_time(paper_config):
    modes = modes_for_separation(200e-6, nModes=50)
    disp = displacements(modes, paper_config, (0.0, 200e-6), 0.0)
    assert np.all(disp.alpha == 0)
    assert disp.branchPhase == 0.0


def test_displacements_full_recurrence(paper_config):
    modes = build_modes(1.0, 1.618, 2, 1e3)
    t = 2 * math.pi / (CONSTANTS.c * modes.kGrid[0])
    disp = displacements(modes, paper_config, (0.0, 200e-6), t)
    # mode 0 has completed a full cycle, up to rounding of omega*t
    assert abs(disp.alpha[0]) < 1e-8 * abs(disp.alpha[1])


def test_branch_overlap_identical_is_unity(paper_config):
    modes = modes_for_separation(200e-6, nModes=50)
    disp = displacements(modes, paper_config, (0.0, 200e-6), 1.0)
    assert branch_overlap(disp, disp) == 1.0 + 0.0j


def test_branch_overlap_single_mode_closed_form():
    modes = build_modes(1.0, 2.0, 2, 1e3)
    zero = BranchDisplacements(modes=modes, alpha=np.zeros(2, dtype=complex),
                               branchPhase=0.0)
    two = BranchDisplacements(modes=modes,
                              alpha=np.array([2.0 + 0j, 0.0 + 0j]),
                              branchPhase=0.0)
    assert abs(branch_overlap(zero, two)) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_branch_overlap_symmetric_magnitude(paper_config):
    modes = modes_for_separation(200e-6, nModes=200)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    ab = branch_overlap(branches["LL"], branches["RL"])
    ba = branch_overlap(branches["RL"], branches["LL"])
    assert abs(ab) == pytest.approx(abs(ba), rel=1e-12)
    assert ab == pytest.approx(ba.conjugate(), rel=1e-12)
    assert 0 < abs(ab) <= 1


def test_branch_overlap_rejects_mismatched_grids(paper_config):
    a = displacements(modes_for_separation(200e-6, nModes=50), paper_config,
                      (0.0, 200e-6), 1.0)
    b = displacements(modes_for_separation(200e-6, nModes=60), paper_config,
                      (0.0, 200e-6), 1.0)
    with pytest.raises(ValueError, match="mismatched"):
        branch_overlap(a, b)


def test_branch_overlap_near_unity_at_reference_point(paper_config):
    modes = modes_for_separation(200e-6)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    for a in BRANCHES:
        for b in BRANCHES:
            assert abs(branch_overlap(branches[a], branches[b])) >= 1 - 1e-6


def test_reduced_mass_state_zero_time(paper_config):
    modes = modes_for_separation(200e-6, nModes=100)
    branches = branch_displacement_set(modes, paper_config, 0.0)
    state = reduced_mass_state(branches)
    assert np.allclose(state.rho, np.full((4, 4), 0.25), atol=1e-15)


def test_reduced_mass_state_is_valid(paper_config):
    modes = modes_for_separation(200e-6, nModes=500)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    state = reduced_mass_state(branches)  # constructor enforces the invariants
    assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-12)


def test_reduced_mass_state_matches_spinstate(paper_config):
    modes = modes_for_separation(200e-6)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    neg_field = negativity(reduced_mass_state(branches))
    ph = static_phases(paper_config)
    neg_spin = negativity(entangled_state(ph.dPhiLR, ph.dPhiRL))
    assert neg_field == pytest.approx(neg_spin, rel=0.05)


def test_reduced_mass_state_unit_overlap_limit(paper_config):
    # zeroed amplitudes force every overlap to 1; the state must then equal
    # the pure entangled state built from the same phase differentials
    modes = modes_for_separation(200e-6, nModes=50)
    branches = {
        b: BranchDisplacements(
            modes=modes,
            alpha=np.zeros(modes.nModes, dtype=complex),
            branchPhase=disp.branchPhase,
        )
        for b, disp in branch_displacement_set(
            modes, paper_config, paper_config.tau).items()
    }
    state = reduced_mass_state(branches)
    ref = branches["LL"].branchPhase
    expected = entangled_state(branches["LR"].branchPhase - ref,
                               branches["RL"].branchPhase - ref)
    assert np.allclose(state.rho, expected.rho, atol=1e-14)


def test_reduced_mass_state_never_beats_pure_state(paper_config):
    modes = modes_for_separation(200e-6, nModes=2000)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    ref = branches["LL"].branchPhase
    pure = entangled_state(branches["LR"].branchPhase - ref,
                           branches["RL"].branchPhase - ref)
    assert negativity(reduced_mass_state(branches)) <= negativity(pure) + 1e-12


def test_reduced_mass_state_requires_all_branches(paper_config):
    modes = modes_for_separation(200e-6, nModes=50)
    branches = branch_displacement_set(modes, paper_config, 1.0)
    del branches["RL"]
    with pytest.raises(ValueError, match="RL"):
        reduced_mass_state(branches)


def test_classicalize_kills_entanglement(paper_config):
    modes = modes_for_separation(200e-6, nModes=500)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    state = classicalize(branches)
    assert negativity(state) == 0.0
    off_diag = state.rho - np.diag(np.diag(state.rho))
    assert np.all(off_diag == 0)


def test_classicalize_idempotent(paper_config):
    modes = modes_for_separation(200e-6, nModes=200)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    once = classicalize(branches)
    twice = dephase_branch_basis(once)
    assert np.array_equal(once.rho, twice.rho)


def test_classicalize_commutes_with_branch_projectors(paper_config):
    modes = modes_for_separation(200e-6, nModes=200)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    rho = classicalize(branches).rho
    for i in range(4):
        proj = np.zeros((4, 4))
        proj[i, i] = 1.0
        assert np.allclose(proj @ rho, rho @ proj, atol=1e-18)


def test_classicalized_witness_below_separable_bound(paper_config):
    from gravwitness.spinstate import optimize_witness
    modes = modes_for_separation(200e-6, nModes=500)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    state = classicalize(branches)
    _, result = optimize_witness(state)
    assert result.w <= 1.0 + 1e-12
    assert not result.entangledByNegativity


def test_unequal_masses_supported(paper_config):
    cfg = dataclasses.replace(paper_config, m2=2e-14)
    modes = modes_for_separation(200e-6, nModes=500)
    branches = branch_displacement_set(modes, cfg, cfg.tau)
    state = reduced_mass_state(branches)
    assert negativity(state) > 0


def _loop_reduced_mass_rho(branches):
    """Oracle: every element from its own overlap, the lower triangle too."""
    rho = np.empty((4, 4), dtype=complex)
    for i, bi in enumerate(BRANCHES):
        for j, bj in enumerate(BRANCHES):
            ov = 1.0 + 0j if i == j else branch_overlap(branches[bj], branches[bi])
            rho[i, j] = 0.25 * np.exp(1j * (branches[bi].branchPhase
                                            - branches[bj].branchPhase)) * ov
    return rho


def _formula_alpha(modes, config, positions, t):
    """Oracle: alpha_k = (g1/w e^{i k x1} + g2/w e^{i k x2})(e^{i w t} - 1)
    with gbar = m sqrt(G c k dk/(pi hbar)) e^{-k/(2 kCut)}, term by term."""
    k, w = modes.kGrid, modes.weights
    omega = CONSTANTS.c * k
    damp = np.exp(-k / (2.0 * modes.kCut))
    shell = np.sqrt(CONSTANTS.G * CONSTANTS.c * k * w / (np.pi * CONSTANTS.hbar))
    g1, g2 = config.m1 * shell * damp, config.m2 * shell * damp
    x1, x2 = positions
    return (g1 / omega * np.exp(1j * k * x1) + g2 / omega * np.exp(1j * k * x2)) \
        * (np.exp(1j * omega * t) - 1.0)


@pytest.mark.parametrize("m2, t", [(None, None), (2e-14, 0.7), (None, 0.0)])
def test_branch_displacement_set_matches_displacements_bitwise(paper_config, m2, t):
    cfg = paper_config if m2 is None else dataclasses.replace(paper_config, m2=m2)
    t = cfg.tau if t is None else t
    modes = modes_for_separation(200e-6, nModes=300)
    positions = branch_positions(cfg)
    for b, got in branch_displacement_set(modes, cfg, t).items():
        one = displacements(modes, cfg, positions[b], t)
        assert np.array_equal(got.alpha, one.alpha)
        assert np.array_equal(got.alpha, _formula_alpha(modes, cfg, positions[b], t))
        assert got.branchPhase == one.branchPhase == branch_phase(
            modes, cfg, abs(positions[b][1] - positions[b][0]), t)


def test_reduced_mass_state_matches_element_loop(paper_config):
    rng = np.random.default_rng(17)
    modes = modes_for_separation(200e-6, nModes=40)
    sets = [branch_displacement_set(modes, paper_config, paper_config.tau)]
    for _ in range(20):   # overlaps far from 1 and arbitrary phases
        sets.append({b: BranchDisplacements(
            modes=modes,
            alpha=0.2 * (rng.normal(size=40) + 1j * rng.normal(size=40)),
            branchPhase=float(rng.uniform(-50, 50))) for b in BRANCHES})
    for branches in sets:
        rho = reduced_mass_state(branches).rho
        assert np.array_equal(rho, _loop_reduced_mass_rho(branches))
        assert np.array_equal(rho, rho.conj().T)
        given = reduced_mass_state(branches, branch_overlaps(branches)).rho
        assert np.array_equal(given, rho)


def test_branch_overlaps_are_the_six_pairs(paper_config):
    modes = modes_for_separation(200e-6, nModes=100)
    branches = branch_displacement_set(modes, paper_config, paper_config.tau)
    overlaps = branch_overlaps(branches)
    assert list(overlaps) == [("LL", "LR"), ("LL", "RL"), ("LL", "RR"),
                              ("LR", "RL"), ("LR", "RR"), ("RL", "RR")]
    for (a, b), ov in overlaps.items():
        assert ov == branch_overlap(branches[b], branches[a])
        assert abs(ov) == abs(branch_overlap(branches[a], branches[b]))


def _exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Largest errors seen over 30000 random draws of these ranges, relative to
# sum |alpha_b|^2 + sum |alpha_b'|^2: 8.5e-15 in sum |alpha_b - alpha_b'|^2
# and 3.6e-15 in its phase sum.  Both paths round their sums at that level.
DIFF2_TOL, PHASE_TOL = 1e-14, 5e-15


@given(d=_exp10(-6.0, -2.0), split=_exp10(-3.0, -0.05), t=_exp10(-6.0, 1.0),
       n=st.floats(math.log(2), math.log(4000)).map(lambda x: round(math.exp(x))),
       kappa=_exp10(0.0, 5.0), m1=_exp10(-15.0, -7.0), m2=_exp10(-15.0, -7.0))
# unequal masses whose overlaps are far from 1: the smallest is 1.7e-3
@example(d=4.5e-4, split=0.5, t=2.5, n=4000, kappa=2e3, m1=3e-8, m2=1e-8)
@settings(max_examples=150, deadline=None)
def test_branch_sums_match_the_alpha_path(paper_config, d, split, t, n, kappa,
                                          m1, m2):
    cfg = dataclasses.replace(paper_config, d=d, dx=split * d, m1=m1, m2=m2)
    modes = modes_for_separation(d - split * d, n, kappa)
    branches = branch_displacement_set(modes, cfg, t)
    phases, exponents = gravfield._branch_sums(modes, cfg, t)
    assert list(exponents) == list(branch_overlaps(branches))
    for (bi, bj), (diff2, phase) in exponents.items():
        a, b = branches[bj].alpha, branches[bi].alpha
        scale = np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2)
        assert abs(diff2 - np.sum(np.abs(a - b) ** 2)) <= DIFF2_TOL * scale
        assert abs(phase - np.sum(a.real * b.imag - a.imag * b.real)) \
            <= PHASE_TOL * scale
    # the branch phases keep the bits of the np.sinc mode sum
    separations = {b: abs(x2 - x1) for b, (x1, x2) in branch_positions(cfg).items()}
    pref = CONSTANTS.G * m1 * m2 * t / CONSTANTS.hbar * (2.0 / np.pi)
    k, w = modes.kGrid, modes.weights
    for b, r in separations.items():
        assert phases[b] == branches[b].branchPhase == pref * float(np.sum(
            w * (np.sinc(k * r / np.pi) * np.exp(-k / modes.kCut))))
