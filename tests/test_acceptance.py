"""Acceptance gate: every criterion at its stated tolerance.

Expected values are frozen from independent arbitrary-precision (50-digit)
evaluation of the closed forms, recomputed here with mpmath as the oracle.
Each test prints one PASS/FAIL line (run with -s to see them).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from gravwitness.constraints import (casimir_polder_potential, cp_ratio,
                                     min_separation)
from gravwitness.core import CONSTANTS, RegimeError
from gravwitness.decoherence import collisional_time, thermal_rates
from gravwitness.gravfield import (branch_displacement_set, branch_overlap,
                                   branch_phase, classicalize,
                                   modes_for_separation, newtonian_phase,
                                   reduced_mass_state)
from gravwitness.gravphase import (BRANCHES, mutual_acceleration, static_phases,
                                   superposition_size)
from gravwitness.spinstate import (TwoQubitState, apply_dephasing,
                                   entangled_state, negativity,
                                   optimize_witness, witness)
from gravwitness.sweep import SweepAxis, SweepSpec, maximize, run_sweep

mp.dps = 50

# the same CODATA-2018 values as the package constants, as exact decimals
MP = {
    "G": mpf("6.67430e-11"),
    "hbar": mpf("1.054571817e-34"),
    "c": mpf("299792458"),
    "kB": mpf("1.380649e-23"),
    "muB": mpf("9.2740100783e-24"),
    "gE": mpf("2.00231930436256"),
}


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def timed(func, *args, repeat=1):
    func(*args)  # warm-up
    start = time.perf_counter()
    for _ in range(repeat):
        out = func(*args)
    elapsed = (time.perf_counter() - start) / repeat
    return out, elapsed


def test_criterion_1_superposition_size():
    oracle = float(MP["gE"] * MP["muB"] * mpf("1e6") / mpf("1e-14")
                   * mpf("0.5") ** 2 / 2)
    got, elapsed = timed(superposition_size, 1e6, 0.5, 1e-14)
    ok = (abs(got - oracle) / oracle < 1e-9
          and abs(got - 250e-6) / 250e-6 < 0.10
          and elapsed < 1e-3)
    report(1, ok, f"split {got:.6g} m vs oracle {oracle:.6g} m, "
                  f"quoted 250 um within 10%, {elapsed * 1e6:.0f} us")


def test_criterion_2_branch_phases(paper_config):
    pref = (MP["G"] * mpf("1e-14") ** 2 * mpf("2.5") / MP["hbar"])
    phi_ref = pref / mpf("450e-6")
    d_rl = float(pref / mpf("200e-6") - phi_ref)
    d_lr = float(pref / mpf("700e-6") - phi_ref)
    ph, elapsed = timed(static_phases, paper_config)
    ok = (abs(ph.dPhiRL - d_rl) / abs(d_rl) < 1e-12
          and abs(ph.dPhiLR - d_lr) / abs(d_lr) < 1e-12
          and 0.5 <= 0.7 / ph.dPhiRL <= 2.0
          and 0.5 <= 0.2 / abs(ph.dPhiLR) <= 2.0
          and elapsed < 1e-3)
    report(2, ok, f"dPhiRL {ph.dPhiRL:.6f} / dPhiLR {ph.dPhiLR:.6f} at 1e-12 "
                  f"vs 50-digit oracle; quoted 0.7/-0.2 within factor 2; "
                  f"{elapsed * 1e6:.0f} us")


def test_criterion_3_entanglement_and_witness():
    start = time.perf_counter()
    rng = np.random.default_rng(20170913)
    worst = 0.0
    for a, b in rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 2)):
        got = negativity(entangled_state(a, b))
        worst = max(worst, abs(got - abs(math.sin((a + b) / 2)) / 2))
    neg_ref = negativity(entangled_state(-0.2, 0.7))

    w_closed = float(abs(mp.cos(mpf("0.7")) - mp.cos(mpf("-0.2"))
                         - mp.sin(mpf("-0.2")) - mp.sin(mpf("0.7"))) / 2)
    w_ref = witness(entangled_state(-0.2, 0.7)).w
    _, opt_pi = optimize_witness(entangled_state(0.0, math.pi))
    _, opt_split = optimize_witness(entangled_state(0.35, math.pi - 0.35))
    elapsed = time.perf_counter() - start
    ok = (worst < 1e-10
          and neg_ref > 0.1
          and abs(w_ref - w_closed) < 1e-10
          and abs(opt_pi.w - math.sqrt(2)) < 1e-6
          and opt_split.w > 1.0
          and elapsed < 1.0)
    report(3, ok, f"1000 random negativities within {worst:.2e} of closed "
                  f"form; neg(-0.2,0.7)={neg_ref:.4f}>0.1; printed w={w_ref:.6f} "
                  f"(closed {w_closed:.6f}); optimized w(pi)={opt_pi.w:.8f}; "
                  f"w>1 at phase sum pi; {elapsed:.2f} s")


def test_criterion_4_negativity_monotone():
    start = time.perf_counter()
    grid = np.linspace(1e-6, math.pi - 1e-6, 500)
    values = [negativity(entangled_state(s / 2, s / 2)) for s in grid]
    elapsed = time.perf_counter() - start
    increasing = all(x < y for x, y in zip(values, values[1:]))
    ok = increasing and elapsed < 1.0
    report(4, ok, f"negativity strictly increasing over 500 grid points on "
                  f"(0, pi); {elapsed:.2f} s")


def test_criterion_5_casimir_polder(paper_config):
    r = mpf("200e-6")
    oracle = float(23 * MP["hbar"] * MP["c"] * mpf("1e-6") ** 6
                   * ((mpf("5.7") - 1) / (mpf("5.7") + 2)) ** 2
                   / (4 * mp.pi * r ** 7))
    start = time.perf_counter()
    vcp = casimir_polder_potential(paper_config, 200e-6)
    ratio = cp_ratio(paper_config)
    sep = min_separation(paper_config, 0.1)
    elapsed = time.perf_counter() - start
    ok = (abs(vcp - oracle) / oracle < 1e-12
          and 0.03 <= ratio <= 0.2
          and 150e-6 <= sep <= 250e-6
          and elapsed < 0.01)
    report(5, ok, f"vCP {vcp:.4e} J at 1e-12 vs oracle; cpRatio {ratio:.4f} in "
                  f"[0.03, 0.2]; min separation {sep * 1e6:.1f} um in "
                  f"[150, 250]; {elapsed * 1e3:.1f} ms")


def test_criterion_6_mutual_acceleration(paper_config):
    acc, elapsed = timed(mutual_acceleration, paper_config)
    ok = 1e-17 <= acc <= 1e-15 and elapsed < 1e-3
    report(6, ok, f"mutual acceleration {acc:.3e} m/s^2 in [1e-17, 1e-15]; "
                  f"{elapsed * 1e6:.0f} us")


def test_criterion_7_field_model(paper_config):
    start = time.perf_counter()
    cfg, tau = paper_config, paper_config.tau
    phase_ok = True
    for r in (100e-6, 200e-6, 450e-6, 700e-6):
        modes = modes_for_separation(r, nModes=4000, kCutTimesR=2e3)
        assert modes.kCut * r >= 1e3 and modes.nModes >= 1000
        got = branch_phase(modes, cfg, r, tau)
        target = newtonian_phase(cfg, r, tau)
        oracle = (float(CONSTANTS.G) * cfg.m1 * cfg.m2 * tau / CONSTANTS.hbar
                  * (2 / math.pi) * math.atan(modes.kCut * r) / r)
        phase_ok &= 0.95 * target <= got <= 1.05 * target
        phase_ok &= abs(got - oracle) / oracle < 0.02  # quadrature oracle

    modes = modes_for_separation(cfg.d - cfg.dx)
    branches = branch_displacement_set(modes, cfg, tau)
    neg_field = negativity(reduced_mass_state(branches))
    ph = static_phases(cfg)
    neg_spin = negativity(entangled_state(ph.dPhiLR, ph.dPhiRL))
    neg_classical = negativity(classicalize(branches))
    min_overlap = min(abs(branch_overlap(branches[a], branches[b]))
                      for a in BRANCHES for b in BRANCHES)
    elapsed = time.perf_counter() - start
    ok = (phase_ok
          and abs(neg_field - neg_spin) / neg_spin < 0.05
          and neg_classical == 0.0
          and min_overlap >= 1 - 1e-6
          and elapsed < 30.0)
    report(7, ok, f"mode-sum phase within 5% of Newtonian at 4 separations "
                  f"(arctan oracle within 2%); field negativity {neg_field:.4f} "
                  f"vs spin {neg_spin:.4f} within 5%; classicalized negativity "
                  f"{neg_classical}; min overlap {min_overlap:.9f}; "
                  f"{elapsed:.1f} s")


def test_criterion_8_decoherence(paper_config):
    start = time.perf_counter()
    t_coll = collisional_time(paper_config)
    rates = thermal_rates(paper_config)
    thermal = sum(rates) * 3.5
    elapsed = time.perf_counter() - start

    guards = 0
    lam = 2 * math.pi * CONSTANTS.hbar / math.sqrt(
        2 * math.pi * paper_config.mGas * CONSTANTS.kB * paper_config.tEnv)
    try:
        collisional_time(dataclasses.replace(paper_config, dx=lam))
    except RegimeError:
        guards += 1
    try:
        thermal_rates(dataclasses.replace(paper_config, tEnv=300.0))
    except RegimeError:
        guards += 1

    ok = (3.5 <= t_coll <= 35.0
          and thermal < 1e-3
          and guards == 2
          and elapsed < 0.01)
    report(8, ok, f"collisional time {t_coll:.1f} s in [3.5, 35]; thermal "
                  f"dephasing over 3.5 s = {thermal:.2e} < 1e-3; both regime "
                  f"guards trigger; {elapsed * 1e3:.2f} ms")


def test_criterion_9_sweep_and_optimizer(paper_config):
    quiet = dataclasses.replace(paper_config, pressure=1e-30, tEnv=1e-3,
                                tInt=1e-3)
    spec = SweepSpec(axes=(SweepAxis("tau", 0.1, 5.0, 100),))
    result = run_sweep(spec, quiet)
    worst = max(abs(row.objective
                    - abs(math.sin((row.dPhiLR + row.dPhiRL) / 2)) / 2)
                for row in result.rows)
    increasing = all(x.objective < y.objective
                     for x, y in zip(result.rows, result.rows[1:]))

    best_config, best_row = maximize(spec, quiet)
    dominated = best_row.objective >= max(r.objective for r in result.rows
                                          if r.feasible)

    identical = (run_sweep(spec, quiet).to_csv()
                 == run_sweep(spec, quiet).to_csv())

    big = SweepSpec(axes=(SweepAxis("tau", 0.1, 5.0, 100),
                          SweepAxis("d", 300e-6, 900e-6, 100)))
    start = time.perf_counter()
    big_result = run_sweep(big, quiet)
    elapsed = time.perf_counter() - start

    ok = (worst < 1e-10
          and increasing
          and dominated and best_row.feasible
          and identical
          and len(big_result.rows) == 10_000
          and elapsed < 60.0)
    report(9, ok, f"100-point tau sweep within {worst:.2e} of closed form and "
                  f"strictly increasing; maximize dominates the grid "
                  f"(objective {best_row.objective:.6f}); byte-identical CSV "
                  f"across repeat runs; 10^4-point sweep in {elapsed:.1f} s")


def test_criterion_10_channel_sanity():
    start = time.perf_counter()
    out = apply_dephasing(entangled_state(0.0, math.pi), 0.1, 0.0)
    value = negativity(out)

    rng = np.random.default_rng(42)
    monotone = True
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        state = TwoQubitState(rho / rho.trace())
        p1, p2 = rng.uniform(0, 1, size=2)
        if negativity(apply_dephasing(state, p1, p2)) > negativity(state) + 1e-12:
            monotone = False
            break
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.4) < 1e-10 and monotone and elapsed < 5.0
    report(10, ok, f"dephasing p=0.1 on the maximal state gives negativity "
                   f"{value:.12f} (0.4 at 1e-10); never increased over 1000 "
                   f"random states; {elapsed:.2f} s")
