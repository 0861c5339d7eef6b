"""Gravitational branch phases for the four joint superposition branches.

Two interferometers split each mass along a common horizontal axis, so the
four branches (LL, LR, RL, RR) sit at steady separations {d, d+dx, d-dx, d}
during the hold stage.  Each branch accumulates phase G m1 m2 t / (hbar r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, ExperimentConfig, RegimeError, _frozen

BRANCHES = ("LL", "LR", "RL", "RR")


@dataclass(frozen=True)
class PhaseSet:
    """Branch phases (rad) and the differentials against the common phase.

    Invariants: phiLL == phiRR == phiRef (equal LL/RR separations), and
    dPhiLR = phiLR - phiRef, dPhiRL = phiRL - phiRef hold exactly.
    """

    phiLL: float
    phiRR: float
    phiLR: float
    phiRL: float
    dPhiLR: float
    dPhiRL: float
    phiRef: float

    @classmethod
    def from_branch_phases(cls, phiLL, phiLR, phiRL, phiRR) -> "PhaseSet":
        # without __init__, which costs more than the formulas
        return _frozen(cls, {"phiLL": phiLL, "phiRR": phiRR, "phiLR": phiLR,
                             "phiRL": phiRL, "dPhiLR": phiLR - phiLL,
                             "dPhiRL": phiRL - phiLL, "phiRef": phiLL})


def _positions(d, dx):
    """Mass 1's L and R positions, then mass 2's: -dx/2, +dx/2 around 0
    and d - dx/2, d + dx/2 around d.  Numbers or arrays."""
    return -dx / 2, +dx / 2, d - dx / 2, d + dx / 2


def _separations(d, dx):
    """The branch separations |x2 - x1| in `BRANCHES` order, from
    `_positions`.  Numbers or arrays."""
    x1l, x1r, x2l, x2r = _positions(d, dx)
    return abs(x2l - x1l), abs(x2r - x1l), abs(x2l - x1r), abs(x2r - x1r)


def branch_positions(config: ExperimentConfig) -> dict[str, tuple[float, float]]:
    """Positions (x1, x2) of the two masses on the split axis for each branch.

    Mass 1 is centred at 0, mass 2 at d; the L/R components sit at -dx/2 and
    +dx/2 around each centre.
    """
    x1l, x1r, x2l, x2r = _positions(config.d, config.dx)
    x1, x2 = {"L": x1l, "R": x1r}, {"L": x2l, "R": x2r}
    return {b: (x1[b[0]], x2[b[1]]) for b in BRANCHES}


def pairwise_separations(config: ExperimentConfig) -> dict[str, float]:
    """Branch separations {LL: d, LR: d+dx, RL: d-dx, RR: d}."""
    return dict(zip(BRANCHES, _separations(config.d, config.dx)))


def static_phases(config: ExperimentConfig) -> PhaseSet:
    """Hold-stage phases phi_b = G m1 m2 tau / (hbar r_b) per branch.
    Numpy-generic: a configuration of arrays gives a PhaseSet of arrays."""
    k = CONSTANTS.G * config.m1 * config.m2 * config.tau / CONSTANTS.hbar
    ll, lr, rl, rr = _separations(config.d, config.dx)
    return PhaseSet.from_branch_phases(k / ll, k / lr, k / rl, k / rr)


def small_split_phase(config: ExperimentConfig) -> float:
    """Leading-order value of dPhiLR + dPhiRL in the small-split regime.

    Exactly, dPhiLR + dPhiRL = (G m1 m2 tau/hbar) * 2 dx^2 / (d (d^2 - dx^2)),
    whose leading term is 2 (G m1 m2 tau / hbar d) (dx/d)^2; the relative
    truncation error is (dx/d)^2.  Requires dx/d < 0.1.
    """
    dx = config.dx
    ratio = dx / config.d
    if ratio >= 0.1:
        raise RegimeError(f"small-split expansion needs dx/d < 0.1, got {ratio:g}")
    k = CONSTANTS.G * config.m1 * config.m2 * config.tau / (CONSTANTS.hbar * config.d)
    return 2.0 * k * ratio**2


def superposition_size(dBdx: float, tauAcc: float, m: float) -> float:
    """Split reached by a spin-dependent constant-force stage with a midway
    spin flip: dx = (1/2) (gE muB dBdx / m) tauAcc^2."""
    for name, v in (("dBdx", dBdx), ("tauAcc", tauAcc), ("m", m)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
    if m == 0:
        raise ValueError("m must be positive")
    return _kinematic_split(dBdx, tauAcc, m)


def _kinematic_split(dBdx: float, tauAcc: float, m: float) -> float:
    """`superposition_size` of inputs already checked; `core.validate`
    calls it directly."""
    return 0.5 * (CONSTANTS.gE * CONSTANTS.muB * dBdx / m) * tauAcc**2


def mutual_acceleration(config: ExperimentConfig) -> float:
    """Acceleration of mass 1 toward mass 2 at the closest branch separation."""
    r = config.d - config.dx
    return CONSTANTS.G * config.m2 / r**2


def _split_profile(theta: np.ndarray) -> np.ndarray:
    """Normalized split fraction u(theta) for the accelerate/decelerate stage.

    Constant force for the first half, reversed for the second (midpoint spin
    flip): u = 2 theta^2 for theta <= 1/2, u = 1 - 2 (1-theta)^2 after.
    """
    return np.where(theta <= 0.5, 2.0 * theta**2, 1.0 - 2.0 * (1.0 - theta) ** 2)


def dynamic_phases(config: ExperimentConfig, nSteps: int = 2000) -> PhaseSet:
    """Phases integrated over split + hold + recombine.

    During the split/recombine stages the LR and RL separations follow
    d +/- dx*u(t/tauAcc) with the constant-acceleration profile u; the branch
    phase is (G m1 m2 / hbar) * integral dt / r_b(t), evaluated with a
    composite trapezoidal rule of ``nSteps`` panels per stage (stage 3 equals
    stage 1 by time-reversal symmetry).  Use an even ``nSteps`` so a node
    lands on the mid-stage force reversal.
    """
    if nSteps < 2:
        raise ValueError(f"nSteps must be >= 2, got {nSteps}")
    k = CONSTANTS.G * config.m1 * config.m2 / CONSTANTS.hbar
    d, dx = config.d, config.dx

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    if config.tauAcc > 0:
        t = np.linspace(0.0, config.tauAcc, nSteps + 1)
        u = _split_profile(t / config.tauAcc)
        steady = trapezoid(np.full_like(t, 1.0 / d), t)    # LL and RR
        stage = {"LL": steady, "RR": steady,
                 "LR": trapezoid(1.0 / (d + dx * u), t),
                 "RL": trapezoid(1.0 / (d - dx * u), t)}
    else:
        stage = {b: 0.0 for b in BRANCHES}

    hold = static_phases(config)  # tauAcc = 0 reproduces it exactly
    return PhaseSet.from_branch_phases(
        phiLL=hold.phiLL + k * 2.0 * stage["LL"],
        phiLR=hold.phiLR + k * 2.0 * stage["LR"],
        phiRL=hold.phiRL + k * 2.0 * stage["RL"],
        phiRR=hold.phiRR + k * 2.0 * stage["RR"],
    )
