"""Feasibility constraints: Casimir-Polder, induced magnetic coupling,
and the aggregate verdict including the decoherence budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import CONSTANTS, FLOAT_OPS, ExperimentConfig, Ops, RegimeError
from . import decoherence

# relative margin above contact (2*radius) where the separation range starts
_CONTACT_MARGIN = 1.0 + 1e-12


@dataclass(frozen=True)
class ConstraintReport:
    vCP: float              # Casimir-Polder potential at closest approach, J
    vGrav: float            # gravitational potential at closest approach, J
    cpRatio: float          # vCP / vGrav
    magRatio: float         # induced-dipole interaction / vGrav
    minSeparation: float    # separation where cpRatio equals the target, m
    feasible: bool
    reasons: tuple[str, ...] = field(default_factory=tuple)


def casimir_polder_potential(config: ExperimentConfig, r: float,
                             ops: Ops = FLOAT_OPS) -> float:
    """|V_CP(r)| = 23 hbar c R^6 ((eps-1)/(eps+2))^2 / (4 pi r^7).

    The sphere polarizabilities alpha = 4 pi eps0 R^3 (eps-1)/(eps+2) absorb
    the (4 pi eps0)^-2 prefactor of the two-polarizability form, which is the
    unique dimensionally consistent reading.  Numpy-generic with
    ``ops=ARRAY_OPS``.
    """
    if ops.checked and r <= 2 * config.radius:
        raise ValueError(
            f"spheres overlap: separation {r!r} m <= 2*radius {2 * config.radius!r} m"
        )
    vcp = (23.0 * CONSTANTS.hbar * CONSTANTS.c * ops.pow(config.radius, 6)
           * decoherence.dielectric_factor(config.epsRel, ops))
    return ops.divide(vcp, 4.0 * math.pi * ops.pow(r, 7))


def gravitational_potential(config: ExperimentConfig, r: float,
                            ops: Ops = FLOAT_OPS) -> float:
    """|V_grav(r)| = G m1 m2 / r.  Numpy-generic with ``ops=ARRAY_OPS``."""
    if ops.checked and r <= 0:
        raise ValueError(f"r must be positive, got {r!r}")
    return CONSTANTS.G * config.m1 * config.m2 / r


def cp_ratio(config: ExperimentConfig, r: float | None = None) -> float:
    """Casimir-Polder to gravitational potential ratio at closest approach
    (or at ``r`` when given), inf where gravity underflows to 0."""
    r = config.d - config.dx if r is None else r
    return FLOAT_OPS.divide(casimir_polder_potential(config, r),
                            gravitational_potential(config, r))


def min_separation(config: ExperimentConfig, targetRatio: float) -> float:
    """Smallest allowed separation: the root of cpRatio(r) = target.

    cpRatio(r) = C / r^6 exactly, so from the ratio at closest approach r
    the root is r* = r (cpRatio(r) / target)^(1/6).  Raises ValueError when
    r* lies outside [2*radius (1 + 1e-12), 1 m].
    """
    if not targetRatio > 0:
        raise ValueError(f"targetRatio must be positive, got {targetRatio!r}")
    r = config.d - config.dx
    root = r * (cp_ratio(config, r) / targetRatio) ** (1.0 / 6.0)
    lo = 2.0 * config.radius * _CONTACT_MARGIN
    if not lo <= root <= 1.0:
        raise ValueError(f"no root in [{lo:g}, 1] m: cpRatio reaches "
                         f"{targetRatio:g} at {root:g} m")
    return root


def _dipole_energy(config: ExperimentConfig, bResidual: float, r: float,
                   ops: Ops):
    """The induced dipole-dipole energy mu0 mu^2 / (4 pi r^3) of
    `magnetic_interaction_ratio` at ``r``; ``bResidual`` is checked here."""
    if ops.checked and not (math.isfinite(bResidual) and bResidual >= 0):
        raise ValueError(f"bResidual must be >= 0, got {bResidual!r}")
    mu_ind = (config.chiM * (4.0 / 3.0) * math.pi * ops.pow(config.radius, 3)
              * bResidual / CONSTANTS.mu0)
    return ops.divide(CONSTANTS.mu0 * ops.pow(mu_ind, 2),
                      4.0 * math.pi * ops.pow(r, 3))


def magnetic_interaction_ratio(config: ExperimentConfig, bResidual: float,
                               ops: Ops = FLOAT_OPS) -> float:
    """Induced-dipole coupling relative to gravity at closest approach.

    Each sphere acquires mu = chi_m (4/3) pi R^3 B / mu0 in the residual
    field; the dipole-dipole energy mu0 mu^2 / (4 pi r^3) is compared to
    G m1 m2 / r.  Scales exactly as chi_m^2.  Numpy-generic with
    ``ops=ARRAY_OPS``.
    """
    r = config.d - config.dx
    return ops.divide(_dipole_energy(config, bResidual, r, ops),
                      gravitational_potential(config, r, ops))


def _closest_approach(config: ExperimentConfig, bResidual: float, ops: Ops):
    """The core of `feasibility_report`: (vCP, vGrav, cpRatio, magRatio) at
    the closest approach r = d - dx, a ratio inf where vGrav is 0."""
    r = config.d - config.dx
    vcp = casimir_polder_potential(config, r, ops)
    vg = gravitational_potential(config, r, ops)
    return (vcp, vg, ops.divide(vcp, vg),
            ops.divide(_dipole_energy(config, bResidual, r, ops), vg))


def _failing(cpRatio, magRatio, targetRatio, tauColl, tauCollFactor,
             duration):
    """Which checks fail, in `_reasons` order: Casimir-Polder and magnetic
    coupling above ``targetRatio`` of gravity, and collisional coherence
    shorter than ``tauCollFactor`` times the drop ``duration``.  Numbers
    give bools and arrays give masks."""
    return (cpRatio > targetRatio, magRatio > targetRatio,
            tauColl < tauCollFactor * duration)


def _reasons(cpRatio: float, magRatio: float, targetRatio: float,
             tauColl: float, tauCollFactor: float, duration: float,
             regimeError: str = "") -> list[str]:
    """Why a configuration is infeasible: the text of each check `_failing`
    finds failing.  ``regimeError`` is the collisional guard's message when
    it fired, and ``tauColl`` is then unused."""
    cp, mag, coll = _failing(cpRatio, magRatio, targetRatio, tauColl,
                             tauCollFactor, duration)
    reasons = []
    if cp:
        reasons.append(f"cpRatio {cpRatio:.3g} > {targetRatio:g}")
    if mag:
        reasons.append(f"magRatio {magRatio:.3g} > {targetRatio:g}")
    if regimeError:
        reasons.append(f"decoherence regime: {regimeError}")
    elif coll:
        reasons.append(f"tauColl {tauColl:.3g} s < {tauCollFactor:g} x "
                       f"experiment duration {duration:.3g} s")
    return reasons


def feasibility_report(config: ExperimentConfig, targetRatio: float = 0.1,
                       bResidual: float = 0.0,
                       tauCollFactor: float = 1.0) -> ConstraintReport:
    """Aggregate feasibility: Casimir-Polder and magnetic backgrounds below
    ``targetRatio`` of gravity, and collisional coherence lasting at least
    ``tauCollFactor`` times the full drop tau + 2 tauAcc.  The numbers and
    reasons come from the cores the batched sweep calls on arrays.  Raises
    ValueError for targets it cannot compare with, as `SweepSpec` does."""
    if not targetRatio > 0:
        raise ValueError(f"targetRatio must be positive, got {targetRatio!r}")
    if not tauCollFactor >= 1.0:
        raise ValueError(f"tauCollFactor must be >= 1, got {tauCollFactor!r}")
    vcp, vg, ratio, mag = _closest_approach(config, bResidual, FLOAT_OPS)
    r = config.d - config.dx
    # the root of min_separation; outside [contact, 1 m] the ratio is on one
    # side of the target everywhere: below it down to contact, or above it
    # out to a metre
    root = r * (ratio / targetRatio) ** (1.0 / 6.0)
    if root < 2.0 * config.radius * _CONTACT_MARGIN:
        min_sep = 2.0 * config.radius
    else:
        min_sep = root if root <= 1.0 else math.inf
    try:
        tau_coll, regime = decoherence._collisions(config, FLOAT_OPS)[2], ""
    except RegimeError as err:
        tau_coll, regime = math.nan, str(err)
    reasons = _reasons(ratio, mag, targetRatio, tau_coll, tauCollFactor,
                       decoherence.experiment_duration(config), regime)
    # in field order; passing seven keywords costs more than the formulas
    return ConstraintReport(vcp, vg, ratio, mag, min_sep, not reasons,
                            tuple(reasons))
