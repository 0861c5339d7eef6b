"""Environmental decoherence budget for the orbital superposition.

Collisional decoherence is evaluated in the saturated regime (superposition
size far above the gas de Broglie wavelength, so every scattering event
resolves the path): Gamma = n vbar sigma_geo.  Thermal-photon localization
uses the standard long-wavelength rates Gamma = Lambda dx^2.  The public
functions raise where a regime guard of the cores they share with the
sweep fires, instead of extrapolating; the sweep reads the guard numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (CONSTANTS, NAN_OPS, ExperimentConfig, Ops, RegimeError,
                   _divide, _frozen)

# Long-wavelength localization coefficients for a dielectric sphere
# (Joos-Zeh-type photon scattering and blackbody emission/absorption; see
# the standard open-quantum-systems treatments of levitated spheres):
#   Lambda_sc  = 8! zeta(9) (8/(9 pi)) c R^6 (kB T_env/(hbar c))^9 F(eps)
#   Lambda_em  = (16 pi^5/189)  c R^3 (kB T_int/(hbar c))^6 F(eps)
#   Lambda_abs = (16 pi^5/189)  c R^3 (kB T_env/(hbar c))^6 F(eps)
# with F(eps) = ((eps-1)/(eps+2))^2 used uniformly for the dielectric
# response.  Only negligibility at the operating point is relied upon.
_ZETA9 = 1.0020083928260822
_C_SCATTER = math.factorial(8) * _ZETA9 * 8.0 / (9.0 * math.pi)
_C_PLANCK = 16.0 * math.pi**5 / 189.0

# saturated regime requires dx >> lambda_deBroglie; long-wavelength photon
# rates require dx << lambda_thermal
_REGIME_MARGIN = 10.0
# the regime guards in the order `_budget` meets them; 0 where none fires
_COLLISIONAL, _PHOTON_ENV, _PHOTON_INT = 1, 2, 3


@dataclass(frozen=True)
class DecoherenceRates:
    gammaColl: float        # collisional decoherence rate, 1/s
    gammaSc: float          # thermal photon scattering localization, 1/s
    gammaEm: float          # photon emission localization, 1/s
    gammaAbs: float         # photon absorption localization, 1/s
    tauColl: float          # 1/gammaColl, s
    totalDephasing: float   # 1 - exp(-Gamma_total T_exp): coherence lost, in [0, 1]


def experiment_duration(config: ExperimentConfig) -> float:
    """The full drop T_exp = tau + 2 tauAcc: split, hold and recombine."""
    return config.tau + 2.0 * config.tauAcc


def gas_density(pressure: float, tEnv: float) -> float:
    """Ideal-gas number density n = P / (kB T); where kB T underflows to 0
    it is inf, or 0 at P = 0."""
    if not (math.isfinite(pressure) and pressure >= 0):
        raise ValueError(f"pressure must be >= 0, got {pressure!r}")
    if not (math.isfinite(tEnv) and tEnv > 0):
        raise ValueError(f"tEnv must be positive, got {tEnv!r}")
    return _divide(pressure, CONSTANTS.kB * tEnv)


def gas_de_broglie_wavelength(config: ExperimentConfig,
                              ops: Ops = NAN_OPS) -> float:
    """Thermal de Broglie wavelength h / sqrt(2 pi m kB T) of the gas, or inf
    where 2 pi m kB T underflows to 0.  Numpy-generic with
    ``ops=ARRAY_OPS``."""
    mkt = 2.0 * math.pi * config.mGas * CONSTANTS.kB * config.tEnv
    return ops.divide(2.0 * math.pi * CONSTANTS.hbar, ops.sqrt(mkt))


def _first_guard_message(config: ExperimentConfig, guard, wavelengths) -> str:
    """The RegimeError text of `_budget`'s first ``guard`` to fire at
    ``config``, from the ``wavelengths`` it returns; "" where none fires."""
    if not guard:
        return ""
    dx, scale = config.dx, wavelengths[guard - 1]
    if guard == _COLLISIONAL:
        return (f"saturated collisional regime needs dx >> gas de Broglie "
                f"wavelength: dx={dx:g} m vs {_REGIME_MARGIN:g} x {scale:g} m")
    return (f"long-wavelength photon regime needs dx << thermal wavelength: "
            f"dx={dx:g} m vs {scale:g} m at "
            f"{(config.tEnv, config.tInt)[guard - 2]:g} K")


def _in_regime(config: ExperimentConfig, guard, wavelengths, value):
    """``value``, or the public RegimeError where ``guard`` fires."""
    if guard:
        raise RegimeError(_first_guard_message(config, guard, wavelengths))
    return value


def _collisions(config: ExperimentConfig, ops: Ops):
    """The core of `collisional_time`: the saturated-regime guard's number
    where it fires (never without gas), else 0, the gas de Broglie
    wavelength it compares dx with, and 1/(n vbar pi R^2)."""
    lam = gas_de_broglie_wavelength(config, ops)
    guard = ops.where((config.dx < _REGIME_MARGIN * lam)
                      & (config.pressure != 0.0), _COLLISIONAL, 0)
    n = ops.divide(config.pressure, CONSTANTS.kB * config.tEnv)
    vbar = ops.sqrt(ops.divide(8.0 * CONSTANTS.kB * config.tEnv,
                               math.pi * config.mGas))
    gamma = n * vbar * math.pi * ops.pow(config.radius, 2)
    return guard, lam, ops.divide(1.0, gamma)


def collisional_time(config: ExperimentConfig) -> float:
    """Saturated-regime collisional decoherence time 1/(n vbar pi R^2), inf
    at zero pressure.  Valid only for dx well above the gas de Broglie
    wavelength, where every collision resolves the superposition."""
    guard, lam, tau_coll = _collisions(config, NAN_OPS)
    return _in_regime(config, guard, (lam,), tau_coll)


def dielectric_factor(epsRel: float, ops: Ops = NAN_OPS) -> float:
    """F(eps) of the photon rates above and of the Casimir-Polder potential.
    Numpy-generic with ``ops=ARRAY_OPS``."""
    return ops.pow((epsRel - 1.0) / (epsRel + 2.0), 2)


def thermal_wavelength(temperature: float, ops: Ops = NAN_OPS) -> float:
    """Dominant thermal photon wavelength 2 pi hbar c / (kB T), or inf where
    kB T is 0.  Numpy-generic with ``ops=ARRAY_OPS``."""
    return ops.divide(2.0 * math.pi * CONSTANTS.hbar * CONSTANTS.c,
                      CONSTANTS.kB * temperature)


def _photons(config: ExperimentConfig, ops: Ops):
    """The core of `thermal_rates`: the first photon guard to fire (dx not
    well below the thermal wavelength at tEnv, then at tInt), else 0, those
    wavelengths, and the (scattering, emission, absorption) rates.  Where
    kB T is 0 there are no photons: the guard holds and the rate is 0."""
    dielec = dielectric_factor(config.epsRel, ops)
    hc = CONSTANTS.hbar * CONSTANTS.c
    env = thermal_wavelength(config.tEnv, ops)
    internal = thermal_wavelength(config.tInt, ops)
    guard = ops.where(config.dx > env / _REGIME_MARGIN, _PHOTON_ENV, ops.where(
        config.dx > internal / _REGIME_MARGIN, _PHOTON_INT, 0))
    kt_env = CONSTANTS.kB * config.tEnv / hc
    lam_sc = (_C_SCATTER * CONSTANTS.c * ops.pow(config.radius, 6)
              * ops.pow(kt_env, 9) * dielec)
    dx2 = ops.pow(config.dx, 2)
    planck = _C_PLANCK * CONSTANTS.c * ops.pow(config.radius, 3)
    return guard, (env, internal), (
        lam_sc * dx2,
        planck * ops.pow(CONSTANTS.kB * config.tInt / hc, 6) * dielec * dx2,
        planck * ops.pow(kt_env, 6) * dielec * dx2,
    )


def thermal_rates(config: ExperimentConfig) -> tuple[float, float, float]:
    """(scattering, emission, absorption) localization rates at the
    superposition size dx, long-wavelength regime."""
    guard, wavelengths, rates = _photons(config, NAN_OPS)
    return _in_regime(config, guard, (math.nan, *wavelengths), rates)


def _budget(config: ExperimentConfig, ops: Ops):
    """The core of `dephasing_budget`: the first regime guard to fire (0 if
    none), `collisional_time`, the wavelengths the guards compare dx with
    (gas de Broglie, thermal at tEnv and at tInt) and the DecoherenceRates;
    of arrays with ``ops=ARRAY_OPS``."""
    coll_guard, lam_gas, tau_coll = _collisions(config, ops)
    # inf where n vbar pi R^2 overflows and tau_coll is 0
    gamma_coll = ops.divide(1.0, tau_coll)
    guard, (lam_env, lam_int), (g_sc, g_em, g_abs) = _photons(config, ops)
    total_rate = gamma_coll + g_sc + g_em + g_abs
    # 1 - e^{-Gamma T} without cancelling where Gamma T is small
    p = -ops.expm1(-total_rate * experiment_duration(config))
    # without __init__, which costs more than the formulas
    rates = _frozen(DecoherenceRates, {
        "gammaColl": gamma_coll, "gammaSc": g_sc, "gammaEm": g_em,
        "gammaAbs": g_abs, "tauColl": ops.divide(1.0, gamma_coll),
        "totalDephasing": p})
    guard = ops.where(coll_guard, _COLLISIONAL, guard)
    return guard, tau_coll, (lam_gas, lam_env, lam_int), rates


def dephasing_budget(config: ExperimentConfig) -> DecoherenceRates:
    """Aggregate decoherence over the full drop T_exp = tau + 2 tauAcc.
    ``totalDephasing`` = 1 - e^{-Gamma T_exp} is the fraction of each mass's
    coherence lost, a phase flip at p = totalDephasing / 2 on each spin (see
    `sweep.evaluate`)."""
    guard, _, wavelengths, rates = _budget(config, NAN_OPS)
    return _in_regime(config, guard, wavelengths, rates)
