"""Environmental decoherence budget for the orbital superposition.

Collisional decoherence is evaluated in the saturated regime (superposition
size far above the gas de Broglie wavelength, so every scattering event
resolves the path): Gamma = n vbar sigma_geo.  Thermal-photon localization
uses the standard long-wavelength rates Gamma = Lambda dx^2.  Regime guards
raise instead of extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CONSTANTS, ExperimentConfig, RegimeError

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


@dataclass(frozen=True)
class DecoherenceRates:
    gammaColl: float        # collisional decoherence rate, 1/s
    gammaSc: float          # thermal photon scattering localization, 1/s
    gammaEm: float          # photon emission localization, 1/s
    gammaAbs: float         # photon absorption localization, 1/s
    tauColl: float          # 1/gammaColl, s
    totalDephasing: float   # 1 - exp(-Gamma_total T_exp): coherence lost, in [0, 1)


def gas_density(pressure: float, tEnv: float) -> float:
    """Ideal-gas number density n = P / (kB T)."""
    if not (math.isfinite(pressure) and pressure >= 0):
        raise ValueError(f"pressure must be >= 0, got {pressure!r}")
    if not (math.isfinite(tEnv) and tEnv > 0):
        raise ValueError(f"tEnv must be positive, got {tEnv!r}")
    return pressure / (CONSTANTS.kB * tEnv)


def gas_de_broglie_wavelength(config: ExperimentConfig) -> float:
    """Thermal de Broglie wavelength h / sqrt(2 pi m kB T) of the gas, or inf."""
    mkt = 2.0 * math.pi * config.mGas * CONSTANTS.kB * config.tEnv
    return math.inf if mkt == 0.0 else 2.0 * math.pi * CONSTANTS.hbar / math.sqrt(mkt)


def collisional_time(config: ExperimentConfig) -> float:
    """Saturated-regime collisional decoherence time 1/(n vbar pi R^2).

    Valid only for dx well above the gas de Broglie wavelength (every
    collision then resolves the superposition); returns inf at zero pressure.
    """
    lam = gas_de_broglie_wavelength(config)
    if config.dx < _REGIME_MARGIN * lam:
        raise RegimeError(
            f"saturated collisional regime needs dx >> gas de Broglie wavelength: "
            f"dx={config.dx:g} m vs {_REGIME_MARGIN:g} x {lam:g} m"
        )
    n = gas_density(config.pressure, config.tEnv)
    vbar = math.sqrt(8.0 * CONSTANTS.kB * config.tEnv / (math.pi * config.mGas))
    gamma = n * vbar * math.pi * config.radius**2
    return math.inf if gamma == 0.0 else 1.0 / gamma


def dielectric_factor(epsRel: float) -> float:
    """F(eps) of the photon rates above and of the Casimir-Polder potential."""
    return ((epsRel - 1.0) / (epsRel + 2.0)) ** 2


def thermal_wavelength(temperature: float) -> float:
    """Dominant thermal photon wavelength 2 pi hbar c / (kB T)."""
    return 2.0 * math.pi * CONSTANTS.hbar * CONSTANTS.c / (CONSTANTS.kB * temperature)


def thermal_rates(config: ExperimentConfig) -> tuple[float, float, float]:
    """(scattering, emission, absorption) localization rates at the
    superposition size dx, long-wavelength regime."""
    dielec = dielectric_factor(config.epsRel)
    hc = CONSTANTS.hbar * CONSTANTS.c
    rates = []
    for temp, coeff, r_pow, kt_pow in ((config.tEnv, _C_SCATTER, 6, 9),
                                       (config.tInt, _C_PLANCK, 3, 6),
                                       (config.tEnv, _C_PLANCK, 3, 6)):
        if CONSTANTS.kB * temp == 0.0:     # no photons; also where kB T underflows
            rates.append(0.0)
            continue
        if config.dx > thermal_wavelength(temp) / _REGIME_MARGIN:
            raise RegimeError(
                f"long-wavelength photon regime needs dx << thermal wavelength: "
                f"dx={config.dx:g} m vs {thermal_wavelength(temp):g} m at {temp:g} K"
            )
        kt = CONSTANTS.kB * temp / hc
        lam = coeff * CONSTANTS.c * config.radius**r_pow * kt**kt_pow * dielec
        rates.append(lam * config.dx**2)
    return tuple(rates)


def dephasing_budget(config: ExperimentConfig) -> DecoherenceRates:
    """Aggregate decoherence over the full drop T_exp = tau + 2 tauAcc.

    ``totalDephasing`` = 1 - e^{-Gamma T_exp} is the fraction of each mass's
    coherence lost: its spin coherences decay by 1 - totalDephasing, which
    a phase-flip channel gives at p = totalDephasing / 2 (see
    `sweep.evaluate`).
    """
    if config.pressure == 0.0:
        gamma_coll = 0.0
    else:
        gamma_coll = 1.0 / collisional_time(config)
    g_sc, g_em, g_abs = thermal_rates(config)
    t_exp = config.tau + 2.0 * config.tauAcc
    total_rate = gamma_coll + g_sc + g_em + g_abs
    p = 1.0 - math.exp(-total_rate * t_exp)
    return DecoherenceRates(
        gammaColl=gamma_coll,
        gammaSc=g_sc,
        gammaEm=g_em,
        gammaAbs=g_abs,
        tauColl=math.inf if gamma_coll == 0.0 else 1.0 / gamma_coll,
        totalDephasing=p,
    )
