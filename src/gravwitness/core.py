"""Physical constants, experiment configuration and validation.

All quantities are SI.  A configuration describes two microspheres dropped
through adjacent Stern-Gerlach interferometers: masses, trap separation,
superposition split, hold/split times, magnetic field gradient, sphere
properties and the vacuum/thermal environment.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from math import inf
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant; lists every violation."""


class RegimeError(ValueError):
    """Raised when an approximation is evaluated outside its validity regime."""


class ConfigConsistencyWarning(UserWarning):
    """Non-fatal inconsistency between redundant configuration parameters."""


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 recommended values (SI), fixed to 9+ significant digits."""

    G: float = 6.67430e-11          # gravitational constant, m^3 kg^-1 s^-2
    hbar: float = 1.054571817e-34   # reduced Planck constant, J s
    c: float = 299792458.0          # speed of light, m s^-1 (exact)
    kB: float = 1.380649e-23        # Boltzmann constant, J K^-1 (exact)
    muB: float = 9.2740100783e-24   # Bohr magneton, J T^-1
    gE: float = 2.00231930436256    # electron g-factor magnitude
    eps0: float = 8.8541878128e-12  # vacuum permittivity, F m^-1
    mu0: float = 1.25663706212e-6   # vacuum permeability, H m^-1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"constant {f.name} must be finite and positive, got {v!r}")


CONSTANTS = PhysicalConstants()

# helium-4 atomic mass: 4.002602 u (CODATA-2018 atomic mass constant)
M_HELIUM4 = 4.002602 * 1.66053906660e-27


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experimental parameter set, SI units throughout.

    ``dx`` may be None, in which case `validate` derives it from the
    split kinematics (dBdx, tauAcc, m1).
    """

    m1: float               # test mass 1, kg
    m2: float               # test mass 2, kg
    d: float                # separation between interferometer centres, m
    dx: float | None        # superposition split of each mass, m
    tau: float              # hold time, s
    tauAcc: float           # split/recombine stage duration, s
    dBdx: float             # magnetic field gradient along the split axis, T/m
    radius: float           # microsphere radius, m
    epsRel: float           # relative dielectric constant
    pressure: float         # residual gas pressure, Pa
    tEnv: float             # environment temperature, K
    tInt: float             # internal temperature, K
    chiM: float             # magnetic susceptibility
    mGas: float             # residual gas particle mass, kg


FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def paper_defaults() -> ExperimentConfig:
    """Reference scenario: 1e-14 kg spheres, 450 um trap separation,
    250 um split, 2.5 s hold, 0.5 s split stages, 1e6 T/m gradient."""
    return ExperimentConfig(
        m1=1e-14,
        m2=1e-14,
        d=450e-6,
        dx=250e-6,
        tau=2.5,
        tauAcc=0.5,
        dBdx=1e6,
        radius=1e-6,
        epsRel=5.7,
        pressure=1e-15,
        tEnv=0.15,
        tInt=0.15,
        chiM=1e-5,
        mGas=M_HELIUM4,
    )


def _finite_number(value) -> bool:
    # bool is an int subclass, but True and False are not quantities
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int beyond the float range
        return False


# Each numeric field's range: (name, lower bound, whether the field may
# equal it); every one must also be a finite number.  chiM is bounded by
# that alone.
_BOUNDS = (*((name, 0.0, False) for name in (
    "m1", "m2", "d", "tau", "tauAcc", "dBdx", "radius", "pressure", "tEnv",
    "mGas")),
    ("tInt", 0.0, True), ("chiM", -inf, False), ("epsRel", 1.0, False))
# the bounds reported after every finiteness problem, in this order
_LAST_BOUNDS = ("epsRel", "tInt")


def validate(config: ExperimentConfig) -> ExperimentConfig:
    """Check every invariant and return the validated configuration.

    A missing ``dx`` is filled in from the split kinematics; an explicit
    ``dx`` wins.  Issues no warning (see `_consistency_notes`).

    Raises ConfigError naming every violated invariant.  Idempotent:
    ``validate(validate(c)) == validate(c)``.
    """
    problems = None     # made at the first field that is not a plain float
    for name, lower, closed in _BOUNDS:
        value = getattr(config, name)
        # a plain float in range passes one chained test
        if (type(value) is float and value < inf
                and (lower <= value if closed else lower < value)):
            continue
        if problems is None:
            problems, last = [], {}
        if not _finite_number(value):
            problems.append(f"{name} must be a finite number, got {value!r}")
        elif not (lower <= value if closed else lower < value):
            msg = f"{name} must be {'>=' if closed else '>'} {lower:g}, got {value!r}"
            if name in _LAST_BOUNDS:
                last[name] = msg
            else:
                problems.append(msg)
    if problems is not None:
        problems += [last[name] for name in _LAST_BOUNDS if name in last]
        if problems:
            raise ConfigError("; ".join(problems))

    try:
        dx_kinematic = _kinematic_split(config.dBdx, config.tauAcc, config.m1)
    except OverflowError:
        raise ConfigError(f"kinematic dx overflows: dBdx={config.dBdx!r}, "
                          f"tauAcc={config.tauAcc!r}, m1={config.m1!r}") from None
    dx = config.dx
    if dx is None:
        dx = dx_kinematic
    elif not _finite_number(dx):
        raise ConfigError(f"dx must be a finite number or None, got {dx!r}")

    if not dx > 0:
        raise ConfigError(f"dx must be > 0, got {dx!r}")
    if not dx < config.d:
        raise ConfigError(f"dx < d violated: dx={dx!r}, d={config.d!r}")
    if not config.d - dx > 2 * config.radius:
        raise ConfigError(
            f"d - dx > 2*radius violated: closest approach {config.d - dx!r} m "
            f"with radius {config.radius!r} m")
    return config if dx is config.dx else dataclasses.replace(config, dx=dx)


def _frozen(cls, values: dict):
    """The frozen dataclass ``cls`` with the fields ``values`` (a dict in
    field order) without its ``__init__``, whose cost shows in a sweep.
    Sound for classes with no ``__post_init__``, slots or init-only
    fields; a test holds each caller's class to that."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", values)
    return record


def config_to_dict(config: ExperimentConfig) -> dict:
    """Flat key-value mapping with keys exactly matching the field names."""
    return dataclasses.asdict(config)


def _consistency_notes(config: ExperimentConfig) -> list[str]:
    """The ConfigConsistencyWarning messages of a configuration that
    `validate` accepts, as given: before `validate` derives its ``dx``."""
    dx, kinematic = config.dx, _kinematic_split(config.dBdx, config.tauAcc,
                                                config.m1)
    if dx is None:
        return [] if config.m1 == config.m2 else [
            "dx derived from m1 only; the two masses differ so their "
            "kinematic splits would too"]
    if abs(dx - kinematic) <= 0.01 * kinematic:
        return []
    return [f"explicit dx={dx:g} m differs from the kinematic value "
            f"{kinematic:g} m by more than 1%; keeping the explicit dx"]


def _replaced(data: dict, base: ExperimentConfig) -> ExperimentConfig:
    """``base`` with the fields of ``data``, unvalidated."""
    unknown = sorted(set(data) - set(FIELD_NAMES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return dataclasses.replace(base, **data)


def config_from_dict(data: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a configuration from a flat mapping.

    Unknown keys are rejected.  Missing keys fall back to ``base``
    (paper defaults when not given); ``dx`` may be null to request the
    kinematic derivation.  The result is validated, and each of its
    `_consistency_notes` is issued as a ConfigConsistencyWarning.
    """
    config = _replaced(data, paper_defaults() if base is None else base)
    valid = validate(config)
    for note in _consistency_notes(config):
        warnings.warn(note, ConfigConsistencyWarning, stacklevel=2)
    return valid


def _read_json(path) -> dict:
    """The flat JSON object of a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be a flat object of key/value pairs")
    return data


def load_config(path) -> ExperimentConfig:
    """Read a validated configuration from a flat JSON document; warns as
    `config_from_dict` does."""
    return config_from_dict(_read_json(path))


def config_to_json(config: ExperimentConfig) -> str:
    """Deterministic JSON serialization (field order fixed)."""
    return json.dumps(config_to_dict(config), indent=2)


def _elementwise(fn):
    """``fn`` on a number, and elementwise with the same ``fn`` on a float
    array, with nan where it raises OverflowError (on a number too) so that
    every number computed from it is nan too."""
    def apply(x, *args):
        if not isinstance(x, np.ndarray):
            return _or_nan(fn, x, *args)
        values = x.ravel().tolist()
        try:
            out = [fn(v, *args) for v in values]
        except OverflowError:
            out = [_or_nan(fn, v, *args) for v in values]
        return np.array(out, dtype=float).reshape(x.shape)
    return apply


def _or_nan(fn, x, *args) -> float:
    """``fn`` of ``x`` as a float, nan where that overflows: an int's exact
    power is converted here, so that it overflows here as a float's does."""
    try:
        return float(fn(x, *args))
    except OverflowError:
        return math.nan


def _pow_or_nan(x, y):
    """`_or_nan` of pow, written out: the scalar pipeline calls it most."""
    try:
        return float(pow(x, y))
    except OverflowError:
        return math.nan


def _divide(a, b):
    """a / b, and where b is 0 its limit: inf for a > 0 and 0 at a = 0; a nan
    ``a`` (an overflowed numerator) stays nan."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.inf if a > 0.0 else a * 0.0


def _divide_arrays(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b == 0.0, np.where(a > 0.0, np.inf, a * 0.0),
                        np.divide(a, b))


def _choose(condition, a, b):
    return a if condition else b


@dataclass(frozen=True)
class Ops:
    """The operations whose number and array forms differ.  A formula
    written with them is numpy-generic: with `ARRAY_OPS` it gives on each
    array element bit for bit what it gives on that number with `NAN_OPS`,
    and with `FLOAT_OPS` where that does not raise.  ``divide`` is
    `_divide`; ``where(condition, a, b)`` picks a where the condition holds.
    With ``checked`` (`FLOAT_OPS`), inputs are range-checked and a regime
    guard that fires raises RegimeError; unchecked, on validated
    configurations, no check can fail and a guard gives where it fires."""

    pow: Callable
    expm1: Callable
    sqrt: Callable
    divide: Callable
    where: Callable
    checked: bool


FLOAT_OPS = Ops(pow=pow, expm1=math.expm1, sqrt=math.sqrt, divide=_divide,
                where=_choose, checked=True)
# numbers with the arithmetic of ARRAY_OPS: a power is a float, nan where it
# overflows.  expm1 stays libm's: its one argument, -Gamma T of the budget,
# is <= 0 or nan
NAN_OPS = Ops(pow=_pow_or_nan, expm1=math.expm1, sqrt=math.sqrt,
              divide=_divide, where=_choose, checked=False)
# numpy's array pow and expm1 round differently from libm in the last bit on
# some inputs, so arrays go through libm element by element;
# np.sqrt is correctly rounded, as libm's sqrt is
ARRAY_OPS = Ops(pow=_elementwise(pow), expm1=_elementwise(math.expm1),
                sqrt=np.sqrt, divide=_divide_arrays, where=np.where,
                checked=False)


# gravphase imports this module, so its name is bound last
from .gravphase import _kinematic_split  # noqa: E402
