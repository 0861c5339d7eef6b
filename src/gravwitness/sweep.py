"""Constrained parameter-space exploration.

Grid sweeps evaluate phases, the dephased spin state, feasibility and the
decoherence budget at every point; a deterministic coordinate-descent with
golden-section line searches refines the best feasible grid point.  Rows are
emitted in row-major axis order and runs are bit-reproducible.  `evaluate`,
the one pipeline to the dephased spin state, also serves the CLI `witness`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import spinstate
from .constraints import ConstraintReport, feasibility_report
from .core import (ConfigConsistencyWarning, ConfigError, ExperimentConfig,
                   FIELD_NAMES, RegimeError, validate)
from .decoherence import DecoherenceRates, dephasing_budget
from .gravphase import PhaseSet, static_phases

OBJECTIVES = ("negativity", "witness", "witnessOptimized")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ROUNDS, _LINE_ITERATIONS = 3, 40     # maximize: descent rounds, steps per axis


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    count: int
    spacing: str = "linear"     # "linear" | "log"

    def __post_init__(self):
        if self.name not in FIELD_NAMES:
            raise ValueError(f"unknown parameter {self.name!r}; "
                             f"must be one of {', '.join(FIELD_NAMES)}")
        if not (math.isfinite(self.min) and math.isfinite(self.max) and self.min < self.max):
            raise ValueError(f"axis {self.name}: need finite min < max, "
                             f"got [{self.min!r}, {self.max!r}]")
        if self.count < 2:
            raise ValueError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"axis {self.name}: spacing must be linear or log, "
                             f"got {self.spacing!r}")
        if self.spacing == "log" and self.min <= 0:
            raise ValueError(f"axis {self.name}: log spacing needs min > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    objective: str = "negativity"
    cpRatioMax: float = 0.1
    requireTauCollOver: float = 1.0

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if not 1 <= len(axes) <= 4:
            raise ValueError(f"need 1 to 4 axes, got {len(axes)}")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {names}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, "
                             f"got {self.objective!r}")
        if not self.cpRatioMax > 0:
            raise ValueError(f"cpRatioMax must be positive, got {self.cpRatioMax!r}")
        if not self.requireTauCollOver >= 1.0:
            raise ValueError(f"requireTauCollOver must be >= 1, "
                             f"got {self.requireTauCollOver!r}")


@dataclass(frozen=True)
class SweepRow:
    params: dict[str, float]
    dPhiLR: float
    dPhiRL: float
    objective: float
    cpRatio: float
    tauColl: float
    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def csv_header(self) -> list[str]:
        return ([a.name for a in self.spec.axes]
                + ["dPhiLR", "dPhiRL", "objective", "cpRatio", "tauColl",
                   "feasible", "reason"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.csv_header())
        for row in self.rows:
            fields = [f"{row.params[a.name]:.12g}" for a in self.spec.axes]
            fields += [f"{v:.12g}" for v in (row.dPhiLR, row.dPhiRL, row.objective,
                                             row.cpRatio, row.tauColl)]
            fields += ["true" if row.feasible else "false", row.reason]
            writer.writerow(fields)
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


def _objective_value(spec: SweepSpec, state: spinstate.TwoQubitState) -> float:
    if spec.objective == "negativity":
        return spinstate.negativity(state)
    if spec.objective == "witness":
        return spinstate.witness(state).w
    return spinstate.optimize_witness(state)[1].w


@dataclass(frozen=True)
class Evaluation:
    """Every stage of one configuration's pipeline.

    ``budget`` and ``dephased`` are None when the decoherence budget is out
    of its regime; ``regimeError`` then holds the guard's message.
    """

    phases: PhaseSet
    report: ConstraintReport
    state: spinstate.TwoQubitState        # noiseless
    budget: DecoherenceRates | None
    dephased: spinstate.TwoQubitState | None
    regimeError: str = ""


def evaluate(config: ExperimentConfig, cpRatioMax: float = 0.1,
             tauCollOver: float = 1.0) -> Evaluation:
    """Phases, feasibility, noiseless state, decoherence budget and dephased
    state of a validated configuration.

    Each mass's spatial coherence decays by e^{-Gamma T} = 1 - totalDephasing
    over the drop; a phase-flip channel scales coherences by 1 - 2p, so the
    spin channel gets p = totalDephasing / 2 on each qubit.
    """
    phases = static_phases(config)
    report = feasibility_report(config, targetRatio=cpRatioMax,
                                tauCollFactor=tauCollOver)
    state = spinstate.entangled_state(phases.dPhiLR, phases.dPhiRL)
    try:
        budget = dephasing_budget(config)
    except RegimeError as err:
        return Evaluation(phases, report, state, None, None, str(err))
    p = budget.totalDephasing / 2.0
    return Evaluation(phases, report, state, budget,
                      spinstate.apply_dephasing(state, p, p))


def _evaluate_point(base: ExperimentConfig, spec: SweepSpec,
                    overrides: dict[str, float]) -> SweepRow:
    nan = float("nan")
    try:
        cfg = validate(dataclasses.replace(base, **overrides))
    except ConfigError as err:
        return SweepRow(params=dict(overrides), dPhiLR=nan, dPhiRL=nan,
                        objective=nan, cpRatio=nan, tauColl=nan,
                        feasible=False, reason=f"invalid config: {err}")

    ev = evaluate(cfg, spec.cpRatioMax, spec.requireTauCollOver)
    reasons = list(ev.report.reasons)
    tau_coll, obj = nan, nan
    if ev.dephased is None:
        msg = f"decoherence regime: {ev.regimeError}"
        if msg not in reasons:
            reasons.append(msg)
    else:
        tau_coll, obj = ev.budget.tauColl, _objective_value(spec, ev.dephased)
    return SweepRow(params=dict(overrides), dPhiLR=ev.phases.dPhiLR,
                    dPhiRL=ev.phases.dPhiRL, objective=obj,
                    cpRatio=ev.report.cpRatio, tauColl=tau_coll,
                    feasible=not reasons, reason="; ".join(reasons))


def run_sweep(spec: SweepSpec, base_config: ExperimentConfig) -> SweepResult:
    """Evaluate the grid in row-major order of the axes as given.

    Invalid grid points are emitted as infeasible rows, not dropped.
    """
    grids = [axis.values() for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        rows = tuple(
            _evaluate_point(base_config, spec,
                            dict(zip(names, (float(v) for v in combo))))
            for combo in itertools.product(*grids))
    return SweepResult(spec=spec, rows=rows)


def _line_search(base: ExperimentConfig, spec: SweepSpec, axis: SweepAxis,
                 best: tuple[float, dict]) -> tuple[float, dict]:
    """Golden-section maximization along one axis through the incumbent
    ``best`` (log axes searched in log space).  Infeasible points score
    -inf; returns the best point seen."""
    params = dict(best[1])
    to_x = math.log if axis.spacing == "log" else (lambda v: v)
    from_x = math.exp if axis.spacing == "log" else (lambda v: v)

    def score(x: float) -> float:
        trial = dict(params)
        trial[axis.name] = from_x(x)
        row = _evaluate_point(base, spec, trial)
        value = row.objective if row.feasible and math.isfinite(row.objective) \
            else -math.inf
        nonlocal best
        if value > best[0]:
            best = (value, trial)
        return value

    a, b = to_x(axis.min), to_x(axis.max)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = score(x1), score(x2)
    for _ in range(_LINE_ITERATIONS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = score(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = score(x1)
    return best


def maximize(spec: SweepSpec,
             base_config: ExperimentConfig) -> tuple[ExperimentConfig, SweepRow]:
    """Best feasible grid point refined by coordinate descent.

    The returned configuration is always feasible and its objective is >=
    every feasible grid row (the refinement only ever replaces the incumbent
    with a better feasible point).  Fully deterministic for a fixed spec.
    """
    result = run_sweep(spec, base_config)
    feasible = [r for r in result.rows
                if r.feasible and math.isfinite(r.objective)]
    if not feasible:
        raise ValueError("no feasible grid point to start from")
    incumbent = max(feasible, key=lambda r: r.objective)
    best = (incumbent.objective, dict(incumbent.params))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        for _ in range(_ROUNDS):
            for axis in spec.axes:
                best = _line_search(base_config, spec, axis, best)
        final_row = _evaluate_point(base_config, spec, best[1])
        final_config = validate(dataclasses.replace(base_config, **best[1]))
    return final_config, final_row
