"""Constrained parameter-space exploration.

Grid sweeps evaluate phases, feasibility, the decoherence budget and the
objective at every point.  Each point is validated on its own; over the
valid points every number is computed as arrays, by the numpy-generic
cores the scalar `feasibility_report` and `dephasing_budget` call, so no
formula has a second copy here.  The witness objectives read the
closed-form dephased <XZ>, <YZ> and build no spin state; the negativity
objective builds and checks the noiseless and dephased states of every
point whose objective it computes.  `run_sweep` builds a row at every
point.  `maximize` scans the same arrays for the best feasible point,
computes the objective only at feasible points, builds that one row, and
refines it by a deterministic coordinate descent with golden-section line
searches.  Rows are emitted in row-major axis order and runs are
bit-reproducible.
`evaluate`, the one scalar pipeline to the dephased spin state, serves the
CLI `witness` and the line searches, and is the oracle every grid row
equals bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import constraints, decoherence, spinstate
from .constraints import ConstraintReport, feasibility_report
from .core import (ARRAY_OPS, ConfigConsistencyWarning, ConfigError,
                   ExperimentConfig, FIELD_NAMES, RegimeError, validate)
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


def _objective_value(objective: str, cxz: float, cyz: float,
                     dephased: Callable[[], spinstate.TwoQubitState]) -> float:
    """The sweep objective of a dephased state with unrotated <XZ>, <YZ>.
    ``dephased`` builds that state; only the negativity objective calls it."""
    if objective == "negativity":
        return spinstate.negativity(dephased())
    theta = (spinstate._optimal_theta(cxz, cyz)
             if objective == "witnessOptimized" else 0.0)
    return spinstate._rotated_w(theta, cxz, cyz)[0]


def _flip_probability(budget: DecoherenceRates) -> float:
    """The phase-flip probability of each qubit's spin channel.

    Each mass's spatial coherence decays by e^{-Gamma T} = 1 - totalDephasing
    over the drop; a phase-flip channel scales coherences by 1 - 2p, so the
    spin channel gets p = totalDephasing / 2 on each qubit.
    """
    return budget.totalDephasing / 2.0


@dataclass(frozen=True)
class Evaluation:
    """Every stage of one configuration's pipeline.

    ``budget`` is None when the decoherence budget is out of its regime;
    ``regimeError`` then holds the guard's message and ``dephased`` is None.
    The spin states ``state`` (noiseless) and ``dephased`` are built, and
    checked by `TwoQubitState`, on first access; `evaluate` has already
    checked their inputs as `entangled_state` and `apply_dephasing` do.
    """

    phases: PhaseSet
    report: ConstraintReport
    budget: DecoherenceRates | None
    regimeError: str = ""

    @functools.cached_property
    def state(self) -> spinstate.TwoQubitState:
        return spinstate.entangled_state(self.phases.dPhiLR, self.phases.dPhiRL)

    @functools.cached_property
    def dephased(self) -> spinstate.TwoQubitState | None:
        if self.budget is None:
            return None
        p = _flip_probability(self.budget)
        return spinstate.apply_dephasing(self.state, p, p)


def evaluate(config: ExperimentConfig, cpRatioMax: float = 0.1,
             tauCollOver: float = 1.0) -> Evaluation:
    """Phases, feasibility and decoherence budget of a validated
    configuration, with its noiseless and dephased spin states.

    Raises, in pipeline order, what building the states raises: non-finite
    phases, or a flip probability outside [0, 1].
    """
    phases = static_phases(config)
    report = feasibility_report(config, targetRatio=cpRatioMax,
                                tauCollFactor=tauCollOver)
    spinstate._check_phases(phases.dPhiLR, phases.dPhiRL)
    try:
        budget = dephasing_budget(config)
    except RegimeError as err:
        return Evaluation(phases, report, None, str(err))
    p = _flip_probability(budget)
    spinstate._check_probabilities(p, p)
    return Evaluation(phases, report, budget)


def _config(fields: dict, overrides: dict) -> ExperimentConfig:
    """``dataclasses.replace(base, **overrides)`` for ``fields = vars(base)``,
    built by one dict update: replace scans the fields and runs the keyword
    ``__init__`` on every call, which shows in a sweep's end-to-end time.
    ExperimentConfig has no ``__post_init__``, slots or init-only fields
    that this skips; a test holds it to that."""
    config = object.__new__(ExperimentConfig)
    config.__dict__.update(fields, **overrides)
    return config


def _evaluate_point(base: ExperimentConfig, spec: SweepSpec,
                    overrides: dict[str, float]) -> SweepRow:
    try:
        cfg = validate(_config(vars(base), overrides))
    except ConfigError as err:
        return _invalid_row(overrides, str(err))
    return _valid_row(cfg, spec, overrides)


def _valid_row(cfg: ExperimentConfig, spec: SweepSpec,
               overrides: dict[str, float]) -> SweepRow:
    ev = evaluate(cfg, spec.cpRatioMax, spec.requireTauCollOver)
    obj = math.nan
    if ev.budget is not None:
        cxz, cyz = spinstate.dephased_correlators(
            ev.phases.dPhiLR, ev.phases.dPhiRL, _flip_probability(ev.budget))
        obj = _objective_value(spec.objective, float(cxz), float(cyz),
                               lambda: ev.dephased)
    return _row(overrides, ev.phases.dPhiLR, ev.phases.dPhiRL,
                ev.report.cpRatio, ev.report.reasons,
                math.nan if ev.budget is None else ev.budget.tauColl,
                ev.regimeError, obj)


def _invalid_row(overrides: dict[str, float], error: str) -> SweepRow:
    """The row of a configuration `validate` rejects with ``error``."""
    nan = math.nan
    return SweepRow(params=dict(overrides), dPhiLR=nan, dPhiRL=nan,
                    objective=nan, cpRatio=nan, tauColl=nan, feasible=False,
                    reason=f"invalid config: {error}")


def _row(overrides: dict[str, float], dPhiLR: float, dPhiRL: float,
         cpRatio: float, reasons, tauColl: float, regimeError: str,
         objective: float) -> SweepRow:
    """The row of a valid configuration.  ``regimeError`` is the message of
    the decoherence budget's regime guard when it fired, and ``tauColl`` is
    then nan."""
    reasons = list(reasons)
    if regimeError:
        msg = f"decoherence regime: {regimeError}"
        if msg not in reasons:
            reasons.append(msg)
    return SweepRow(params=dict(overrides), dPhiLR=dPhiLR, dPhiRL=dPhiRL,
                    objective=objective, cpRatio=cpRatio, tauColl=tauColl,
                    feasible=not reasons, reason="; ".join(reasons))


def _regime_error(cfg: ExperimentConfig) -> str | None:
    """The message of the regime guard `dephasing_budget` raises on
    ``cfg``, or None when none fires."""
    try:
        dephasing_budget(cfg)
    except RegimeError as err:
        return str(err)
    return None


def _stacked(batch: SimpleNamespace) -> SimpleNamespace:
    """`evaluate` on arrays over a batch of validated configurations: a
    namespace whose fields are arrays or the numbers they share.

    The numbers come from the numpy-generic cores of `static_phases`,
    `feasibility_report` (`constraints._closest_approach`) and
    `dephasing_budget` (`decoherence._budget`, which also gives the
    collisional numbers `feasibility_report` reads).  ``scalar_only`` marks
    the points where `evaluate` raises or may raise: non-finite phases, a
    flip probability outside [0, 1], or a non-finite number where a scalar
    step overflows or divides by zero.  ``regime`` marks the points whose
    budget is out of its regime; their p is 0.
    """
    with np.errstate(all="ignore"):
        phases = static_phases(batch)
        _, _, cp_ratio, mag_ratio = constraints._closest_approach(
            batch, 0.0, ARRAY_OPS)
        coll_fired, tau_coll, regime, budget = decoherence._budget(
            batch, ARRAY_OPS)
        duration = decoherence.experiment_duration(batch)
        p = np.where(regime, 0.0, _flip_probability(budget))
        rates_finite = (np.isfinite(budget.gammaColl) & np.isfinite(budget.gammaSc)
                        & np.isfinite(budget.gammaEm) & np.isfinite(budget.gammaAbs))
        scalar_only = ~(np.isfinite(phases.dPhiLR) & np.isfinite(phases.dPhiRL)
                        & (p >= 0.0) & (p <= 1.0)
                        & np.isfinite(cp_ratio) & np.isfinite(mag_ratio)
                        & (coll_fired | rates_finite))
    return SimpleNamespace(
        dPhiLR=phases.dPhiLR, dPhiRL=phases.dPhiRL, cpRatio=cp_ratio,
        magRatio=mag_ratio, collisionsFired=coll_fired, tauColl=tau_coll,
        duration=duration, regime=regime,
        budgetTauColl=budget.tauColl, p=p, scalar_only=scalar_only)


# `_stacked`'s numbers of each point; ``scalar_only`` is the mask beside them
_COLUMNS = ("dPhiLR", "dPhiRL", "cpRatio", "magRatio", "collisionsFired",
            "tauColl", "duration", "regime", "budgetTauColl", "p")


def _grid_points(spec: SweepSpec, base: ExperimentConfig) -> SimpleNamespace:
    """The stage `run_sweep` and `maximize` share: every grid point
    validated, and the numbers of the valid points as arrays.

    ``grid`` holds each point's overrides in row-major order; ``invalid``
    the (grid index, ConfigError message) of the points `validate` rejects
    (the message only: a kept exception's traceback holds this frame), and
    ``valid`` the (grid index, validated configuration) of the others.
    Over the valid points, `_stacked` computes the phases, the feasibility
    numbers and the decoherence budget with the numpy-generic cores the
    scalar functions call, one array entry a point (`_COLUMNS`); then come
    the closed-form dephased ``cxz``, ``cyz`` and two masks.  ``scalar``
    marks the points to hand to the scalar pipeline: those where it raises
    or may raise, or every point when a number they all share divides by
    zero.  ``feasible`` marks the other points that are in regime and
    pass every check of `constraints._failing`.
    """
    names = [axis.name for axis in spec.axes]
    fields = vars(base)
    grid = [dict(zip(names, combo)) for combo in
            itertools.product(*(axis.values().tolist() for axis in spec.axes))]
    invalid, valid = [], []
    for i, overrides in enumerate(grid):
        try:
            valid.append((i, validate(_config(fields, overrides))))
        except ConfigError as err:
            invalid.append((i, str(err)))

    # the axes vary, and dx where `validate` derives it; every other field
    # is the base's own number
    varying = names + ["dx"] if base.dx is None else names
    batch = SimpleNamespace(**{**fields, **{
        name: np.array([getattr(cfg, name) for _, cfg in valid], dtype=float)
        for name in varying}})
    try:
        st = _stacked(batch)
    except ArithmeticError:
        # a number every point shares is a float, and divides by zero; the
        # scalar pipeline raises that, or what the first point raises before
        st = SimpleNamespace(**dict.fromkeys(_COLUMNS, math.nan))
        st.collisionsFired = st.regime = False
        st.scalar_only = True
    n = len(valid)
    points = SimpleNamespace(grid=grid, invalid=invalid, valid=valid, **{
        name: np.broadcast_to(getattr(st, name), (n,)) for name in _COLUMNS})
    points.scalar = np.broadcast_to(st.scalar_only, (n,))
    with np.errstate(all="ignore"):
        points.cxz, points.cyz = spinstate.dephased_correlators(
            points.dPhiLR, points.dPhiRL, points.p)
        cp, mag, coll = constraints._failing(
            points.cpRatio, points.magRatio, spec.cpRatioMax, points.tauColl,
            spec.requireTauCollOver, points.duration)
    points.feasible = ~(points.scalar | points.regime | cp | mag | coll)
    return points


def _objectives(spec: SweepSpec, points: SimpleNamespace,
                index: np.ndarray) -> list[float]:
    """The objective at the `_grid_points` entries ``index``, none of them
    scalar or out of regime, each equal to `_valid_row`'s.  For the
    negativity objective each point's noiseless and dephased density
    matrices are built as stacks, and checked by `TwoQubitState` as
    `entangled_state` and `apply_dephasing` would; the witness objectives
    read only the correlators."""
    correlators = zip(points.cxz[index].tolist(), points.cyz[index].tolist())
    if spec.objective == "negativity":
        with np.errstate(all="ignore"):
            pure = spinstate._pure_rho(points.dPhiLR[index],
                                       points.dPhiRL[index])
            p = points.p[index]
            dephased = pure * spinstate._dephasing_factors(p, p)

    def dephased_state(k: int) -> spinstate.TwoQubitState:
        spinstate.TwoQubitState(pure[k])        # as `entangled_state` checks it
        return spinstate.TwoQubitState(dephased[k])

    return [_objective_value(spec.objective, cxz, cyz,
                             lambda: dephased_state(k))
            for k, (cxz, cyz) in enumerate(correlators)]


def _grid_rows(spec: SweepSpec, base: ExperimentConfig) -> list[SweepRow]:
    """`_evaluate_point` at every grid point, each row equal to the scalar
    one, built from `_grid_points`.

    The objective comes from `_objectives` at every point in regime, and
    a regime guard's message from `dephasing_budget` on its row.  The
    ``scalar`` points go to the scalar pipeline in row order, so the sweep
    raises what the scalar sweep raises.
    """
    points = _grid_points(spec, base)
    grid = points.grid
    rows: list[SweepRow | None] = [None] * len(grid)
    for i, error in points.invalid:
        rows[i] = _invalid_row(grid[i], error)
    objectives = [math.nan] * len(points.valid)
    index = np.flatnonzero(~(points.scalar | points.regime))
    for j, value in zip(index.tolist(), _objectives(spec, points, index)):
        objectives[j] = value

    columns = zip(points.valid, objectives, *(x.tolist() for x in (
        points.dPhiLR, points.dPhiRL, points.cpRatio, points.magRatio,
        points.collisionsFired, points.tauColl, points.duration,
        points.regime, points.budgetTauColl, points.scalar)))
    for ((i, cfg), obj, dphi_lr, dphi_rl, cp_ratio, mag_ratio, coll_fired,
         tau_coll, duration, regime, budget_tau_coll, scalar) in columns:
        regime_error = "" if scalar or not regime else _regime_error(cfg)
        if scalar or regime_error is None:
            rows[i] = _valid_row(cfg, spec, grid[i])
            continue
        reasons = constraints._reasons(
            cp_ratio, mag_ratio, spec.cpRatioMax, tau_coll,
            spec.requireTauCollOver, duration,
            regime_error if coll_fired else "")
        rows[i] = _row(grid[i], dphi_lr, dphi_rl, cp_ratio, reasons,
                       math.nan if regime else budget_tau_coll, regime_error,
                       obj)
    return rows


def _start_row(spec: SweepSpec, base: ExperimentConfig) -> SweepRow:
    """The row `maximize` starts from: the first row of `run_sweep` whose
    objective is the largest among its feasible rows with finite
    objectives, and the only row built.

    From `_grid_points` it scans just the ``feasible`` and the ``scalar``
    points, in row order: the objective is computed at the feasible points
    only, and a scalar point goes to `_valid_row`, so the scan raises what
    `run_sweep` raises.  Raises ValueError when no row qualifies.
    """
    points = _grid_points(spec, base)
    feasible = np.flatnonzero(points.feasible)
    values = dict(zip(feasible.tolist(), _objectives(spec, points, feasible)))
    best, best_row, best_value = None, None, -math.inf
    for j in np.flatnonzero(points.scalar | points.feasible).tolist():
        row = None
        if j in values:
            value = values[j]
        else:
            i, cfg = points.valid[j]
            row = _valid_row(cfg, spec, points.grid[i])
            value = row.objective if row.feasible else math.nan
        if math.isfinite(value) and value > best_value:
            best, best_row, best_value = j, row, value
    if best is None:
        raise ValueError("no feasible grid point to start from")
    if best_row is not None:
        return best_row
    return _row(points.grid[points.valid[best][0]], points.dPhiLR[best].item(),
                points.dPhiRL[best].item(), points.cpRatio[best].item(), (),
                points.budgetTauColl[best].item(), "", best_value)


def run_sweep(spec: SweepSpec, base_config: ExperimentConfig) -> SweepResult:
    """Evaluate the grid in row-major order of the axes as given.

    Invalid grid points are emitted as infeasible rows, not dropped.  Every
    row equals `_evaluate_point`'s; see `_grid_rows`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        rows = _grid_rows(spec, base_config)
    return SweepResult(spec=spec, rows=tuple(rows))


def _line_search(base: ExperimentConfig, spec: SweepSpec, axis: SweepAxis,
                 best: SweepRow) -> SweepRow:
    """Golden-section maximization along one axis through the incumbent
    row ``best`` (log axes searched in log space).  Infeasible points score
    -inf; returns the best row seen."""
    params = dict(best.params)
    to_x = math.log if axis.spacing == "log" else (lambda v: v)
    from_x = math.exp if axis.spacing == "log" else (lambda v: v)

    def score(x: float) -> float:
        nonlocal best
        trial = dict(params)
        trial[axis.name] = from_x(x)
        row = _evaluate_point(base, spec, trial)
        value = row.objective if row.feasible and math.isfinite(row.objective) \
            else -math.inf
        if value > best.objective:
            best = row
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

    The start point is the first `run_sweep` row with the largest finite
    objective among the feasible rows, found by a scan of the grid's arrays
    (`_start_row`) that builds that row only.  Returns the row that set the
    incumbent, the start row or a line-search row that beat it, so its
    objective is >= every feasible grid row, and its validated
    configuration.  Raises what `run_sweep` raises, and ValueError when no
    grid point is feasible.  Fully deterministic for a fixed spec.
    """
    # a line search through the row it last returned would return it again
    searched = {}       # axis name -> the row its last line search returned
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigConsistencyWarning)
        best = _start_row(spec, base_config)
        for _ in range(_ROUNDS):
            for axis in spec.axes:
                if searched.get(axis.name) is not best:
                    best = searched[axis.name] = _line_search(
                        base_config, spec, axis, best)
        final_config = validate(_config(vars(base_config), best.params))
    return final_config, best
