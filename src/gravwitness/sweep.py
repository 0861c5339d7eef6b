"""Constrained parameter-space exploration.

Grid sweeps validate each point on its own, then compute the phases,
feasibility, decoherence budget and objective of the valid points as
arrays, by the numpy-generic cores the scalar functions call.  The witness
objectives read the closed-form dephased <XZ>, <YZ>; the negativity
objective builds and checks both spin states.  `run_sweep` builds a row at
every grid point, in row-major axis order.  `maximize` scans the same
arrays for the best feasible point, builds that one row, and refines it by
a deterministic coordinate descent with golden-section line searches.
`run_sweep` keeps the start row of its grid, so a `maximize` on the same
spec and base objects (``is``, not ``==``) before the next `run_sweep`
skips that scan; CLI `sweep --maximize` runs `maximize` alone and scans.

One function, `_point`, computes a point's numbers: with `NAN_OPS` for one
configuration (`evaluate` for the CLI `witness`, the scalar rows and the
line-search scores), with `ARRAY_OPS` for a grid's valid points, so every
grid row equals its scalar row bit for bit.  Its decoherence guards report
which one fired instead of raising.  `_row` builds every valid row from its
numbers; `to_csv` and the CLI write rows by one `_row_dict` and `_text`.
`validate` issues no warning.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import constraints, decoherence, spinstate
from .constraints import ConstraintReport, feasibility_report
from .core import (ARRAY_OPS, NAN_OPS, ConfigError, ExperimentConfig,
                   FIELD_NAMES, validate)
from .decoherence import DecoherenceRates
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
        try:
            operator.index(self.count)
        except TypeError:
            raise ValueError(f"axis {self.name}: count must be an integer, "
                             f"got {self.count!r}") from None
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


def _row_dict(row: SweepRow) -> dict:
    """A row's columns before its reason, as CSV, tables and JSON show them."""
    return {**row.params, "dPhiLR": row.dPhiLR, "dPhiRL": row.dPhiRL,
            "objective": row.objective, "cpRatio": row.cpRatio,
            "tauColl": row.tauColl, "feasible": row.feasible}


def _text(value) -> str:
    """A value as CSV and table text: a float to 12 significant digits, a
    bool as true or false."""
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _csv(header: list, table) -> str:
    """CSV text of a header and rows of fields, with newline endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table)
    return buf.getvalue()


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def csv_header(self) -> list[str]:
        return ([a.name for a in self.spec.axes]
                + ["dPhiLR", "dPhiRL", "objective", "cpRatio", "tauColl",
                   "feasible", "reason"])

    def to_csv(self) -> str:
        """The rows as `sweep --format csv` writes them."""
        return _csv(self.csv_header(),
                    ([*map(_text, _row_dict(row).values()), row.reason]
                     for row in self.rows))


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
    """Each qubit's phase-flip probability: coherences decay by
    e^{-Gamma T} = 1 - totalDephasing, and a phase flip scales them by
    1 - 2p."""
    return budget.totalDephasing / 2.0


@dataclass(frozen=True)
class Evaluation:
    """Every stage of one configuration's pipeline.

    ``budget`` is None when the decoherence budget is out of its regime;
    ``regimeError`` then holds the guard's message, which ``report`` gives
    as a reason, and ``dephased`` is None.
    The spin states are built and checked (finite phases and p) on access.
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
    configuration, with its noiseless and dephased spin states: the
    `_point` a row reads, and `feasibility_report`, which raises where a
    power overflows.  Where a budget guard fires the report is infeasible,
    with the guard's reason, as the row is."""
    point = _point(config)
    report = feasibility_report(config, targetRatio=cpRatioMax,
                                tauCollFactor=tauCollOver)
    regime_error = decoherence._first_guard_message(config, point.guard,
                                                    point.wavelengths)
    reason = f"decoherence regime: {regime_error}"
    if point.guard and reason not in report.reasons:
        report = replace(report, feasible=False,
                         reasons=(*report.reasons, reason))
    return Evaluation(point.phases, report,
                      None if point.guard else point.budget, regime_error)


def _config(fields: dict, overrides: dict) -> ExperimentConfig:
    """``dataclasses.replace(base, **overrides)`` for ``fields = vars(base)``,
    without the field scan and keyword ``__init__`` of replace, which show
    in a sweep's time.  ExperimentConfig has no ``__post_init__``, slots or
    init-only fields that this skips; a test holds it to that."""
    values = fields.copy()
    values.update(overrides)
    config = object.__new__(ExperimentConfig)
    object.__setattr__(config, "__dict__", values)
    return config


def _point(cfg, ops=NAN_OPS) -> SimpleNamespace:
    """A validated configuration's numbers, or with ``ops=ARRAY_OPS`` a
    batch's, equal bit for bit: the PhaseSet ``phases``, cpRatio,
    magRatio, the `decoherence._budget` ``guard``, ``wavelengths``,
    tauColl and ``budget``, the drop ``duration``, the flip probability
    ``p`` (0 where a guard fires) and where they `_exists`.  A number
    computed from a power that overflows is nan."""
    phases = static_phases(cfg)
    _, _, cp_ratio, mag_ratio = constraints._closest_approach(cfg, 0.0, ops)
    guard, tau_coll, wavelengths, budget = decoherence._budget(cfg, ops)
    p = ops.where(guard, 0.0, _flip_probability(budget))
    return SimpleNamespace(
        phases=phases, cpRatio=cp_ratio, magRatio=mag_ratio, guard=guard,
        wavelengths=wavelengths, tauColl=tau_coll,
        duration=decoherence.experiment_duration(cfg), budget=budget, p=p,
        exists=_exists(phases.dPhiLR, phases.dPhiRL, cp_ratio, mag_ratio, p))


def _exists(dPhiLR, dPhiRL, cpRatio, magRatio, p):
    """Where a row's numbers exist: finite phases, cpRatio and magRatio not
    nan, and the flip probability p in [0, 1].  Comparisons only, so
    numbers give a bool and arrays a mask."""
    return ((dPhiLR - dPhiLR == 0.0) & (dPhiRL - dPhiRL == 0.0)
            & (cpRatio == cpRatio) & (magRatio == magRatio)
            & (p >= 0.0) & (p <= 1.0))


def _scalar_objective(objective: str, phases: PhaseSet, p: float) -> float:
    """The objective of `evaluate`'s dephased state, flip probability p."""
    lr, rl = phases.dPhiLR, phases.dPhiRL
    cxz, cyz = spinstate.dephased_correlators(lr, rl, p)
    return _objective_value(objective, float(cxz), float(cyz), lambda: (
        spinstate.apply_dephasing(spinstate.entangled_state(lr, rl), p, p)))


def _evaluate_point(base: ExperimentConfig, spec: SweepSpec,
                    overrides: dict[str, float], scoring: bool = False):
    """The row of the grid point ``overrides`` on ``base``, from its
    `_point`.  With ``scoring``, `_line_search`'s score instead, without a
    row: the objective where the row is feasible, else -inf; and the
    point's `_point`, None where it is invalid."""
    try:
        cfg = validate(_config(vars(base), overrides))
    except ConfigError as err:
        return ((-math.inf, None) if scoring
                else _invalid_row(dict(overrides), str(err)))
    point = _point(cfg)
    known = not point.guard and point.exists
    if scoring and (not known or any(constraints._failing(
            point.cpRatio, point.magRatio, spec.cpRatioMax, point.tauColl,
            spec.requireTauCollOver, point.duration))):
        return -math.inf, point
    value = (_scalar_objective(spec.objective, point.phases, point.p)
             if known else math.nan)
    if scoring:
        return value, point
    return _row(spec, dict(overrides), cfg, point.phases.dPhiLR,
                point.phases.dPhiRL, point.cpRatio, point.magRatio,
                point.tauColl, point.duration, point.guard,
                point.wavelengths, point.budget.tauColl, point.p, value)


def _invalid_row(params: dict[str, float], error: str) -> SweepRow:
    """The row of a configuration `validate` rejects with ``error``."""
    return SweepRow(params, *[math.nan] * 5, False, f"invalid config: {error}")


def _row(spec: SweepSpec, params: dict[str, float], cfg: ExperimentConfig,
         dPhiLR: float, dPhiRL: float, cpRatio: float, magRatio: float,
         tauColl: float, duration: float, guard: int, wavelengths,
         budgetTauColl: float, p: float, objective: float) -> SweepRow:
    """The row of a valid configuration ``cfg``, scalar or batched: the
    `constraints._reasons` of its numbers, then the message of the budget's
    first ``guard`` unless a reason already, with a nan tauColl, then each
    number that does not exist (``p`` is 0 out of regime)."""
    regime_error = decoherence._first_guard_message(cfg, guard, wavelengths)
    reasons = constraints._reasons(
        cpRatio, magRatio, spec.cpRatioMax, tauColl,
        spec.requireTauCollOver, duration,
        regime_error if guard == decoherence._COLLISIONAL else "")
    if guard:
        budgetTauColl = math.nan
        msg = f"decoherence regime: {regime_error}"
        if msg not in reasons:
            reasons.append(msg)
    if not _exists(dPhiLR, dPhiRL, cpRatio, magRatio, p):
        numbers = dict(dPhiLR=dPhiLR, dPhiRL=dPhiRL, cpRatio=cpRatio,
                       magRatio=magRatio, p=p)
        reasons.append("arithmetic: " + ", ".join(
            f"{k} {v:.3g}" for k, v in numbers.items()
            if not _exists(**{**dict.fromkeys(numbers, 0.0), k: v})))
    # positional, in field order: keywords cost more than the rest of a row
    return SweepRow(params, dPhiLR, dPhiRL, objective, cpRatio, budgetTauColl,
                    not reasons, "; ".join(reasons))


def _grid_points(spec: SweepSpec, base: ExperimentConfig) -> SimpleNamespace:
    """The stage `run_sweep` and `maximize` share.  ``grid`` holds each
    point's overrides in row-major order, ``invalid`` the (grid index,
    ConfigError message) of the points `validate` rejects, ``valid`` the
    (grid index, validated configuration) of the others; then come the
    columns of their `_point`, computed as arrays in one call, the dephased
    ``cxz`` and ``cyz``, and ``feasible``: the points with no regime guard
    whose numbers exist and pass `constraints._failing`."""
    names = [axis.name for axis in spec.axes]
    values = [axis.values() for axis in spec.axes]
    fields = vars(base)
    grid = [dict(zip(names, combo)) for combo in
            itertools.product(*(v.tolist() for v in values))]
    invalid, valid = [], []
    for i, overrides in enumerate(grid):
        try:
            valid.append((i, validate(_config(fields, overrides))))
        except ConfigError as err:  # kept, its traceback would hold this frame
            invalid.append((i, str(err)))

    index = np.array([i for i, _ in valid], dtype=np.intp)
    # an invalid base may divide by zero: no valid point, empty columns
    shared = fields if valid else dict.fromkeys(fields, np.empty(0))
    batch = SimpleNamespace(**{**shared, **{
        name: column.ravel()[index] for name, column in
        zip(names, np.meshgrid(*values, indexing="ij"))}})
    if base.dx is None and "dx" not in names:
        batch.dx = np.array([cfg.dx for _, cfg in valid], dtype=float)
    with np.errstate(all="ignore"):
        point = _point(batch, ARRAY_OPS)
        lam_gas, lam_env, lam_int = point.wavelengths
        points = SimpleNamespace(grid=grid, invalid=invalid, valid=valid, **{
            name: np.broadcast_to(x, (len(valid),)) for name, x in dict(
                dPhiLR=point.phases.dPhiLR, dPhiRL=point.phases.dPhiRL,
                cpRatio=point.cpRatio, magRatio=point.magRatio,
                guard=point.guard, lamGas=lam_gas, lamEnv=lam_env,
                lamInt=lam_int, tauColl=point.tauColl,
                duration=point.duration, budgetTauColl=point.budget.tauColl,
                p=point.p, exists=point.exists).items()})
        points.cxz, points.cyz = spinstate.dephased_correlators(
            points.dPhiLR, points.dPhiRL, points.p)
        cp, mag, coll = constraints._failing(
            points.cpRatio, points.magRatio, spec.cpRatioMax, points.tauColl,
            spec.requireTauCollOver, points.duration)
    points.feasible = points.exists & ~((points.guard != 0) | cp | mag | coll)
    return points


def _objectives(spec: SweepSpec, points: SimpleNamespace,
                index) -> list[float]:
    """The objective at the `_grid_points` entries ``index``, in regime
    with numbers that exist, each equal to `_evaluate_point`'s.  The
    negativity objective builds both density matrices as stacks and checks
    each as `entangled_state` and `apply_dephasing` would."""
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


def _best_row(points: SimpleNamespace, feasible: np.ndarray,
              values: list[float]) -> SweepRow | None:
    """`maximize`'s start row: the first of the feasible `_grid_points`
    entries ``feasible`` (ascending) with the largest of their objectives
    ``values``, with a params dict of its own; None when there is none."""
    if not feasible.size:
        return None
    k = int(np.argmax(values))
    best = feasible[k]
    return SweepRow(dict(points.grid[points.valid[best][0]]),
                    points.dPhiLR[best].item(), points.dPhiRL[best].item(),
                    values[k], points.cpRatio[best].item(),
                    points.budgetTauColl[best].item(), True, "")


def _grid_rows(spec: SweepSpec, base: ExperimentConfig
               ) -> tuple[list[SweepRow], SweepRow | None]:
    """`_evaluate_point` at every grid point, built from `_grid_points`'s
    columns, and the `_best_row` of their objectives."""
    points = _grid_points(spec, base)
    grid = points.grid
    rows: list[SweepRow | None] = [None] * len(grid)
    for i, error in points.invalid:
        rows[i] = _invalid_row(grid[i], error)
    index = np.flatnonzero(points.exists & (points.guard == 0)).tolist()
    objectives = dict(zip(index, _objectives(spec, points, index)))
    feasible = np.flatnonzero(points.feasible)
    start = _best_row(points, feasible,
                      [objectives[j] for j in feasible.tolist()])

    columns = zip(points.valid, *(x.tolist() for x in (
        points.dPhiLR, points.dPhiRL, points.cpRatio, points.magRatio,
        points.tauColl, points.duration, points.budgetTauColl, points.p,
        points.feasible, points.guard, points.lamGas, points.lamEnv,
        points.lamInt)))
    for j, ((i, cfg), dphi_lr, dphi_rl, cp_ratio, mag_ratio, tau_coll,
            duration, budget_tau_coll, p, feasible, guard,
            *wavelengths) in enumerate(columns):
        obj = objectives.get(j, math.nan)
        if feasible:
            rows[i] = SweepRow(grid[i], dphi_lr, dphi_rl, obj, cp_ratio,
                               budget_tau_coll, True, "")
        else:
            rows[i] = _row(spec, grid[i], cfg, dphi_lr, dphi_rl, cp_ratio,
                           mag_ratio, tau_coll, duration, guard, wavelengths,
                           budget_tau_coll, p, obj)
    return rows, start


_NO_START = "no feasible grid point to start from"
# the spec, base and `_best_row` of the last `run_sweep`, for a `maximize`
# on the same objects.  Identity, not ==: a frozen dataclass's == takes
# -0.0 for 0.0 and never holds with a nan field; holding the objects keeps
# their ids from being reused.
_last_sweep = (None, None, None)


def _start_row(spec: SweepSpec, base: ExperimentConfig) -> SweepRow:
    """The `_best_row` of a fresh `_grid_points` scan, which builds no
    other row: the first `run_sweep` row with the largest objective among
    the feasible rows (all finite).  ValueError when there is none.
    `maximize` calls it unless `run_sweep` last ran on the same objects."""
    points = _grid_points(spec, base)
    feasible = np.flatnonzero(points.feasible)
    row = _best_row(points, feasible, _objectives(spec, points, feasible))
    if row is None:
        raise ValueError(_NO_START)
    return row


def run_sweep(spec: SweepSpec, base_config: ExperimentConfig) -> SweepResult:
    """Every grid point's row, in row-major order of the axes as given;
    invalid points and those whose numbers do not exist are infeasible
    rows.  Each equals `_evaluate_point`'s.  Keeps the grid's start row
    for a `maximize` on the same ``spec`` and ``base_config`` objects."""
    global _last_sweep
    rows, start = _grid_rows(spec, base_config)
    _last_sweep = (spec, base_config, start)
    return SweepResult(spec=spec, rows=tuple(rows))


def _line_search(base: ExperimentConfig, spec: SweepSpec, axis: SweepAxis,
                 best: SweepRow) -> SweepRow:
    """Golden-section maximization along one axis through the incumbent
    row ``best``, log axes in log space.  Returns the best row seen, built
    from the numbers of the probe that set it."""
    params = dict(best.params)
    to_x = math.log if axis.spacing == "log" else (lambda v: v)
    from_x = math.exp if axis.spacing == "log" else (lambda v: v)

    def score(x: float) -> float:
        nonlocal best
        trial = {**params, axis.name: from_x(x)}
        value, point = _evaluate_point(base, spec, trial, True)
        if value > best.objective:      # feasible: a row without reasons
            best = SweepRow(trial, point.phases.dPhiLR, point.phases.dPhiRL,
                            value, point.cpRatio, point.budget.tauColl, True,
                            "")
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
    """Best feasible grid point refined by coordinate descent from
    `_start_row`, or from the start row `run_sweep` kept when it last ran
    on these same ``spec`` and ``base_config`` objects (``is``): the same
    row, without a second grid scan.  Each line-search probe is validated
    once and scored without a row.  Returns the row that set the
    incumbent, whose objective is >= every feasible grid row, and its
    validated configuration.  Raises ValueError when no grid point is
    feasible.  Deterministic for a fixed spec."""
    # a line search through the row it last returned would return it again
    searched = {}       # axis name -> the row its last line search returned
    last_spec, last_base, best = _last_sweep
    if spec is not last_spec or base_config is not last_base:
        best = _start_row(spec, base_config)
    elif best is None:
        raise ValueError(_NO_START)
    else:       # a row of its own: the caller may change the one it gets
        best = replace(best, params=dict(best.params))
    for _ in range(_ROUNDS):
        for axis in spec.axes:
            if searched.get(axis.name) is not best:
                best = searched[axis.name] = _line_search(
                    base_config, spec, axis, best)
    return validate(_config(vars(base_config), best.params)), best
