"""Constrained parameter-space exploration.

Grid sweeps validate each point on its own, then compute the phases,
feasibility, decoherence budget and objective as arrays, on the axes, by
the numpy-generic cores the scalar functions call.  The witness objective
reads the closed-form dephased <XZ>, <YZ>; the optimized witness is its
closed-form maximum sqrt(2) (1 - 2p) |sin((dPhiLR + dPhiRL)/2)|, one
numpy expression on a grid's arrays and on a probe's floats; the
negativity objective builds and checks both spin states.  `run_sweep`
builds a row at every grid point, in row-major axis order.  `maximize` scans the same
arrays for the best feasible point, builds that one row, and refines it by
a deterministic coordinate descent with golden-section line searches.
`run_sweep` keeps the start row of its grid, so a `maximize` on the same
spec and base objects (``is``, not ``==``) before the next `run_sweep`
skips that scan; CLI `sweep --maximize` runs `maximize` alone and scans.

One function, `_point`, computes a point's numbers into a `_Point`: with
`NAN_OPS` for one configuration, with `ARRAY_OPS` for a grid, so every
grid row equals its scalar row bit for bit.  Its decoherence guards report
which one fired instead of raising.  `_row` builds a valid row from a
scalar record, `_feasible_row` one with no reason; rows and point
configurations are `core._frozen`, without their keyword ``__init__``.
`to_csv` and the CLI write rows by one `_row_dict` and `_text`;
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

import numpy as np

from . import constraints, decoherence, spinstate
from .constraints import ConstraintReport, feasibility_report
from .core import (ARRAY_OPS, NAN_OPS, ConfigError, ExperimentConfig,
                   FIELD_NAMES, _frozen, validate)
from .decoherence import DecoherenceRates
from .gravphase import PhaseSet, static_phases

OBJECTIVES = ("negativity", "witness", "witnessOptimized")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT2 = math.sqrt(2.0)
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


def _new_row(params, dPhiLR, dPhiRL, objective, cpRatio, tauColl, feasible,
             reason) -> SweepRow:
    """``SweepRow(...)`` of these fields, by `_frozen`: every row the sweep
    builds goes through here."""
    return _frozen(SweepRow, {
        "params": params, "dPhiLR": dPhiLR, "dPhiRL": dPhiRL,
        "objective": objective, "cpRatio": cpRatio, "tauColl": tauColl,
        "feasible": feasible, "reason": reason})


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


def _witness_objective(objective: str, dPhiLR, dPhiRL, p):
    """A witness objective of `evaluate`'s dephased state, from its phases
    and flip probability p; numbers and arrays give the same bits.
    "witness" is W at zero angles, |<XZ> - <YZ>|; "witnessOptimized" is
    `optimize_witness`'s sqrt(A^2 + B^2) = sqrt(2) (1 - 2p) |sin S|, S =
    (dPhiLR + dPhiRL)/2.  S is the exact sum s + e of the halved phases,
    so neither an overflow nor a rounding of ulp(s) rad moves the sine:
    sin(s + e) = sin s cos e + cos s sin e, which is sin s where e = 0."""
    if objective == "witness":
        cxz, cyz = spinstate.dephased_correlators(dPhiLR, dPhiRL, p)
        return abs(cxz - cyz)
    half_lr, half_rl = dPhiLR * 0.5, dPhiRL * 0.5
    s = half_lr + half_rl
    t = s - half_lr
    e = (half_lr - (s - t)) + (half_rl - t)
    return _SQRT2 * (1.0 - 2.0 * p) * abs(
        np.sin(s) * np.cos(e) + np.cos(s) * np.sin(e))


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
    configuration, with its noiseless and dephased spin states.  The
    report is `feasibility_report`'s, which raises where a power
    overflows, and infeasible where a budget guard fires, as the row is."""
    phases = static_phases(config)
    guard, _, wavelengths, budget = decoherence._budget(config, NAN_OPS)
    report = feasibility_report(config, targetRatio=cpRatioMax,
                                tauCollFactor=tauCollOver)
    regime_error = decoherence._first_guard_message(config, guard, wavelengths)
    reason = f"decoherence regime: {regime_error}"
    if guard and reason not in report.reasons:
        report = replace(report, feasible=False,
                         reasons=(*report.reasons, reason))
    return Evaluation(phases, report, None if guard else budget, regime_error)


def _config(fields: dict, overrides: dict) -> ExperimentConfig:
    """``dataclasses.replace(base, **overrides)`` for ``fields = vars(base)``,
    by `_frozen`: without replace's field scan and keyword ``__init__``."""
    return _frozen(ExperimentConfig, fields | overrides)


@dataclass(slots=True)  # slots, positional __init__: each probe builds one
class _Point:
    """A point's numbers: one configuration's, or a batch's columns.
    ``tauColl`` is the budget's, as a row shows it (nan where a guard
    fires), ``collisionalTime`` the one the tauColl check compares;
    ``guard`` and ``wavelengths`` are `decoherence._budget`'s."""

    dPhiLR: float
    dPhiRL: float
    cpRatio: float
    magRatio: float
    tauColl: float
    collisionalTime: float
    duration: float
    guard: int
    wavelengths: tuple
    p: float            # flip probability, 0 where a guard fires
    exists: bool        # where the numbers `_exists`

    def __iter__(self):
        return map(self.__getattribute__, self.__slots__)

    def apply(self, fn) -> "_Point":
        """The record of ``fn`` of each column, and of each wavelength."""
        return _Point(*[tuple(map(fn, x)) if isinstance(x, tuple) else fn(x)
                        for x in self])


def _point(cfg, ops=NAN_OPS) -> _Point:
    """A validated configuration's `_Point`, or with ``ops=ARRAY_OPS`` a
    batch's, equal bit for bit.  A number computed from a power that
    overflows is nan."""
    phases = static_phases(cfg)
    _, _, cp_ratio, mag_ratio = constraints._closest_approach(cfg, 0.0, ops)
    guard, coll_time, wavelengths, budget = decoherence._budget(cfg, ops)
    lr, rl = phases.dPhiLR, phases.dPhiRL
    p = ops.where(guard, 0.0, _flip_probability(budget))
    return _Point(lr, rl, cp_ratio, mag_ratio,
                  ops.where(guard, math.nan, budget.tauColl), coll_time,
                  decoherence.experiment_duration(cfg), guard, wavelengths,
                  p, _exists(lr, rl, cp_ratio, mag_ratio, p))


def _exists(dPhiLR, dPhiRL, cpRatio, magRatio, p):
    """Where a row's numbers exist: finite phases, cpRatio and magRatio not
    nan, and the flip probability p in [0, 1].  Comparisons only, so
    numbers give a bool and arrays a mask."""
    return ((dPhiLR - dPhiLR == 0.0) & (dPhiRL - dPhiRL == 0.0)
            & (cpRatio == cpRatio) & (magRatio == magRatio)
            & (p >= 0.0) & (p <= 1.0))


def _scalar_objective(objective: str, point: _Point) -> float:
    """The objective of `evaluate`'s dephased state at a scalar `_Point`."""
    lr, rl, p = point.dPhiLR, point.dPhiRL, point.p
    if objective == "negativity":
        return spinstate.negativity(spinstate.apply_dephasing(
            spinstate.entangled_state(lr, rl), p, p))
    return float(_witness_objective(objective, lr, rl, p))


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
            point.cpRatio, point.magRatio, spec.cpRatioMax,
            point.collisionalTime, spec.requireTauCollOver,
            point.duration))):
        return -math.inf, point
    value = _scalar_objective(spec.objective, point) if known else math.nan
    if scoring:
        return value, point
    return _row(spec, dict(overrides), cfg, point, value)


def _invalid_row(params: dict[str, float], error: str) -> SweepRow:
    """The row of a configuration `validate` rejects with ``error``."""
    return _new_row(params, *[math.nan] * 5, False, f"invalid config: {error}")


def _feasible_row(params: dict[str, float], point: _Point,
                  objective: float) -> SweepRow:
    """The row of a feasible point's scalar `_Point`."""
    return _new_row(params, point.dPhiLR, point.dPhiRL, objective,
                    point.cpRatio, point.tauColl, True, "")


def _row(spec: SweepSpec, params: dict[str, float], cfg: ExperimentConfig,
         point: _Point, objective: float) -> SweepRow:
    """The row of a valid configuration ``cfg`` at its scalar `_Point`: the
    `constraints._reasons` of its numbers, then the message of the
    budget's first guard unless a reason already, then each number that
    does not exist (``p`` is 0 out of regime)."""
    regime_error = decoherence._first_guard_message(cfg, point.guard,
                                                    point.wavelengths)
    reasons = constraints._reasons(
        point.cpRatio, point.magRatio, spec.cpRatioMax, point.collisionalTime,
        spec.requireTauCollOver, point.duration,
        regime_error if point.guard == decoherence._COLLISIONAL else "")
    if point.guard:
        msg = f"decoherence regime: {regime_error}"
        if msg not in reasons:
            reasons.append(msg)
    if not point.exists:
        numbers = {k: getattr(point, k)
                   for k in ("dPhiLR", "dPhiRL", "cpRatio", "magRatio", "p")}
        reasons.append("arithmetic: " + ", ".join(
            f"{k} {v:.3g}" for k, v in numbers.items()
            if not _exists(**{**dict.fromkeys(numbers, 0.0), k: v})))
    return _new_row(params, point.dPhiLR, point.dPhiRL, objective,
                    point.cpRatio, point.tauColl, not reasons,
                    "; ".join(reasons))


def _grid_points(spec: SweepSpec, base: ExperimentConfig):
    """The stage `run_sweep` and `maximize` share: each point's overrides
    in row-major order; the (grid index, ConfigError message) of the points
    `validate` rejects and the (grid index, validated configuration) of
    the others; their `_Point`, computed on the axes and gathered; and the
    mask of those feasible: in regime, numbers that exist, none failing."""
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

    mask = np.ones([len(v) for v in values], dtype=bool)
    mask.flat[[i for i, _ in invalid]] = False
    if valid:
        # each axis along its own dimension, so a power runs once a value
        batch = {**fields, **dict(zip(names, np.ix_(*values)))}
        if base.dx is None and "dx" not in names:
            # each point's kinematic dx from `validate`: numpy's is not libm's
            batch["dx"] = np.full(mask.shape, math.nan)
            batch["dx"][mask] = [cfg.dx for _, cfg in valid]
    else:   # an invalid base may divide by zero: no valid point, empty columns
        mask, batch = mask.ravel()[:0], dict.fromkeys(fields, np.empty(0))
    # the invalid points are computed too, then dropped
    with np.errstate(all="ignore"):
        point = _point(SimpleNamespace(**batch), ARRAY_OPS).apply(
            lambda x: np.broadcast_to(x, mask.shape)[mask])
        cp, mag, coll = constraints._failing(
            point.cpRatio, point.magRatio, spec.cpRatioMax,
            point.collisionalTime, spec.requireTauCollOver, point.duration)
    return (grid, invalid, valid, point,
            point.exists & ~((point.guard != 0) | cp | mag | coll))


def _objectives(spec: SweepSpec, point: _Point, index) -> list[float]:
    """The objective at the entries ``index`` of a grid's `_Point`, in
    regime with numbers that exist, each equal to `_evaluate_point`'s.  The
    witness objectives are one `_witness_objective` on the arrays; the
    negativity objective builds both density matrices as stacks and checks
    each as `entangled_state` and `apply_dephasing` would."""
    lr, rl, p = point.dPhiLR[index], point.dPhiRL[index], point.p[index]
    with np.errstate(all="ignore"):
        if spec.objective != "negativity":
            return _witness_objective(spec.objective, lr, rl, p).tolist()
        pure = spinstate._pure_rho(lr, rl)
        dephased = pure * spinstate._dephasing_factors(p, p)
    values = []
    for checked, state in zip(pure, dephased):
        spinstate.TwoQubitState(checked)    # as `entangled_state` checks it
        values.append(spinstate.negativity(spinstate.TwoQubitState(state)))
    return values


def _best_row(grid: list[dict], valid: list, point: _Point,
              feasible: np.ndarray, objectives) -> SweepRow | None:
    """`maximize`'s start row: the first ``feasible`` entry of a grid's
    `_Point` with the largest of the ``objectives`` (by entry), with a
    params dict of its own; None when there is none."""
    index = np.flatnonzero(feasible).tolist()
    if not index:
        return None
    j = max(index, key=objectives.__getitem__)
    return _feasible_row(dict(grid[valid[j][0]]),
                      point.apply(lambda x: x[j].item()), objectives[j])


def _grid_rows(spec: SweepSpec, base: ExperimentConfig
               ) -> tuple[list[SweepRow], SweepRow | None]:
    """`_evaluate_point` at every grid point, built from the columns of
    `_grid_points`'s `_Point` as lists, and the `_best_row` of their
    objectives."""
    grid, invalid, valid, point, feasible = _grid_points(spec, base)
    rows: list[SweepRow | None] = [None] * len(grid)
    for i, error in invalid:
        rows[i] = _invalid_row(grid[i], error)
    objectives = [math.nan] * len(valid)
    known = np.flatnonzero(point.exists & (point.guard == 0)).tolist()
    for j, value in zip(known, _objectives(spec, point, known)):
        objectives[j] = value
    start = _best_row(grid, valid, point, feasible, objectives)
    scalars = map(_Point, *[zip(*x) if isinstance(x, tuple) else x
                            for x in point.apply(np.ndarray.tolist)])
    for (i, cfg), ok, value, scalar in zip(valid, feasible.tolist(),
                                           objectives, scalars):
        rows[i] = (_feasible_row(grid[i], scalar, value) if ok
                   else _row(spec, grid[i], cfg, scalar, value))
    return rows, start


_NO_START = "no feasible grid point to start from"
# the spec, base and `_best_row` of the last `run_sweep`, for a `maximize`
# on the same objects.  Identity, not ==: a frozen dataclass's == takes
# -0.0 for 0.0 and never holds with a nan field; holding the objects keeps
# their ids from being reused.
_last_sweep = (None, None, None)


def _start_row(spec: SweepSpec, base: ExperimentConfig) -> SweepRow:
    """The `_best_row` of a fresh `_grid_points` scan, which builds no
    other row; ValueError when there is none.  `maximize` calls it unless
    `run_sweep` last ran on the same objects."""
    grid, _, valid, point, feasible = _grid_points(spec, base)
    index = np.flatnonzero(feasible).tolist()
    row = _best_row(grid, valid, point, feasible,
                    dict(zip(index, _objectives(spec, point, index))))
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
            best = _feasible_row(trial, point, value)
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
    on these same ``spec`` and ``base_config`` objects (``is``).  Returns
    the row that set the incumbent, whose objective is >= every feasible
    grid row, and its validated configuration; ValueError when no grid
    point is feasible.  Deterministic for a fixed spec."""
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
