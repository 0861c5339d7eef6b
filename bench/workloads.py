"""The three workloads of the gravwitness benchmark.

A workload builds its inputs from a seed (`build`) and runs one pass over
them (`run_pass`), checking every output it gets back.  It calls only the
public API: `gravwitness.run_sweep`, `gravwitness.maximize` and
`gravwitness.cli.main`, always through a module attribute looked up at call
time, so that the tracer in `tracer.py` sees every call once it replaces
those attributes.

Nothing here reads the clock except to time the public calls a pass makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

import gravwitness
import gravwitness.cli

# Seeded shift of each grid axis bound, as a fraction of the bound.  Small
# enough that the point counts and the character of each grid stay fixed.
BOUND_JITTER = 0.01

QUIET = dict(pressure=1e-30, tEnv=1e-3, tInt=1e-3)

# 200 points give 1000 distinct calls a pass, so the 99th percentile has
# ten calls beyond it.
POINTS_PER_PASS = 200

GRID_QUIET_TOL = 1e-10
FIELD_RATIO_TOL = 0.02
# optimize_witness promises W >= the default-settings W up to rounding, the
# tolerance of tests/test_spinstate.py::test_optimize_witness_exceeds_default.
# Where the optimum sits at the default angle it can land one ulp below.
WITNESS_TOL = 1e-12

CLI_COMMANDS = (
    ("witness",),
    ("constraints",),
    ("decoherence",),
    ("phases", "--dynamic-steps", "2000"),
    ("field", "--n-modes", "4000"),
)


@dataclass
class PassResult:
    """What one pass did, how long its public calls took, and how many of
    its outputs failed their checks."""

    wall_s: float = 0.0
    calls_s: list[float] = field(default_factory=list)  # same calls each pass
    points: int = 0            # grid rows, or CLI points (five commands each)
    point_calls: int = 0       # the first `point_calls` calls give the points
    attempted: int = 0
    failed: int = 0
    exit_nonzero: int = 0
    row_mix: dict[str, int] = field(default_factory=dict)
    digest: str = ""

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _escaped(result: PassResult, what: str) -> None:
    """An exception escaped a public call: one failed operation."""
    result.attempted += 1
    result.failed += 1
    print(f"exception escaped {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def validated_defaults() -> gravwitness.ExperimentConfig:
    # The explicit 250 um split of the paper scenario differs from the
    # kinematic 232 um; the library warns about that on every validation.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gravwitness.ConfigConsistencyWarning)
        return gravwitness.validate(gravwitness.paper_defaults())


def _axis(rng, name, lo, hi, count, spacing="linear"):
    lo *= 1.0 + rng.uniform(-BOUND_JITTER, BOUND_JITTER)
    hi *= 1.0 + rng.uniform(-BOUND_JITTER, BOUND_JITTER)
    return gravwitness.SweepAxis(name, float(lo), float(hi), count, spacing)


def row_mix(rows) -> dict[str, int]:
    """Realised row mix of a sweep: invalid configs, decoherence-regime
    errors, other infeasible rows and feasible rows."""
    mix = dict(rows=len(rows), valid=0, invalid=0, regime=0, infeasible=0,
               feasible=0)
    for row in rows:
        if row.reason.startswith("invalid config"):
            mix["invalid"] += 1
            continue
        mix["valid"] += 1
        if row.feasible:
            mix["feasible"] += 1
        elif "decoherence regime" in row.reason:
            mix["regime"] += 1
        else:
            mix["infeasible"] += 1
    return mix


# ------------------------------------------------------------- grid_quiet

@dataclass(frozen=True)
class GridInputs:
    spec: gravwitness.SweepSpec
    base: gravwitness.ExperimentConfig


def build_grid_quiet(seed: int, tiny: bool = False) -> GridInputs:
    """The acceptance-gate sweep: tau x d in a quiet environment."""
    rng = np.random.default_rng(seed)
    n = 4 if tiny else 100
    spec = gravwitness.SweepSpec(
        axes=(_axis(rng, "tau", 0.1, 5.0, n), _axis(rng, "d", 300e-6, 900e-6, n)),
        objective="negativity")
    return GridInputs(spec, dataclasses.replace(validated_defaults(), **QUIET))


def run_grid_quiet(inputs: GridInputs) -> PassResult:
    res = PassResult(point_calls=1)
    start = time.perf_counter()
    try:
        sweep = gravwitness.run_sweep(inputs.spec, inputs.base)
    except Exception:
        sweep = None
        _escaped(res, "run_sweep")
    res.wall_s = time.perf_counter() - start
    res.calls_s.append(res.wall_s)
    if sweep is None:
        return res
    res.points = len(sweep.rows)
    res.row_mix = row_mix(sweep.rows)

    # With negligible decoherence the dephased negativity is the pure-state
    # closed form |sin((dPhiLR + dPhiRL)/2)|/2 at every point.
    values = np.array([(r.dPhiLR, r.dPhiRL, r.objective) for r in sweep.rows])
    expected = np.abs(np.sin((values[:, 0] + values[:, 1]) / 2)) / 2
    good = np.abs(values[:, 2] - expected) <= GRID_QUIET_TOL
    for row, ok in zip(sweep.rows, good):
        res.check(bool(ok) and not row.reason.startswith("invalid config"),
                  f"grid_quiet row {row.params}: objective {row.objective!r}")
    res.digest = hashlib.sha256(sweep.to_csv().encode()).hexdigest()
    return res


# ----------------------------------------------------------- search_mixed

def build_search_mixed(seed: int, tiny: bool = False) -> GridInputs:
    """Four axes in the paper environment: the dx axis crosses d and the
    contact limit, the tEnv axis crosses the thermal-regime guard."""
    rng = np.random.default_rng(seed)
    counts = (3, 4, 2, 2) if tiny else (8, 8, 5, 4)
    spec = gravwitness.SweepSpec(
        axes=(_axis(rng, "tau", 0.5, 8.0, counts[0]),
              _axis(rng, "dx", 1e-4, 5.5e-4, counts[1]),
              _axis(rng, "pressure", 1e-17, 1e-12, counts[2], "log"),
              _axis(rng, "tEnv", 0.05, 20.0, counts[3], "log")),
        objective="witnessOptimized")
    return GridInputs(spec, validated_defaults())


def _expect_invalid(base: gravwitness.ExperimentConfig, params: dict) -> bool:
    d = params.get("d", base.d)
    dx = params.get("dx", base.dx)
    return not (dx < d and d - dx > 2 * base.radius)


def run_search_mixed(inputs: GridInputs) -> PassResult:
    res = PassResult(point_calls=1)
    start = time.perf_counter()
    try:
        sweep = gravwitness.run_sweep(inputs.spec, inputs.base)
    except Exception:
        sweep = None
        _escaped(res, "run_sweep")
    res.calls_s.append(time.perf_counter() - start)
    max_start = time.perf_counter()
    try:
        best_config, best_row = gravwitness.maximize(inputs.spec, inputs.base)
    except Exception:
        best_row = None
        _escaped(res, "maximize")
    res.calls_s.append(time.perf_counter() - max_start)
    res.wall_s = time.perf_counter() - start
    if sweep is None:
        return res

    res.points = len(sweep.rows)
    res.row_mix = row_mix(sweep.rows)
    for row in sweep.rows:
        invalid = row.reason.startswith("invalid config")
        if _expect_invalid(inputs.base, row.params):
            ok = invalid and math.isnan(row.objective)
        else:
            ok = (not invalid and row.feasible == (row.reason == "")
                  and (not row.feasible or math.isfinite(row.objective)))
        res.check(ok, f"search_mixed row {row.params}: {row.reason!r}, "
                      f"objective {row.objective!r}")
    text = sweep.to_csv()
    if best_row is not None:
        grid_best = max((r.objective for r in sweep.rows if r.feasible),
                        default=-math.inf)
        res.check(best_row.feasible and best_row.objective >= grid_best,
                  f"maximize returned objective {best_row.objective!r}, "
                  f"feasible={best_row.feasible}, grid best {grid_best!r}")
        text += repr((best_row, best_config))
    res.digest = hashlib.sha256(text.encode()).hexdigest()
    return res


# ------------------------------------------------------------- cli_points

@dataclass(frozen=True)
class CliInputs:
    argvs: tuple[tuple[str, ...], ...]   # five commands per point, in order


def build_cli_points(seed: int, tiny: bool = False) -> CliInputs:
    """Seeded random tau / d / pressure points; every point runs the five
    commands a terminal user would."""
    rng = np.random.default_rng(seed)
    argvs = []
    for _ in range(2 if tiny else POINTS_PER_PASS):
        sets = ("--set", f"tau={rng.uniform(0.5, 5.0)!r}",
                "--set", f"d={rng.uniform(300e-6, 800e-6)!r}",
                "--set", f"pressure={10.0 ** rng.uniform(-17.0, -13.0)!r}")
        argvs.extend(command + sets for command in CLI_COMMANDS)
    validated_defaults()
    return CliInputs(tuple(argvs))


def _check_cli_payload(command: str, data: dict) -> bool:
    if command == "witness":
        return data["wOptimized"] >= data["w"] - WITNESS_TOL
    if command == "constraints":
        return data["feasible"] == (not data["reasons"])
    if command == "decoherence":
        return 0.0 <= data["totalDephasing"] < 1.0
    if command == "phases":
        return "dynamic" in data
    if command == "field":
        return (data["negativityClassicalized"] == 0
                and abs(data["convergence"][-1]["ratio"] - 1.0) <= FIELD_RATIO_TOL)
    raise ValueError(f"no check for command {command!r}")


def run_cli_points(inputs: CliInputs) -> PassResult:
    res = PassResult()
    digest = hashlib.sha256()
    start = time.perf_counter()
    for argv in inputs.argvs:
        out, err = io.StringIO(), io.StringIO()
        call_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gravwitness.cli.main(list(argv))
        except SystemExit as exc:          # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            res.calls_s.append(time.perf_counter() - call_start)
            _escaped(res, f"cli.main{argv}")
            continue
        res.calls_s.append(time.perf_counter() - call_start)
        text = out.getvalue()
        digest.update(f"{code}\n{text}".encode())
        if code != 0:
            res.exit_nonzero += 1
            res.check(False, f"{' '.join(argv)} exited {code}: {err.getvalue()}")
            continue
        try:
            ok = _check_cli_payload(argv[0], json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        res.check(ok, f"{' '.join(argv)} printed {text[:200]!r}")
    res.wall_s = time.perf_counter() - start
    res.points = len(inputs.argvs) // len(CLI_COMMANDS)
    res.point_calls = len(inputs.argvs)
    res.digest = digest.hexdigest()
    return res


@dataclass(frozen=True)
class Workload:
    build: object       # (seed, tiny) -> inputs
    run_pass: object    # inputs -> PassResult


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "grid_quiet": Workload(build_grid_quiet, run_grid_quiet),
    "search_mixed": Workload(build_search_mixed, run_search_mixed),
    "cli_points": Workload(build_cli_points, run_cli_points),
}
