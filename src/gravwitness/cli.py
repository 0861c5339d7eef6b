"""Command-line surface: phases, state, witness, constraints, decoherence,
field-model demonstration, parameter sweeps and the default configuration.

Exit codes: 0 success, 1 computation/infeasibility error, 2 usage or
configuration error.  Results go to standard output (or --out) in json, csv
or table form; diagnostics go to standard error.  Identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import constraints as constraints_mod
from . import decoherence as decoherence_mod
from . import gravfield, gravphase, spinstate, sweep as sweep_mod
from .core import (ConfigError, ExperimentConfig, RegimeError,
                   _consistency_notes, _read_json, _replaced, config_to_dict,
                   paper_defaults, validate)


class CliUsageError(Exception):
    pass


# ---------------------------------------------------------------- rendering

def _flat_items(obj, prefix=""):
    """Depth-first (key, scalar) pairs with dotted paths."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return [(prefix[:-1], obj)]
    out = []
    for key, value in items:
        out.extend(_flat_items(value, f"{prefix}{key}."))
    return out


def _strict_json(payload) -> str:
    """Strict JSON (RFC 8259), which has no Infinity or NaN: a non-finite
    number is null, and the object holding it, the payload or a row of a
    list payload, lists its dotted keys under ``nonFinite``."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        pass
    rows = []
    for row in payload if isinstance(payload, list) else [payload]:
        keys = [key for key, v in _flat_items(row)
                if isinstance(v, float) and not math.isfinite(v)]
        rows.append(json.loads(json.dumps(row), parse_constant=lambda _: None))
        if keys:
            rows[-1]["nonFinite"] = keys
    return json.dumps(rows if isinstance(payload, list) else rows[0],
                      indent=2)


def render_payload(payload, fmt: str) -> str:
    """One serialization layer shared by every subcommand."""
    if fmt == "json":
        return _strict_json(payload) + "\n"
    if isinstance(payload, list):
        header = list(payload[0].keys()) if payload else []
        table = [[sweep_mod._text(r.get(k, "")) for k in header]
                 for r in payload]
    else:
        flat = _flat_items(payload)
        header = ["key", "value"]
        table = [[k, sweep_mod._text(v)] for k, v in flat]
    if fmt == "csv":
        return sweep_mod._csv(header, table)
    widths = [max(len(str(h)), *(len(row[i]) for row in table)) if table
              else len(str(h)) for i, h in enumerate(header)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
              for row in table]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ config loading

def _parse_overrides(pairs) -> dict:
    overrides = {}
    for item in pairs or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise CliUsageError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise CliUsageError(f"--set {key}: value {value!r} is not a number") from None
    return overrides


def _build_config(args) -> tuple[ExperimentConfig, list[str]]:
    """The configuration after ``--set``, validated, or for a sweep as
    given, so a null ``dx`` stays kinematic at every point; and its
    `core._consistency_notes`, for the caller to report as data."""
    if args.config and args.paper_defaults:
        raise CliUsageError("--config and --paper-defaults are mutually exclusive")
    config = (_replaced(_read_json(args.config), paper_defaults())
              if args.config else paper_defaults())
    valid = validate(config)
    overrides = _parse_overrides(args.set)
    if overrides:
        config = _replaced(overrides, config)
        valid = validate(config)
    return (config if args.command == "sweep" else valid,
            _consistency_notes(config))


# ---------------------------------------------------------------- commands

def _cmd_defaults(args, cfg):
    return config_to_dict(paper_defaults())


def _cmd_phases(args, cfg):
    phases = gravphase.static_phases(cfg)
    payload = dataclasses.asdict(phases)
    payload["separations"] = gravphase.pairwise_separations(cfg)
    payload["mutualAcceleration"] = gravphase.mutual_acceleration(cfg)
    if cfg.dx / cfg.d < 0.1:
        payload["smallSplitPhase"] = gravphase.small_split_phase(cfg)
    if args.dynamic_steps:
        payload["dynamic"] = dataclasses.asdict(
            gravphase.dynamic_phases(cfg, args.dynamic_steps))
    return payload


def _cmd_state(args, cfg):
    phases = gravphase.static_phases(cfg)
    state = spinstate.entangled_state(phases.dPhiLR, phases.dPhiRL)
    return {
        "dPhiLR": phases.dPhiLR,
        "dPhiRL": phases.dPhiRL,
        "negativity": spinstate.negativity(state),
        "purity": state.purity(),
        "rhoRe": [[float(x) for x in row] for row in state.rho.real],
        "rhoIm": [[float(x) for x in row] for row in state.rho.imag],
    }


def _cmd_witness(args, cfg):
    ev = sweep_mod.evaluate(cfg)
    default = spinstate.witness(ev.state)
    settings, optimized = spinstate.optimize_witness(ev.state)
    payload = {
        "dPhiLR": ev.phases.dPhiLR,
        "dPhiRL": ev.phases.dPhiRL,
        "w": default.w,
        "expXZ": default.expXZ,
        "expYZ": default.expYZ,
        "wOptimized": optimized.w,
        "thetaZ1Optimized": settings.thetaZ1,
        "negativity": default.negativity,
        "entangledByNegativity": default.entangledByNegativity,
        "feasibility": {
            "feasible": ev.report.feasible,
            "cpRatio": ev.report.cpRatio,
            "reasons": list(ev.report.reasons),
        },
    }
    if ev.dephased is None:
        payload["dephasingRegimeError"] = ev.regimeError
    else:
        dephased = spinstate.witness(ev.dephased)
        payload["totalDephasing"] = ev.budget.totalDephasing
        payload["wDephased"] = dephased.w
        payload["negativityDephased"] = dephased.negativity
    return payload


def _cmd_constraints(args, cfg):
    report = constraints_mod.feasibility_report(
        cfg, targetRatio=args.target_ratio, bResidual=args.b_residual)
    return dataclasses.asdict(report)       # render_payload lists tuples


def _cmd_decoherence(args, cfg):
    budget = decoherence_mod.dephasing_budget(cfg)
    payload = dataclasses.asdict(budget)
    payload["experimentDuration"] = decoherence_mod.experiment_duration(cfg)
    payload["gasDeBroglieWavelength"] = decoherence_mod.gas_de_broglie_wavelength(cfg)
    payload["thermalWavelength"] = decoherence_mod.thermal_wavelength(cfg.tEnv)
    return payload


def _cmd_field(args, cfg):
    separation = cfg.d - cfg.dx if args.separation is None else args.separation
    t = cfg.tau if args.time is None else args.time
    target = gravfield.newtonian_phase(cfg, separation, t)
    steps = []
    n = max(2, args.n_modes // 16)
    while n < args.n_modes:
        steps.append(n)
        n *= 2
    steps.append(args.n_modes)
    # the ratio is a property of (nModes, kCutTimesR), the same at every point
    convergence = []
    for n_modes in steps:
        ratio = gravfield.mode_sum_ratio(n_modes, args.k_cut_times_r)
        convergence.append({"nModes": n_modes, "phase": target * ratio,
                            "newtonian": target, "ratio": ratio})

    modes = gravfield.modes_for_separation(separation, nModes=args.n_modes,
                                           kCutTimesR=args.k_cut_times_r)
    branches = gravfield.branch_displacement_set(modes, cfg, t)
    overlaps = gravfield.branch_overlaps(branches)
    quantum = gravfield.reduced_mass_state(branches, overlaps)
    classical = gravfield.dephase_branch_basis(quantum)
    phases = gravphase.static_phases(cfg)
    spin_reference = spinstate.negativity(
        spinstate.entangled_state(phases.dPhiLR, phases.dPhiRL))
    return {
        "separation": separation,
        "time": t,
        "convergence": convergence,
        "minOverlapMagnitude": min(abs(ov) for ov in overlaps.values()),
        "negativityQuantum": spinstate.negativity(quantum),
        "negativityClassicalized": spinstate.negativity(classical),
        "negativitySpinstateReference": spin_reference,
    }


def _parse_axis(text: str) -> sweep_mod.SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise CliUsageError(
            f"--axis expects name:min:max:count[:log|linear], got {text!r}")
    name, lo, hi, count = parts[:4]
    spacing = parts[4] if len(parts) == 5 else "linear"
    try:
        return sweep_mod.SweepAxis(name=name, min=float(lo), max=float(hi),
                                   count=int(count), spacing=spacing)
    except ValueError as err:
        raise CliUsageError(f"--axis {text!r}: {err}") from None


def _cmd_sweep(args, cfg):
    if not args.axis:
        raise CliUsageError("sweep needs at least one --axis")
    axes = tuple(_parse_axis(a) for a in args.axis)
    try:
        spec = sweep_mod.SweepSpec(axes=axes, objective=args.objective,
                                   cpRatioMax=args.cp_ratio_max,
                                   requireTauCollOver=args.tau_coll_over)
    except ValueError as err:
        raise CliUsageError(str(err)) from None
    if args.maximize:
        best_config, best_row = sweep_mod.maximize(spec, cfg)
        return {
            "bestParams": best_row.params,
            "objective": best_row.objective,
            "row": sweep_mod._row_dict(best_row),
            "config": config_to_dict(best_config),
        }
    return [{**sweep_mod._row_dict(row), "reason": row.reason}
            for row in sweep_mod.run_sweep(spec, cfg).rows]


# -------------------------------------------------------------------- main

def _checked(kind, ok, what):
    """argparse ``type=`` that converts with ``kind`` and rejects values
    failing ``ok``, so a bad option exits 2 and names itself."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    convert.__name__ = kind.__name__     # argparse's "invalid float value"
    return convert


_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "a finite number > 0")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         "a finite number >= 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call in the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="gravwitness",
        description="Gravitationally induced entanglement: phases, witness, "
                    "feasibility and parameter search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a flat JSON config")
        p.add_argument("--paper-defaults", action="store_true",
                       help="use the built-in reference scenario")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (repeatable)")
        p.add_argument("--out", help="write output to a file instead of stdout")

    add_common(sub.add_parser("defaults", help="print the default config"))

    p = sub.add_parser("phases", help="branch phases and differentials")
    add_common(p)
    p.add_argument("--dynamic-steps", default=0,
                   type=_checked(int, lambda n: n == 0 or n >= 2, "0 or >= 2"),
                   help="also integrate phases over split/hold/recombine "
                        "with this many panels per stage (0: off)")

    add_common(sub.add_parser("state", help="post-interferometer two-spin state"))
    add_common(sub.add_parser("witness", help="witness, optimized witness, negativity"))

    p = sub.add_parser("constraints", help="Casimir-Polder / magnetic feasibility")
    add_common(p)
    p.add_argument("--target-ratio", type=_POSITIVE, default=0.1)
    p.add_argument("--b-residual", type=_NON_NEGATIVE, default=0.0)

    add_common(sub.add_parser("decoherence", help="collisional and thermal budget"))

    p = sub.add_parser("field", help="field-mode convergence and classicalization")
    add_common(p)
    p.add_argument("--n-modes", default=4000,
                   type=_checked(int, lambda n: n >= 2, ">= 2"))
    p.add_argument("--k-cut-times-r", type=_POSITIVE, default=2e3)
    p.add_argument("--separation", type=_POSITIVE,
                   help="branch separation (default: d - dx)")
    p.add_argument("--time", type=_POSITIVE,
                   help="interaction time (default: tau)")

    p = sub.add_parser("sweep", help="grid sweep / constrained maximization")
    add_common(p)
    p.add_argument("--axis", action="append", metavar="NAME:MIN:MAX:COUNT[:SPACING]")
    p.add_argument("--objective", choices=sweep_mod.OBJECTIVES,
                   default="negativity")
    p.add_argument("--cp-ratio-max", type=float, default=0.1)
    p.add_argument("--tau-coll-over", type=float, default=1.0)
    p.add_argument("--maximize", action="store_true",
                   help="refine the best feasible grid point")
    return parser


_COMMANDS = {
    "defaults": _cmd_defaults,
    "phases": _cmd_phases,
    "state": _cmd_state,
    "witness": _cmd_witness,
    "constraints": _cmd_constraints,
    "decoherence": _cmd_decoherence,
    "field": _cmd_field,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # `defaults` reads no configuration and has no notes
        cfg, notes = ((None, None) if args.command == "defaults"
                      else _build_config(args))
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(
                os.path.dirname(args.out) or os.curdir)):
            # open fails here as the write would, so it creates nothing
            open(args.out, "w").close()
        payload = _COMMANDS[args.command](args, cfg)
        # configuration warnings are data: a key of a JSON object, else
        # stderr lines, which a failed --out write skips
        if isinstance(payload, dict) and args.format == "json" and notes is not None:
            payload["warnings"], notes = notes, None
        text = render_payload(payload, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    # unreadable --config, unwritable --out (UnicodeDecodeError is a ValueError)
    except (CliUsageError, ConfigError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RegimeError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for note in notes or ():
        print(f"warning: {note}", file=sys.stderr)
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
