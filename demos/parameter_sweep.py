#!/usr/bin/env python3
"""Explore the parameter space: sweep the hold time in a quiet environment,
watch the entanglement climb toward the phase-sum-pi maximum, and let the
constrained optimizer find that boundary on its own.  Writes the sweep rows
to tau_sweep.csv next to this script.
"""

import dataclasses
import math
import pathlib
import warnings

import gravwitness as gw

warnings.simplefilter("ignore", gw.ConfigConsistencyWarning)

cfg = gw.validate(gw.paper_defaults())
# paper geometry, negligible-decoherence environment: the objective then
# follows the closed form |sin((dPhiLR + dPhiRL)/2)|/2 exactly
quiet = dataclasses.replace(cfg, pressure=1e-30, tEnv=1e-3, tInt=1e-3)

print("=== hold-time sweep (quiet environment) ===")
spec = gw.SweepSpec(axes=(gw.SweepAxis("tau", 0.5, 30.0, 8),))
result = gw.run_sweep(spec, quiet)
print(f"  {'tau (s)':>8}  {'phase sum':>10}  {'negativity':>10}  "
      f"{'closed form':>11}  {'feasible':>8}")
for row in result.rows:
    s = row.dPhiLR + row.dPhiRL
    closed = abs(math.sin(s / 2)) / 2
    print(f"  {row.params['tau']:>8.2f}  {s:>10.4f}  {row.objective:>10.6f}  "
          f"{closed:>11.6f}  {str(row.feasible):>8}")

out = pathlib.Path(__file__).with_name("tau_sweep.csv")
out.write_text(result.to_csv(), encoding="utf-8", newline="")
print(f"  rows written to {out.name}")

print("\n=== constrained maximization ===")
best_config, best_row = gw.maximize(spec, quiet)
print(f"  best tau      = {best_config.tau:.4f} s")
print(f"  phase sum     = {best_row.dPhiLR + best_row.dPhiRL:.6f} rad "
      f"(pi = {math.pi:.6f}: the entanglement maximum)")
print(f"  negativity    = {best_row.objective:.6f} (ceiling 0.5)")

print("\n=== same sweep in the real environment ===")
real = gw.run_sweep(spec, cfg)
print(f"  {'tau (s)':>8}  {'negativity':>10}  {'tauColl (s)':>11}  "
      f"{'feasible':>8}  reason")
for row in real.rows:
    print(f"  {row.params['tau']:>8.2f}  {row.objective:>10.6f}  "
          f"{row.tauColl:>11.2f}  {str(row.feasible):>8}  {row.reason}")
print("  (collisional dephasing erases the weakly entangled states long "
      "before the phase sum reaches pi; pushing tau also breaks the "
      "coherence-time bound)")
