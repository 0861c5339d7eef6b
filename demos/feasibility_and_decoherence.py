#!/usr/bin/env python3
"""Why 200 um of closest approach and 1e-15 Pa: the Casimir-Polder potential
must stay a small fraction of the gravitational one, induced magnetic
dipoles must stay negligible, and the orbital superposition must survive
collisional and thermal decoherence for the full 3.5 s drop.
"""

import dataclasses
import warnings

import gravwitness as gw

warnings.simplefilter("ignore", gw.ConfigConsistencyWarning)

cfg = gw.validate(gw.paper_defaults())
r = cfg.d - cfg.dx

print("=== Casimir-Polder vs gravity at closest approach ===")
print(f"  separation              = {r * 1e6:.0f} um")
print(f"  V_CP                    = {gw.casimir_polder_potential(cfg, r):.3e} J")
print(f"  V_grav                  = {gw.gravitational_potential(cfg, r):.3e} J")
print(f"  ratio                   = {gw.cp_ratio(cfg):.4f}")
print(f"  separation where the ratio reaches 0.1: "
      f"{gw.min_separation(cfg, 0.1) * 1e6:.1f} um")

print("\n=== induced magnetic dipoles in a residual field ===")
for chi, b_res in ((1e-5, 1e-6), (1e-7, 1e-6)):
    mag = gw.magnetic_interaction_ratio(
        dataclasses.replace(cfg, chiM=chi), b_res)
    print(f"  chi_m = {chi:.0e}, B_residual = {b_res:.0e} T "
          f"-> U_mag/V_grav = {mag:.3e}  (scales as chi_m^2)")

print("\n=== decoherence budget over the 3.5 s drop ===")
budget = gw.dephasing_budget(cfg)
print(f"  gas density             = {gw.gas_density(cfg.pressure, cfg.tEnv):.3e} m^-3")
print(f"  collisional time        = {budget.tauColl:.1f} s "
      f"(vs drop time {cfg.tau + 2 * cfg.tauAcc:.1f} s)")
print(f"  photon scattering rate  = {budget.gammaSc:.3e} 1/s")
print(f"  photon emission rate    = {budget.gammaEm:.3e} 1/s")
print(f"  photon absorption rate  = {budget.gammaAbs:.3e} 1/s")
print(f"  coherence lost 1-e^-GT  = {budget.totalDephasing:.4f}")

print("\n=== what that dephasing does to the signal ===")
ev = gw.evaluate(cfg)
print(f"  negativity before/after = {gw.negativity(ev.state):.4f} / "
      f"{gw.negativity(ev.dephased):.4f}")
print(f"  witness    before/after = {gw.witness(ev.state).w:.4f} / "
      f"{gw.witness(ev.dephased).w:.4f}")

print("\n=== aggregate verdict ===")
report = gw.feasibility_report(cfg)
print(f"  feasible = {report.feasible}")
bad = gw.feasibility_report(dataclasses.replace(cfg, tau=1e4))
print(f"  with tau = 1e4 s: feasible = {bad.feasible}; reasons: "
      f"{'; '.join(bad.reasons)}")
