#!/usr/bin/env python3
"""The same phases from a mode picture of the field: every branch displaces
each field mode into a coherent state, and the cross term of the squared
coupling reproduces the Newtonian branch phase in the continuum limit.

Forcing the field classical (deleting the off-diagonal terms between the
branch coherent states) instantly destroys the mass-mass entanglement, even
though the coherent states overlap to within 1e-12: the entanglement hinges
on those off-diagonal terms, not on which-path information.
"""

import warnings

import gravwitness as gw

warnings.simplefilter("ignore", gw.ConfigConsistencyWarning)

cfg = gw.validate(gw.paper_defaults())
r = cfg.d - cfg.dx          # closest branch separation, 200 um
t = cfg.tau

print("=== continuum limit of the mode sum ===")
target = gw.newtonian_phase(cfg, r, t)
print(f"  Newtonian target at r = {r * 1e6:.0f} um: {target:.6f} rad")
print(f"  {'modes':>8}  {'phase (rad)':>12}  {'ratio to target':>16}")
for n_modes in (250, 500, 1000, 2000, 4000, 8000):
    modes = gw.modes_for_separation(r, nModes=n_modes)
    phase = gw.branch_phase(modes, cfg, r, t)
    print(f"  {n_modes:>8}  {phase:>12.6f}  {phase / target:>16.6f}")

print("\n=== which-path information carried by the field ===")
modes = gw.modes_for_separation(r, nModes=4000)
branches = gw.branch_displacement_set(modes, cfg, t)
for a, b in (("LL", "RL"), ("LL", "RR"), ("LR", "RL")):
    overlap = gw.branch_overlap(branches[a], branches[b])
    print(f"  |<{a}|{b}>| = 1 - {1 - abs(overlap):.3e}")
print("  (overlaps this close to unity mean the field records essentially "
      "no which-path information)")

print("\n=== classicalization destroys the entanglement ===")
quantum = gw.reduced_mass_state(branches)
classical = gw.classicalize(branches)
ph = gw.static_phases(cfg)
spin = gw.entangled_state(ph.dPhiLR, ph.dPhiRL)
print(f"  negativity, field kept quantum:   {gw.negativity(quantum):.6f}")
print(f"  negativity, direct spin model:    {gw.negativity(spin):.6f}")
print(f"  negativity, field made classical: {gw.negativity(classical):.6f}")
_, w_classical = gw.optimize_witness(classical)
print(f"  best witness on the classicalized state: {w_classical.w:.6f} "
      f"(W reaches sqrt(2) on product states too: the negativity decides)")
