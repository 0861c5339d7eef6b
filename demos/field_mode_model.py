#!/usr/bin/env python3
"""The same phases from a mode picture of the field: every branch displaces
each field mode into a coherent state, and the cross term of the squared
coupling reproduces the Newtonian branch phase in the continuum limit.
On the grid tuned for a separation, how close it comes is the same at every
separation: the ratio depends only on the mode count and kCut*r.

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
print("  on the grid tuned for r the ratio to the Newtonian phase does not")
print("  depend on r: it is a property of (nModes, kCutTimesR) alone")
r_far = 2 * r
target, target_far = gw.newtonian_phase(cfg, r, t), gw.newtonian_phase(cfg, r_far, t)
print(f"  Newtonian target at r = {r * 1e6:.0f} um: {target:.6f} rad, "
      f"at {r_far * 1e6:.0f} um: {target_far:.6f} rad")
print(f"  {'modes':>8}  {'ratio at r':>12}  {'ratio at 2r':>12}  {'mode_sum_ratio':>14}")
for n_modes in (250, 500, 1000, 2000, 4000, 8000):
    near = gw.branch_phase(gw.modes_for_separation(r, nModes=n_modes), cfg, r, t)
    far = gw.branch_phase(gw.modes_for_separation(r_far, nModes=n_modes), cfg, r_far, t)
    print(f"  {n_modes:>8}  {near / target:>12.9f}  {far / target_far:>12.9f}"
          f"  {gw.mode_sum_ratio(n_modes, 2e3):>14.9f}")

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
