"""gravwitness: simulator and feasibility toolkit for witnessing
gravitationally induced entanglement between two microspheres held in
adjacent Stern-Gerlach interferometers.

The package computes the gravitational branch phases, builds the resulting
two-spin state, evaluates the spin-correlation witness against the exact
negativity criterion, reproduces the phases from a mode-discretized model of
the quantized field (including the classicalization argument), and searches
the parameter space under Casimir-Polder, magnetic and decoherence
constraints.
"""

import types

from .core import (CONSTANTS, ConfigConsistencyWarning, ConfigError,
                   ExperimentConfig, M_HELIUM4, PhysicalConstants, RegimeError,
                   config_from_dict, config_to_dict, config_to_json,
                   load_config, paper_defaults, validate)
from .gravphase import (BRANCHES, PhaseSet, branch_positions, dynamic_phases,
                        mutual_acceleration, pairwise_separations,
                        small_split_phase, static_phases, superposition_size)
from .spinstate import (TwoQubitState, WitnessResult, WitnessSettings,
                        apply_dephasing, entangled_state, expectation,
                        negativity, optimize_witness, witness)
from .gravfield import (BranchDisplacements, FieldModeSet, branch_displacement_set,
                        branch_overlap, branch_overlaps, branch_phase, build_modes,
                        classicalize, dephase_branch_basis, displacements,
                        mode_sum_ratio, modes_for_separation, newtonian_phase,
                        reduced_mass_state)
from .constraints import (ConstraintReport, casimir_polder_potential, cp_ratio,
                          feasibility_report, gravitational_potential,
                          magnetic_interaction_ratio, min_separation)
from .decoherence import (DecoherenceRates, collisional_time, dephasing_budget,
                          gas_de_broglie_wavelength, gas_density, thermal_rates,
                          thermal_wavelength)
from .sweep import (OBJECTIVES, Evaluation, SweepAxis, SweepResult, SweepRow,
                    SweepSpec, evaluate, maximize, run_sweep)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
