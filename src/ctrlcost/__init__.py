"""ctrlcost: energetic cost of finite-time adiabatic control protocols.

Simulation library for counterdiabatic, local counterdiabatic,
bang-off-bang, Fourier optimal-control and invariant-based protocols on the
Landau-Zener model, the parametric harmonic oscillator and the
Jaynes-Cummings model, with a norm-based cost functional and a batch CLI.
"""

__version__ = "0.1.0"

from .ramps import (Ramp, BobPulse, poly_smooth_ramp, oc_fourier_ramp,
                    cd_na_ramp, cd_a_ramp, cd_blended_ramp, bob_pulse,
                    ramp_from_dict)
from .twolevel import (PauliSchedule, QubitTrajectory, CostReport,
                       qubit_state, fidelity, propagate, final_state,
                       converged_final_state, instantaneous_eigenstates,
                       cost_rate, integrated_cost)
from .landau_zener import (LzConfig, lz_fields, lz_bare, lz_cd, lz_lcd, lz_bob,
                           lz_ground_state, qsl_time, optimize_bob_kicks,
                           cd_cost_decomposition, decomposition_cost,
                           cost_scan, find_cd_lcd_crossover, run_protocol)
from .oscillator import (OscillatorSolution,
                         classical_solutions, ermakov_solve, husimi_qstar,
                         qstar_cd, qstar_ie, lcd_frequency, ie_energy,
                         qstar_series, oscillator_cost, cd_validity_edge)
from .jaynes_cummings import (JcConfig, jc_block, jc_cd_block,
                              jc_lcd_block, coherent_weights, block_run,
                              ensemble_run, jc_cost_scan, find_jc_crossover)
from .oc import OcProblem, OcResult, optimize

__all__ = [
    "Ramp", "BobPulse", "poly_smooth_ramp", "oc_fourier_ramp", "cd_na_ramp",
    "cd_a_ramp", "cd_blended_ramp", "bob_pulse", "ramp_from_dict",
    "PauliSchedule", "QubitTrajectory", "CostReport", "qubit_state",
    "fidelity", "propagate", "final_state", "converged_final_state",
    "instantaneous_eigenstates", "cost_rate", "integrated_cost",
    "LzConfig", "lz_fields", "lz_bare", "lz_cd", "lz_lcd", "lz_bob", "lz_ground_state",
    "qsl_time", "optimize_bob_kicks", "cd_cost_decomposition",
    "decomposition_cost", "cost_scan", "find_cd_lcd_crossover", "run_protocol",
    "OscillatorSolution", "classical_solutions",
    "ermakov_solve", "husimi_qstar", "qstar_cd", "qstar_ie", "lcd_frequency",
    "ie_energy", "qstar_series", "oscillator_cost", "cd_validity_edge",
    "JcConfig", "jc_block", "jc_cd_block", "jc_lcd_block",
    "coherent_weights", "block_run", "ensemble_run", "jc_cost_scan",
    "find_jc_crossover",
    "OcProblem", "OcResult", "optimize",
]
