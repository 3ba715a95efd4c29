"""Simulator and verification suite for the five-spin order-finding experiment.

Submodules: simulator (dense five-spin state/operator algebra), permutations
(the oracle's permutations and its controlled permutation stages), circuits
(QFT, order-finding circuit, native pulse-sequence verification), prodops
(product-operator temporal labeling), measurement (outcome statistics and
the optimal guess strategy), spectra (NMR readout line lists), classical
(exact query-complexity baselines), cli (command line front end).
"""

from .circuits import build_orderfinding, build_qft3, verify_oracle_sequence
from .measurement import (
    analytic_distribution,
    observables_from_distribution,
    simulated_distribution,
)
from .permutations import OracleSpec, Permutation, oracle_unitary, order_of, parse_permutation, power
from .prodops import apply_prep, equilibrium_zsum, effective_pure_target, schedule_prep, verify_prep_set
from .simulator import Circuit, DensityOperator, QuantumState, apply_gate, circuit_unitary, expectation_Iz
from .spectra import MoleculeParams, line_frequency, net_area, readout_lines, render_spectrum

__version__ = "0.1.0"
