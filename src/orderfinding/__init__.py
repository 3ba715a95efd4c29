"""Simulator and verification suite for the five-spin order-finding experiment.

Submodules: simulator (dense five-spin state/operator algebra), permutations
(the oracle's permutations and its controlled permutation stages), circuits
(QFT, order-finding circuit, native pulse-sequence verification), prodops
(product-operator temporal labeling), measurement (outcome statistics and
the optimal guess strategy), spectra (NMR readout line lists), classical
(exact query-complexity baselines), cli (command line front end).
"""

__version__ = "0.1.0"
