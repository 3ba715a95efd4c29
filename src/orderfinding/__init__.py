"""Simulator and verification suite for the five-spin order-finding experiment.

Submodules: gates (the basis convention and the frozen gate values, without
numpy), simulator (dense five-spin state-vector simulation), permutations
(the oracle's permutations and their trajectories), circuits (QFT,
order-finding circuit with its controlled permutation stages, native
pulse-sequence verification), prodops (product-operator temporal labeling),
measurement (outcome statistics and the certified optimal guess strategy),
spectra (NMR readout line lists), classical (exact query-complexity
baselines), cli (command line front end).

CertificateError lives here, where every module that checks an exact
certificate imports it without loading numpy.
"""

__version__ = "0.1.0"


class CertificateError(RuntimeError):
    """A stored or computed certificate fails an exact check."""
