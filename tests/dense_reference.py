"""Float references the tests check production against.

They are the 32x32 diagonal matrix a Z-string sum stands for, the observables
read from an outcome distribution, and the net area of a readout line list.
"""
import numpy as np

from orderfinding.gates import DIM
from orderfinding.prodops import ZTermSum
from orderfinding.spectra import SpectralLine

# PARITY[a, b] = (-1)^popcount(a & b): the sign of Z-string b on basis state a.
PARITY = np.array([[-1.0 if bin(a & b).count("1") & 1 else 1.0 for b in range(DIM)] for a in range(DIM)])


def zsum_to_matrix(terms: ZTermSum) -> np.ndarray:
    coeffs = np.array(terms, float)
    return np.diag(coeffs @ PARITY).astype(complex)


def observables_from_distribution(p: np.ndarray) -> tuple[float, float, float]:
    """(O_1, O_2, O_3) with O_i = 1 - 2 sum_{m: bit_i(m)=1} p(m), p of shape (8,); bit 1 is the LSB."""
    out = []
    for i in range(3):
        mean_bit = sum(p[m] for m in range(8) if (m >> i) & 1)
        out.append(1.0 - 2.0 * mean_bit)
    return tuple(out)


def net_area(lines: list[SpectralLine]) -> float:
    """Sum of the real (absorptive) parts; equals O_i/2 for a normalized state."""
    return float(sum(line.amplitude.real for line in lines))
