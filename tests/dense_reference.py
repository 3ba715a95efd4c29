"""Float reference for Z-string sums: the 32x32 diagonal matrix a sum stands for."""
import numpy as np

from orderfinding.prodops import ZTermSum
from orderfinding.simulator import DIM

# PARITY[a, b] = (-1)^popcount(a & b): the sign of Z-string b on basis state a.
PARITY = np.array([[-1.0 if bin(a & b).count("1") & 1 else 1.0 for b in range(DIM)] for a in range(DIM)])


def zsum_to_matrix(terms: ZTermSum) -> np.ndarray:
    coeffs = np.zeros(DIM)
    for mask, coeff in terms.items():
        coeffs[mask] += coeff
    return np.diag(coeffs @ PARITY).astype(complex)
