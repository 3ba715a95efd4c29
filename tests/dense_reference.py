"""Float references the tests check production against.

They are the 32x32 diagonal matrix a Z-string sum stands for, the observables
read from an outcome distribution, and the net area of a readout line list.
`unitary(circuit)` is a circuit's 32x32 unitary, read from the simulator's
one runner: its 32 basis-state runs.  `density_readout` reads a spin's lines
from a 32x32 operator rho as u rho u^dagger, with the readout rotation u
built by Kronecker products: the reference for production's readout of a
pure state's row, and the tests' only readout of deviation and mixed
operators.
"""
import numpy as np

from orderfinding.gates import DIM, N_SPINS, Circuit
from orderfinding.prodops import ZTermSum
from orderfinding.simulator import run_circuits
from orderfinding.spectra import AMPLITUDE_SNAP, MoleculeParams, SpectralLine, line_frequency, other_spins

# PARITY[a, b] = (-1)^popcount(a & b): the sign of Z-string b on basis state a.
PARITY = np.array([[-1.0 if bin(a & b).count("1") & 1 else 1.0 for b in range(DIM)] for a in range(DIM)])


def unitary(circuit: Circuit) -> np.ndarray:
    """32x32 unitary of `circuit`: row b of the identity is |b>, so the runner's rows are its columns."""
    return run_circuits([circuit] * DIM, np.eye(DIM, dtype=complex)).T


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


def density_readout(rho: np.ndarray, spin: int, params: MoleculeParams) -> list[SpectralLine]:
    """The 16 labeled lines of `spin` read from a Hermitian 32x32 operator: pure, mixed or deviation.

    Line c is element (row, col) of u rho u^dagger, where u is the ideal
    90-degree readout rotation on `spin` and row, col the basis states with
    the other four spins in configuration c and `spin` at |0> and |1>.
    Amplitudes below 1e-12 read as zero, as in production.
    """
    assert np.allclose(rho, rho.conj().T, atol=1e-9), "not Hermitian"
    ry90 = np.array([[1, -1], [1, 1]]) / np.sqrt(2.0)
    u = np.kron(np.kron(np.eye(2 ** (spin - 1)), ry90), np.eye(2 ** (N_SPINS - spin)))  # spin 1 most significant
    rotated = u @ rho @ u.conj().T
    lines = []
    for config in range(16):
        label = format(config, "04b")
        row = sum(int(bit) << (N_SPINS - q) for bit, q in zip(label, other_spins(spin)))
        amp = complex(rotated[row, row | 1 << (N_SPINS - spin)])
        lines.append(SpectralLine(spin, label, line_frequency(spin, label, params),
                                  0j if abs(amp) < AMPLITUDE_SNAP else amp))
    return lines
