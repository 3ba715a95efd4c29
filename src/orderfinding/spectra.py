"""Synthetic NMR readout spectra from a final state's amplitude row.

The weak-coupling Hamiltonian is diagonal, so a spin's spectrum is an exact
line list: one line per configuration of the other four spins, at frequency
shift + sum of +/- J/2 (minus for |0>, plus for |1>), with complex amplitude
given by the corresponding single-quantum coherence after an ideal 90-degree
readout rotation.  The rotation phase is fixed so that the all-|0> state
produces a single positive absorptive line, which makes the net area under a
spin's lines equal to O_i/2 for any state.

Shipped molecule parameters are synthetic: well-separated shifts, ten
distinct pairwise couplings of both signs, 1 Hz linewidth.  They are a stand
in chosen for fully resolved lines, not measured constants of any physical
molecule; real parameters can be supplied as a JSON config.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gates import N_SPINS
from .simulator import apply_unitary

AMPLITUDE_SNAP = 1e-12
MAX_GRID_POINTS = 1_000_000

_RY90 = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2.0)


class MoleculeError(ValueError):
    """Invalid molecule parameters.

    `where` names the offending value: a MoleculeParams field, then any
    indices into it; it is empty when the config document as a whole is at
    fault.
    """

    def __init__(self, reason: str, *where: str | int) -> None:
        self.reason = reason
        self.where = where
        super().__init__(_describe(reason, where))


def _describe(reason: str, where: tuple[str | int, ...]) -> str:
    if not where:
        return reason
    return f"{where[0]}" + "".join(f"[{i}]" for i in where[1:]) + ": " + reason


def _finite(value, *where: str | int) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise MoleculeError("not a finite number", *where)
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range; json.loads keeps integer literals exact
        number = math.inf
    if not math.isfinite(number):
        raise MoleculeError("not a finite number", *where)
    return number


def _entries(value, count: int, reason: str, *where: str | int) -> list | tuple:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise MoleculeError(reason, *where)
    return value


@dataclass(frozen=True)
class MoleculeParams:
    """Chemical shifts (Hz, on the spectrum grid's frequency axis), J couplings (Hz), linewidth (Hz FWHM).

    Every value is validated on construction: shifts, couplings and
    linewidth must be finite numbers, couplings a symmetric 5x5 array with
    zero diagonal, every line frequency |shift_i| + sum_j |J_ij|/2 finite,
    and linewidth positive.  A bad value raises MoleculeError naming it
    (a shift, for an overflowing line frequency).
    """

    shifts: tuple[float, float, float, float, float]
    couplings: np.ndarray
    linewidth_hz: float

    def __post_init__(self) -> None:
        shifts = tuple(
            _finite(s, "shifts", i)
            for i, s in enumerate(_entries(self.shifts, N_SPINS, "need one chemical shift per spin", "shifts"))
        )
        rows = _entries(self.couplings, N_SPINS, "couplings must be a 5x5 array", "couplings")
        j = np.array([
            [_finite(v, "couplings", a, b)
             for b, v in enumerate(_entries(row, N_SPINS, "couplings must be a 5x5 array", "couplings", a))]
            for a, row in enumerate(rows)
        ])
        faulty = np.argwhere((np.abs(j - j.T) > 1e-12) | (np.eye(N_SPINS, dtype=bool) & (np.abs(j) > 1e-12)))
        if len(faulty):
            raise MoleculeError("couplings must be symmetric with zero diagonal", "couplings", *map(int, faulty[0]))
        for i, row in enumerate(j.tolist()):
            reach = abs(shifts[i])  # bounds |line_frequency| of spin i + 1, summed in the same order
            for coupling in row:
                reach += abs(coupling) / 2.0
            if not math.isfinite(reach):
                raise MoleculeError("line frequencies overflow: |shift| + sum of |J|/2 is not finite", "shifts", i)
        linewidth = _finite(self.linewidth_hz, "linewidth_hz")
        if not linewidth > 0:
            raise MoleculeError("linewidth must be positive", "linewidth_hz")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "linewidth_hz", linewidth)

    def coupling(self, i: int, j: int) -> float:
        return float(self.couplings[i - 1, j - 1])


@dataclass(frozen=True)
class SpectralLine:
    spin: int
    label: str  # configuration of the other four spins, ascending spin order
    frequency_hz: float
    amplitude: complex


@dataclass(frozen=True)
class FrequencyGrid:
    """`points` evenly spaced frequencies (Hz) from f_min to f_max; every point and rendered value is finite."""

    f_min: float
    f_max: float
    points: int

    def __post_init__(self) -> None:
        # false for a NaN or infinite bound, an overflowing span, and f_min >= f_max
        if not 0 < self.f_max - self.f_min < math.inf:
            raise ValueError("need finite f_min < f_max with a finite span")
        if type(self.points) is not int:
            raise ValueError(f"grid points must be an int, got {self.points!r}")
        if not 2 <= self.points <= MAX_GRID_POINTS:
            raise ValueError(f"need 2 to {MAX_GRID_POINTS} grid points")


@dataclass(frozen=True)
class Spectrum:
    frequencies_hz: np.ndarray
    trace: np.ndarray


def synthetic_molecule() -> MoleculeParams:
    """The shipped synthetic parameter set (see module docstring)."""
    j = np.zeros((5, 5))
    pairs = {
        (1, 2): 54.4, (1, 3): -17.5, (1, 4): 33.1, (1, 5): 12.3,
        (2, 3): 68.9, (2, 4): -7.6, (2, 5): 21.7,
        (3, 4): 41.2, (3, 5): -11.8,
        (4, 5): 76.5,
    }
    for (a, b), val in pairs.items():
        j[a - 1, b - 1] = j[b - 1, a - 1] = val
    return MoleculeParams(
        shifts=(0.0, -13200.0, 9100.0, 21500.0, -4300.0),
        couplings=j,
        linewidth_hz=1.0,
    )


# MoleculeParams field -> JSON config key.
_CONFIG_KEYS = {"shifts": "shifts", "couplings": "J", "linewidth_hz": "linewidth_hz"}


def load_molecule(path: str | Path) -> MoleculeParams:
    """Read molecule parameters from a UTF-8 JSON config.

    The config is an object with keys shifts (5 numbers), J (5x5 numbers)
    and linewidth_hz; other keys are ignored.  Every malformed config
    raises ValueError with the one-line message "path:line:col: reason",
    the position counted as json.JSONDecodeError counts it.  A syntax
    error points where decoding stopped, a document nested deeper than the
    decoder's recursion limit points at its start, a missing key or a
    document that is not an object points at the enclosing object, and a bad
    value points at that value.  A file that cannot be read raises OSError.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
        data = json.loads(text, parse_int=_parse_int)
    except UnicodeDecodeError as err:
        head = raw[:err.start].decode("utf-8")
        raise _located(path, head, len(head), "not valid UTF-8") from err
    except json.JSONDecodeError as err:
        raise _located(path, text, err.pos, err.msg) from err
    except RecursionError as err:  # the decoder recurses once per nested array or object
        raise _located(path, text, 0, "nested too deeply to decode") from err
    try:
        if not isinstance(data, dict):
            raise MoleculeError("config must be a JSON object")
        for key in _CONFIG_KEYS.values():
            if key not in data:
                raise MoleculeError(f"missing config key {key!r}")
        return MoleculeParams(**{field: data[key] for field, key in _CONFIG_KEYS.items()})
    except MoleculeError as err:
        where = (_CONFIG_KEYS[err.where[0]], *err.where[1:]) if err.where else ()
        raise _located(path, text, _value_offset(text, where), _describe(err.reason, where)) from err


def _parse_int(literal: str) -> int | float:
    """A JSON integer literal as an int; one with too many digits for int() reads as inf, rejected as not finite."""
    try:
        return int(literal)
    except ValueError:
        return math.inf


def _located(path: Path, text: str, offset: int, message: str) -> ValueError:
    at = json.JSONDecodeError(message, text, offset)
    return ValueError(f"{path}:{at.lineno}:{at.colno}: {message}")


def _value_offset(text: str, where: tuple[str | int, ...]) -> int:
    """Offset in a decoded JSON text of the value named by object keys and array indices.

    Duplicate keys resolve to the last, as json.loads does.
    """
    skip = json.decoder.WHITESPACE.match
    decoder = json.JSONDecoder(parse_int=_parse_int)
    pos = skip(text, 0).end()
    for step in where:
        opener, pos = text[pos], skip(text, pos + 1).end()
        index, found = 0, pos
        while text[pos] not in "]}":
            if opener == "{":
                key, pos = json.decoder.scanstring(text, pos + 1)
                pos = skip(text, skip(text, pos).end() + 1).end()  # past the colon
            else:
                key, index = index, index + 1
            if key == step:
                found = pos
            pos = skip(text, decoder.raw_decode(text, pos)[1]).end()
            if text[pos] == ",":
                pos = skip(text, pos + 1).end()
        pos = found
    return pos


def other_spins(spin: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, N_SPINS + 1) if q != spin)


def line_frequency(spin: int, label: str, params: MoleculeParams) -> float:
    """shift[spin] + sum over partners of +/- J/2: minus for |0>, plus for |1>."""
    others = other_spins(spin)
    if len(label) != len(others) or set(label) - {"0", "1"}:
        raise ValueError(f"bad line label {label!r}")
    freq = params.shifts[spin - 1]
    for ch, j in zip(label, others):
        sign = 1.0 if ch == "1" else -1.0
        freq += sign * params.coupling(spin, j) / 2.0
    return freq


def readout_lines(amps: np.ndarray, spin: int, params: MoleculeParams) -> list[SpectralLine]:
    """The 16 labeled lines of one spin's readout spectrum, for the pure state of one (32,) amplitude row.

    Applies the ideal 90-degree readout rotation on the chosen spin to the
    row, v = R a, and reads the 16 single-quantum coherence elements of
    v v^dagger, each v[row] * conj(v[col]).  All 16 labels are always
    returned; amplitudes below 1e-12 are snapped to zero.
    """
    if not 1 <= spin <= N_SPINS:
        raise ValueError(f"spin index {spin} out of range")
    v = apply_unitary(amps, (spin,), _RY90)
    others = other_spins(spin)
    lines = []
    for config in range(16):
        bits = [(config >> (3 - k)) & 1 for k in range(4)]
        label = "".join(str(b) for b in bits)
        row = sum(b << (N_SPINS - q) for b, q in zip(bits, others))  # spin bit = 0
        col = row | (1 << (N_SPINS - spin))
        amp = complex(v[row] * v[col].conjugate())
        if abs(amp) < AMPLITUDE_SNAP:
            amp = 0j
        lines.append(SpectralLine(spin, label, line_frequency(spin, label, params), amp))
    return lines


def render_spectrum(lines: list[SpectralLine], params: MoleculeParams, grid: FrequencyGrid) -> Spectrum:
    """Superpose one complex Lorentzian per line on a uniform frequency grid.

    Each unit line integrates to 1 in its real part and peaks at
    2/(pi*linewidth): amplitude * (1/pi) / (hwhm - i(f - f_line)).  A grid
    so far from a line that an offset f - f_line overflows raises ValueError
    naming the grid and the line's frequency; a linewidth so narrow that a
    peak overflows raises ValueError naming it.
    """
    freqs = np.linspace(grid.f_min, grid.f_max, grid.points)
    hwhm = params.linewidth_hz / 2.0
    trace = np.zeros(grid.points, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        for line in lines:
            if line.amplitude != 0:
                f = line.frequency_hz  # the offsets from f are monotone in the grid point, so the ends bound them
                if not (math.isfinite(grid.f_min - f) and math.isfinite(grid.f_max - f)):
                    raise ValueError(f"grid {grid.f_min!r},{grid.f_max!r} Hz is too far from the line at {f!r} Hz: "
                                     "the frequency offsets are not finite")
                trace += line.amplitude / np.pi / (hwhm - 1j * (freqs - f))
    if not np.isfinite(trace).all():
        raise ValueError(f"linewidth_hz {params.linewidth_hz!r} is too narrow: the rendered spectrum is not finite")
    return Spectrum(freqs, trace)
