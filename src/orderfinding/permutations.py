"""Permutations on {0,1,2,3}: cycle structure, powers, trajectories and text forms.

Plain Python over ints, with no numpy and no import from the rest of the
package.  `trajectory(pi, y)` lists pi^0(y) .. pi^12(y), every power of pi
that can act on y.  `order_of`, the classical certificates and the oracle
stages of `circuits` read it; `power` builds a whole permutation and is
kept for the native-sequence check and as the reference.
`permutation_names()` formats the cycle notation of the 24 permutations
once per process, for the classical reports and the sweep table.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache

N_ELEMENTS = 4
MAX_EXPONENT = 12  # every permutation order divides lcm(1,2,3,4) = 12


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0,1,2,3} as a tuple of ints (not bools); images[y] is the image of y."""

    images: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        if not all(type(v) is int for v in images) or sorted(images) != list(range(N_ELEMENTS)):
            raise ValueError(f"not a bijection on 0..3: {images}")
        object.__setattr__(self, "images", images)

    def __call__(self, y: int) -> int:
        return self.images[y]


IDENTITY = Permutation((0, 1, 2, 3))
# All 24 permutations of {0,1,2,3} in lexicographic image order, built once.
ALL_PERMUTATIONS = tuple(Permutation(images) for images in itertools.permutations(range(N_ELEMENTS)))


def _check_start(y: int) -> None:
    """Reject a start element that is not an int (bools too) in 0..3."""
    if type(y) is not int or not 0 <= y < N_ELEMENTS:
        raise ValueError(f"start element {y!r} is not an int in 0..3")


@dataclass(frozen=True)
class OracleSpec:
    """One problem instance: the permutation and the starting element y, an int (not a bool)."""

    pi: Permutation
    y: int

    def __post_init__(self) -> None:
        _check_start(self.y)


def power(pi: Permutation, k: int) -> Permutation:
    """pi^k for an int (not a bool) k >= 0."""
    if type(k) is not int or k < 0:
        raise ValueError(f"exponent {k!r} is not a nonnegative int")
    images = IDENTITY.images
    for _ in range(k):
        images = tuple(pi.images[v] for v in images)  # pi after the power so far
    return Permutation(images)


def trajectory(pi: Permutation, y: int) -> tuple[int, ...]:
    """(pi^0(y), pi^1(y), ..., pi^12(y)): every power of pi applied to the start element y."""
    _check_start(y)
    images = pi.images
    cycle = [y]
    z = images[y]
    while z != y:
        cycle.append(z)
        z = images[z]
    return tuple(cycle * (MAX_EXPONENT // len(cycle))) + (y,)  # the cycle length divides MAX_EXPONENT


def order_of(pi: Permutation, y: int) -> int:
    """Smallest r >= 1 with pi^r(y) = y (the cycle length of y); y is an int in 0..3."""
    return trajectory(pi, y).index(y, 1)


# Text format: cycle notation like "(0 1 2 3)", "(0 1)(2 3)", "()" for the
# identity; an image list "1,0,3,2" is also accepted.

def format_cycles(pi: Permutation) -> str:
    seen = [False] * N_ELEMENTS
    cycles = []
    for start in range(N_ELEMENTS):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        z = pi(start)
        while z != start:
            cycle.append(z)
            seen[z] = True
            z = pi(z)
        if len(cycle) > 1:
            cycles.append(cycle)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


@cache
def permutation_names() -> tuple[str, ...]:
    """The cycle notation of each permutation, in ALL_PERMUTATIONS order, formatted once per process."""
    return tuple(format_cycles(pi) for pi in ALL_PERMUTATIONS)


def parse_permutation(text: str) -> Permutation:
    """Parse cycle notation or a comma-separated image list."""
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != N_ELEMENTS or not all(p.isdecimal() for p in parts):  # int() rejects the '²' isdigit passes
            raise ValueError(f"bad image list: {text!r}")
        return Permutation(tuple(int(p) for p in parts))
    if text == "()":
        return IDENTITY
    if not re.fullmatch(r"(\(\s*\d(\s+\d)*\s*\))+", text):
        raise ValueError(f"bad cycle notation: {text!r}")
    images = list(range(N_ELEMENTS))
    for group in re.findall(r"\(([^()]*)\)", text):
        cycle = [int(tok) for tok in group.split()]
        if any(not 0 <= v < N_ELEMENTS for v in cycle):
            raise ValueError(f"element out of range in {text!r}")
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated element in cycle {group!r}")
        for i, v in enumerate(cycle):
            if images[v] != v:
                raise ValueError(f"element {v} appears in two cycles in {text!r}")
            images[v] = cycle[(i + 1) % len(cycle)]
    return Permutation(tuple(images))
