"""Seeded invocation streams for the four workloads.

Every call carries the exit status it must produce, fixed when the call is
generated and never read back from a run, and a check of the exact values
in its reports.  The expectations come from small references kept here:
permutation orbits, the analytic outcome distributions, and an exact
evaluator of native pulse sequences.  None of them imports the program.

Streams are cut into blocks.  A block holds a fixed mix of calls (grid
sizes, subcommands, malformed kinds), shuffled by the seed.  A run's plan is
the first PLAN_BLOCKS blocks of its stream, and its calls are the run's
operations: a timed pass repeats whole blocks of the plan, so the work
measured differs between seeds only in the order of calls and the drawn
instances, and the operations attempted, and which of them fail, do not
depend on how many blocks fit in the time.
"""
from __future__ import annotations

import csv
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

WORKLOADS = ("sweep", "instances", "certify", "verify")

# Blocks in a run's plan.  `instances` draws its malformed kinds in shuffled
# rounds of five, one per block, so its plan holds each kind once.
PLAN_BLOCKS = {"sweep": 3, "instances": 5, "certify": 1, "verify": 3}

# Readout oracle listings of the paper for orders 1, 2 and 4, in
# operator-product form (rightmost token acts first).  The order-3 listing
# implements no order-3 instance, so it is not used as a valid input.
LISTINGS = {
    1: "P54 C35 P54' C35 P34",
    2: "C35",
    4: "C24 P34 P54 C35 P54",
}

GRID_LADDER = tuple(round(4001 + 36000 * k / 7) for k in range(8))  # 4001 .. 40001 points
SWEEP_TOL = 1e-10
GUESS_VALUE = Fraction(60, 109)

Check = Callable[[Path, str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation with the outcome it must produce."""

    command: str                 # subcommand name, e.g. "verify-sequence"
    argv: tuple[str, ...]
    expect: int                  # exit status fixed in advance
    check: Check | None = None   # checks reports and stdout; returns a failure reason
    malformed: str | None = None  # kind of bad input this call feeds, if any


# --- references -----------------------------------------------------------

PERMS = tuple(itertools.permutations(range(4)))


def orbit(images: tuple[int, ...], y: int, x: int) -> int:
    for _ in range(x):
        y = images[y]
    return y


def order(images: tuple[int, ...], y: int) -> int:
    r, z = 1, images[y]
    while z != y:
        r, z = r + 1, images[z]
    return r


def cycle_text(images: tuple[int, ...]) -> str:
    seen, out = set(), []
    for start in range(4):
        if start in seen or images[start] == start:
            continue
        cycle, z = [], start
        while z not in seen:
            seen.add(z)
            cycle.append(str(z))
            z = images[z]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def listing_implements(listing: str, images: tuple[int, ...], y: int) -> bool:
    """Whether a readout listing maps |x>|y> to one common phase times |x>|pi^x(y)> for all x.

    Native gates permute basis states and multiply them by powers of i, so
    the evaluation is exact: each basis index is followed through the
    tokens, with its phase counted in quarter turns.
    """
    def bit(spin: int) -> int:
        return 1 << (5 - spin)

    phases = set()
    for x in range(8):
        b, quarter_turns = 4 * x + y, 0
        for tok in reversed(listing.split()):
            i = int(tok[1])
            if tok[0] == "N":
                b ^= bit(i)
            elif tok[0] == "C":
                if b & bit(i):
                    b ^= bit(int(tok[2]))
            elif b & bit(i) and b & bit(int(tok[2])):
                quarter_turns += -1 if tok.endswith("'") else 1
        if b >> 2 != x or b & 3 != orbit(images, y, x):
            return False
        phases.add(quarter_turns % 4)
    return len(phases) == 1


def analytic_distribution(r: int) -> np.ndarray:
    p = np.zeros(8)
    for a in range(r):
        xs = np.arange(a, 8, r)
        for m in range(8):
            p[m] += abs(np.exp(2j * np.pi * m * xs / 8).sum()) ** 2
    return p / 64.0


DISTS = [analytic_distribution(r) for r in (1, 2, 3, 4)]
BY_ORDER = {r: [(p, y) for p in PERMS for y in range(4) if order(p, y) == r] for r in (1, 2, 3, 4)}
SWEEP_ORDERS = sorted(order(p, y) for p in PERMS for y in range(4))
PASSING = {r: [(p, y) for p in PERMS for y in range(4) if listing_implements(LISTINGS[r], p, y)]
           for r in LISTINGS}


# --- checks ---------------------------------------------------------------

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_run(r_true: int, points: int) -> Check:
    def check(out: Path, stdout: str) -> str | None:
        report = _read_json(out / "report.json")
        if not report["r_inferred"] == report["r_true"] == r_true:
            return f"orders {report['r_inferred']}/{report['r_true']}, expected {r_true}"
        values = np.array(
            (out / "spectrum_spin1.csv").read_text().replace("\n", ",").split(",")[3:-1],
            dtype=float)
        if values.size != 3 * points:
            return f"spectrum has {values.size // 3} rows, expected {points}"
        if not np.all(np.isfinite(values)):
            return "spectrum has non-finite values"
        return None
    return check


def _check_sweep(out: Path, stdout: str) -> str | None:
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 96:
        return f"{len(rows)} sweep rows"
    worst = max(float(row["dist_error"]) for row in rows)
    if not worst <= SWEEP_TOL:
        return f"worst distribution error {worst}"
    if sorted(int(row["r"]) for row in rows) != SWEEP_ORDERS:
        return "sweep orders differ from the permutation orbits"
    return None


def _check_guess_table(out: Path, stdout: str) -> str | None:
    report = _read_json(out / "guess_report.json")
    if report["value_exact"] != str(GUESS_VALUE):
        return f"guess value {report['value_exact']}"
    prior = [Fraction(p) for p in report["hardest_prior"]]
    if len(prior) != 4 or min(prior) < 0 or sum(prior) != 1:
        return f"hardest prior {report['hardest_prior']} is not a distribution"
    # No guess strategy beats the value against the hardest prior.
    best = sum(max(float(prior[k]) * DISTS[k][m] for k in range(4)) for m in range(8))
    if abs(best - float(GUESS_VALUE)) > 1e-12:
        return f"best response to the hardest prior is {best}"
    return None


def _check_classical(out: Path, stdout: str) -> str | None:
    report = _read_json(out / "classical_report.json")
    half = "1/2"
    values = [report["one_query_value"], report["one_query_prior_best_response"],
              report["paper_witness_value"], *report["one_query_value_per_y"]]
    if any(v != half for v in values) or len(values) != 7:
        return f"one-query values {values}"
    if report["two_query_certain"] is not True:
        return "two queries not certain"
    return None


def _check_prep_verify(out: Path, stdout: str) -> str | None:
    report = _read_json(out / "prep_report.json")
    if report["total_terms"] != 45 or report["is_effective_pure"] is not True:
        return f"prep terms {report['total_terms']}, effective pure {report['is_effective_pure']}"
    if report["dense_conjugation_agrees"] is not True:
        return "dense conjugation disagrees"
    return None


def _check_stdout(word: str) -> Check:
    def check(out: Path, stdout: str) -> str | None:
        return None if word in stdout else f"stdout lacks {word}"
    return check


# --- streams --------------------------------------------------------------

BAD_PERMS = ("(0 1 4)", "1,1,2,3", "(0 1", "0,1,2", "(0 0 1)", "(0 1)(1 2)")
BAD_TOKENS = ("C24 X99", "C66", "N12", "P3", "C2", "N3'", "C35 C3")
BAD_GRIDS = ("-60,60", "-60,60,1", "60,-60,100", "-60,60,abc", "nan,60,100")


class Stream:
    """The seeded call stream of one workload.  `tmp` receives molecule files and reports."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = tmp
        self.molecules, self.bad_molecules = self._write_molecules() if workload == "instances" else ([], {})
        self._malformed: list[str] = []

    def out(self, command: str) -> str:
        return str(self.tmp / "out" / command)

    def blocks(self) -> Iterator[list[Call]]:
        make = {
            "sweep": self._sweep_block,
            "instances": self._instances_block,
            "certify": self._certify_block,
            "verify": self._verify_block,
        }[self.workload]
        while True:
            block = make()
            self.rng.shuffle(block)
            yield block

    def _perm_text(self, images: tuple[int, ...]) -> str:
        if self.rng.random() < 0.5:
            return ",".join(map(str, images))
        return cycle_text(images)

    def _next_malformed(self, kinds: tuple[str, ...]) -> str:
        if not self._malformed:
            self._malformed = list(kinds)
            self.rng.shuffle(self._malformed)
        return self._malformed.pop()

    def _write_molecules(self) -> tuple[list[str], dict[str, str]]:
        """Four seeded molecule configs, and one config per malformed-molecule kind."""
        files = []
        for k in range(4):
            shifts = [0.0] + [self.rng.uniform(-25000.0, 25000.0) for _ in range(4)]
            j = [[0.0] * 5 for _ in range(5)]
            for a, b in itertools.combinations(range(5), 2):
                j[a][b] = j[b][a] = round(self.rng.uniform(-80.0, 80.0), 3)
            config = {"shifts": shifts, "J": j, "linewidth_hz": self.rng.uniform(0.5, 2.0),
                      "reference_spin": 1}
            files.append(self._write(f"molecule_{k}.json", json.dumps(config)))
        dropped = self.rng.choice(("shifts", "J", "linewidth_hz"))
        bad = {
            "molecule_not_object": self._write("not_object.json", "5"),
            "molecule_nan_shift": self._write(
                "nan_shift.json", json.dumps({**config, "shifts": [0.0, float("nan")] + shifts[2:]})),
            "molecule_missing_key": self._write(
                "missing_key.json", json.dumps({k: v for k, v in config.items() if k != dropped})),
        }
        return files, bad

    def _write(self, name: str, text: str) -> str:
        path = self.tmp / name
        path.write_text(text)
        return str(path)

    def _sweep_block(self) -> list[Call]:
        return [Call("sweep", ("sweep", "--out", self.out("sweep")), 0, _check_sweep)]

    def _valid_run(self, r: int, points: int, molecule: str | None) -> Call:
        images, y = self.rng.choice(BY_ORDER[r])
        argv = ["run", "--perm", self._perm_text(images), "--y", str(y), "--out", self.out("run"),
                f"--grid=-60,60,{points}"]
        if molecule:
            argv += ["--molecule", molecule]
        return Call("run", tuple(argv), 0, _check_run(order(images, y), points))

    def _instances_block(self) -> list[Call]:
        """Eight valid runs and one malformed run.

        The valid runs cover the grid ladder, draw two instances of each order
        (the order sets how many readout lines the spectrum renders and
        writes), and use a seeded molecule in four cases.
        """
        orders = [1, 1, 2, 2, 3, 3, 4, 4]
        self.rng.shuffle(orders)
        with_molecule = set(self.rng.sample(range(len(GRID_LADDER)), 4))
        block = [self._valid_run(r, points, self.rng.choice(self.molecules) if k in with_molecule else None)
                 for k, (r, points) in enumerate(zip(orders, GRID_LADDER))]
        kind = self._next_malformed(("perm_text", "grid", *sorted(self.bad_molecules)))
        argv = ["run", "--perm", "(0 1 2 3)", "--y", "0", "--out", self.out("malformed")]
        if kind == "perm_text":
            argv[2] = self.rng.choice(BAD_PERMS)
        elif kind == "grid":
            argv.append(f"--grid={self.rng.choice(BAD_GRIDS)}")
        else:
            argv += ["--molecule", self.bad_molecules[kind]]
        block.append(Call("run", tuple(argv), 2, None, kind))
        return block

    def _certify_block(self) -> list[Call]:
        """One classical call and eight guess-table calls."""
        return [Call("classical", ("classical", "--out", self.out("classical")), 0, _check_classical)] + [
            Call("guess-table", ("guess-table", "--out", self.out("guess-table")), 0, _check_guess_table)
            for _ in range(8)
        ]

    def _verify_sequence(self, r: int) -> Call:
        if self.rng.random() < 0.5:
            images, y = self.rng.choice(PASSING[r])
        else:
            images, y = self.rng.choice(PERMS), self.rng.randrange(4)
        ok = listing_implements(LISTINGS[r], images, y)
        argv = ("verify-sequence", "--seq", LISTINGS[r], "--perm", self._perm_text(images), "--y", str(y))
        return Call("verify-sequence", argv, 0 if ok else 1, _check_stdout("PASS" if ok else "FAIL"))

    def _verify_block(self) -> list[Call]:
        """Twelve listing checks, three prep-verify, three qft-check and two malformed calls."""
        block = [self._verify_sequence(r) for r in LISTINGS for _ in range(4)]
        block += [Call("prep-verify", ("prep-verify", "--out", self.out("prep-verify")), 0, _check_prep_verify)
                  for _ in range(3)]
        block += [Call("qft-check", ("qft-check",), 0, _check_stdout("PASS")) for _ in range(3)]
        images, y = self.rng.choice(PERMS), self.rng.randrange(4)
        block.append(Call("verify-sequence",
                          ("verify-sequence", "--seq", LISTINGS[2], "--perm", self.rng.choice(BAD_PERMS),
                           "--y", str(y)), 2, None, "perm_text"))
        block.append(Call("verify-sequence",
                          ("verify-sequence", "--seq", self.rng.choice(BAD_TOKENS),
                           "--perm", self._perm_text(images), "--y", str(y)), 2, None, "sequence_token"))
        return block
