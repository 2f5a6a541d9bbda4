"""Which of three shapes the sum of the Cantor set with itself takes.

For canonical digit sets the sum is always one of

  FullInterval  the whole of [0, 2] (equivalent to goodness),
  CantorSet     totally disconnected,
  Mixed         infinitely many maximal intervals interleaved with
                infinitely many maximal gaps, plus a residual point set
                of dimension at least log(2)/log(n).

Whether any interval survives is decided by a tiny automaton.  A unit
interval [j, j+1] (units of n^-m) is covered exactly when j or j-1 is a
cylinder start, so its covering state is the pair

    x = [j is a start],   y = [j-1 is a start].

A child unit j' = n*j + r can only inherit starts from j or j-1: a
start of [j, j+1]'s subtree at the next level is n*S + b with b in the
sumset support, which forces S in {j, j-1}.  Hence

    x' = (x and r in B) or (y and n+r in B)
    y' = (x and r-1 in B) or (y and n+r-1 in B)

with out-of-range memberships false.  Transitions depend only on the
state, so the whole question lives on the three surviving states
(1,0), (0,1), (1,1).  A state is FULL when every child survives and is
itself FULL -- a greatest fixed point reached in at most three sweeps.
The sum contains an interval iff a FULL state is reachable from the
level-1 seeding.  For a non-good set that holds exactly when the FULL
set is non-empty, as a level-1 unit then carries a FULL state; the
rightmost such unit is the interval witness:

  Units 0 and 2n-1 always seed (1,0) and (0,1), so a FULL set no
  level-1 unit carries can only be {(1,1)}.  Then every child of (1,1)
  is (1,1): each residue r < n has r or n+r in B, and n-1 is in B.
  No level-1 unit is (1,1), so no two elements of B are adjacent.  The
  residues r with r in B and those with n+r in B then cover [0, n)
  together, neither holds two neighbours, and no r < n-1 is in both
  (r+1 would be in neither), so they alternate from 0 in B.  That
  makes B every even number up to 2n-2: a good set, answered before
  the automaton is built.

The automaton is built as arrays.  State (x, y) gets the code 2x + y,
so 0 is dead.  Four shifted slices of an int8 support indicator give,
for each live state, the child code of every residue r < n, and the
level-1 seed code of every unit.  The fixed point reads only which
child codes occur, and the dead-run gap witness and the interval
witness only the first or last unit of a seed code, so Python loops
over the three states, never over residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .digitset import DigitSet, InvariantError, sumset_profile
from . import oracle

__all__ = [
    "StructureCase",
    "StructureReport",
    "classify_structure",
    "cantor_sum_dimension",
    "CantorDimension",
    "NotApplicableError",
]

# State codes 2x + y.
_DEAD, _Y, _X = 0, 1, 2
_LIVE = (_Y, _X, _X | _Y)


class StructureCase(Enum):
    FULL_INTERVAL = "FullInterval"
    CANTOR_SET = "CantorSet"
    MIXED = "Mixed"


class NotApplicableError(ValueError):
    """Raised when an operation does not apply to this structure case."""


def _last_by_code(codes: np.ndarray) -> dict[int, int]:
    """{code: last index holding it} for the state codes that occur."""
    out = {}
    for code in range(4):
        hit = np.flatnonzero(codes == code)
        if len(hit):
            out[code] = int(hit[-1])
    return out


def _automaton(support: np.ndarray, n: int):
    """Level-1 seed codes by unit j = 0..2n-1, and per live state the
    set of child codes over the residues r < n."""
    # p[s + 1] = [s in B] for s = -1..2n-1
    p = np.zeros(2 * n + 1, dtype=np.int8)
    p[support + 1] = 1
    seeds = 2 * p[1:] + p[:-1]
    low = 2 * p[1 : n + 1] + p[:n]            # x: r in B, r-1 in B
    high = 2 * p[n + 1 :] + p[n : 2 * n]      # y: n+r in B, n+r-1 in B
    children = {
        state: set(np.flatnonzero(np.bincount(codes, minlength=4)).tolist())
        for state, codes in ((_X, low), (_Y, high), (_X | _Y, low | high))
    }
    return seeds, children


def _full_states(children) -> set[int]:
    full = set(_LIVE)
    while True:
        keep = {s for s in full if children[s] <= full}
        if keep == full:
            return full
        full = keep


def _first_dead_run(seeds):
    """Leftmost maximal run of uncovered level-1 units, or None."""
    dead = np.flatnonzero(seeds == _DEAD)
    if not len(dead):
        return None
    j = int(dead[0])
    live = np.flatnonzero(seeds[j:])
    return j, (j + int(live[0]) - 1 if len(live) else len(seeds) - 1)


@dataclass(frozen=True)
class StructureReport:
    """Trichotomy verdict with exact rational witnesses.

    Gap witnesses are open intervals disjoint from the sum; interval
    witnesses are closed intervals contained in it.  `witness_level` is
    the level m of the interval witness, a unit of width n^-m: always 1
    for Mixed (see the module docstring), None otherwise.
    """

    case: StructureCase
    gap_witness: tuple[Fraction, Fraction] | None
    interval_witness: tuple[Fraction, Fraction] | None
    points_dim_lower_bound: float | None
    witness_level: int | None = None

    def to_json_dict(self) -> dict:
        def frac(x: Fraction):
            return {"num": x.numerator, "den": x.denominator}

        def interval(iv):
            return None if iv is None else {"lo": frac(iv[0]), "hi": frac(iv[1])}

        return {
            "case": self.case.value,
            "gap_witness": interval(self.gap_witness),
            "interval_witness": interval(self.interval_witness),
            "points_dim_lower_bound": self.points_dim_lower_bound,
            "witness_level": self.witness_level,
        }


def classify_structure(A: DigitSet, profile=None) -> StructureReport:
    """Decide FullInterval / CantorSet / Mixed for a canonical set."""
    if not A.canonical:
        raise ValueError("structure classification needs a canonical digit set")
    if profile is None:
        profile = sumset_profile(A)
    if profile.good:
        return StructureReport(
            case=StructureCase.FULL_INTERVAL,
            gap_witness=None,
            interval_witness=(Fraction(0), Fraction(2)),
            points_dim_lower_bound=None,
        )
    n = A.n
    seeds, children = _automaton(profile.support, n)
    dead = _first_dead_run(seeds)
    if dead is None:
        raise InvariantError("a support gap >= 3 left every level-1 unit covered")
    gap = (Fraction(dead[0], n), Fraction(dead[1] + 1, n))
    full = _full_states(children)
    if not full:
        return StructureReport(
            case=StructureCase.CANTOR_SET,
            gap_witness=gap,
            interval_witness=None,
            points_dim_lower_bound=None,
        )
    last = _last_by_code(seeds)
    carried = [last[s] for s in full if s in last]
    if not carried:
        raise InvariantError("no level-1 unit carries a FULL state of a non-good set")
    j = max(carried)
    return StructureReport(
        case=StructureCase.MIXED,
        gap_witness=gap,
        interval_witness=(Fraction(j, n), Fraction(j + 1, n)),
        points_dim_lower_bound=math.log(2) / math.log(n),
        witness_level=1,
    )


@dataclass(frozen=True)
class CantorDimension:
    """Dimension of a Cantor-case sum, exact or box-count bracketed.

    With all support gaps >= 2 the cylinder images meet at most in
    endpoints, the open set condition holds and the dimension is
    exactly log(#support)/log(n).  Otherwise `value` is the local
    growth rate of distinct starts at the deepest level computed,
    `upper` is certified for box dimension (start counts are
    submultiplicative across depths), and `lower` is the empirical
    floor of recent growth rates.
    """

    value: float
    lower: float
    upper: float
    exact: bool
    depth: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __float__(self) -> float:
        return self.value


def cantor_sum_dimension(A: DigitSet, depth: int = 8,
                         budget: int | None = None) -> CantorDimension:
    """Dimension of the sum when it is a Cantor set.

    Raises :class:`NotApplicableError` for FullInterval or Mixed sets.
    """
    profile = sumset_profile(A)
    report = classify_structure(A, profile=profile)
    if report.case is not StructureCase.CANTOR_SET:
        raise NotApplicableError(f"sum is {report.case.value}, not a Cantor set")
    logn = math.log(A.n)
    if bool(np.all(profile.gaps >= 2)):
        value = math.log(len(profile.support)) / logn
        return CantorDimension(value=value, lower=value, upper=value,
                               exact=True, depth=0)
    if depth < 2:
        raise ValueError("a growth-rate bracket needs depth >= 2")
    counts = oracle.level_start_counts(A, depth, budget)
    per_level = [math.log(c) / (m * logn) for m, c in enumerate(counts, start=1)]
    ratios = [
        math.log(counts[i] / counts[i - 1]) / logn for i in range(1, len(counts))
    ]
    upper = min(per_level)
    tail = ratios[-3:] if len(ratios) >= 3 else ratios
    value = ratios[-1]
    lower = min(tail + [value])
    return CantorDimension(value=value, lower=lower, upper=max(upper, value),
                           exact=False, depth=depth)
