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

The automaton runs on the support word m1 (bit s set when s is in B).
State (x, y) gets the code 2x + y, so 0 is dead.  The seed codes of the
units j < 2n are the bit pairs of (m1, m1 << 1); the child codes over
the residues r < n are those of (m1, m1 << 1) for (1,0), of (m1 >> n,
m1 >> n-1) for (0,1) and of their ORs for (1,1).  Masked tests, a
lowest set bit and a bit_length replace every loop over units or
residues; complements are XORs with the unit mask, as CPython's & runs
2-3.5x slower on a negative operand.  The FULL set lives on 4-bit masks,
bit c for code c: each live state's mask of child codes comes from four
word comparisons, and the fixed point drops a state whose mask meets
the complement of the FULL mask.  A dead child of (1,1) is a dead child
of every state (its x and y are ORs of theirs), so one comparison
answers the common Cantor case.  Goodness comes from the caller when it
has it (``analyze`` reads it off its word report), and every good set
gets one shared FullInterval verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .digitset import DigitSet, InvariantError, _digit_array, sumset_words
from .gdifs import word_good
from . import oracle

# Unused; bench/layers.py wraps it here until it wraps the word path.
from .digitset import sumset_profile  # noqa: F401

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
_LIVE_MASK = sum(1 << state for state in _LIVE)
# Levels of start counts behind a growth-rate estimate of a Cantor sum
_ESTIMATE_DEPTH = 8


class StructureCase(Enum):
    FULL_INTERVAL = "FullInterval"
    CANTOR_SET = "CantorSet"
    MIXED = "Mixed"


class NotApplicableError(ValueError):
    """Raised when an operation does not apply to this structure case."""


def _code_words(x: int, y: int, units: int) -> tuple[int, int, int, int]:
    """Positions of state codes 0..3 (2x + y) among `units`, which hold x, y."""
    both = x & y
    return units ^ (x | y), y ^ both, x ^ both, both


def _child_codes(x: int, y: int, units: int) -> int:
    """Bit c set when state code c (2x + y) occurs among `units`."""
    either = x | y
    return ((either != units) | (either != x) << _Y | (either != y) << _X
            | (x & y != 0) << (_X | _Y))


def _full_states(n: int, m1: int) -> int:
    """The FULL states as a mask, bit s for state code s: the largest set
    of live states whose child codes over the residues r < n all lie in it."""
    low = (1 << n) - 1
    lo_x, lo_y = m1 & low, m1 << 1 & low  # r in B, r-1 in B
    hi_x, hi_y = m1 >> n & low, m1 >> n - 1 & low  # n+r in B, n+r-1 in B
    both_x, both_y = lo_x | hi_x, lo_y | hi_y
    if both_x | both_y != low:  # a dead child of (1,1) is one of every state
        return 0
    children = ((_Y, _child_codes(hi_x, hi_y, low)), (_X, _child_codes(lo_x, lo_y, low)),
                (_X | _Y, _child_codes(both_x, both_y, low)))
    full = _LIVE_MASK
    while full:
        keep = 0
        for state, codes in children:
            if full >> state & 1 and not codes & ~full:
                keep |= 1 << state
        if keep == full:
            break
        full = keep
    return full


def _seeds_and_full(n: int, m1: int, units: int) -> tuple[tuple[int, ...], int]:
    """The seed code words of the level-1 units (the bits of `units`) and
    the FULL states of a non-good set with support word m1, checking that
    some unit is dead."""
    seeds = _code_words(m1, m1 << 1, units)
    if not seeds[_DEAD]:
        raise InvariantError("a support gap >= 3 left every level-1 unit covered")
    return seeds, _full_states(n, m1)


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


# Every good set gets this one verdict (it is frozen, as are its parts).
_FULL_INTERVAL = StructureReport(
    case=StructureCase.FULL_INTERVAL,
    gap_witness=None,
    interval_witness=(Fraction(0), Fraction(2)),
    points_dim_lower_bound=None,
)


def classify_structure(A: DigitSet, m1: int | None = None,
                       good: bool | None = None) -> StructureReport:
    """Decide FullInterval / CantorSet / Mixed for a canonical set from
    the support word m1 of A + A (built when not given) and its
    goodness (read off m1 when not given)."""
    if not A.canonical:
        raise ValueError("structure classification needs a canonical digit set")
    n = A.n
    if m1 is None:
        m1, _ = sumset_words(_digit_array(A))
    if good is None:
        good = word_good(n, m1)
    if good:
        return _FULL_INTERVAL
    units = (1 << 2 * n) - 1
    seeds, full = _seeds_and_full(n, m1, units)
    dead = seeds[_DEAD]
    j = (dead ^ dead - 1).bit_length() - 1
    live = (units ^ dead) >> j  # lowest bit: the first live unit after the run
    gap = (Fraction(j, n), Fraction(j + (live ^ live - 1).bit_length() - 1, n))
    if not full:
        return StructureReport(
            case=StructureCase.CANTOR_SET,
            gap_witness=gap,
            interval_witness=None,
            points_dim_lower_bound=None,
        )
    # each unit holds one code, so the seed words are disjoint: sum is OR
    carried = sum(seeds[state] for state in _LIVE if full >> state & 1)
    if not carried:
        raise InvariantError("no level-1 unit carries a FULL state of a non-good set")
    j = carried.bit_length() - 1
    return StructureReport(
        case=StructureCase.MIXED,
        gap_witness=gap,
        interval_witness=(Fraction(j, n), Fraction(j + 1, n)),
        points_dim_lower_bound=math.log(2) / math.log(n),
        witness_level=1,
    )


@dataclass(frozen=True)
class CantorDimension:
    """Dimension of a Cantor-case sum, exact or estimated from box counts.

    With all support gaps >= 2 the cylinder images meet at most in
    endpoints, the open set condition holds and the dimension is
    exactly log(#support)/log(n).  Otherwise `value` is the local
    growth rate of distinct starts at the deepest level computed and
    `upper` is certified for box dimension (start counts are
    submultiplicative across depths).  `lower` is the minimum of the
    last three growth rates; it is not a bound, and sits above the true
    dimension in almost every measured case.  Only `upper` is a bound.
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


def cantor_sum_dimension(A: DigitSet) -> CantorDimension:
    """Dimension of the sum when it is a Cantor set.

    Exact when every support gap is >= 2, otherwise estimated from the
    start counts of levels 1..8, within the oracle's default budget
    (:class:`~cantorsum.oracle.BudgetExceededError` beyond it).  Raises
    :class:`NotApplicableError` for FullInterval or Mixed sets, decided
    as :func:`classify_structure` decides them, without its witnesses.
    """
    if not A.canonical:
        raise ValueError("structure classification needs a canonical digit set")
    n = A.n
    m1, _ = sumset_words(_digit_array(A))
    case = (StructureCase.FULL_INTERVAL if word_good(n, m1) else
            StructureCase.MIXED if _seeds_and_full(n, m1, (1 << 2 * n) - 1)[1] else
            StructureCase.CANTOR_SET)
    if case is not StructureCase.CANTOR_SET:
        raise NotApplicableError(f"sum is {case.value}, not a Cantor set")
    logn = math.log(n)
    if m1 & m1 >> 1 == 0:  # no two adjacent sums: every support gap >= 2
        value = math.log(m1.bit_count()) / logn
        return CantorDimension(value=value, lower=value, upper=value,
                               exact=True, depth=0)
    counts = oracle.level_start_counts(A, _ESTIMATE_DEPTH)
    per_level = [math.log(c) / (m * logn) for m, c in enumerate(counts, start=1)]
    ratios = [math.log(c / prev) / logn for prev, c in zip(counts, counts[1:])]
    value = ratios[-1]
    return CantorDimension(value=value, lower=min(ratios[-3:]),
                           upper=max(min(per_level), value), exact=False,
                           depth=_ESTIMATE_DEPTH)
