"""Depth-bounded brute force over cylinder structure.

Everything here is exact integer geometry; no floating point.  At
depth m the sumset IFS places one cylinder of width w units over each
*start*

    S = b_1 n^{m-1} + b_2 n^{m-2} + ... + b_m,   b_i in the sumset,

where a unit is n^(-m) and w = ceil(max_sum / (n-1)) (w = 2 for
canonical sets).  The depth-m outer cover E_m is the union of the
cylinders [S, S+w]; it shrinks onto the attractor as m grows.  The
oracle answers three kinds of questions, each an independent check on
the closed-form machinery:

* components of E_m (is [0,2] covered? where are the gaps?),
* counts of uniquely covered unit intervals (level-m L/R typing),
* growth of those counts against the adjacency-matrix prediction.

Start sets are kept as runs of consecutive integers, so dense covers
cost almost nothing no matter the depth; :func:`level_set` and
:func:`level_start_counts` share one loop.  Depth k+1 is built from
depth k by the *leading* digit,

    S_{k+1} = union over b in the sumset of (b n^k + S_k),

which is exact because a depth-(k+1) start is b_1 n^k plus a depth-k
start b_2 n^{k-1} + ... + b_{k+1}.  A translate of a run is a run, so
each level is |B| translates of the current runs merged once; no start
is ever visited on its own.  Multiplicities (number of digit words
producing a start, weighted by ordered-pair counts) are only needed
saturated at 2 -- unique / not unique is all the typing rules consume
-- and live in a flat uint8 array indexed by start.  Depth 1 is typed
off the int32 pair counts themselves: 4 bytes per start slot, 6 at the
peak with the two bool masks of the typing (counting by FFT briefly
holds more, about 18).  Each deeper level is one uint8 array built from
the level before and its double (each 1/n of its size): about 3 bytes
per slot at the peak, the same masks included.

Both engines, the runs and the dense typing array, take the depth rule
(m >= 1), the start-range bound and its 64-bit limit from
:func:`_start_range`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .digitset import DigitSet, _digit_array, pair_sum_counts, sumset_profile
from .gdifs import classify_intervals, matrix_dimension

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "LevelSet",
    "level_set",
    "level_start_counts",
    "level_typing_counts",
    "typing_count_evolution",
    "growth_check",
    "GrowthReport",
    "is_refinement",
]

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Requested depth needs more starts/words than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"depth requires ~{required} aggregated starts, budget is {budget}; "
            f"reduce the depth or raise the budget"
        )
        self.required = required
        self.budget = budget


def _budget(budget: int | None) -> int:
    return DEFAULT_BUDGET if budget is None else int(budget)


@dataclass(frozen=True)
class LevelSet:
    """Exact depth-m cover: start runs and merged components.

    Runs are inclusive integer intervals of starts; components are
    inclusive unit intervals [lo, hi] standing for [lo/n^m, hi/n^m].
    """

    n: int
    m: int
    width: int
    run_lo: np.ndarray = field(repr=False)
    run_hi: np.ndarray = field(repr=False)
    components: tuple[tuple[int, int], ...]

    @property
    def n_starts(self) -> int:
        return int(np.sum(self.run_hi - self.run_lo + 1))

    @property
    def denominator(self) -> int:
        return self.n**self.m

    def component_fractions(self) -> list[tuple[Fraction, Fraction]]:
        den = self.denominator
        return [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in self.components]

    def covers_interval(self, lo: Fraction, hi: Fraction) -> bool:
        den = self.denominator
        return any(
            Fraction(c0, den) <= lo and hi <= Fraction(c1, den)
            for c0, c1 in self.components
        )

    def misses_open_interval(self, lo: Fraction, hi: Fraction) -> bool:
        """True when the open interval (lo, hi) avoids the cover."""
        den = self.denominator
        for c0, c1 in self.components:
            if Fraction(c1, den) <= lo or hi <= Fraction(c0, den):
                continue
            # component overlaps (lo, hi) in more than endpoints?
            if max(lo, Fraction(c0, den)) < min(hi, Fraction(c1, den)):
                return False
        return True

    def csv_rows(self) -> list[tuple[int, int, int, int]]:
        den = self.denominator
        return [(self.m, lo, hi, den) for lo, hi in self.components]


def _merge_runs(lo: np.ndarray, hi: np.ndarray, link: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge inclusive integer intervals; neighbors within `link` join.

    link=1 merges adjacent integer runs ([0,2],[3,5] -> [0,5]);
    link=0 merges only overlapping/touching closed intervals.
    """
    if len(lo) == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    cm = np.maximum.accumulate(hi, out=hi)  # hi is a fresh gather
    new = np.empty(len(lo), dtype=bool)
    new[0] = True
    new[1:] = lo[1:] > cm[:-1] + link
    idx = np.flatnonzero(new)
    out_lo = lo[idx]
    out_hi = np.empty(len(idx), dtype=np.int64)
    out_hi[:-1] = cm[idx[1:] - 1]
    out_hi[-1] = cm[-1]
    return out_lo, out_hi


def _start_range(n: int, max_sum: int, m: int) -> int:
    """The depth and range rule of both engines: depth m must be >= 1,
    and every depth-m start lies below the returned bound (the largest
    is max_sum * (n^m - 1) / (n - 1)), which must stay below 2^62."""
    if m < 1:
        raise ValueError("depth must be >= 1")
    bound = max_sum * (n**m - 1) // (n - 1) + 2
    if bound >= 1 << 62:
        # starts are kept in 64-bit arrays
        raise ValueError(f"depth {m} places starts beyond the 64-bit range")
    return bound


def _start_runs(A: DigitSet, m: int, budget: int | None):
    """Yield the start runs (run_lo, run_hi) at depths 1..m, checking
    feasibility and the budget once, up front: each depth-k run holds a
    start, and for k <= m the depth-k starts are at most
    min(|B|^m, start-range bound at m), the `required` checked here."""
    budget = _budget(budget)
    range_bound = _start_range(A.n, 2 * A.digits[-1], m)  # max sum: no profile yet
    support = sumset_profile(A).support.astype(np.int64)
    required = min(len(support) ** m, range_bound)
    if required > budget:
        raise BudgetExceededError(required, budget)
    run_lo, run_hi = _merge_runs(support, support, link=1)
    yield run_lo, run_hi
    for k in range(1, m):
        # every offset and start stays below range_bound < 2^62
        offsets = support[:, None] * A.n**k
        run_lo, run_hi = _merge_runs((offsets + run_lo).ravel(),
                                     (offsets + run_hi).ravel(), link=1)
        yield run_lo, run_hi


def level_set(A: DigitSet, m: int, budget: int | None = None) -> LevelSet:
    """Exact components of the depth-m cover E_m.

    Accepts canonical and general digit sets.  Raises
    :class:`BudgetExceededError` when both the word count |B|^m and the
    start-range bound exceed the budget (default 10^7).  Every level
    then has at most that many runs, so one level merges at most
    |B| x budget translated runs.
    """
    levels = _start_runs(A, m, budget)
    run_lo, run_hi = next(levels)
    # the level-1 runs are those of the support, so they end at its max
    width = -(-int(run_hi[-1]) // (A.n - 1))
    for run_lo, run_hi in levels:  # advance to depth m
        pass
    comp_lo, comp_hi = _merge_runs(run_lo, run_hi + width, link=0)
    components = tuple((int(a), int(b)) for a, b in zip(comp_lo, comp_hi))
    return LevelSet(A.n, m, width, run_lo, run_hi, components)


def level_start_counts(A: DigitSet, m: int, budget: int | None = None) -> list[int]:
    """Number of distinct starts at each depth 1..m (box counting)."""
    return [int(np.sum(hi - lo + 1)) for lo, hi in _start_runs(A, m, budget)]


def is_refinement(fine: LevelSet, coarse: LevelSet) -> bool:
    """E_fine contained in E_coarse (after rescaling units)."""
    if fine.n != coarse.n or fine.m < coarse.m:
        raise ValueError("need same base and fine.m >= coarse.m")
    f = fine.n ** (fine.m - coarse.m)
    scaled = [(lo * f, hi * f) for lo, hi in coarse.components]
    i = 0
    for lo, hi in fine.components:
        while i < len(scaled) and scaled[i][1] < hi:
            i += 1
        if i == len(scaled) or not (scaled[i][0] <= lo and hi <= scaled[i][1]):
            return False
    return True


# --- multiplicity-aware path (typing counts) --------------------------


def typing_count_evolution(A: DigitSet, m_max: int, budget: int | None = None):
    """Yield (L_m, R_m) for m = 1..m_max.

    L_m counts unit intervals at resolution n^-m covered by exactly one
    cylinder left half and no right half; R_m symmetrically.  A start's
    multiplicity is the sum over digit words producing it of the
    product of ordered-pair counts, saturated at 2 (the typing rules
    only distinguish 0 / 1 / many).
    """
    if not A.canonical:
        raise ValueError("level typing is defined for canonical digit sets only")
    n = A.n
    max_sum = 2 * n - 2
    budget = _budget(budget)
    required = _start_range(n, max_sum, m_max)
    if required > budget:
        raise BudgetExceededError(required, budget)
    # depth 1 is typed off the int32 pair counts themselves
    dense = pair_sum_counts(_digit_array(A))
    if m_max > 1:
        dense = np.minimum(dense, 2).astype(np.uint8)
        sums = np.flatnonzero(dense)
        support = list(zip(sums.tolist(), (dense[sums] == 2).tolist()))  # (b, two pairs)
    for m in range(1, m_max + 1):
        if m > 1:
            # slot t = n j + b adds dense[j] times the pairs summing to b,
            # saturated at 2, from b = t mod n and b = t mod n + n only:
            # each term is at most 2 * 2, so no slot exceeds 8 before
            # saturation and uint8 cannot overflow.  The doubled level
            # is 1/n the size of the next; one strided add per b.
            nxt = np.zeros(_start_range(n, max_sum, m) - 1, dtype=np.uint8)
            span = n * len(dense)
            doubled = dense + dense
            for b, two in support:
                nxt[b : b + span : n] += doubled if two else dense
            del doubled
            np.minimum(nxt, 2, out=nxt)
            dense = nxt
        # L: a 1 after a 0, R: a 1 before a 0; slots past both ends are 0.
        # Each pair test is written over the zero mask, rebuilt between
        # them, so the typing holds two bool masks and no third.
        one, zero = dense == 1, dense == 0
        after = np.logical_and(one[1:], zero[:-1], out=zero[:-1])
        L = int(one[0]) + int(np.count_nonzero(after))
        np.equal(dense, 0, out=zero)
        before = np.logical_and(one[:-1], zero[1:], out=zero[1:])
        R = int(np.count_nonzero(before)) + int(one[-1])
        yield L, R


def level_typing_counts(A: DigitSet, m: int, budget: int | None = None) -> tuple[int, int]:
    """(L_m, R_m) at a single depth."""
    *_, last = typing_count_evolution(A, m, budget)
    return last


@dataclass(frozen=True)
class GrowthReport:
    """Observed vs. predicted unique-interval counts by depth."""

    n: int
    matrix: tuple[tuple[int, int], tuple[int, int]]
    counts: tuple[tuple[int, int], ...]
    predicted: tuple[tuple[int, int], ...]
    matches_transpose: bool
    matches_direct: bool
    dim: float
    dim_estimates: tuple[float, ...]

    @property
    def orientation(self) -> str:
        if self.matches_transpose and self.matches_direct:
            return "ambiguous"
        if self.matches_transpose:
            return "transpose"
        if self.matches_direct:
            return "direct"
        return "mismatch"

    @property
    def final_estimate_gap(self) -> float:
        return abs(self.dim_estimates[-1] - self.dim)


def _evolve(v: tuple[int, int], M, transpose: bool) -> tuple[int, int]:
    (a, b), (c, d) = M
    L, R = v
    if transpose:
        return (a * L + c * R, b * L + d * R)
    return (a * L + b * R, c * L + d * R)


def growth_check(A: DigitSet, m_max: int, budget: int | None = None) -> GrowthReport:
    """Compare oracle typing counts with the matrix-power prediction.

    The closed-form dimension comes from the adjacency matrix; here the
    same matrix must also reproduce the exact unique-interval counts
    level by level, starting from (L_1, R_1) = column sums.  The counts
    advance by the transpose, L' = a L + c R and R' = b L + d R (the
    tests pin this on an asymmetric set).  The report carries both
    orientations; `ambiguous` means the matrix is too symmetric for the
    data to tell them apart.
    """
    typing = classify_intervals(sumset_profile(A))
    M = typing.matrix
    counts = list(typing_count_evolution(A, m_max, budget))
    pred_t = [counts[0]]
    pred_d = [counts[0]]
    for _ in range(1, len(counts)):
        pred_t.append(_evolve(pred_t[-1], M, transpose=True))
        pred_d.append(_evolve(pred_d[-1], M, transpose=False))
    matches_t = counts == pred_t
    matches_d = counts == pred_d
    _, _, dim = matrix_dimension(typing.a, typing.b, typing.c, typing.d, A.n)
    ests = tuple(
        math.log(L + R) / (m * math.log(A.n)) if L + R > 0 else 0.0
        for m, (L, R) in enumerate(counts, start=1)
    )
    return GrowthReport(
        n=A.n,
        matrix=M,
        counts=tuple(counts),
        predicted=tuple(pred_t),
        matches_transpose=matches_t,
        matches_direct=matches_d,
        dim=dim,
        dim_estimates=ests,
    )
