"""Exhaustive and randomized search for large uniqueness dimensions.

Digit sets live in machine words: bit d of a mask means digit d is
present.  Everything the typing rules need is two sumset words: m1
marks the sums s with at least one ordered pair (a, a') in A x A,
a + a' = s, and m2 the sums with at least two, so m1 & ~m2 marks the
unique sums.  Goodness and the L/R interval words are a few shifts of
them, and the quadrant counts a, b, c, d four popcounts.

The words are built two ways.  The exhaustive kernel splits each set
into a low part L (digit 0 and the inner digits up to k <= 15) and high
digits H (n - 1 and the rest).  A table of every L and its words is
built once per call by doubling: adding digit j to each row puts the
cross sums a + j into both words (pairs (a, j) and (j, a)) and 2j into
m1.  Its first block, the digits that reflection pairs among themselves,
depends on the base only by a shift, so it is built once per process for
each size (:func:`_self_paired`).  The table also holds each L's digit
count and whether it holds digit 1.  That is the edge-digit flag of the
very-good rule: a reflection-canonical set that holds the other edge
digit, n - 2, holds 1 too, as (1, n - 2) is its first reflection pair.
A high part H is crossed with the table the same way: with
X = OR_h (L << h) the words are m1_L | X | m1_H and m2_L | X | m2_H,
|H| + 4 vector operations.  (A sum of both L + L and H + H with one
pair on each side would be 2l = 2h, so m1_L & m1_H adds nothing to
m2.)  The table rows are laid out so that the reflection-canonical sets
of any H are one suffix of it.  The suffixes of consecutive high parts
fill one pass of up to 2^15 rows, typed in one go; a row's set size is
its table row's count plus |H|, and its edge flag the table row's.  A
call holds one workspace (:class:`_Workspace`) for its whole life: the
table and every pass array, written with ``out=``, so a repeated call
allocates nothing of pass size.

A good or very-good search types only the sets that can be good.  A
good set leaves no two consecutive sums missing, and the split decides
both ends of the sum range: every low digit is at most k and every high
digit at least k + 1, so the sums 0..k come from L + L alone and the
sums n + k..2n-2 from H + H alone.  A table row that leaves a double gap
in 0..k drops out of the table, which keeps the other rows in order, and
a high part that leaves one in n + k..2n-2 is skipped with its whole
suffix (:func:`_batches`).  Neither test drops a good set.  Together
they type 79% of the canonical sets at bases 15 and 16, 48% at 17..20
and 38% at 32; above base 16, 79-99% of the typed sets are good.

The hill climb keeps the exact pair counts of its current set instead,
with the threshold words W_t = {s : count >= t}, t = 1..4, and its mask
as uint64 limbs.  A flip of digit d moves the count of d + a by 2 for
every other digit a and the count of 2d by 1, so the words of a proposal
are a few operations on W_1..W_4 and the mask shifted by d.  The climb
types a window of drawn flip digits in one NumPy pass
(:class:`_FlipKernel`): the shifted masks by a limb gather and a funnel
shift, then the steps of :func:`~cantorsum.gdifs.word_typing`, the one
typing rule (shared with the tower steps and ``analyze``), on
(limbs, window) arrays.  A proposal is accepted on the exact key
2 lambda = s + sqrt(q), float64 v filtering and :func:`_root_sum_sign`
deciding where v cannot.  The rows up to the first accept count as evaluated, in
order; only an accepted flip updates the counts and rebuilds the words,
and the rest of the window is typed again from the new set.  Flip
digits are drawn no further ahead than the climb is sure to evaluate,
so a seeded climb equals one that draws one digit per flip.
Tests hold the pass kernel and the flip kernel to the word rule, the
flip kernel also to a scalar big-int twin of its proposal words, and the
incremental updates, a flip-and-retype climb, an independent shift-loop
kernel and the reference interval-typing path to identical answers.
One pass loop, :func:`_batches`, serves the exhaustive search and the
record stream.

A climb's warm starts (:func:`_seed_masks`) are masks too, each built
only when the climb reaches it.  The tower start is the table row's
mask doubled along the chain's reduction, mask | mask << (2m - k) per
step, with no typing: the climb types every start from its pair counts
anyway, and the verified :func:`~cantorsum.constructions.chain_to_target`
is the start's twin in the tests.

A pass row carries one key besides a, b, c, d: v = 2 lambda =
(a + d) + sqrt((a - d)^2 + 4bc) in float32 (:func:`_two_lambda`).  On
every matrix of a base <= 32 (a + b <= n, c + d <= n) v is exact: it
orders and ties matrices as their Perron eigenvalues do and compares
with integers as 2 lambda does, which the tests check on that whole
domain.  So v checks the cheap invariants inline (eigenvalue
dichotomy, lambda <= |A|, good sets need >= sqrt(n) digits, the
missing-edge-digit bound; one flag test per pass for all four,
:class:`~cantorsum.digitset.InvariantError` on a hit).  A pass types
the very-good column only when very-good is required.

Both searches pick their best through one tracker, :class:`_Best`: the
float key only filters, the ranking is exact by s + sqrt(q)
(:func:`_outranks`), ties to the smaller digit list, and one builder,
:func:`_record`, takes lambda and dim from
:func:`~cantorsum.gdifs.matrix_dimension`, as ``analyze`` does, for the
winner, for each monitor hit (a dim above log(2)/log(3) + DIM_TOL,
collected rather than silently kept) and for the streamed records.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constructions import _chain_reduction, load_base_table, sqrt_good_set
from .digitset import DigitSet, InvariantError, _word_bits, pair_sum_counts
from .gdifs import DIM_TOL, matrix_dimension, very_good_rule, word_typing

# Unused; bench/layers.py wraps it here, so the name must resolve.
from .constructions import chain_to_target  # noqa: F401

__all__ = [
    "SearchRecord",
    "SearchResult",
    "InfeasibleSearchError",
    "search_exhaustive",
    "iter_exhaustive_records",
    "search_heuristic",
    "figure_data",
    "LOG2_OVER_LOG3",
    "EXHAUSTIVE_MAX_N",
]

LOG2_OVER_LOG3 = math.log(2) / math.log(3)
_MONITOR_DIM = LOG2_OVER_LOG3 + DIM_TOL
EXHAUSTIVE_MAX_N = 32
_TABLE_DIGITS = 15  # inner digits in the low-part table: 2^15 rows, 768 KB
_INDEX_ROWS = 1 << 13  # table rows per index search of the good prune: 64 KB
# The float32 key v = 2 lambda of a pass row is within _V_ERROR of the
# exact value for v <= 64 (lambda <= |A| <= 32)
_V_ERROR = 1e-5
# Limbs per array of a climb's window: 2^15 limbs, 256 KB
_WINDOW_LIMBS = 1 << 15
# A climb's first window after an accept spans about this many limbs
# (k + 8 per digit: a window row also costs some fixed work), whose
# typing costs about what a pass does besides
_ACCEPT_LIMBS = 1 << 11
# The pair-count thresholds of W_1..W_4, and the masks that turn those
# words into the terms W1, W2, ~W3, ~W4 of a flip's sumset words
_THRESHOLDS = np.arange(1, 5).reshape(4, 1)
_TERM_FLIPS = np.array([0, 0, -1, -1]).astype(np.uint64)[:, None, None]


class InfeasibleSearchError(ValueError):
    """Exhaustive enumeration refused; use the heuristic search."""


@dataclass(frozen=True)
class SearchRecord:
    """One analyzed digit set, as a table row.

    lam is the Perron eigenvalue of the 2x2 L/R matrix [[a, b], [c, d]]
    and dim = log lam / log n the L/R-core dimension; a lower bound unless
    the set is good.
    """

    n: int
    digits: tuple[int, ...]
    good: bool
    very_good: bool
    a: int
    b: int
    c: int
    d: int
    lam: float
    dim: float

    @property
    def digitset(self) -> DigitSet:
        return DigitSet(self.n, self.digits)


@dataclass(frozen=True)
class SearchResult:
    """Best record plus bookkeeping for manifests and the monitor.

    n_enumerated counts every candidate set: for the exhaustive search
    every reflection-canonical set of the base, including those a good
    or very-good search skips untyped because they cannot be good;
    n_matching the sets among them that meet the constraint; evaluations
    equals n_enumerated, and for the climb both count its typed sets.
    """

    best: SearchRecord | None
    n_enumerated: int
    n_matching: int
    evaluations: int
    exceedances: tuple[SearchRecord, ...]
    source: str


class _PairCounts:
    """Exact ordered pair counts of one digit set, with its threshold
    words and mask in uint64 limbs.

    cnt[s] = #{(x, y) in A x A : x + y = s} for s in 0..2n-2, started
    from :func:`~cantorsum.digitset.pair_sum_counts`; ind is the digit
    indicator of A.  ``limbs[t - 1]`` is the word of the sums with
    cnt[s] >= t, t = 1..4, and ``limbs[4]`` the mask, each in
    k = ceil(2n / 64) little-endian limbs.  :class:`_FlipKernel` types
    flipped sets off them without touching the counts; only :meth:`flip`
    updates them.  The mask must hold digits 0 and n - 1.
    """

    __slots__ = ("n", "mask", "ind", "cnt", "limbs", "terms")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        self.ind = _word_bits(mask, n).astype(np.int64)
        self.cnt = pair_sum_counts(np.flatnonzero(self.ind))
        self._rebuild_words()

    def _rebuild_words(self) -> None:
        size = 8 * -(-self.n // 32)
        raw = np.zeros((5, size), dtype=np.uint8)
        bits = np.packbits(self.cnt >= _THRESHOLDS, axis=1, bitorder="little")
        raw[:4, :bits.shape[1]] = bits
        raw[4] = np.frombuffer(self.mask.to_bytes(size, "little"), dtype=np.uint8)
        self.limbs = raw.view("<u8")
        # (k, 1) columns W1, W2, ~W3, ~W4
        self.terms = self.limbs[:4, :, None] ^ _TERM_FLIPS

    def low_words(self, t: int) -> tuple[int, ...]:
        """W_1..W_t as Python ints."""
        return tuple(int.from_bytes(w.tobytes(), "little") for w in self.limbs[:t])

    def flip(self, d: int) -> None:
        """Add or remove digit d; flipping it again undoes the change."""
        pairs = self.cnt[d:d + self.n]
        if self.ind[d]:
            self.ind[d] = 0
            pairs -= 2 * self.ind
            self.cnt[2 * d] -= 1
        else:
            pairs += 2 * self.ind
            self.cnt[2 * d] += 1
            self.ind[d] = 1
        self.mask ^= 1 << d
        self._rebuild_words()


class _FlipKernel:
    """Types one-digit flips of a climb's current set in base n, up to
    `rows` digits per call, in scratch arrays it holds for the climb.

    A call's arrays are (limbs, window), k = ceil(2n / 64) limbs, laid
    out with the longer of the two axes innermost, so that every step is
    one NumPy pass with a long inner loop.  They are cut from `scratch`,
    uint64 limbs of which the kernel uses (11k + 4) * rows
    (:func:`_scratch_limbs`).
    """

    def __init__(self, n: int, rows: int, scratch: np.ndarray):
        self.k = k = -(-n // 32)
        # the mask's k limbs after k zero limbs; row i of sources is
        # padded[i:i + k + 1]
        self.padded = np.zeros(2 * k, dtype=np.uint64)
        self.sources = np.ndarray((k, k + 1), dtype=np.uint64, buffer=self.padded,
                                  strides=(8, 8))
        # the word of the 2n - 1 sums 0..2n - 2 as a (k, 1) limb column
        self.full = np.frombuffer(((1 << 2 * n - 1) - 1).to_bytes(8 * k, "little"), "<u8")[:, None]
        # the limb holding bit n (n - 1) of L (t), and the part of it below
        self.split = [(bits >> 6, np.uint64((1 << (bits & 63)) - 1)) for bits in (n, n - 1)]
        # a, b, c, d, a + d and a - d as sums over the popcounts of L's k
        # limbs and low part (rows 0..k), then t's (rows k + 1..2k + 1)
        self.select = select = np.zeros((6, 2 * k + 2), dtype=np.float32)
        for low, high, (limb, _), start in zip((0, 1), (2, 3), self.split, (0, k + 1)):
            select[low, start:start + limb] = select[low, start + k] = 1
            select[high, start + limb:start + k] = 1
            select[high, start + k] = -1
        np.add(select[0], select[3], out=select[4])
        np.subtract(select[0], select[3], out=select[5])
        # per digit: the source's k + 1 limbs, m1 >> 1, the popcount
        # planes (then their float32 counts in k + 1 limbs), and pairs of
        # cross words, sumset words and scratch words, cut from `scratch`
        ends = [size * rows for size in itertools.accumulate(
            (0, k + 1, k, 2 * k + 2, k + 1, 2 * k, 2 * k, 2 * k))]
        self.buffers = [scratch[start:end] for start, end in zip(ends[:-1], ends[1:])]
        self.buffers[3] = self.buffers[3].view(np.float32)

    def type_flips(self, counts: _PairCounts, digits: np.ndarray):
        """(good, a, b, c, d, s, q, v) of the set of `counts` with digit d
        flipped, one entry per d of the int64 array `digits` (each in
        1..n-2): a..d, s = a + d and q = (a - d)^2 + 4bc as float64
        integers, and the key v = s + sqrt(q) = 2 lambda.

        A flip of d moves the count of every a + d, a != d, by 2 and that
        of 2d by 1.  The mask shifted by d (a gather of limbs and a
        funnel shift) holds every a + d, and 2d when d is removed.  With
        cross that word less 2d, adding d gives m1 = W1 | cross | 2d and
        m2 = W2 | cross.  Removing d keeps cross only where the count
        reaches 3 (m1) or 4 (m2); 2d keeps its m2 bit and, at an odd
        count, takes W3's (that is W2's) into m1, as it does when 2d
        joins cross for m1.  So (m1, m2) = (W | X) ^ (X & ~W' & removal)
        with X = (cross | 2d, cross), W = (W1, W2) and W' = (W3, W4).  The
        typing is :func:`~cantorsum.gdifs.word_typing`'s, on limb arrays.
        """
        w, k = len(digits), self.k
        sources, right, planes, popcounts, crosses, words, spare = self.buffers
        src = _window(sources, (k + 1,), w)
        right = _window(right, (k,), w)
        planes = _window(planes, (2 * k + 2,), w)
        popcounts = _window(popcounts, (2 * k + 2,), w)
        crosses = _window(crosses, (2, k), w)
        words = _window(words, (2, k), w)
        spare = _window(spare, (2, k), w)
        # src column i: the k + 1 mask limbs ending at the one that lands
        # on limb k - 1 when shifted by digit i
        self.padded[k:] = counts.limbs[4]
        np.copyto(src, self.sources[k - 1 - (digits >> 6)].T)
        shift = (digits & 63).view(np.uint64)
        cross, with_double = crosses[1], crosses[0]
        np.left_shift(src[1:], shift, out=cross)
        cross |= np.right_shift(src[:-1], 64 - shift, out=with_double)
        # the 2d bits, by (limb, column)
        double = 2 * digits
        bit = np.left_shift(1, (double & 63).view(np.uint64))
        double = double >> 6, np.arange(w)
        cross[double] &= ~bit
        np.copyto(with_double, cross)
        with_double[double] |= bit
        drop = np.negative(counts.ind[digits]).view(np.uint64)  # all ones: a removal
        np.bitwise_or(crosses, counts.terms[:2], out=words)
        np.bitwise_and(crosses, counts.terms[2:], out=spare)
        spare &= drop
        words ^= spare
        m1, m2, scratch, left = words[0], words[1], spare[0], spare[1]
        # m1 shifted right by one bit across limbs; good: m1 | m1 >> 1 is full
        np.right_shift(m1, 1, out=right)
        right[:-1] |= np.left_shift(m1[1:], 63, out=scratch[:-1])
        np.bitwise_or(m1, right, out=scratch)
        good = ~np.bitwise_xor(scratch, self.full, out=scratch).any(axis=0)
        # planes L = unique & ~(m1 << 1) and t = unique & ~(m1 >> 1) (R =
        # unique << 1 & ~m1 is t << 1), each followed by its split limb's
        # low part; float32 sums of limb popcounts are exact below 2^24
        np.left_shift(m1, 1, out=left)
        left[1:] |= np.right_shift(m1[:-1], 63, out=scratch[:-1])
        unique = np.bitwise_xor(m1, m2, out=m2)
        np.bitwise_and(unique, np.invert(left, out=left), out=planes[:k])
        np.bitwise_and(unique, np.invert(right, out=right), out=planes[k + 1:-1])
        (limb, part), (limb_r, part_r) = self.split
        np.bitwise_and(planes[limb], part, out=planes[k])
        np.bitwise_and(planes[k + 1 + limb_r], part_r, out=planes[-1])
        sums = (self.select @ np.bitwise_count(planes, out=popcounts)).astype(np.float64)
        a, b, c, d, s, u = sums[0], sums[1], sums[2], sums[3], sums[4], sums[5]
        q = u * u
        q += 4 * b * c
        return good, a, b, c, d, s, q, s + np.sqrt(q)


def _window(buffer: np.ndarray, shape: tuple[int, ...], w: int) -> np.ndarray:
    """A contiguous (*shape, w) array at the start of `buffer`, its last
    two axes laid out with the longer one innermost."""
    head = buffer[:math.prod(shape) * w]
    if w >= shape[-1]:
        return head.reshape(*shape, w)
    return head.reshape(*shape[:-1], w, shape[-1]).swapaxes(-1, -2)


def _scratch_limbs(n: int, rows: int) -> int:
    """uint64 limbs of the scratch of a :class:`_FlipKernel` in base n for
    windows of up to `rows` digits: at most 11 _WINDOW_LIMBS while a row
    of k + 1 limbs fits in _WINDOW_LIMBS."""
    return (11 * -(-n // 32) + 4) * rows


# Climb scratch blocks not in use, of 11 _WINDOW_LIMBS limbs or more, of
# which a climb touches only what its windows use.  A climb holds one
# from its start to its end, so nested or concurrent climbs never share
# one, and a repeated climb touches no new pages.
_FREE_SCRATCH: list[np.ndarray] = []


def _record(n: int, mask: int, good: bool, a: int, b: int, c: int, d: int) -> SearchRecord:
    """The record of a typed set, very-good by
    :func:`~cantorsum.gdifs.very_good_rule` from the mask's edge digits,
    lambda and dim from :func:`~cantorsum.gdifs.matrix_dimension`; takes
    Python scalars."""
    edge = mask >> 1 & 1 | mask >> n - 2 & 1  # 1 or n - 2 a digit
    lam, _, dim = matrix_dimension(a, b, c, d, n)
    return SearchRecord(n=n, digits=tuple(np.flatnonzero(_word_bits(mask, n)).tolist()),
                        good=good, very_good=very_good_rule(good, edge, a, b, c, d),
                        a=a, b=b, c=c, d=d, lam=lam, dim=dim)


def _root_sum_sign(p1: int, q1: int, p2: int, q2: int) -> int:
    """Sign of (p1 + sqrt(q1)) - (p2 + sqrt(q2)), exactly, for q1, q2 >= 0."""
    sp = (p1 > p2) - (p1 < p2)
    sq = (q1 > q2) - (q1 < q2)
    if sp == 0 or sq == 0 or sp == sq:
        return sp or sq
    # opposite signs: |p1 - p2| against |sqrt(q1) - sqrt(q2)|, whose
    # squares differ by 2 sqrt(q1 q2) - f
    f = q1 + q2 - (p1 - p2) ** 2
    g = 1 if f < 0 else 4 * q1 * q2 - f * f
    return sp if g > 0 else sq if g < 0 else 0


def _outranks(s: int, q: int, mask: int, s0: int, q0: int, mask0: int) -> bool:
    """Whether the set of `mask`, with 2 lambda = s + sqrt(q), ranks above
    the set of mask0: a larger exact key, or an equal key and the smaller
    digit list, the one holding the lowest digit where the two differ."""
    order = _root_sum_sign(s, q, s0, q0)
    if order or mask == mask0:
        return order > 0
    diff = mask ^ mask0
    return bool(mask >> (diff ^ (diff - 1)).bit_length() - 1 & 1)


class _Best:
    """The selection policy of both searches in base n: the best matching
    set by the exact key 2 lambda = s + sqrt(q) (:func:`_outranks`) and
    the conjecture monitor's hits, a record for each and for the winner.

    A set's float key v, within _V_ERROR of 2 lambda, only filters: below
    min(monitor_v, max(top, best_v) (1 - _V_ERROR)), top the largest v
    offered with it and best_v the leader's, a set can neither win nor
    trip the monitor; above monitor_v (v at dim _MONITOR_DIM lowered by
    more than v's error, as 2 n^dim >= 4) it takes the monitor's dim test.
    :meth:`offer_rows` takes top as the max of v * match: v >= 0, and
    NumPy's masked max (``where=``) runs on a slow path.
    """

    def __init__(self, n: int):
        self.n = n
        self.lead = None  # (s, q, mask, good, a, b, c, d) of the best set
        self.best_v = 0.0
        self.monitor_v = 2 * n ** _MONITOR_DIM * (1 - _V_ERROR)
        self.exceed: list[SearchRecord] = []

    def offer(self, mask: int, good: bool, a: int, b: int, c: int, d: int, v: float) -> None:
        """Take a matching set, typed a..d, with key v; Python scalars."""
        if v > self.monitor_v and matrix_dimension(a, b, c, d, self.n)[2] > _MONITOR_DIM:
            self.exceed.append(_record(self.n, mask, good, a, b, c, d))
        key = a + d, (a - d) ** 2 + 4 * b * c, mask
        if self.lead is None or _outranks(*key, *self.lead[:3]):
            self.lead, self.best_v = (*key, good, a, b, c, d), v

    def offer_rows(self, v: np.ndarray, match: np.ndarray | None, row) -> None:
        """Offer the rows of the key column v that match (flags `match`;
        None: every row) and lie above the floor; row(i) is the (mask,
        good, a, b, c, d) of row i.  With flags, v is overwritten by
        v * match."""
        if match is not None:
            np.multiply(v, match, out=v)
        top = float(v.max())
        floor = min(self.monitor_v, max(top, self.best_v) * (1 - _V_ERROR))
        if top < floor:
            return
        keep = v >= floor
        if match is not None:
            keep &= match
        for i in np.flatnonzero(keep).tolist():
            self.offer(*row(i), float(v[i]))

    def result(self, evaluations: int, n_matching: int, source: str) -> SearchResult:
        """The winner's record and the monitor's hits in digit order."""
        best = None if self.lead is None else _record(self.n, *self.lead[2:])
        self.exceed.sort(key=lambda r: (r.n, r.digits))
        return SearchResult(best=best, n_enumerated=evaluations, n_matching=n_matching,
                            evaluations=evaluations, exceedances=tuple(self.exceed),
                            source=source)


def _add_digit(j: int, mask, m1, m2):
    """Mask and sumset words with digit j added to sets without it.

    Each new sum a + j (a in A) has the two ordered pairs (a, j) and
    (j, a).  2j gains the pair (j, j); any earlier pair of 2j is some
    (a, b) with a != b, so 2j was in m2 already.  Takes Python ints.
    """
    cross = mask << j
    return mask | 1 << j, m1 | cross | 1 << 2 * j, m2 | cross


def _add_digit_rows(j: int, rows, out) -> None:
    """:func:`_add_digit` on (mask, m1, m2) uint64 table rows, written
    into `out`: rows of their own, or the same ones for j = 0."""
    mask, m1, m2 = rows
    out_mask, out_m1, out_m2 = out
    np.left_shift(mask, j, out=out_mask)  # the cross sums a + j
    np.bitwise_or(np.bitwise_or(m1, out_mask, out=out_m1), 1 << 2 * j, out=out_m1)
    np.bitwise_or(m2, out_mask, out=out_m2)
    np.bitwise_or(mask, 1 << j, out=out_mask)


class _Workspace:
    """The arrays of exhaustive passes of up to `rows` rows, which every
    kernel step writes with ``out=``: the low table and its rows' set
    sizes and edge flags, the same columns for the table rows a good
    search keeps, uint64 words, the pass's set
    sizes and edge flags, int16 counts, the float32 key and bool flags.
    A pass of fewer rows uses the start of each array, and only the pages
    it touches are mapped, so a call that keeps every table row maps no
    page of the kept columns."""

    def __init__(self, rows: int):
        self.table = np.empty((3, rows), dtype=np.uint64)
        self.table_sizes = np.empty(rows, dtype=np.int16)
        self.table_edges = np.empty(rows, dtype=bool)
        self.kept = np.empty((3, rows), dtype=np.uint64)
        self.kept_sizes = np.empty(rows, dtype=np.int16)
        self.kept_edges = np.empty(rows, dtype=bool)
        self.words = np.empty((5, rows), dtype=np.uint64)
        self.sizes = np.empty(rows, dtype=np.int16)
        self.edges = np.empty(rows, dtype=bool)
        self.counts = np.empty((7, rows), dtype=np.int16)
        self.key = np.empty(rows, dtype=np.float32)
        self.flags = np.empty((7, rows), dtype=bool)
        self.ones = np.ones(rows, dtype=bool)


# Workspaces of 2^_TABLE_DIGITS rows not in use.  A call holds one from
# its first pass to its last, so interleaved or nested calls and threads
# never share one.
_FREE_WORKSPACES: list[_Workspace] = []


@functools.cache
def _self_paired(m: int):
    """(rows, s0): every subset of the digits 1..m, which reflection
    pairs among themselves (i with m + 1 - i), as read-only uint64 rows
    (mask, m1, m2), stably partitioned so that the sets with mirror >=
    mask form a suffix starting at s0.  Built by doubling, once per m
    and process; the block of digits p+1..p+m is these rows with the
    mask shifted by p and both words by 2p, in the same order."""
    rows = np.zeros((3, 1 << m), dtype=np.uint64)
    mirror = np.zeros(1 << m, dtype=np.uint64)
    for j in range(1, m + 1):
        half = 1 << (j - 1)
        _add_digit_rows(j, rows[:, :half], rows[:, half:2 * half])
        np.bitwise_or(mirror[:half], 1 << (m + 1 - j), out=mirror[half:2 * half])
    canonical = mirror >= rows[0]
    rows = rows[:, np.argsort(canonical, kind="stable")]
    rows.flags.writeable = False
    return rows, len(canonical) - int(np.count_nonzero(canonical))


def _low_table(n: int, ws: _Workspace):
    """k, s0 and every low part L (digit 0 plus a subset of the inner
    digits 1..k) as rows (mask, m1, m2, size, edge) of the workspace
    table; s0 is the first row whose own reflection pairs are canonical.
    size is the digit count of L, and edge whether L holds digit 1.

    The p = n - 2 - k inner digits above k pair under reflection with
    the prefix digits 1..p; the m = k - p digits p+1..k pair among
    themselves.  The table starts as :func:`_self_paired`'s block of m
    digits shifted into place, takes digit 0 in place, and then doubles
    on the prefix digits p..1, digit i on index bit k - i: the new half's
    sizes are one more, and its edge flags are set when i = 1.
    """
    # (n + 10) // 2 keeps m = 2k + 2 - n <= 12: blocks of <= 2^12 rows
    k = min(n - 2, _TABLE_DIGITS, (n + 10) // 2)
    p = n - 2 - k
    block, s0 = _self_paired(k - p)
    table = ws.table[:, :1 << k]
    sizes, edges = ws.table_sizes[:1 << k], ws.table_edges[:1 << k]
    own = 1 << (k - p)
    np.left_shift(block[0], p, out=table[0, :own])
    np.left_shift(block[1:], 2 * p, out=table[1:, :own])
    _add_digit_rows(0, table[:, :own], table[:, :own])
    np.bitwise_count(table[0, :own], out=sizes[:own])
    np.not_equal(np.bitwise_and(table[0, :own], 2, out=ws.words[0, :own]), 0, out=edges[:own])
    for i in range(p, 0, -1):
        half = 1 << (k - i)
        _add_digit_rows(i, table[:, :half], table[:, half:2 * half])
        np.add(sizes[:half], 1, out=sizes[half:2 * half])
        np.logical_or(edges[:half], i == 1, out=edges[half:2 * half])
    return k, s0, (*table, sizes, edges)


def _covering_rows(k: int, table, ws: _Workspace):
    """The rows of the low-table columns `table` that leave no two
    consecutive sums of 0..k missing, as columns (mask, m1, m2, size,
    edge) in table order in the workspace's kept columns, and their
    sorted indices in `table`.

    Every high digit exceeds k, so a sum <= k has only low pairs: a row
    whose m1 | m1 >> 1 lacks a bit below k leaves a double gap in every
    set it is part of, and no such set is good.  The flags and the
    indices live in pass arrays, free before the first pass and
    overwritten by it.  The indices are found _INDEX_ROWS rows at a
    time, so no array of table size is allocated.
    """
    rows = len(table[0])
    m1, cover, keep = table[1], ws.words[0, :rows], ws.flags[0, :rows]
    found_rows = ws.words[4, :rows].view(np.intp)
    full = (1 << k) - 1
    np.bitwise_or(np.right_shift(m1, 1, out=cover), m1, out=cover)
    np.equal(np.bitwise_and(cover, full, out=cover), full, out=keep)
    kept = 0
    for lo in range(0, rows, _INDEX_ROWS):
        found = keep[lo:lo + _INDEX_ROWS].nonzero()[0]
        np.add(found, lo, out=found_rows[kept:kept + len(found)])
        kept += len(found)
    index = found_rows[:kept]
    cols = (*ws.kept[:, :kept], ws.kept_sizes[:kept], ws.kept_edges[:kept])
    for col, out in zip(table, cols):
        np.take(col, index, mode="clip", out=out)
    return cols, index


def _two_lambda(a, b, c, d, out):
    """v = 2 lambda = (a + d) + sqrt((a - d)^2 + 4bc) in float32, from
    int16 columns: exact while a + b and c + d are at most 32.  `out` is
    v and three int16 columns, of which the first two hold (a - d)^2 and
    bc on return."""
    v, x, y, z = out
    np.multiply(np.subtract(a, d, out=x), x, out=x)
    np.multiply(b, c, out=y)
    np.sqrt(np.add(x, np.left_shift(y, 2, out=z), out=z), out=v, dtype=np.float32)
    v += np.add(a, d, out=z)
    return v


_INVARIANTS = ("eigenvalue dichotomy violated", "lambda exceeded |A|",
               "good set smaller than sqrt(n)", "missing-edge-digit bound violated")


def _type_batch(n: int, m1: np.ndarray, m2: np.ndarray, sizes: np.ndarray,
                edges: np.ndarray, ws: _Workspace):
    """Vector twin of :func:`~cantorsum.gdifs.word_typing` with the inline
    invariants: (good, a, b, c, d, v), a..d int16 and v = 2 lambda from
    :func:`_two_lambda`, in the workspace; :func:`_very_good_rows` adds
    the very-good column from what this leaves there.

    `sizes` (int16) are the rows' digit counts and `edges` whether 1 or
    n - 2 is a digit; the invariants read them and v, which compares
    with integers exactly.  One test covers all four invariants; a hit
    raises the first of them, in the order of _INVARIANTS, that fails.
    """
    rows = len(m1)
    t, u = ws.words[3:, :rows]
    a, b, c, d, x, y, z = ws.counts[:, :rows]
    good, good_no_edge = ws.flags[:2, :rows]
    hits = ws.flags[2:6, :rows]
    v = ws.key[:rows]
    # good: m1 | m1 >> 1 is all ones
    right = np.right_shift(m1, 1, out=t)
    np.equal(np.bitwise_or(right, m1, out=u), (1 << 2 * n - 1) - 1, out=good)
    np.greater(good, edges, out=good_no_edge)  # good, and neither 1 nor n - 2 a digit
    # with unique = m1 ^ m2, R = unique << 1 & ~m1 is t << 1 for
    # t = unique & ~(m1 >> 1), and L = unique & ~(m1 << 1); the count of
    # a word's upper half is its popcount less that of its bits below n
    np.bitwise_xor(m1, m2, out=u)
    right &= u
    right ^= u
    np.bitwise_count(right, out=d)
    np.bitwise_count(np.bitwise_and(right, (1 << n - 1) - 1, out=right), out=b)
    d -= b
    u ^= np.bitwise_and(np.left_shift(m1, 1, out=t), u, out=t)
    np.bitwise_count(u, out=c)
    np.bitwise_count(np.bitwise_and(u, (1 << n) - 1, out=u), out=a)
    c -= a
    _two_lambda(a, b, c, d, (v, x, y, z))
    dichotomy, over_size, small_good, no_edge = hits
    # lambda < 2; with bc = 0 lambda is max(a, d), so such a row is
    # trivial exactly when bc = 0
    below_2 = np.less(v, 4, out=no_edge)
    np.logical_and(np.not_equal(y, 0, out=dichotomy), below_2, out=dichotomy)
    np.greater(v, np.left_shift(sizes, 1, out=z), out=over_size)
    np.logical_and(np.less_equal(sizes, math.isqrt(n - 1), out=small_good), good,
                   out=small_good)  # |A|^2 < n
    np.logical_and(below_2, good_no_edge, out=no_edge)
    if hits.any():
        raise InvariantError(_INVARIANTS[int(hits.any(axis=1).argmax())])
    return good, a, b, c, d, v


def _very_good_rows(rows: int, ws: _Workspace) -> np.ndarray:
    """The very-good flags of the `rows` rows that :func:`_type_batch`
    typed last in the workspace: good with neither 1 nor n - 2 a digit,
    and equal row or column sums, a + b == c + d or a + c == b + d, which
    is (a - d)^2 == (b - c)^2 (the first left in x by _type_batch)."""
    _, b, c, _, x, _, z = ws.counts[:, :rows]
    good_no_edge, very_good = ws.flags[1, :rows], ws.flags[6, :rows]
    np.multiply(np.subtract(b, c, out=z), z, out=z)
    return np.logical_and(np.equal(x, z, out=very_good), good_no_edge, out=very_good)


def _batches(n: int, require_good: bool, require_very_good: bool,
             tops: range | None = None):
    """(masks, kernel columns, matching flags, sets) of the
    reflection-canonical masks of the high parts in `tops` (default:
    all), one typing pass at a time; the columns are (good, very_good,
    a, b, c, d, v), very_good None unless very-good is required, and
    sets is the number of canonical sets the pass stands for, typed or
    skipped.  A pass holds the canonical suffixes of consecutive high
    parts, each in table row order, as many as fit the workspace; since
    a higher high part holds only larger masks, the passes follow each
    other in mask order.  The arrays are views into the call's
    workspace, valid until the next pass; a consumer may overwrite them
    and copies what it keeps.

    High part t holds n - 1 and digit k + 1 + i for each bit i of t; the
    call lists every high part's digits and words first, by doubling
    (2^(n - 2 - k) parts of about 280 bytes: 10 KB at n = 23, 9 MB at
    n = 32).  L | H is canonical when its first unequal reflection pair
    (i, n-1-i) has i set: for i <= p that puts L in a later group of the
    table than the index bits of the partners of H, otherwise at or past
    s0.  A row's set size is its table row's plus |H|, and its edge flag
    the table row's: a canonical set holding n - 2 holds 1 too.

    When good or very-good sets are required, rows that cannot be good
    are not typed.  A good set leaves no two consecutive sums of
    0..2n-2 missing from m1.  The low digits are at most k and the high
    ones at least k + 1, so the sums 0..k come from L + L alone and the
    sums n + k..2n-2 from H + H alone.  The table keeps only its rows
    from s0 on that cover 0..k (:func:`_covering_rows`), in order, so
    each high part's canonical rows are still a suffix, now starting at
    the number of kept rows between s0 and its old start; a high part
    whose own m1 leaves a double gap in n + k..2n-2 is skipped with its
    whole suffix.  Both tests only drop sets that are not good, so the
    matches are those of the full enumeration, and sets still counts
    every canonical set.  A skipped row is not checked for the
    invariants that hold for any set (the eigenvalue dichotomy,
    lambda <= |A|); unconstrained passes type and check every row.  The
    good-set invariants lose nothing, as they bind only good rows.
    """
    try:
        ws = _FREE_WORKSPACES.pop()
    except IndexError:  # none free, or another thread took the last one
        ws = _Workspace(1 << _TABLE_DIGITS)
    masks, m1, m2 = ws.words[:3]
    sizes, edges = ws.sizes, ws.edges
    prune = require_good or require_very_good

    def typed(rows: int, sets: int):
        good, a, b, c, d, v = _type_batch(n, m1[:rows], m2[:rows], sizes[:rows], edges[:rows], ws)
        very_good = _very_good_rows(rows, ws) if require_very_good else None
        keep = very_good if require_very_good else good if require_good else ws.ones[:rows]
        return masks[:rows], (good, very_good, a, b, c, d, v), keep, sets

    try:
        k, s0, table = _low_table(n, ws)
        step = 2 * k + 2 - n  # the partner of high digit k + 1 + i is table index bit step + i
        if prune:  # of the rows from s0 on, where every canonical suffix starts
            table, index = _covering_rows(k, [col[s0:] for col in table], ws)
            kept_starts = np.searchsorted(index, np.arange(1 << n - 2 - k) << step).tolist()
        mask_l, m1_l, m2_l, sizes_l, edges_l = table
        # every high part's digits and words, doubling on digits k+1..n-2
        parts = [((n - 1,), *_add_digit(n - 1, 0, 0, 0))]
        for j in range(k + 1, n - 1):
            parts += [((j, *high), *_add_digit(j, *words)) for high, *words in parts]
        high_sums = (1 << n - 2 - k) - 1  # the pairs of sums n + k + i, i < n - 2 - k
        filled = sets = 0
        for top in range(len(parts)) if tops is None else tops:
            high, mask_h, m1_h, m2_h = parts[top]
            start = s0 + (top << step)
            canonical = (1 << k) - start
            if prune:
                if (m1_h | m1_h >> 1) >> n + k & high_sums != high_sums:
                    sets += canonical
                    continue
                start = kept_starts[top]
            low = mask_l[start:]
            if filled + len(low) > len(masks):
                yield typed(filled, sets)
                filled = sets = 0
            part = slice(filled, filled + len(low))
            filled += len(low)
            sets += canonical
            out_mask, out_m1, out_m2, out_cross = ws.words[:4, part]
            np.bitwise_or(low, mask_h, out=out_mask)
            np.left_shift(low, high[0], out=out_cross)
            for j in high[1:]:
                out_cross |= np.left_shift(low, j, out=out_m2)
            np.bitwise_or(np.bitwise_or(m1_l[start:], out_cross, out=out_m1), m1_h, out=out_m1)
            np.bitwise_or(np.bitwise_or(m2_l[start:], out_cross, out=out_m2), m2_h, out=out_m2)
            np.add(sizes_l[start:], len(high), out=sizes[part])
            edges[part] = edges_l[start:]
        if filled:
            yield typed(filled, sets)
    finally:
        _FREE_WORKSPACES.append(ws)


def _check_exhaustive_base(n: int) -> None:
    if n < 3:
        raise ValueError("base must be >= 3")
    if n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSearchError(
            f"2^{n - 2} digit sets is beyond exhaustive reach; "
            f"use search_heuristic"
        )


def search_exhaustive(n: int, require_good: bool = False,
                      require_very_good: bool = False) -> SearchResult:
    """Enumerate every canonical digit set for base n (3 <= n <= 32).

    Sets are deduplicated under reflection (the kept representative is
    the one whose mask is not larger than its mirror's).  The best
    record maximizes dim (the L/R-core dimension; a lower bound unless
    the set is good, so an unconstrained ranking can miss a non-good set
    whose uniqueness set is larger) under the constraints, ties broken
    by the lexicographically smallest digit list; both are decided by
    :class:`_Best` on the exact key 2 lambda, which the pass's float32
    key only filters.

    Under either constraint, a set that leaves a double gap in its low
    sums 0..k or its high sums n + k..2n-2 (k the low table's inner
    digits) is skipped untyped: those sums come from its low or its high
    digits alone, so such a set cannot be good (:func:`_batches`).  The
    matches and the best are those of typing every set; n_enumerated
    still counts every canonical set.
    """
    _check_exhaustive_base(n)
    best = _Best(n)
    n_enumerated = n_matching = 0
    unconstrained = not (require_good or require_very_good)
    for masks, (good, _, a, b, c, d, v), keep, sets in _batches(n, require_good, require_very_good):
        n_enumerated += sets
        n_matching += len(masks) if unconstrained else int(np.count_nonzero(keep))
        best.offer_rows(v, None if unconstrained else keep, lambda i: (
            int(masks[i]), bool(good[i]), int(a[i]), int(b[i]), int(c[i]), int(d[i])))
    return best.result(n_enumerated, n_matching, "exhaustive")


def iter_exhaustive_records(n: int, require_good: bool = False,
                            require_very_good: bool = False):
    """Stream every reflection-canonical record (3 <= n <= 32)."""
    _check_exhaustive_base(n)
    for masks, (good, _, a, b, c, d, _), keep, _ in _batches(n, require_good, require_very_good):
        rows = np.flatnonzero(keep)
        rows = rows[np.argsort(masks[rows])]
        for row in zip(*(col[rows].tolist() for col in (masks, good, a, b, c, d))):
            yield _record(n, *row)


def _random_inner(rng, bits: int) -> int:
    """Uniform random integer with the given bit width (any width)."""
    val = 0
    for off in range(0, bits, 32):
        width = min(32, bits - off)
        val |= int(rng.integers(0, 1 << width)) << off
    return val


def _seed_masks(n: int):
    """Deterministic warm starts, each built only when the climb reaches
    it: the tower chain's set, the sqrt family's, the full set.

    The three are distinct.  The tower set is very-good, so neither 1 nor
    n - 2 is a digit of it, while the sqrt set (the blocks 0..k and
    n-1-k..n-1 and the multiples of k, k >= 3) and the full set hold 1;
    and the sqrt set lacks k + 1, which is no multiple of k and lies
    below n - 1 - k, while the full set holds it.

    The tower set is the table row's mask doubled along the steps of
    :func:`~cantorsum.constructions._chain_reduction`: a step k from base
    m gives mask | mask << (2m - k), the union of A and A + (2m - k) in
    base 3m - k.  No seed is typed or verified here, since the climb
    types every start from its pair counts; the tests hold the tower
    mask to the verified ``chain_to_target(n).final``.  For n >= 9
    neither construction fails: the chain reaches every such base from
    the bundled table of bases 9..27 (for n <= 27 it is that table row),
    and sqrt_good_set needs only n >= 9.
    """
    if n >= 9:
        base, ks = _chain_reduction(n, table := load_base_table())
        mask = sum(1 << d for d in table[base].digits)  # a base <= 27
        for k in ks:
            mask |= mask << 2 * base - k
            base = 3 * base - k
        yield mask
        yield sum(1 << d for d in sqrt_good_set(n).digits)
    yield (1 << n) - 1  # the full digit set is always good


def search_heuristic(n: int, budget: int = 10_000, seed: int = 0,
                     require_good: bool = True,
                     require_very_good: bool = False) -> SearchResult:
    """Randomized hill climbing over digit flips, deterministic by seed.

    Starts from the warm starts of :func:`_seed_masks` (the tower set,
    or the table row through base 27, then the sqrt family and the full
    set, each built only when reached) and then random restarts, flipping
    one interior digit at a time and keeping strict improvements of the
    exact key 2 lambda, whose dim is the L/R-core dimension; a lower
    bound unless the set is good.  The best evaluated set is picked as
    :func:`search_exhaustive` picks it, by :class:`_Best`.  Non-good
    proposals are evaluated (they cost budget) but never climbed onto
    when goodness is required.  A climb ends after 4n + 1 rejections in a row (a stuck
    run).  The climb carries the pair counts of its current set and
    their threshold words, and types its proposals a window of drawn
    digits at a time in one NumPy pass (:class:`_FlipKernel`).  The rows
    up to the first accept count as evaluated, in order; an accept
    updates the counts, and the rest of the window is typed again from
    the new set.  A climb's first window covers every flip it is sure to
    evaluate (the rest of the budget or of the stuck run) within the
    byte bound on its arrays.  After an accept the window spans about
    _ACCEPT_LIMBS limbs and doubles while nothing is accepted, so a
    climb that accepts often does not retype long windows.  The flip
    digits are drawn as windows need them, never more than the budget or
    the stuck run leave, so every drawn digit is used and the result is
    that of one draw per flip.  The arrays are cut from a scratch block
    that the climb takes from a free list and returns.  `budget` (>= 1,
    else ValueError) caps the number of single-set evaluations.  For
    n <= 8 (at most 64 sets) this is :func:`search_exhaustive`, and
    `budget` and `seed` are otherwise unused.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n <= 8:
        return search_exhaustive(n, require_good, require_very_good)
    base = 1 | (1 << (n - 1))
    best = _Best(n)
    matching = 0
    rng = np.random.default_rng(seed)
    evals = 0
    unconstrained = not (require_good or require_very_good)
    k = -(-n // 32)
    rows = max(1, min(_WINDOW_LIMBS // (k + 1), budget))
    after_accept = min(rows, max(1, _ACCEPT_LIMBS // (k + 8)))
    try:
        scratch = _FREE_SCRATCH.pop()
    except IndexError:  # none free, or another thread took the last one
        scratch = np.empty(11 * _WINDOW_LIMBS, dtype=np.uint64)
    if len(scratch) < _scratch_limbs(n, rows):  # a row of more than _WINDOW_LIMBS limbs
        scratch = np.empty(_scratch_limbs(n, rows), dtype=np.uint64)
    kernel = _FlipKernel(n, rows, scratch)

    def tally(cols, flips) -> None:
        """Count the typed flips of the current set as evaluated, in
        order, and offer them to the tracker."""
        nonlocal evals, matching
        good, a, b, c, d, _, _, v = cols
        evals += len(v)
        if unconstrained:
            match = None
            matching += len(v)
        else:
            if require_very_good:
                ind = current.ind  # 1 or n - 2 a digit of the flipped set
                edge = ind[1] ^ (flips == 1) | ind[n - 2] ^ (flips == n - 2)
                match = very_good_rule(good, edge, a, b, c, d)
            else:
                match = good
            matching += int(np.count_nonzero(match))
        mask = current.mask
        best.offer_rows(v, match, lambda i: (
            mask ^ 1 << int(flips[i]), bool(good[i]), int(a[i]), int(b[i]), int(c[i]), int(d[i])))

    def first_accept(cols, key) -> int:
        """Index of the first climbable row whose exact key exceeds key =
        (s, q, v) of the current set, or -1."""
        good, _, _, _, _, s, q, v = cols
        s0, q0, v0 = key
        up = v >= v0 * (1 - _V_ERROR)
        up &= (s != s0) | (q != q0)  # an equal key is no gain
        if not unconstrained:
            up &= good
        for i in np.flatnonzero(up).tolist():
            if v[i] > v0 * (1 + _V_ERROR) or _root_sum_sign(int(s[i]), int(q[i]), s0, q0) > 0:
                return i
        return -1

    def starts():
        yield from _seed_masks(n)
        while True:
            yield base | _random_inner(rng, n - 2) << 1

    start_masks = starts()
    max_stuck = 4 * n
    try:
        while evals < budget:
            current = _PairCounts(n, next(start_masks))
            good, very_good, a, b, c, d, _, _ = word_typing(n, *current.low_words(2), int.bit_count)
            s, q = a + d, (a - d) ** 2 + 4 * b * c
            key = s, q, s + math.sqrt(q)
            evals += 1
            if very_good if require_very_good else good or not require_good:
                matching += 1
                best.offer(current.mask, good, a, b, c, d, key[2])
            climbable = good or unconstrained
            stuck = 0
            window = rows
            drawn = np.empty(0, dtype=np.int64)  # flip digits drawn, not yet evaluated
            # the climb evaluates at least `ahead` more flips (an accept
            # only resets stuck), so every digit drawn is used, and a
            # size-k draw is k scalar draws of the stream
            while climbable and (ahead := min(budget - evals, max_stuck + 1 - stuck)):
                if len(drawn) < min(window, ahead):
                    drawn = np.concatenate((drawn, rng.integers(
                        1, n - 1, size=min(window, ahead) - len(drawn))))
                digits = drawn[:window]
                cols = kernel.type_flips(current, digits)
                i = first_accept(cols, key)
                used = len(digits) if i < 0 else i + 1
                if i >= 0:  # before tally, which may overwrite the key column
                    key = int(cols[5][i]), int(cols[6][i]), float(cols[7][i])
                tally([col[:used] for col in cols], digits[:used])
                drawn = drawn[used:]
                if i < 0:
                    stuck += used
                    window = min(2 * window, rows)
                else:
                    current.flip(int(digits[i]))
                    stuck = 0
                    window = after_accept
    finally:
        _FREE_SCRATCH.append(scratch)
    return best.result(evals, matching, "heuristic")


def figure_data(n_lo: int, n_hi: int, budget: int = 10_000, seed: int = 0):
    """Best known dimension per base, for plotting against log2/log3.

    Per base, the best good set: exact by :func:`search_exhaustive` through
    base EXHAUSTIVE_MAX_N, otherwise the best a good-set hill climb finds.
    No tower-chain floor is needed: the exhaustive search enumerates the
    tower set and the climb's first start is that set, evaluated since
    `budget` >= 1 (else ValueError, at every base), so neither can end
    below it.  Returns (rows, exceedances) where rows are (n, best_dim,
    reference).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rows: list[tuple[int, float, float]] = []
    exceed: list[SearchRecord] = []
    for n in range(n_lo, n_hi + 1):
        if n <= EXHAUSTIVE_MAX_N:
            res = search_exhaustive(n, require_good=True)
        else:
            res = search_heuristic(n, budget=budget, seed=seed, require_good=True)
        exceed.extend(res.exceedances)
        rows.append((n, res.best.dim, LOG2_OVER_LOG3))
    return rows, exceed
