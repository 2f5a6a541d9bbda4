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
m1.  The table also holds each L's digit count and whether it holds
digit 1.  That is the edge-digit flag of the very-good rule: a
reflection-canonical set that holds the other edge digit, n - 2, holds 1
too, as (1, n - 2) is its first reflection pair.  A high part H is
crossed with the table the same way: with X = OR_h (L << h) the words
are m1_L | X | m1_H and m2_L | X | m2_H, |H| + 4 vector operations.  (A
sum of both L + L and H + H with one pair on each side would be 2l = 2h,
so m1_L & m1_H adds nothing to m2.)  The table rows are laid out so that
the reflection-canonical sets of any H are one suffix of it.  The
suffixes of consecutive high parts fill one pass of up to 2^15 rows,
typed in one go; a row's set size is its table row's count plus |H|, and
its edge flag the table row's.  A call holds one workspace
(:class:`_Workspace`) for its whole life: the table and every pass
array, written with ``out=``, so a repeated call allocates nothing of
pass size.

The hill climb keeps the exact pair counts of its current set instead,
with the threshold words W_t = {s : count >= t}, t = 1..4, and its mask
as uint64 limbs.  A flip of digit d moves the count of d + a by 2 for
every other digit a and the count of 2d by 1, so the words of a proposal
are a few operations on W_1..W_4 and the mask shifted by d.  The climb
types a window of drawn flip digits in one NumPy pass
(:class:`_FlipKernel`): the shifted masks by a limb gather and a funnel
shift, then the steps of :func:`~cantorsum.gdifs.word_typing`, the one
typing rule (shared with the tower steps and ``analyze``), on
(limbs, window) arrays.  Proposals rank by the exact key 2 lambda =
s + sqrt(q), float64 v filtering and :func:`_root_sum_sign` deciding
where v cannot.  The rows up to the first accept count as evaluated, in
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
missing-edge-digit bound; one flag test per invariant and pass,
:class:`~cantorsum.digitset.InvariantError` on a hit) and ranks the rows.
lambda and dim come from :func:`~cantorsum.gdifs.matrix_dimension`, as
``analyze``'s do, for the rows at a pass's top v, for rows near the
conjecture monitor's threshold (which keeps its float dim test) and
for the streamed records.  Any record whose dimension exceeds
log(2)/log(3) + DIM_TOL is collected for the monitor rather than
silently kept.
"""

from __future__ import annotations

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
_FIGURE_EXHAUSTIVE_MAX_N = 24
_TABLE_DIGITS = 15  # inner digits in the low-part table: 2^15 rows, 768 KB
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
    """Best record plus bookkeeping for manifests and the monitor."""

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


def _record(n: int, mask: int, good: bool, very_good: bool,
            a: int, b: int, c: int, d: int) -> SearchRecord:
    """The record of a typed set, with lambda and dim from
    :func:`~cantorsum.gdifs.matrix_dimension`; takes Python scalars."""
    lam, _, dim = matrix_dimension(a, b, c, d, n)
    return SearchRecord(n=n, digits=tuple(np.flatnonzero(_word_bits(mask, n)).tolist()),
                        good=good, very_good=very_good, a=a, b=b, c=c, d=d, lam=lam, dim=dim)


def _batch_records(n: int, masks: np.ndarray, cols, rows) -> list[SearchRecord]:
    """The records of the given rows of a kernel pass."""
    return [_record(n, *row) for row in
            zip(masks[rows].tolist(), *(col[rows].tolist() for col in cols[:6]))]


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
    sizes and edge flags, uint64 words, the pass's set sizes and edge
    flags, int16 counts, the float32 key and bool flags.  A pass of fewer
    rows uses the start of each array, and only the pages it touches are
    mapped."""

    def __init__(self, rows: int):
        self.table = np.empty((3, rows), dtype=np.uint64)
        self.table_sizes = np.empty(rows, dtype=np.int16)
        self.table_edges = np.empty(rows, dtype=bool)
        self.words = np.empty((5, rows), dtype=np.uint64)
        self.sizes = np.empty(rows, dtype=np.int16)
        self.edges = np.empty(rows, dtype=bool)
        self.counts = np.empty((7, rows), dtype=np.int16)
        self.key = np.empty(rows, dtype=np.float32)
        self.flags = np.empty((5, rows), dtype=bool)
        self.ones = np.ones(rows, dtype=bool)


# Workspaces of 2^_TABLE_DIGITS rows not in use.  A call holds one from
# its first pass to its last, so interleaved or nested calls and threads
# never share one.
_FREE_WORKSPACES: list[_Workspace] = []


def _low_table(n: int, ws: _Workspace):
    """k, s0 and every low part L (digit 0 plus a subset of the inner
    digits 1..k) as rows (mask, m1, m2, size, edge) of the workspace
    table; s0 is the first row whose own reflection pairs are canonical.
    size is the digit count of L, and edge whether L holds digit 1.

    The p = n - 2 - k inner digits above k pair under reflection with
    the prefix digits 1..p; the rest pair among themselves.  The table
    is built by doubling: the self-paired digits p+1..k first, whose
    rows are then stably partitioned so that the ones with mirror >= mask
    form a suffix starting at s0; then digit 0 in place; then the prefix
    digits p..1, digit i doubling on index bit k - i.
    """
    # (n + 10) // 2 keeps the 2^(2k+2-n) rows partitioned per call <= 2^12
    k = min(n - 2, _TABLE_DIGITS, (n + 10) // 2)
    p = n - 2 - k
    table = ws.table[:, :1 << k]
    mirror = ws.words[0, :1 << (k - p)]
    table[:, 0] = mirror[0] = 0
    for j in range(p + 1, k + 1):
        half = 1 << (j - p - 1)
        _add_digit_rows(j, table[:, :half], table[:, half:2 * half])
        np.bitwise_or(mirror[:half], 1 << (n - 1 - j), out=mirror[half:2 * half])
    own = table[:, :len(mirror)]
    canonical = np.greater_equal(mirror, own[0], out=ws.flags[0, :len(mirror)])
    own[:] = np.take(own, np.argsort(canonical, kind="stable"), axis=1)
    _add_digit_rows(0, own, own)
    for i in range(p, 0, -1):
        half = 1 << (k - i)
        _add_digit_rows(i, table[:, :half], table[:, half:2 * half])
    sizes = np.bitwise_count(table[0], out=ws.table_sizes[:1 << k])
    edges = np.not_equal(np.bitwise_and(table[0], 2, out=ws.words[0, :1 << k]), 0,
                         out=ws.table_edges[:1 << k])
    return k, len(canonical) - int(np.count_nonzero(canonical)), (*table, sizes, edges)


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


def _type_batch(n: int, m1: np.ndarray, m2: np.ndarray, sizes: np.ndarray,
                edges: np.ndarray, ws: _Workspace):
    """Vector twin of :func:`~cantorsum.gdifs.word_typing` with the inline
    invariants: (good, very_good, a, b, c, d, v), a..d int16 and v =
    2 lambda from :func:`_two_lambda`, in the workspace.

    `sizes` (int16) are the rows' digit counts and `edges` whether 1 or
    n - 2 is a digit; the very-good rule and the invariants read them.
    The invariants read v, which compares with integers exactly, and are
    tested in order, one flag test each.
    """
    rows = len(m1)
    t, u = ws.words[3:, :rows]
    a, b, c, d, x, y, z = ws.counts[:, :rows]
    good, very_good, good_no_edge, below_2, hit = ws.flags[:, :rows]
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
    # equal row or column sums, a + b == c + d or a + c == b + d, is
    # (a - d)^2 == (b - c)^2
    np.multiply(np.subtract(b, c, out=z), z, out=z)
    np.logical_and(np.equal(x, z, out=very_good), good_no_edge, out=very_good)
    # lambda < 2; with bc = 0 lambda is max(a, d), so such a row is
    # trivial exactly when bc = 0
    np.less(v, 4, out=below_2)
    np.not_equal(y, 0, out=hit)
    if np.logical_and(hit, below_2, out=hit).any():
        raise InvariantError("eigenvalue dichotomy violated")
    if np.greater(v, np.left_shift(sizes, 1, out=x), out=hit).any():
        raise InvariantError("lambda exceeded |A|")
    np.less(np.multiply(sizes, sizes, out=x), n, out=hit)
    if np.logical_and(hit, good, out=hit).any():
        raise InvariantError("good set smaller than sqrt(n)")
    if np.logical_and(below_2, good_no_edge, out=hit).any():
        raise InvariantError("missing-edge-digit bound violated")
    return good, very_good, a, b, c, d, v


def _batches(n: int, require_good: bool, require_very_good: bool,
             tops: range | None = None):
    """(masks, kernel columns, matching flags) of the reflection-canonical
    masks of the high parts in `tops` (default: all), one typing pass at a
    time.  A pass holds the canonical suffixes of consecutive high parts,
    each in table row order, as many as fit the workspace; since a higher
    high part holds only larger masks, the passes follow each other in
    mask order.  The arrays are views into the call's workspace, valid
    until the next pass; a consumer may overwrite them and copies what it
    keeps.

    High part t holds n - 1 and digit k + 1 + i for each bit i of t.
    L | H is canonical when its first unequal reflection pair (i, n-1-i)
    has i set: for i <= p that puts L in a later group of the table than
    the index bits of the partners of H, otherwise at or past s0.  A
    row's set size is its table row's plus |H|, and its edge flag the
    table row's: a canonical set holding n - 2 holds 1 too.
    """
    try:
        ws = _FREE_WORKSPACES.pop()
    except IndexError:  # none free, or another thread took the last one
        ws = _Workspace(1 << _TABLE_DIGITS)
    masks, m1, m2 = ws.words[:3]
    sizes, edges = ws.sizes, ws.edges

    def typed(rows: int):
        cols = _type_batch(n, m1[:rows], m2[:rows], sizes[:rows], edges[:rows], ws)
        keep = cols[1] if require_very_good else cols[0] if require_good else ws.ones[:rows]
        return masks[:rows], cols, keep

    try:
        k, s0, (mask_l, m1_l, m2_l, sizes_l, edges_l) = _low_table(n, ws)
        filled = 0
        for top in range(1 << (n - 2 - k)) if tops is None else tops:
            high = [j for j in range(k + 1, n - 1) if top >> (j - k - 1) & 1]
            start = s0 + sum(1 << (k - (n - 1 - j)) for j in high)
            high.append(n - 1)
            mask_h = m1_h = m2_h = 0
            for j in high:
                mask_h, m1_h, m2_h = _add_digit(j, mask_h, m1_h, m2_h)
            low = mask_l[start:]
            if filled + len(low) > len(masks):
                yield typed(filled)
                filled = 0
            part = slice(filled, filled + len(low))
            filled += len(low)
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
            yield typed(filled)
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
    the exact key v = 2 lambda of the pass rows.
    """
    _check_exhaustive_base(n)
    best: SearchRecord | None = None
    best_v = 0.0
    n_enumerated = 0
    n_matching = 0
    exceed: list[SearchRecord] = []
    # v at dim _MONITOR_DIM, lowered by more than v's error (2 n^dim >= 4);
    # the rows above it take the float dim test that flags them
    monitor_v = 2 * n ** _MONITOR_DIM * (1 - _V_ERROR)
    unconstrained = not (require_good or require_very_good)
    for masks, cols, keep in _batches(n, require_good, require_very_good):
        n_enumerated += len(masks)
        v = cols[6]
        if unconstrained:
            n_matching += len(masks)
        else:
            matching = int(np.count_nonzero(keep))
            n_matching += matching
            if not matching:
                continue
            # a matching row has v >= 2 (a, d >= 1 for canonical sets), so
            # the rows that do not match, at 0, never reach the top; the key
            # column is the pass's own, and nothing reads it after this
            np.multiply(v, keep, out=v)
        top = float(v.max())
        if top > monitor_v:
            exceed.extend(rec for rec in _batch_records(
                n, masks, cols, np.flatnonzero(v > monitor_v))
                if rec.dim > _MONITOR_DIM)
        if best is not None and top < best_v:
            continue
        # the key column, done with, flags the rows at the top
        rows = np.flatnonzero(np.equal(v, top, out=v))
        cand = min(_batch_records(n, masks, cols, rows), key=lambda rec: rec.digits)
        if best is None or top > best_v or cand.digits < best.digits:
            best, best_v = cand, top
    exceed.sort(key=lambda r: (r.n, r.digits))
    return SearchResult(best=best, n_enumerated=n_enumerated,
                        n_matching=n_matching, evaluations=n_enumerated,
                        exceedances=tuple(exceed), source="exhaustive")


def iter_exhaustive_records(n: int, require_good: bool = False,
                            require_very_good: bool = False):
    """Stream every reflection-canonical record (3 <= n <= 32)."""
    _check_exhaustive_base(n)
    for masks, cols, keep in _batches(n, require_good, require_very_good):
        rows = np.flatnonzero(keep)
        yield from _batch_records(n, masks, cols, rows[np.argsort(masks[rows])])


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
    bound unless the set is good.  Non-good proposals are evaluated
    (they cost budget) but never climbed onto when goodness is
    required.  A climb ends after 4n + 1 rejections in a row (a stuck
    run).  The climb carries the pair counts of its current set and
    their threshold words, and types its proposals a window of drawn
    digits at a time in one NumPy pass (:class:`_FlipKernel`).  The rows up to the first
    accept count as evaluated, in order; an accept updates the counts,
    and the rest of the window is typed again from the new set.  A
    climb's first window covers every flip it is sure to evaluate (the
    rest of the budget or of the stuck run) within the byte bound on its
    arrays.  After an accept the window spans about _ACCEPT_LIMBS limbs
    and doubles while nothing is accepted, so a climb that accepts often
    does not retype long windows.  The flip digits are drawn as windows
    need them, never more than the budget or the stuck run leave, so
    every drawn digit is used and the result is that of one draw per
    flip.  The arrays are cut from a scratch block that the climb takes
    from a free list and returns.  `budget` (>= 1, else ValueError) caps
    the number of single-set evaluations.  For n <= 8 (at most 64 sets)
    this is :func:`search_exhaustive`, and `budget` and `seed` are
    otherwise unused.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n <= 8:
        return search_exhaustive(n, require_good, require_very_good)
    base = 1 | (1 << (n - 1))
    lead = None  # (s, q, mask, good, (a, b, c, d)) of the best matching set
    best_v = 0.0
    exceed: list[SearchRecord] = []
    matching = 0
    rng = np.random.default_rng(seed)
    evals = 0
    unconstrained = not (require_good or require_very_good)
    # float64 v is far within _V_ERROR of 2 lambda; rows above monitor_v
    # take the float dim test of the conjecture monitor
    monitor_v = 2 * n ** _MONITOR_DIM * (1 - _V_ERROR)
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

    def record(mask: int, good: bool, abcd: tuple[int, int, int, int]) -> SearchRecord:
        edge = mask >> 1 & 1 | mask >> n - 2 & 1  # 1 or n - 2 a digit
        return _record(n, mask, good, very_good_rule(good, edge, *abcd), *abcd)

    def offer(mask: int, good: bool, abcd: tuple[int, int, int, int], v: float) -> None:
        """Take a matching set that can end up best or exceed the monitor;
        the best is kept as its key and mask, recorded once at the end."""
        nonlocal lead, best_v
        if v > monitor_v and matrix_dimension(*abcd, n)[2] > _MONITOR_DIM:
            exceed.append(record(mask, good, abcd))
        a, b, c, d = abcd
        key = a + d, (a - d) ** 2 + 4 * b * c, mask
        if lead is None or _outranks(*key, *lead[:3]):
            lead, best_v = (*key, good, abcd), v

    def tally(cols, flips) -> None:
        """Count the typed flips of the current set as evaluated, in
        order, and offer the matching ones that can end up best."""
        nonlocal evals, matching
        good, a, b, c, d, _, _, v = cols
        evals += len(v)
        if unconstrained:
            match = None
            matching += len(v)
            top = v.max()
        else:
            if require_very_good:
                ind = current.ind  # 1 or n - 2 a digit of the flipped set
                edge = ind[1] ^ (flips == 1) | ind[n - 2] ^ (flips == n - 2)
                match = very_good_rule(good, edge, a, b, c, d)
            else:
                match = good
            matching += int(np.count_nonzero(match))
            top = v.max(initial=0.0, where=match)
        floor = min(monitor_v, max(top, best_v) * (1 - _V_ERROR))
        if top < floor:
            return
        keep = v >= floor
        if match is not None:
            keep &= match
        for i in np.flatnonzero(keep).tolist():
            offer(current.mask ^ 1 << int(flips[i]), bool(good[i]),
                  (int(a[i]), int(b[i]), int(c[i]), int(d[i])), float(v[i]))

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
                if key[2] >= min(monitor_v, best_v * (1 - _V_ERROR)):
                    offer(current.mask, good, (a, b, c, d), key[2])
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
                tally([col[:used] for col in cols], digits[:used])
                drawn = drawn[used:]
                if i < 0:
                    stuck += used
                    window = min(2 * window, rows)
                else:
                    current.flip(int(digits[i]))
                    key = int(cols[5][i]), int(cols[6][i]), float(cols[7][i])
                    stuck = 0
                    window = after_accept
    finally:
        _FREE_SCRATCH.append(scratch)
    best = None if lead is None else record(*lead[2:])
    exceed.sort(key=lambda r: (r.n, r.digits))
    return SearchResult(best=best, n_enumerated=evals, n_matching=matching,
                        evaluations=evals, exceedances=tuple(exceed),
                        source="heuristic")


def figure_data(n_lo: int, n_hi: int, budget: int = 10_000, seed: int = 0):
    """Best known dimension per base, for plotting against log2/log3.

    Per base: exhaustive search through base 24, otherwise hill climbing.
    No tower-chain floor is needed: the exhaustive search enumerates the
    tower set and the climb's first start is that set, evaluated since
    `budget` >= 1, so neither can end below it.  Returns (rows,
    exceedances) where rows are (n, best_dim, reference).
    """
    rows: list[tuple[int, float, float]] = []
    exceed: list[SearchRecord] = []
    for n in range(n_lo, n_hi + 1):
        if n <= _FIGURE_EXHAUSTIVE_MAX_N:
            res = search_exhaustive(n, require_good=True)
        else:
            res = search_heuristic(n, budget=budget, seed=seed)
        exceed.extend(res.exceedances)
        rows.append((n, res.best.dim, LOG2_OVER_LOG3))
    return rows, exceed
