"""Exhaustive and randomized search for large uniqueness dimensions.

Digit sets live in machine words: bit d of a mask means digit d is
present.  Everything the typing rules need is two sumset words: m1
marks the sums s with at least one ordered pair (a, a') in A x A,
a + a' = s, and m2 the sums with at least two, so m1 & ~m2 marks the
unique sums.  Goodness and the L/R interval words are a few shifts of
them, and the quadrant counts a, b, c, d four popcounts.

The words are built two ways.  The exhaustive kernel splits each set
into a low part L (digit 0 and the inner digits up to k <= 15) and
high digits H (n - 1 and the rest).  A table of every L and its words
is built once per call by doubling: adding digit j to each row puts
the cross sums a + j into both words (pairs (a, j) and (j, a)) and 2j
into m1.  A batch fixes H and crosses it with the table the same way:
with X = OR_h (L << h) the words are m1_L | X | m1_H and
m2_L | X | m2_H, |H| + 4 vector operations.  (A sum of both L + L and
H + H with one pair on each side would be 2l = 2h, so m1_L & m1_H adds
nothing to m2.)  The table rows are laid out so that the
reflection-canonical sets of any batch are one suffix of it.  A call
holds one workspace (:class:`_Workspace`) for its whole life: the table
and every batch array, written with ``out=``, so a repeated call
allocates nothing of batch size.

The hill climb keeps the exact pair counts of its current set instead,
with the threshold words W_t = {s : count >= t}, t = 1..4.  A flip of
digit d moves the count of d + a by 2 for every other digit a and the
count of 2d by 1, so the words of a proposal are a few big-int
operations on W_1..W_4 (:meth:`_PairCounts.trial`); only an accepted
flip updates the counts and rebuilds the four words.  Flip digits
are drawn in blocks that the climb always uses up, so a seeded climb
equals one that draws one digit per flip.  One typing
rule, :func:`~cantorsum.gdifs.word_typing` (shared with the tower steps
and ``analyze``), turns the two words alone into goodness,
very-goodness and a, b, c, d; the batch kernel takes its steps on
uint64 arrays into the workspace.  Tests hold the batch kernel to
that rule, and the incremental updates, the proposal words, a
flip-and-retype climb, an independent shift-loop batch kernel and the
reference interval-typing path to identical answers.  One batch loop,
:func:`_batches`, serves the exhaustive search and the record stream.

A batch row carries one key besides a, b, c, d: v = 2 lambda =
(a + d) + sqrt((a - d)^2 + 4bc) in float32 (:func:`_two_lambda`).  On
every matrix of a base <= 32 (a + b <= n, c + d <= n) v is exact: it
orders and ties matrices as their Perron eigenvalues do and compares
with integers as 2 lambda does, which the tests check on that whole
domain.  So v checks the cheap invariants inline (eigenvalue
dichotomy, lambda <= |A|, good sets need >= sqrt(n) digits, the
missing-edge-digit bound; one flag test per invariant and batch,
:class:`~cantorsum.digitset.InvariantError` on a hit) and ranks the rows.
lambda and dim come from :func:`~cantorsum.gdifs.matrix_dimension`, as
``analyze``'s do, for the rows at a batch's top v, for rows near the
conjecture monitor's threshold (which keeps its float dim test) and
for the streamed records.  Any record whose dimension exceeds
log(2)/log(3) + DIM_TOL is collected for the monitor rather than
silently kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import chain_to_target, load_base_table, sqrt_good_set
from .digitset import DigitSet, InvariantError, _bits_word, _word_bits, pair_sum_counts
from .gdifs import DIM_TOL, matrix_dimension, word_typing

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
# The float32 key v = 2 lambda of a batch row is within _V_ERROR of the
# exact value for v <= 64 (lambda <= |A| <= 32)
_V_ERROR = 1e-5
# Flip digits drawn per NumPy call in a climb; bounds the block's memory
_FLIP_BLOCK = 1024


class InfeasibleSearchError(ValueError):
    """Exhaustive enumeration refused; use the heuristic search."""


@dataclass(frozen=True)
class SearchRecord:
    """One analyzed digit set, as a table row."""

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


def _type_words(n: int, m1: int, m2: int):
    """Typing of one set's words, with lambda and dim from their owner."""
    good, very_good, a, b, c, d, _, _ = word_typing(n, m1, m2, int.bit_count)
    lam, _, dim = matrix_dimension(a, b, c, d, n)
    return good, very_good, a, b, c, d, lam, dim


class _PairCounts:
    """Exact ordered pair counts of one digit set, with threshold words.

    cnt[s] = #{(x, y) in A x A : x + y = s} for s in 0..2n-2, started
    from :func:`~cantorsum.digitset.pair_sum_counts`; ind is the digit
    indicator of A and words[t - 1] the word of the sums with
    cnt[s] >= t, t = 1..4.  :meth:`trial` reads a flipped set's sumset
    words off those four words without touching the counts; only
    :meth:`flip` updates them.  The mask must hold digits 0 and n - 1.
    """

    __slots__ = ("n", "mask", "ind", "cnt", "words")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        self.ind = _word_bits(mask, n).astype(np.int64)
        self.cnt = pair_sum_counts(np.flatnonzero(self.ind))
        self._rebuild_words()

    def _rebuild_words(self) -> None:
        self.words = tuple(_bits_word(self.cnt >= t) for t in (1, 2, 3, 4))

    def trial(self, d: int):
        """(mask, m1, m2) of the set with digit d flipped.

        Adding d is :func:`_add_digit`.  Removing d takes 2 from the count
        of every a + d, a != d, which was at least 2, so those bits of m1
        and m2 come from the words t = 3 and 4.  The count of 2d is odd and
        drops by 1: its m1 bit comes from t = 2, and its m2 bit from
        t = 3, which at an odd count is the bit m2 already holds.
        """
        w1, w2, w3, w4 = self.words
        bit = 1 << d
        if not self.mask & bit:
            return _add_digit(d, self.mask, w1, w2)
        mask = self.mask ^ bit
        cross = mask << d
        keep = ~cross
        double = 1 << 2 * d
        m1 = (w1 & keep | w3 & cross) & ~double | w2 & double
        return mask, m1, w2 & keep | w4 & cross

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


def _record(n: int, mask: int, row) -> SearchRecord:
    good, very_good, a, b, c, d, lam, dim = row
    return SearchRecord(
        n=n, digits=tuple(np.flatnonzero(_word_bits(mask, n)).tolist()), good=bool(good),
        very_good=bool(very_good), a=int(a), b=int(b), c=int(c), d=int(d),
        lam=float(lam), dim=float(dim),
    )


def _batch_records(n: int, masks: np.ndarray, cols, rows) -> list[SearchRecord]:
    """The records of the given rows of a kernel batch, with lambda and
    dim from :func:`~cantorsum.gdifs.matrix_dimension`."""
    records = []
    for mask, *row in zip(masks[rows].tolist(), *(col[rows].tolist() for col in cols[:6])):
        lam, _, dim = matrix_dimension(*row[2:], n)
        records.append(_record(n, mask, (*row, lam, dim)))
    return records


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


def _better(cand: SearchRecord, best: SearchRecord | None) -> bool:
    """Maximize dim; break exact ties toward the smaller digit list.

    Within one base dim orders as lambda, and 2 lambda =
    (a + d) + sqrt((a - d)^2 + 4bc) is compared exactly from the
    integer matrix, so the float dims only serve for display.
    """
    if best is None:
        return True
    order = _root_sum_sign(
        cand.a + cand.d, (cand.a - cand.d) ** 2 + 4 * cand.b * cand.c,
        best.a + best.d, (best.a - best.d) ** 2 + 4 * best.b * best.c,
    )
    if order:
        return order > 0
    return cand.digits < best.digits


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
    """The arrays of exhaustive batches of up to `rows` rows, which every
    kernel step writes with ``out=``: the low table, uint64 words, int16
    counts, the float32 key and bool flags.  A batch of fewer rows uses
    the start of each array, and only the pages it touches are mapped."""

    def __init__(self, rows: int):
        self.table = np.empty((3, rows), dtype=np.uint64)
        self.words = np.empty((5, rows), dtype=np.uint64)
        self.counts = np.empty((6, rows), dtype=np.int16)
        self.key = np.empty(rows, dtype=np.float32)
        self.flags = np.empty((5, rows), dtype=bool)
        self.ones = np.ones(rows, dtype=bool)


# Workspaces of 2^_TABLE_DIGITS rows not in use.  A call holds one from
# its first batch to its last, so interleaved or nested calls and threads
# never share one.
_FREE_WORKSPACES: list[_Workspace] = []


def _low_table(n: int, ws: _Workspace | None = None):
    """k, s0 and every low part L (digit 0 plus a subset of the inner
    digits 1..k) as rows (mask, m1, m2) of the workspace table; s0 is
    the first row whose own reflection pairs are canonical.

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
    ws = ws or _Workspace(1 << k)
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
    return k, len(canonical) - int(np.count_nonzero(canonical)), tuple(table)


def _two_lambda(a, b, c, d, out=None):
    """v = 2 lambda = (a + d) + sqrt((a - d)^2 + 4bc) in float32, from
    int16 columns: exact while a + b and c + d are at most 32.  `out` is
    v and two int16 scratch columns, or None for new arrays."""
    v, x, y = out or (np.empty(a.shape, np.float32), np.empty_like(a), np.empty_like(a))
    np.multiply(np.subtract(a, d, out=x), x, out=x)
    np.left_shift(np.multiply(b, c, out=y), 2, out=y)
    np.sqrt(np.add(x, y, out=x), out=v, dtype=np.float32)
    v += np.add(a, d, out=x)
    return v


def _type_batch(n: int, masks: np.ndarray, m1: np.ndarray, m2: np.ndarray,
                ws: _Workspace | None = None):
    """Vector twin of :func:`_type_words` with the inline invariants:
    (good, very_good, a, b, c, d, v), a..d int16 and v = 2 lambda from
    :func:`_two_lambda`, in the workspace (a new one if None).

    The steps are those of :func:`~cantorsum.gdifs.word_typing`, with
    one edge-digit test for both the very-good rule and the
    missing-edge-digit invariant.  The invariants read v, which compares
    with integers exactly, and are tested in order, one flag test each.
    """
    rows = len(masks)
    ws = ws or _Workspace(rows)
    t, u = ws.words[3:, :rows]
    a, b, c, d, x, y = ws.counts[:, :rows]
    good, very_good, good_no_edge, below_2, hit = ws.flags[:, :rows]
    v = ws.key[:rows]
    # good: m1 | m1 >> 1 is all ones; neither 1 nor n - 2 a digit:
    # m1 | m1 >> (2n - 4) has bit 1 clear
    np.bitwise_or(np.right_shift(m1, 1, out=t), m1, out=t)
    np.equal(t, (1 << 2 * n - 1) - 1, out=good)
    np.bitwise_or(np.right_shift(m1, 2 * n - 4, out=t), m1, out=t)
    np.equal(np.bitwise_and(t, 2, out=t), 0, out=good_no_edge)
    good_no_edge &= good
    # with unique = m1 ^ m2, R = unique << 1 & ~m1 is t << 1 for
    # t = unique & ~(m1 >> 1), and L = unique & ~(m1 << 1); the count of
    # a word's upper half is its popcount less that of its bits below n
    np.bitwise_xor(m1, m2, out=u)
    np.bitwise_and(np.right_shift(m1, 1, out=t), u, out=t)
    t ^= u
    np.bitwise_count(t, out=d)
    np.bitwise_count(np.bitwise_and(t, (1 << n - 1) - 1, out=t), out=b)
    d -= b
    u ^= np.bitwise_and(np.left_shift(m1, 1, out=t), u, out=t)
    np.bitwise_count(u, out=c)
    np.bitwise_count(np.bitwise_and(u, (1 << n) - 1, out=u), out=a)
    c -= a
    # equal row or column sums, a + b == c + d or a + c == b + d, is
    # |a - d| == |b - c|
    np.abs(np.subtract(a, d, out=x), out=x)
    np.equal(x, np.abs(np.subtract(b, c, out=y), out=y), out=very_good)
    very_good &= good_no_edge
    _two_lambda(a, b, c, d, (v, x, y))
    size = np.bitwise_count(masks, out=y)
    # lambda < 2; with bc = 0 lambda is max(a, d), so such a row is
    # trivial exactly when bc = 0
    np.less(v, 4, out=below_2)
    np.not_equal(np.multiply(b, c, out=x), 0, out=hit)
    if np.logical_and(hit, below_2, out=hit).any():
        raise InvariantError("eigenvalue dichotomy violated")
    if np.greater(v, np.left_shift(size, 1, out=x), out=hit).any():
        raise InvariantError("lambda exceeded |A|")
    np.less(np.multiply(size, size, out=x), n, out=hit)
    if np.logical_and(hit, good, out=hit).any():
        raise InvariantError("good set smaller than sqrt(n)")
    if np.logical_and(below_2, good_no_edge, out=hit).any():
        raise InvariantError("missing-edge-digit bound violated")
    return good, very_good, a, b, c, d, v


def _batches(n: int, require_good: bool, require_very_good: bool,
             tops: range | None = None):
    """(masks, kernel columns, matching flags) of the reflection-canonical
    masks of each high part in `tops` (default: all), in table row order.
    The arrays are views into the call's workspace, valid until the next
    batch; a consumer may overwrite them and copies what it keeps.

    High part t holds n - 1 and digit k + 1 + i for each bit i of t.
    L | H is canonical when its first unequal reflection pair (i, n-1-i)
    has i set: for i <= p that puts L in a later group of the table than
    the index bits of the partners of H, otherwise at or past s0.
    """
    try:
        ws = _FREE_WORKSPACES.pop()
    except IndexError:  # none free, or another thread took the last one
        ws = _Workspace(1 << _TABLE_DIGITS)
    try:
        k, s0, (mask_l, m1_l, m2_l) = _low_table(n, ws)
        for top in range(1 << (n - 2 - k)) if tops is None else tops:
            high = [j for j in range(k + 1, n - 1) if top >> (j - k - 1) & 1]
            start = s0 + sum(1 << (k - (n - 1 - j)) for j in high)
            high.append(n - 1)
            mask_h = m1_h = m2_h = 0
            for j in high:
                mask_h, m1_h, m2_h = _add_digit(j, mask_h, m1_h, m2_h)
            low = mask_l[start:]
            masks, m1, m2, cross = ws.words[:4, :len(low)]
            np.bitwise_or(low, mask_h, out=masks)
            np.left_shift(low, high[0], out=cross)
            for j in high[1:]:
                cross |= np.left_shift(low, j, out=m2)
            np.bitwise_or(np.bitwise_or(m1_l[start:], cross, out=m1), m1_h, out=m1)
            np.bitwise_or(np.bitwise_or(m2_l[start:], cross, out=m2), m2_h, out=m2)
            cols = _type_batch(n, masks, m1, m2, ws)
            keep = (cols[1] if require_very_good else cols[0] if require_good
                    else ws.ones[:len(low)])
            yield masks, cols, keep
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
    record maximizes dim under the constraints, ties broken by the
    lexicographically smallest digit list; both are decided by the
    exact key v = 2 lambda of the batch rows.
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
    for masks, cols, keep in _batches(n, require_good, require_very_good):
        n_enumerated += len(masks)
        matching = int(np.count_nonzero(keep))
        n_matching += matching
        if not matching:
            continue
        # a matching row has v >= 2 (a, d >= 1 for canonical sets), so the
        # rows that do not match, at 0, never reach the top; the key column
        # is the batch's own, and nothing reads it after this
        v = np.multiply(cols[6], keep, out=cols[6])
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


def _seed_masks(n: int) -> list[int]:
    """Deterministic warm starts: tower chain, sqrt family, full set.

    For n >= 9 neither construction fails: the chain reaches every such
    base from the bundled table of bases 9..27 (for n <= 27 it is that
    table row), and sqrt_good_set needs only n >= 9.
    """
    sets = [chain_to_target(n, load_base_table()).final.digitset,
            sqrt_good_set(n)] if n >= 9 else []
    seeds = [sum(1 << d for d in A.digits) for A in sets]
    seeds.append((1 << n) - 1)  # the full digit set is always good
    return list(dict.fromkeys(seeds))


def search_heuristic(n: int, budget: int = 10_000, seed: int = 0,
                     require_good: bool = True,
                     require_very_good: bool = False) -> SearchResult:
    """Randomized hill climbing over digit flips, deterministic by seed.

    Starts from tower/table/sqrt seeds plus random restarts, flipping
    one interior digit at a time and keeping strict improvements;
    non-good proposals are evaluated (they cost budget) but never
    climbed onto when goodness is required.  The climb carries the pair
    counts of its current set and their threshold words; a proposal is
    typed from the words alone (:meth:`_PairCounts.trial`), and only an
    accepted one updates the counts, so a rejection has nothing to
    undo.  The flip digits come in blocks no longer than the budget or
    the stuck run left, so every drawn digit is used and the result is
    that of one draw per flip.  `budget` caps the number of
    single-set evaluations.  For n <= 8 (at most 64 sets) this is
    :func:`search_exhaustive`, and `budget` and `seed` are unused.
    """
    if n <= 8:
        return search_exhaustive(n, require_good, require_very_good)
    base = 1 | (1 << (n - 1))
    best: SearchRecord | None = None
    exceed: list[SearchRecord] = []
    matching = 0
    rng = np.random.default_rng(seed)
    evals = 0
    unconstrained = not (require_good or require_very_good)

    def consider(mask: int, row):
        """Count the typed set if it matches, recording it only if it can
        be best or exceeds; returns (climbable, dim)."""
        nonlocal best, evals, matching
        evals += 1
        good, dim = row[0], row[7]
        if not ((require_very_good and not row[1]) or (require_good and not good)):
            matching += 1
            over = dim > _MONITOR_DIM
            if over or best is None or dim >= best.dim:
                cand = _record(n, mask, row)
                if over:
                    exceed.append(cand)
                if _better(cand, best):
                    best = cand
        return good or unconstrained, dim

    def starts():
        yield from _seed_masks(n)
        while True:
            yield base | _random_inner(rng, n - 2) << 1

    start_masks = starts()
    max_stuck = 4 * n
    while evals < budget:
        current = _PairCounts(n, next(start_masks))
        climbable, current_dim = consider(current.mask, _type_words(n, *current.words[:2]))
        stuck = 0
        while climbable and evals < budget and stuck <= max_stuck:
            # neither exit can fall inside a block (an accept only resets
            # stuck), and a size-k draw is k scalar draws of the stream
            block = min(budget - evals, max_stuck + 1 - stuck, _FLIP_BLOCK)
            for d in rng.integers(1, n - 1, size=block).tolist():
                mask, m1, m2 = current.trial(d)
                ok, dim = consider(mask, _type_words(n, m1, m2))
                if ok and dim > current_dim:
                    current.flip(d)
                    current_dim = dim
                    stuck = 0
                else:
                    stuck += 1
    exceed.sort(key=lambda r: (r.n, r.digits))
    return SearchResult(best=best, n_enumerated=evals, n_matching=matching,
                        evaluations=evals, exceedances=tuple(exceed),
                        source="heuristic")


def figure_data(n_lo: int, n_hi: int, budget: int = 10_000, seed: int = 0):
    """Best known dimension per base, for plotting against log2/log3.

    Per base: exhaustive search through base 24, otherwise hill climbing
    floored by the tower-chain value.  Returns (rows, exceedances)
    where rows are (n, best_dim, reference).
    """
    rows: list[tuple[int, float, float]] = []
    exceed: list[SearchRecord] = []
    for n in range(n_lo, n_hi + 1):
        if n <= _FIGURE_EXHAUSTIVE_MAX_N:
            res = search_exhaustive(n, require_good=True)
        else:
            res = search_heuristic(n, budget=budget, seed=seed)
        best = res.best.dim if res.best is not None else 0.0
        if n >= 9:
            best = max(best, chain_to_target(n).final.dim)
        exceed.extend(res.exceedances)
        rows.append((n, best, LOG2_OVER_LOG3))
    return rows, exceed
