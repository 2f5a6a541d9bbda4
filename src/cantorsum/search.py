"""Exhaustive and randomized search for large uniqueness dimensions.

Digit sets live in machine words: bit d of a mask means digit d is
present.  Everything the typing rules need is two sumset words: m1
marks the sums s with at least one ordered pair (a, a') in A x A,
a + a' = s, and m2 the sums with at least two, so m1 & ~m2 marks the
unique sums.  From those words:

* Goodness is "support dilated by two shifts covers 0..2n-2".
* L/R interval words follow from the unique and support words, and the
  quadrant counts a, b, c, d are four popcounts.

The words are built two ways.  The exhaustive kernel works on numpy
arrays of masks with a carry-save pass over the mask shifted by each of
its own digits (the number of shifted words covering s *is* the
ordered-pair count of s); no per-pair loop, which is what makes full
enumeration at base 27 (2^25 sets) a matter of seconds to minutes.
The hill climb keeps the exact pair-count array of its current set
instead: flipping digit d moves the count of d + a by 2 for every other
digit a and the count of 2d by 1, so one proposal costs a few vector
operations of length 2n, and the words are the thresholds count > 0
and count > 1.  One Python typing tail turns those words into a row,
with lambda, dim and very-goodness from their owner, ``gdifs``; tests
hold the two paths, the incremental updates and the reference
interval-typing path to identical answers.  One batch loop,
:func:`_batches`, serves the exhaustive search and the record stream.

Every batch also checks the cheap integer invariants inline
(eigenvalue dichotomy, lambda <= |A|, good sets need >= sqrt(n)
digits, the missing-edge-digit bound) and raises
:class:`~cantorsum.digitset.InvariantError` on a violation; any record
whose dimension exceeds log(2)/log(3) + DIM_TOL is collected for the
conjecture monitor rather than silently kept.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constructions import (
    BaseMissingError,
    chain_to_target,
    load_base_table,
    sqrt_good_set,
)
from .digitset import DigitSet, InvariantError
from .gdifs import DIM_TOL, matrix_dimension, very_good_rule

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
EXHAUSTIVE_MAX_N = 30
_FIGURE_EXHAUSTIVE_MAX_N = 18
_BATCH = 1 << 20

# 16-bit reversal table; two lookups reverse the <= 30-bit masks.
_REV16 = np.zeros(1 << 16, dtype=np.uint64)
for _i in range(16):
    _REV16 |= ((np.arange(1 << 16, dtype=np.uint64) >> _i) & 1) << (15 - _i)


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

    def csv_row(self) -> tuple:
        return (
            self.n, ";".join(map(str, self.digits)), self.good, self.very_good,
            self.a, self.b, self.c, self.d, self.lam, self.dim,
        )

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


def _indicator(n: int, mask: int) -> np.ndarray:
    """Bit d of the mask as entry d of a 0/1 array of length n."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def _mask_digits(n: int, mask: int) -> tuple[int, ...]:
    return tuple(np.flatnonzero(_indicator(n, mask)).tolist())


def _reflect_mask(n: int, mask: np.ndarray) -> np.ndarray:
    rev32 = (_REV16[mask & np.uint64(0xFFFF)] << np.uint64(16)) | _REV16[mask >> np.uint64(16)]
    return rev32 >> np.uint64(32 - n)


def _kernel(n: int, masks: np.ndarray):
    """Vectorized analysis of a batch of digit-set masks."""
    m1 = np.zeros_like(masks)
    m2 = np.zeros_like(masks)
    one = np.uint64(1)
    for d in range(n):
        has = ((masks >> np.uint64(d)) & one).astype(bool)
        w = np.where(has, masks << np.uint64(d), np.uint64(0))
        m2 |= m1 & w
        m1 |= w
    word_mask = np.uint64((1 << (2 * n)) - 1)
    low_mask = np.uint64((1 << n) - 1)
    below_top = np.uint64((1 << (2 * n - 2)) - 1)
    m1 &= word_mask
    m2 &= word_mask
    # a gap > 2 shows as a support bit with the next two bits clear
    bad = m1 & ~(m1 >> one) & ~(m1 >> np.uint64(2)) & below_top
    good = bad == 0
    unique = m1 & ~m2
    l_word = (unique & ~(m1 << one)) & word_mask
    r_word = ((unique << one) & ~m1) & word_mask
    a = np.bitwise_count(l_word & low_mask).astype(np.int64)
    b = np.bitwise_count(r_word & low_mask).astype(np.int64)
    c = np.bitwise_count(l_word >> np.uint64(n)).astype(np.int64)
    d = np.bitwise_count(r_word >> np.uint64(n)).astype(np.int64)
    lam = ((a + d) + np.sqrt((a - d) ** 2 + 4 * b * c)) / 2.0
    trivial = (b * c == 0) & (np.maximum(a, d) <= 1)
    dim = np.where(trivial, 0.0, np.log(np.maximum(lam, 1.0)) / math.log(n))
    size = np.bitwise_count(masks).astype(np.int64)
    bit1 = ((masks >> one) & one).astype(bool)
    bitn2 = ((masks >> np.uint64(n - 2)) & one).astype(bool)
    very_good = good & ~bit1 & ~bitn2 & ((a + b == c + d) | (a + c == b + d))
    # inline integer invariants: dichotomy, containment, size bounds
    if not np.all(trivial | (lam >= 2 - DIM_TOL)):
        raise InvariantError("eigenvalue dichotomy violated")
    if not np.all(lam <= size + DIM_TOL):
        raise InvariantError("lambda exceeded |A|")
    if not np.all(~good | (size * size >= n)):
        raise InvariantError("good set smaller than sqrt(n)")
    if not np.all(~(good & ~bit1 & ~bitn2) | (lam >= 2 - DIM_TOL)):
        raise InvariantError("missing-edge-digit bound violated")
    return good, very_good, a, b, c, d, lam, dim


def _type_words(n: int, mask: int, m1: int, m2: int):
    """Goodness, typing, lambda and dim from the sumset words of a mask.

    Bit s of m1 (m2) is set when s has at least one (two) ordered pairs.
    """
    word_mask = (1 << (2 * n)) - 1
    below_top = (1 << (2 * n - 2)) - 1
    good = m1 & ~(m1 >> 1) & ~(m1 >> 2) & below_top == 0
    unique = m1 & ~m2
    l_word = (unique & ~(m1 << 1)) & word_mask
    r_word = ((unique << 1) & ~m1) & word_mask
    low_mask = (1 << n) - 1
    a = (l_word & low_mask).bit_count()
    b = (r_word & low_mask).bit_count()
    c = (l_word >> n).bit_count()
    d = (r_word >> n).bit_count()
    lam, _, dim = matrix_dimension(a, b, c, d, n)
    edge_digit = (mask >> 1) & 1 or (mask >> (n - 2)) & 1
    very_good = very_good_rule(good, edge_digit, a, b, c, d)
    return good, very_good, a, b, c, d, lam, dim


def _word(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class _PairCounts:
    """Exact ordered pair counts of one digit set, updated digit by digit.

    cnt[s] = #{(x, y) in A x A : x + y = s} for s in 0..2n-2, and ind is
    the digit indicator of A, so cnt is the self-convolution of ind.
    """

    __slots__ = ("n", "mask", "ind", "cnt")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        self.ind = _indicator(n, mask).astype(np.int64)
        self.cnt = np.convolve(self.ind, self.ind)

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

    def row(self):
        return _type_words(self.n, self.mask, _word(self.cnt > 0), _word(self.cnt > 1))


def eval_mask(n: int, mask: int):
    """Scalar twin of the batch kernel: pair counts, words, typing."""
    return _PairCounts(n, mask).row()


def _record(n: int, mask: int, row) -> SearchRecord:
    good, very_good, a, b, c, d, lam, dim = row
    return SearchRecord(
        n=n, digits=_mask_digits(n, mask), good=bool(good),
        very_good=bool(very_good), a=int(a), b=int(b), c=int(c), d=int(d),
        lam=float(lam), dim=float(dim),
    )


def _batch_record(n: int, masks: np.ndarray, cols, i: int) -> SearchRecord:
    """The record of row i of a kernel batch."""
    return _record(n, int(masks[i]), tuple(col[i] for col in cols))


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
    integer matrix, so the float dims (whose last bit depends on which
    log computed them) only serve for display.
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


def _masks_for(n: int, lo: int, hi: int) -> np.ndarray:
    inner = np.arange(lo, hi, dtype=np.uint64)
    return np.uint64(1) | (inner << np.uint64(1)) | np.uint64(1 << (n - 1))


def _batches(n: int, lo: int, hi: int, require_good: bool,
             require_very_good: bool):
    """(masks, kernel columns, matching flags) per batch of the
    reflection-canonical masks with subset indices lo..hi-1."""
    for start in range(lo, hi, _BATCH):
        masks = _masks_for(n, start, min(start + _BATCH, hi))
        canonical = _reflect_mask(n, masks) >= masks
        masks = masks[canonical]
        if len(masks) == 0:
            continue
        cols = _kernel(n, masks)
        if require_very_good:
            keep = cols[1]
        elif require_good:
            keep = cols[0]
        else:
            keep = np.ones(len(masks), dtype=bool)
        yield masks, cols, keep


def _scan_range(n: int, lo: int, hi: int, require_good: bool,
                require_very_good: bool):
    best: SearchRecord | None = None
    n_enumerated = 0
    n_matching = 0
    exceed: list[SearchRecord] = []
    for masks, cols, keep in _batches(n, lo, hi, require_good, require_very_good):
        dim = cols[7]
        n_enumerated += len(masks)
        n_matching += int(np.count_nonzero(keep))
        for i in np.flatnonzero(keep & (dim > _MONITOR_DIM)):
            exceed.append(_batch_record(n, masks, cols, i))
        if not np.any(keep):
            continue
        dims = np.where(keep, dim, -1.0)
        top = dims.max()
        if best is not None and top < best.dim:
            continue
        for i in np.flatnonzero(dims == top):
            cand = _batch_record(n, masks, cols, i)
            if _better(cand, best):
                best = cand
    return best, n_enumerated, n_matching, exceed


def search_exhaustive(n: int, require_good: bool = False,
                      require_very_good: bool = False,
                      threads: int = 1) -> SearchResult:
    """Enumerate every canonical digit set for base n (n <= 30).

    Sets are deduplicated under reflection (the kept representative is
    the one whose mask is not larger than its mirror's).  The best
    record maximizes dim under the constraints, ties broken by the
    lexicographically smallest digit list.  Work splits over
    subset-index ranges; the merge is associative and commutative, so
    the result does not depend on the thread count.
    """
    if n < 3:
        raise ValueError("base must be >= 3")
    if n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSearchError(
            f"2^{n - 2} digit sets is beyond exhaustive reach; "
            f"use search_heuristic"
        )
    total = 1 << (n - 2)
    threads = max(1, int(threads))
    if threads == 1 or total < 4 * _BATCH:
        parts = [_scan_range(n, 0, total, require_good, require_very_good)]
    else:
        bounds = np.linspace(0, total, threads + 1, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda se: _scan_range(n, int(se[0]), int(se[1]),
                                       require_good, require_very_good),
                zip(bounds[:-1], bounds[1:]),
            ))
    best: SearchRecord | None = None
    n_enumerated = 0
    n_matching = 0
    exceed: list[SearchRecord] = []
    for b_part, ne, nm, ex in parts:
        n_enumerated += ne
        n_matching += nm
        exceed.extend(ex)
        if b_part is not None and _better(b_part, best):
            best = b_part
    exceed.sort(key=lambda r: (r.n, r.digits))
    return SearchResult(best=best, n_enumerated=n_enumerated,
                        n_matching=n_matching, evaluations=n_enumerated,
                        exceedances=tuple(exceed), source="exhaustive")


def iter_exhaustive_records(n: int, require_good: bool = False,
                            require_very_good: bool = False):
    """Stream every reflection-canonical record (small n)."""
    if n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSearchError("too many sets to stream")
    for masks, cols, keep in _batches(n, 0, 1 << (n - 2), require_good,
                                      require_very_good):
        for i in np.flatnonzero(keep):
            yield _batch_record(n, masks, cols, i)


def _random_inner(rng, bits: int) -> int:
    """Uniform random integer with the given bit width (any width)."""
    val = 0
    for off in range(0, bits, 32):
        width = min(32, bits - off)
        val |= int(rng.integers(0, 1 << width)) << off
    return val


def _seed_masks(n: int) -> list[int]:
    """Deterministic warm starts: tower chain, table row, sqrt family."""
    seeds = []
    if n >= 9:
        table = load_base_table()
        try:
            chain = chain_to_target(n, table)
            seeds.append(sum(1 << d for d in chain.final.digitset.digits))
        except BaseMissingError:
            pass
        if n in table:
            seeds.append(sum(1 << d for d in table[n].digits))
        try:
            seeds.append(sum(1 << d for d in sqrt_good_set(n).digits))
        except ValueError:
            pass
    seeds.append((1 << n) - 1)  # the full digit set is always good
    out = []
    for s in seeds:
        if s not in out:
            out.append(s)
    return out


def search_heuristic(n: int, budget: int = 10_000, seed: int = 0,
                     require_good: bool = True,
                     require_very_good: bool = False) -> SearchResult:
    """Randomized hill climbing over digit flips, deterministic by seed.

    Starts from tower/table/sqrt seeds plus random restarts, flipping
    one interior digit at a time and keeping strict improvements;
    non-good proposals are evaluated (they cost budget) but never
    climbed onto when goodness is required.  The climb carries the pair
    counts of its current set and updates them per flip, undoing the
    update when the proposal is rejected.  For tiny n the whole space
    is enumerated instead.  `budget` caps the number of single-set
    evaluations.
    """
    if n < 3:
        raise ValueError("base must be >= 3")
    base = 1 | (1 << (n - 1))
    inner_bits = n - 2
    best: SearchRecord | None = None
    exceed: list[SearchRecord] = []
    matching = 0

    def offer(mask: int, row) -> None:
        """Count a matching set; record it only if it can be best or exceeds."""
        nonlocal best, matching
        if (require_very_good and not row[1]) or (require_good and not row[0]):
            return
        matching += 1
        dim = row[7]
        over = dim > _MONITOR_DIM
        if over or best is None or dim >= best.dim:
            cand = _record(n, mask, row)
            if over:
                exceed.append(cand)
            if _better(cand, best):
                best = cand

    if (1 << inner_bits) <= 64:
        # space is smaller than any sensible budget: enumerate
        for inner in range(1 << inner_bits):
            mask = base | (inner << 1)
            offer(mask, eval_mask(n, mask))
        return SearchResult(best=best, n_enumerated=1 << inner_bits,
                            n_matching=matching, evaluations=1 << inner_bits,
                            exceedances=tuple(exceed), source="heuristic")
    rng = np.random.default_rng(seed)
    evals = 0
    unconstrained = not (require_good or require_very_good)

    def consider(counts: _PairCounts):
        """Evaluate the counted set; returns (climbable, dim)."""
        nonlocal evals
        evals += 1
        row = counts.row()
        offer(counts.mask, row)
        return row[0] or unconstrained, row[7]

    stack = _seed_masks(n)
    current: _PairCounts | None = None
    current_dim = -1.0
    stuck = 0
    max_stuck = 4 * n
    while evals < budget:
        if current is None:
            if stack:
                mask = stack.pop(0)
            else:
                mask = base | (_random_inner(rng, inner_bits) << 1)
            start = _PairCounts(n, mask)
            climbable, dim = consider(start)
            if climbable:
                current = start
                current_dim = dim
            stuck = 0
            continue
        d = int(rng.integers(1, n - 1))
        current.flip(d)
        climbable, dim = consider(current)
        if climbable and dim > current_dim:
            current_dim = dim
            stuck = 0
        else:
            current.flip(d)
            stuck += 1
            if stuck > max_stuck:
                current = None
    exceed.sort(key=lambda r: (r.n, r.digits))
    return SearchResult(best=best, n_enumerated=evals, n_matching=matching,
                        evaluations=evals, exceedances=tuple(exceed),
                        source="heuristic")


def figure_data(n_lo: int, n_hi: int, budget: int = 10_000, seed: int = 0,
                threads: int = 1):
    """Best known dimension per base, for plotting against log2/log3.

    Per base: exhaustive search through base 18, otherwise hill climbing
    floored by the tower-chain value.  Returns (rows, exceedances)
    where rows are (n, best_dim, reference).
    """
    rows: list[tuple[int, float, float]] = []
    exceed: list[SearchRecord] = []
    for n in range(n_lo, n_hi + 1):
        if n <= _FIGURE_EXHAUSTIVE_MAX_N:
            res = search_exhaustive(n, require_good=True, threads=threads)
        else:
            res = search_heuristic(n, budget=budget, seed=seed)
        best = res.best.dim if res.best is not None else 0.0
        if n >= 9:
            best = max(best, chain_to_target(n).final.dim)
        exceed.extend(res.exceedances)
        rows.append((n, best, LOG2_OVER_LOG3))
    return rows, exceed
