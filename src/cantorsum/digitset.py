"""Digit sets and their sumsets, in exact integer arithmetic.

A digit set is a pair (n, A) with A a strictly increasing list of
non-negative integers and n >= 3 the base.  It describes the linear
Cantor set obtained by keeping only base-n expansions whose digits lie
in A, i.e. the attractor of the maps x -> (x + a)/n for a in A.

Two modes are distinguished:

  canonical  0 and n-1 belong to A and A is a subset of {0..n-1}.
             All dimension theory (typing, towers, search) lives here.
  general    digits may exceed n-1 (still >= 0, smallest digit 0).
             Only the finite-depth oracle accepts these.

The central object downstream is the sumset A + A with ordered-pair
multiplicities: counts[s] = #{(a, a') in A x A : a + a' = s}.  The sum
of two copies of the Cantor set equals the Cantor set of the sumset in
the same base, so questions about C_A + C_A reduce to questions about
the sumset's support and multiplicities, or only its words m1, m2 of
the sums with >= 1 and >= 2 ordered pairs.  :func:`sumset_words` builds
them from a translate-doubled set's lower half, else by a walk over the
maximal runs of consecutive digits whenever a measured cost rule puts
the walk below the pair counts (runs x word size against |A|^2 for
bincount and L log L for the FFT; measurements/analyze_floor.json),
else by thresholding :func:`pair_sum_counts`.

A canonical A is called *good* when C_A + C_A = [0, 2].  At level one
the maps of the sumset IFS cover intervals of length 2/n placed at the
support elements; the union is all of [0, 2] exactly when consecutive
support elements are at most 2 apart, and an invariant interval equals
the attractor.  Hence goodness is the integer gap condition
:attr:`SumsetProfile.good` on counts, and in :mod:`~cantorsum.gdifs`
on the support word.  The finite-depth oracle cross-validates it.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "DigitSet",
    "InvariantError",
    "SumsetProfile",
    "sumset_profile",
    "pair_sum_counts",
    "sumset_words",
    "is_n_good",
    "reflect",
]

# Sparse sets bincount their pair sums in chunks of at most this many
# pairs (32 MB of int64 sums per chunk).
_PAIR_CHUNK = 4_000_000

# Path choice: bincount the pairs while |A|^2 <= L*log2(L)/2 + 2^14
# (L table slots), else split a translate-doubled set into halves, else
# FFT.  On a 2-core Xeon VM with NumPy 2.4 one bincounted pair costs
# about one unit of L*log2(L)/2, and an rfft/irfft pair has a fixed cost
# of about 2^14 pairs.  The split costs O(L) and needs no such constant.
_FFT_FIXED_PAIRS = 1 << 14

# The cost rule of sumset_words (_walk_cheaper), in bincounted pairs
# over L = 2 max + 1 sum slots.  Walking r maximal digit runs, m of them
# longer than one digit, costs r * (_WALK_RUN_PAIRS + L // _WALK_SLOTS_PER_PAIR)
# + m * _WALK_LONG_RUN_PAIRS: a run's fixed Python cost, shifts and ORs on
# words of up to L bits, and a longer run's dilation and fills.  The
# counts cost k^2 + _COUNT_FIXED_PAIRS + L // _COUNT_SLOTS_PER_PAIR by
# bincount (its NumPy calls, the table and the two thresholds) or
# L*log2(L)/2 + _FFT_FIXED_PAIRS by FFT.  Fitted on the same VM to 1,000
# sets at bases 10..5000, the rule's path took 0.7% more time than the
# faster path of each set would; measurements/analyze_floor.json.
_WALK_RUN_PAIRS = 150
_WALK_SLOTS_PER_PAIR = 60
_WALK_LONG_RUN_PAIRS = 400
_COUNT_FIXED_PAIRS = 4000
_COUNT_SLOTS_PER_PAIR = 2

# sumset_words reads a set of at most this many digits as one Python
# list: up to about here its runs are found faster than by NumPy.
_LIST_MAX = 128

# A count read off the inverse FFT must lie this close to an integer.
_FFT_MAX_RESIDUAL = 0.25


class InvariantError(AssertionError):
    """A mathematical invariant the code relies on failed to hold.

    Raised explicitly rather than by ``assert`` so that the checks stay
    on under ``python -O``.
    """


def _ints(values) -> list[int]:
    """Python ints from any integer type (int, numpy ints); no truncation."""
    try:
        return list(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"base and digits must be integers: {exc}") from None


@dataclass(frozen=True)
class DigitSet:
    """A base together with an increasing tuple of digits."""

    n: int
    digits: tuple[int, ...]

    def __post_init__(self):
        (n,) = _ints([self.n])
        if n < 3:
            raise ValueError(f"base must be an integer >= 3, got {self.n!r}")
        digits = tuple(_ints(self.digits))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "digits", digits)
        if len(digits) < 2:
            raise ValueError("need at least two digits")
        if min(digits) < 0:
            raise ValueError("digits must be non-negative")
        if not all(map(operator.lt, digits, digits[1:])):
            raise ValueError("digits must be strictly increasing (no duplicates)")
        if digits[0] != 0:
            raise ValueError("smallest digit must be 0 (translate the set first)")

    @classmethod
    def of(cls, n: int, digits: Iterable[int]) -> "DigitSet":
        """Build from any iterable, sorting and checking for duplicates."""
        ds = sorted(_ints(digits))
        return cls(n, tuple(ds))

    @classmethod
    def general(cls, n: int, digits: Iterable[int]) -> "DigitSet":
        """Build a general-mode set, translating so the smallest digit is 0."""
        ds = sorted(_ints(digits))
        if not ds:
            raise ValueError("empty digit set")
        lo = ds[0]
        return cls(n, tuple(d - lo for d in ds))

    @property
    def canonical(self) -> bool:
        """True when 0, n-1 are digits and every digit is below n."""
        return self.digits[-1] == self.n - 1

    @property
    def size(self) -> int:
        return len(self.digits)

    def __contains__(self, d: int) -> bool:
        i = bisect_left(self.digits, d)
        return i < len(self.digits) and self.digits[i] == d

    def __iter__(self):
        return iter(self.digits)

    # --- serialization ------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "digits": list(self.digits)})

    @classmethod
    def from_json(cls, text: str) -> "DigitSet":
        obj = json.loads(text)
        return cls(obj["n"], tuple(obj["digits"]))

    def csv_cell(self) -> str:
        return ";".join(str(d) for d in self.digits)

    @classmethod
    def from_csv_cell(cls, n: int, cell: str) -> "DigitSet":
        return cls.of(n, (int(p) for p in cell.split(";")))

    def __str__(self) -> str:
        return f"{{{','.join(map(str, self.digits))}}} base {self.n}"


def _digit_array(A: DigitSet) -> np.ndarray:
    """A's digits as int64 (np.fromiter: faster than np.asarray on a tuple)."""
    return np.fromiter(A.digits, np.int64, len(A.digits))


def _doubled_digitset(n: int, digits: np.ndarray) -> DigitSet:
    """The canonical set of a tower output Y u (Y + h) from its int64
    digits, without :class:`DigitSet`'s walk over every digit.

    The caller guarantees that Y is the digits of a :class:`DigitSet`,
    so the union is sorted and distinct exactly when the seam max Y < h
    holds.  The seam, first digit 0 and last digit n - 1 are O(1) tests
    raising :class:`InvariantError`, on under ``python -O`` too.
    """
    half = len(digits) // 2
    if not (digits[0] == 0 and digits[-1] == n - 1 and digits[half - 1] < digits[half]):
        raise InvariantError(
            f"doubled digits in base {n} must start at 0, end at {n - 1} and "
            f"rise across the seam: {digits[[0, half - 1, half, -1]].tolist()}")
    out = object.__new__(DigitSet)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "digits", tuple(digits.tolist()))
    return out


@dataclass(frozen=True)
class SumsetProfile:
    """Ordered-pair multiplicity table of A + A.

    counts[s] (int32, at most |A|) is the number of ordered pairs of
    digits summing to s; support lists the s with counts[s] > 0.  For
    canonical sets the table spans 0..2n-2 and its two endpoints have
    multiplicity one.
    """

    n: int
    counts: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)

    def count_at(self, s: int) -> int:
        """Multiplicity of s, zero outside the table."""
        if 0 <= s < len(self.counts):
            return int(self.counts[s])
        return 0

    @property
    def max_sum(self) -> int:
        return int(self.support[-1])

    @property
    def gaps(self) -> np.ndarray:
        """Differences between consecutive support elements."""
        return np.diff(self.support)

    @property
    def good(self) -> bool:
        """Goodness: consecutive support elements at most 2 apart."""
        return bool(np.all(self.gaps <= 2))


def sumset_profile(A: DigitSet) -> SumsetProfile:
    """Multiplicity table of A + A over ordered pairs.

    Works in either mode; the counts come from :func:`pair_sum_counts`.
    """
    counts = pair_sum_counts(_digit_array(A))
    return SumsetProfile(A.n, counts, np.flatnonzero(counts))


def pair_sum_counts(digits: np.ndarray) -> np.ndarray:
    """counts[s] = #{(a, a') : a + a' = s} for a sorted, distinct digit array.

    With L = 2 * max digit + 1 table slots, a sparse set bincounts its
    |A|^2 pair sums in chunks.  A dense one (|A|^2 above L*log2(L)/2
    plus a fixed cost) that is translate-doubled, X = Y u (Y + h) with
    Y its lower half and h = X[k/2] (every tower output is), is counted
    from its lower half: for the disjoint union the ordered pairs give

        c_X[s] = c_Y[s] + 2 c_Y[s - h] + c_Y[s - 2h]

    for every h > 0, overlapping ranges included, in plain integer
    additions.  Any other dense set takes the self-convolution of its
    digit indicator by FFT, O(L log L), and rounds it to integers.  All
    paths give the same exact int32 counts (no count exceeds |A|): the
    FFT path checks its rounding and raises :class:`InvariantError`
    rather than return a count it cannot vouch for.
    """
    top = 2 * int(digits[-1])
    if _bincounted(digits):
        return _pair_counts(digits, top)
    if _doubling_shift(digits):
        return _split_pair_counts(digits, top)
    return _fft_pair_counts(digits, top)


def _bincounted(digits: np.ndarray) -> bool:
    """|A|^2 within the bincount bound, the FFT's cost in pairs."""
    return len(digits) ** 2 <= _fft_pairs(2 * int(digits[-1]) + 1)


def _fft_pairs(slots: int) -> float:
    """The FFT's cost in bincounted pairs: L*log2(L)/2 + _FFT_FIXED_PAIRS."""
    return slots * math.log2(slots) / 2 + _FFT_FIXED_PAIRS


def _doubling_shift(digits) -> int:
    """h > 0 when the digits (a list or an int64 array) are Y u (Y + h)
    with Y their lower half, else 0."""
    k = len(digits)
    half = k // 2
    # O(1) end test first, so other sets skip the O(k) comparison.
    if k % 2 or digits[-1] != digits[half - 1] + digits[half]:
        return 0
    h = int(digits[half])
    if isinstance(digits, list):
        same = [d + h for d in digits[:half]] == digits[half:]
    else:
        same = np.array_equal(digits[half:] - h, digits[:half])
    return h if same else 0


def sumset_words(digits: np.ndarray) -> tuple[int, int]:
    """(m1, m2): bit s of m1 (m2) is set when s has >= 1 (>= 2) ordered pairs.

    The threshold words of :func:`pair_sum_counts` for a sorted,
    distinct digit array.  A translate-doubled X = Y u (Y + h) takes
    them from Y's words by c_X[s] = c_Y[s] + 2 c_Y[s - h] + c_Y[s - 2h]:
    s has a pair when any term does, and two when c_Y[s - h] >= 1,
    c_Y[s] >= 2 or c_Y[s - 2h] >= 2.  No s has both c_Y[s] and
    c_Y[s - 2h] non-zero, since Y + Y ends at 2 max Y < 2h.  Any other
    set walks its maximal digit runs (:func:`_run_words`) when the cost
    rule :func:`_walk_cheaper` says the walk costs less than the pair
    counts, and thresholds its counts otherwise.  Sets of at most
    _LIST_MAX digits are tested and walked on one Python list, with no
    NumPy call.
    """
    seq = digits.tolist() if len(digits) <= _LIST_MAX else digits
    h = _doubling_shift(seq)
    if h:
        return _doubled_words(sumset_words(digits[: len(digits) // 2]), h)
    los, his = _digit_runs(seq)
    if _walk_cheaper(len(digits), los, his):
        return _run_words(los, his)
    counts = pair_sum_counts(digits)
    return _bits_word(counts >= 1), _bits_word(counts >= 2)


def _walk_cheaper(k: int, los: list[int], his: list[int]) -> bool:
    """The cost rule: walking the digit runs [lo, hi] costs no more than
    counting the pairs of k digits on the path :func:`pair_sum_counts`
    takes (see the constants)."""
    slots = 2 * his[-1] + 1
    counts = _fft_pairs(slots)
    if k * k <= counts:
        counts = k * k + _COUNT_FIXED_PAIRS + slots // _COUNT_SLOTS_PER_PAIR
    walk = len(los) * (_WALK_RUN_PAIRS + slots // _WALK_SLOTS_PER_PAIR)
    # the longer runs are counted only when the single-digit cost fits
    return walk <= counts and walk + sum(map(operator.ne, los, his)) * _WALK_LONG_RUN_PAIRS <= counts


def _doubled_words(words: tuple[int, int], h: int) -> tuple[int, int]:
    """(m1, m2) of the translate-doubled Y u (Y + h), max Y < h, from Y's
    words by the rule of :func:`sumset_words`."""
    m1, m2 = words
    mid = m1 << h
    return m1 | mid | mid << h, mid | m2 | m2 << 2 * h


def _digit_runs(seq) -> tuple[list[int], list[int]]:
    """(first digits, last digits) of the maximal runs of consecutive
    digits, from a list or an int64 array."""
    if isinstance(seq, list):
        los, his = [seq[0]], []
        for prev, d in zip(seq, seq[1:]):
            if d - prev != 1:
                his.append(prev)
                los.append(d)
        his.append(seq[-1])
        return los, his
    ends = (seq[1:] - seq[:-1] != 1).nonzero()[0]
    runs = len(ends) + 1
    edges = seq[np.concatenate(([0], ends + 1, ends, [len(seq) - 1]))].tolist()
    return edges[:runs], edges[runs:]


def _run_words(los: list[int], his: list[int]) -> tuple[int, int]:
    """(m1, m2) from the maximal digit runs [lo, hi].  m2, the sums
    a + b with a < b, gains per run the earlier digits' word dilated by
    [lo, hi] and, for a run of two or more digits, [2 lo + 1, 2 hi - 1];
    m1 adds the sums 2a, of which only 2 lo and 2 hi can miss m2, set in
    one byte buffer.  A single-digit run costs one shift and one OR into
    m2 and one bit into the earlier digits' word."""
    m2 = below = 0
    ends = bytearray(his[-1] // 4 + 1)  # bit 2a for a = lo, hi
    for lo, hi in zip(los, his):
        ends[lo >> 2] |= 1 << (2 * lo & 7)
        if lo == hi:
            m2 |= below << lo
            below |= 1 << lo
            continue
        ends[hi >> 2] |= 1 << (2 * hi & 7)
        cross, step, length = below << lo, 1, hi - lo + 1
        while step < length:  # cross holds below shifted by lo .. lo + step - 1
            cross |= cross << (step if 2 * step <= length else length - step)
            step *= 2
        m2 |= cross | (1 << 2 * hi) - (2 << 2 * lo)
        below |= (2 << hi) - (1 << lo)
    return m2 | int.from_bytes(ends, "little"), m2


def _bits_word(bits: np.ndarray) -> int:
    """Entry s of a bool array as bit s of a Python int."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _word_bits(word: int, length: int) -> np.ndarray:
    """Bits 0..length-1 of a Python int as a uint8 0/1 array."""
    raw = np.frombuffer(word.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def _pair_counts(digits: np.ndarray, top: int) -> np.ndarray:
    """Pair-sum histogram by bincount, |A|^2 increments.

    The int64 bincounts are summed and cast to int32 once: adding each
    into an int32 table casts on every add, a microsecond more on small
    sets."""
    rows = max(1, _PAIR_CHUNK // len(digits))
    chunks = (np.bincount((digits[i : i + rows, None] + digits[None, :]).ravel(),
                          minlength=top + 1) for i in range(0, len(digits), rows))
    counts = next(chunks)
    for chunk in chunks:
        counts += chunk
    return counts.astype(np.int32)


def _split_pair_counts(digits: np.ndarray, top: int) -> np.ndarray:
    """Pair-sum histogram of a translate-doubled set from its lower half."""
    half = len(digits) // 2
    h = int(digits[half])
    low = pair_sum_counts(digits[:half])
    counts = np.zeros(top + 1, dtype=np.int32)
    m = len(low)  # top + 1 == m + 2h
    counts[:m] = low
    mid = counts[h : h + m]
    mid += low  # twice in place: no 2 * low temporary
    mid += low
    counts[2 * h :] += low
    return counts


def _smooth_length(m: int) -> int:
    """Smallest 2^i 3^j 5^k >= m (a fast FFT length)."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_pair_counts(digits: np.ndarray, top: int) -> np.ndarray:
    """Pair-sum histogram as the FFT self-convolution of the indicator.

    Exact: every value must round to an integer within
    _FFT_MAX_RESIDUAL, the counts must total |A|^2 and none may be
    negative, or :class:`InvariantError` is raised.
    """
    size = _smooth_length(top + 1)
    ind = np.zeros(int(digits[-1]) + 1)
    ind[digits] = 1.0
    spectrum = np.fft.rfft(ind, size)
    del ind
    spectrum *= spectrum
    y = np.fft.irfft(spectrum, size)[: top + 1]
    del spectrum
    rounded = np.rint(y)
    y -= rounded
    residual = float(np.abs(y, out=y).max())
    del y
    if not residual < _FFT_MAX_RESIDUAL:
        raise InvariantError(f"FFT pair counts off an integer by {residual}")
    counts = rounded.astype(np.int32)
    del rounded
    total, k = int(counts.sum()), len(digits)
    if total != k * k:
        raise InvariantError(f"FFT pair counts total {total}, not |A|^2 = {k * k}")
    if counts.min() < 0:
        raise InvariantError("FFT pair count below zero")
    return counts


def is_n_good(A: DigitSet) -> bool:
    """Decide whether C_A + C_A = [0, 2].

    True exactly when consecutive elements of the sumset support are at
    most 2 apart.  Canonical sets only; general-mode sets have no fixed
    target interval and belong to the oracle.
    """
    if not A.canonical:
        raise ValueError("goodness is defined for canonical digit sets only")
    return sumset_profile(A).good


def reflect(A: DigitSet) -> DigitSet:
    """Mirror image {n-1-a : a in A}; canonical sets only."""
    if not A.canonical:
        raise ValueError("reflection is defined for canonical digit sets only")
    return DigitSet(A.n, tuple(A.n - 1 - a for a in reversed(A.digits)))
