"""Interval typing and the dimension of the uniqueness set.

Partition [0, 2] into 2n intervals I_l = [l/n, (l+1)/n].  Each sumset
element s places one IFS image over I_s and I_{s+1}: its left half
covers I_s, its right half covers I_{s+1}.  An interval is typed

  L  covered by exactly one left half and no right half
     (counts[l] == 1 and counts[l-1] == 0),
  R  covered by exactly one right half and no left half
     (counts[l-1] == 1 and counts[l] == 0),
  O  anything else.

Points interior to an O interval always carry several representations
as x + y, so only L/R intervals can meet the uniqueness set (the points
with exactly one representation).  Tracking how L/R intervals of the
lower half [0, 1] and upper half [1, 2] map into each other yields a
two-node graph-directed IFS whose adjacency matrix

    M = [[a, b],
         [c, d]]

counts typed intervals per quadrant: a = L's below n, b = R's below n,
c = L's at or above n, d = R's at or above n.  The uniqueness set has
Hausdorff dimension log(lambda)/log(n) with lambda the Perron
eigenvalue of M, except in the degenerate lambda = 1 case where it is
just the two endpoints {0, 2}.

Since a, d >= 1 for every canonical set (the extreme intervals are
always typed L and R), integer arithmetic shows lambda is either 1 or
at least 2; there is nothing in between.

The lambda/trivial/dim formula and the very-good rule are written once,
in :func:`matrix_dimension` and :func:`very_good_rule`.  The same
typing read off the sumset words m1, m2 (bit s set when s has at least
one, or two, ordered pairs) is ``word_typing(n, m1, m2, popcount)``,
elementwise: the search, the tower steps and ``analyze`` type by one
rule from (n, m1, m2) alone, the edge digits 1 and n - 2 included
(:func:`word_edge_digit`).  :func:`classify_intervals` and
:func:`uniqueness_report` stay the independent twin on counts and
digits.  The search kernel ranks batch rows by a float32 2 lambda key,
but every lambda and dim it reports comes from :func:`matrix_dimension`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .digitset import DigitSet, SumsetProfile, is_n_good

__all__ = [
    "TYPE_O",
    "TYPE_L",
    "TYPE_R",
    "TypingProfile",
    "UniquenessReport",
    "classify_intervals",
    "uniqueness_report",
    "edge_digit_dimension_bound",
    "perron_eigenvalue",
    "matrix_dimension",
    "very_good_rule",
    "word_good",
    "word_edge_digit",
    "word_typing",
    "word_report",
]

TYPE_O, TYPE_L, TYPE_R = 0, 1, 2
# Byte table from the type codes to their labels.
_TYPE_LABELS = bytes.maketrans(bytes([TYPE_O, TYPE_L, TYPE_R]), b"OLR")

# All floating-point comparisons of eigenvalues/dimensions use this.
DIM_TOL = 1e-9


@dataclass(frozen=True)
class TypingProfile:
    """L/R/O labels of the 2n unit intervals plus the quadrant matrix."""

    n: int
    types: np.ndarray = field(repr=False)  # uint8 codes, length 2n
    matrix: tuple[tuple[int, int], tuple[int, int]]

    @property
    def a(self) -> int:
        return self.matrix[0][0]

    @property
    def b(self) -> int:
        return self.matrix[0][1]

    @property
    def c(self) -> int:
        return self.matrix[1][0]

    @property
    def d(self) -> int:
        return self.matrix[1][1]

    def typing_string(self) -> str:
        """The 2n labels, lower and upper halves separated by a space."""
        labels = self.types.tobytes().translate(_TYPE_LABELS).decode("ascii")
        return labels[: self.n] + " " + labels[self.n :]


def classify_intervals(P: SumsetProfile) -> TypingProfile:
    """Type the 2n unit intervals from a canonical sumset profile."""
    n = P.n
    if P.max_sum != 2 * n - 2:
        raise ValueError("typing requires a canonical digit set")
    # counts[l] for l = 0..2n-2; the sums -1 and 2n-1 count zero pairs.
    counts = P.counts[: 2 * n - 1]
    one, zero = counts == 1, counts == 0
    is_l = np.zeros(2 * n, dtype=bool)
    is_r = np.zeros(2 * n, dtype=bool)
    is_l[0] = one[0]
    np.logical_and(one[1:], zero[:-1], out=is_l[1:-1])
    np.logical_and(one[:-1], zero[1:], out=is_r[1:-1])
    is_r[-1] = one[-1]
    types = TYPE_L * is_l.view(np.uint8) + TYPE_R * is_r.view(np.uint8)
    a = int(np.count_nonzero(is_l[:n]))
    b = int(np.count_nonzero(is_r[:n]))
    c = int(np.count_nonzero(is_l[n:]))
    d = int(np.count_nonzero(is_r[n:]))
    return TypingProfile(n, types, ((a, b), (c, d)))


def perron_eigenvalue(a: int, b: int, c: int, d: int) -> float:
    """Largest eigenvalue of [[a, b], [c, d]], closed form."""
    return ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c)) / 2.0


def matrix_dimension(a: int, b: int, c: int, d: int, n: int) -> tuple[float, bool, float]:
    """(lambda, trivial, dim) of the quadrant matrix [[a, b], [c, d]] in base n."""
    lam = perron_eigenvalue(a, b, c, d)
    # Exact integer form of lambda == 1: with bc = 0 the eigenvalue is
    # max(a, d), and bc >= 1 already forces lambda >= 2.
    trivial = b * c == 0 and max(a, d) <= 1
    return lam, trivial, 0.0 if trivial else math.log(lam) / math.log(n)


def very_good_rule(good, edge_digit, a, b, c, d):
    """Very-good: good, neither 1 nor n-2 a digit (edge_digit == 0), equal
    row or column sums.  Elementwise; a Python bool on Python scalars."""
    return good & (edge_digit == 0) & ((a + b == c + d) | (a + c == b + d))


def word_good(n: int, m1):
    """Goodness: m1 | m1 >> 1 is all ones, as m1 ends at bit 2n - 2."""
    return m1 | m1 >> 1 == (1 << 2 * n - 1) - 1


def word_edge_digit(n: int, m1):
    """Non-zero when 1 or n - 2 is a digit of the canonical set with
    support word m1: only 0 + 1 sums to 1 and only (n - 2) + (n - 1) to
    2n - 3.  A shift, not a 2n-bit mask, which costs more on Python ints."""
    return (m1 | m1 >> (2 * n - 4)) & 2


def word_typing(n: int, m1, m2, popcount):
    """(good, very_good, a, b, c, d, L word, R word) from the sumset
    words of a canonical set.

    Bit s of m1 (m2) is set when s has at least one (two) ordered pairs.
    The words are Python ints (popcount ``int.bit_count``) or uint64
    arrays (``np.bitwise_count``).  The sets hold 0 and n - 1, so a
    support bit followed by two clear ones below 2n - 2 is two clear
    bits in a row; the L and R words are :func:`classify_intervals` read
    off bits.  x & ~y is written x ^ (x & y): the same NumPy ops, and no
    negative Python int, on which CPython's & runs 2-3.5x slower.
    """
    good = word_good(n, m1)
    unique = m1 ^ m2
    l_word = unique ^ (unique & m1 << 1)
    r_word = unique << 1
    r_word ^= r_word & m1
    low_mask = (1 << n) - 1
    a = popcount(l_word & low_mask)
    b = popcount(r_word & low_mask)
    c = popcount(l_word) - a
    d = popcount(r_word) - b
    very_good = very_good_rule(good, word_edge_digit(n, m1), a, b, c, d)
    return good, very_good, a, b, c, d, l_word, r_word


@dataclass(frozen=True)
class UniquenessReport:
    """Dimension data for the set of uniquely representable sums.

    When ``good`` is False the digit set does not cover [0, 2] and the
    numbers describe the graph-directed attractor built from the same
    typing; they still lower-bound what survives of the uniqueness set.
    """

    lam: float
    dim: float
    trivial: bool
    very_good: bool
    good: bool


def word_report(n: int, m1: int, m2: int):
    """(matrix, :class:`UniquenessReport`, (L word, R word)) from sumset
    words: :func:`word_typing`, then :func:`matrix_dimension`."""
    good, very_good, a, b, c, d, *lr = word_typing(n, m1, m2, int.bit_count)
    lam, trivial, dim = matrix_dimension(a, b, c, d, n)
    report = UniquenessReport(lam=lam, dim=dim, trivial=trivial,
                              very_good=very_good, good=good)
    return ((a, b), (c, d)), report, lr


def uniqueness_report(T: TypingProfile, A: DigitSet,
                      good: bool | None = None) -> UniquenessReport:
    """Perron eigenvalue, dimension and flags for a typed digit set.

    Pass ``good`` when goodness is already known to skip rebuilding the
    sumset profile.
    """
    a, b, c, d = T.a, T.b, T.c, T.d
    lam, trivial, dim = matrix_dimension(a, b, c, d, A.n)
    if good is None:
        good = is_n_good(A)
    very_good = very_good_rule(good, 1 in A or A.n - 2 in A, a, b, c, d)
    return UniquenessReport(lam=lam, dim=dim, trivial=trivial,
                            very_good=very_good, good=good)


def edge_digit_dimension_bound(A: DigitSet, R: UniquenessReport) -> bool:
    """Check: if neither 1 nor n-2 is a digit, the report is non-trivial.

    Omitting those two digits forces all four quadrant counts positive,
    so lambda >= 2.  Returns True when the implication holds for this
    set (vacuously if 1 or n-2 is present).
    """
    if 1 in A or A.n - 2 in A:
        return True
    return R.lam >= 2 - DIM_TOL
