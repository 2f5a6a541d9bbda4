"""Explicit families: square-root-size good sets and doubling towers.

Two constructions carry the asymptotics:

* :func:`sqrt_good_set` builds an n-good set of ~3*sqrt(n) digits from
  a low block, a high block and an arithmetic ladder between them.  Its
  uniqueness set is trivial, which is optimal: any good set must have
  at least sqrt(n) digits.

* :func:`tower` doubles a very-good set.  Appending a shifted copy of
  A at offset 2n-k (k in {0,1,2}) gives a very-good set in base 3n-k
  whose Perron eigenvalue obeys lambda' = 2*lambda - k.  Chaining
  towers from a table of small bases (9..27) reaches any target base
  while the dimension climbs toward log(2)/log(3).  The reduction that
  picks a chain's base and steps, :func:`_chain_reduction`, also gives
  the search its tower warm starts, which it builds as masks unverified.

Nothing here trusts the eigenvalue recurrence: every tower output is
re-typed from its own sumset words, and a mismatch with the predicted
adjacency matrix or eigenvalue raises instead of propagating silently.
A chain carries each row's digits as one int64 array d, and a step's
output is ``np.concatenate((d, d + shift))``.  Its :class:`DigitSet`
skips the constructor's walk over every digit, since a sorted set
followed by a translate past its maximum is sorted; O(1) end tests
(first digit 0, last n - 1, the seam max(d) < shift) still raise
:class:`~cantorsum.digitset.InvariantError` under ``python -O``.  The
output is typed from its two sumset words (sums with >= 1 and >= 2
ordered pairs) by :func:`~cantorsum.gdifs.word_report`, the word rule
of the search and of ``analyze``.  A step carries its input's words and
builds the output's from them by the doubling rule of
:func:`~cantorsum.digitset.sumset_words`, so no count array of the
output is built and no step re-derives the words of the chain below it.
A chain's table row and the input of :func:`tower` are typed from pair
counts by :func:`~cantorsum.gdifs.classify_intervals`, and the first
step takes their words from :func:`~cantorsum.digitset.sumset_words`,
so every chain checks the word rule against the count rule at its
first step.

A bookkeeping note on predicted matrices: with Lam = a + c and
Rho = b + d (total L and R counts of the input typing), the output
adjacency matrix is

    k=0: [[Lam, Rho], [Lam, Rho]]
    k=1: [[Lam, Rho-1], [Lam-1, Rho]]
    k=2: [[Lam-1, Rho-1], [Lam-1, Rho-1]]

The seam between the copies erases one boundary L/R per overlap; the
eigenvalue comes out 2*lambda - k in all three cases because very-good
sets have equal row or column sums.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from math import isqrt

import numpy as np

from .digitset import (DigitSet, InvariantError, _digit_array, _doubled_digitset, _doubled_words,
                       sumset_profile, sumset_words)
from .gdifs import (
    DIM_TOL,
    UniquenessReport,
    classify_intervals,
    uniqueness_report,
    word_report,
)

__all__ = [
    "sqrt_good_set",
    "tower",
    "tower_dim",
    "predicted_tower_matrix",
    "chain_to_target",
    "TowerChain",
    "ChainRow",
    "load_base_table",
    "VeryGoodPreconditionError",
    "TowerVerificationError",
    "BaseMissingError",
]


class VeryGoodPreconditionError(ValueError):
    """Tower input is not very-good."""


class TowerVerificationError(RuntimeError):
    """Re-derived tower output disagrees with the predicted recurrence."""


class BaseMissingError(LookupError):
    """Chain reduction landed on a base absent from the table."""


def sqrt_good_set(n: int) -> DigitSet:
    """An n-good set with at most 3*ceil(sqrt(n)) + 3 digits (n >= 9).

    Union of {0..k}, {n-1-k..n-1} and the multiples of k up to n-1,
    with k the smallest integer whose square reaches n-1.  Every sum
    s <= n-1 splits as (multiple of k) + (remainder in the low block);
    sums above n-1 use the high block instead, so the sumset has no
    gaps at all and the set is good with trivial uniqueness set.
    """
    if n < 9:
        raise ValueError("construction needs n >= 9")
    k = isqrt(n - 2) + 1  # smallest k with k*k >= n-1
    low = set(range(k + 1))
    high = set(range(n - 1 - k, n))
    ladder = set(range(0, n, k))
    return DigitSet.of(n, low | high | ladder)


def tower_dim(lam: float, n: int, k: int) -> tuple[float, int]:
    """Eigenvalue/base recurrence of one tower step: (2*lam-k, 3*n-k)."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    return 2 * lam - k, 3 * n - k


def predicted_tower_matrix(matrix, k: int):
    """Adjacency matrix the tower output must re-derive to."""
    (a, b), (c, d) = matrix
    lam_l, rho = a + c, b + d
    if k == 0:
        return ((lam_l, rho), (lam_l, rho))
    if k == 1:
        return ((lam_l, rho - 1), (lam_l - 1, rho))
    if k == 2:
        return ((lam_l - 1, rho - 1), (lam_l - 1, rho - 1))
    raise ValueError("k must be 0, 1 or 2")


def _very_good_input(A: DigitSet):
    """(int64 digits, matrix, report) of A, typed from its pair counts;
    raises :class:`VeryGoodPreconditionError` unless A is very-good."""
    profile = sumset_profile(A)
    typing = classify_intervals(profile)
    report = uniqueness_report(typing, A, good=profile.good)
    if not report.very_good:
        raise VeryGoodPreconditionError(f"{A} is not {A.n}-very-good")
    return _digit_array(A), typing.matrix, report


def tower(A: DigitSet, k: int) -> DigitSet:
    """One doubling step: A united with A + (2n - k), in base 3n - k.

    Requires a very-good input (raises
    :class:`VeryGoodPreconditionError` otherwise) and re-derives
    very-goodness of the output from scratch.
    """
    digits, matrix, report = _very_good_input(A)
    return _tower_step(A, digits, sumset_words(digits), k, matrix, report)[0]


def _tower_step(A: DigitSet, digits: np.ndarray, words: tuple[int, int], k: int, matrix,
                report: UniquenessReport):
    """(output, its int64 digits, its sumset words, its matrix, its report)
    of a step on the very-good A with int64 digits ``digits`` and sumset
    words ``words``; the output is typed from its own words, built from
    A's by the doubling rule."""
    want_lam, out_n = tower_dim(report.lam, A.n, k)
    shift = 2 * A.n - k
    out_digits = np.concatenate((digits, digits + shift))
    out = _doubled_digitset(out_n, out_digits)
    out_words = _doubled_words(words, shift)
    out_matrix, out_report, _ = word_report(out_n, *out_words)
    if not out_report.very_good:
        raise TowerVerificationError(
            f"tower({A}, k={k}) produced a set that is not very-good"
        )
    want_matrix = predicted_tower_matrix(matrix, k)
    if out_matrix != want_matrix or abs(out_report.lam - want_lam) > DIM_TOL:
        raise TowerVerificationError(
            f"tower({A}, k={k}): derived matrix {out_matrix} / "
            f"lambda {out_report.lam} vs predicted {want_matrix} / {want_lam}"
        )
    return out, out_digits, out_words, out_matrix, out_report


@functools.cache
def _base_table_rows() -> tuple[tuple[int, DigitSet, float], ...]:
    """(base, set, quoted dim) per row of the bundled table, parsed once."""
    text = resources.files("cantorsum.data").joinpath("base_table.json").read_text()
    return tuple((int(n), DigitSet.of(int(n), row["digits"]), float(row["dim"]))
                 for n, row in json.loads(text).items())


def load_base_table() -> dict[int, DigitSet]:
    """Bundled table of very-good sets for bases 9..27 (a fresh dict per call)."""
    return {n: A for n, A, _ in _base_table_rows()}


def load_base_table_dims() -> dict[int, float]:
    """Reference dimensions quoted alongside the bundled base table."""
    return {n: dim for n, _, dim in _base_table_rows()}


@dataclass(frozen=True)
class ChainRow:
    """One verified station of a tower chain."""

    step: int
    k: int | None  # None on the base row
    digitset: DigitSet
    matrix: tuple[tuple[int, int], tuple[int, int]]
    lam: float
    dim: float

    @property
    def n(self) -> int:
        return self.digitset.n


@dataclass(frozen=True)
class TowerChain:
    """Base set plus tower steps reaching a target base.

    Each row's eigenvalue and matrix come from direct typing of the
    row's set; construction fails loudly if they ever disagree with
    the recurrence.
    """

    base: DigitSet
    steps: tuple[int, ...]
    rows: tuple[ChainRow, ...]

    @property
    def final(self) -> ChainRow:
        return self.rows[-1]

    def csv_rows(self) -> list[tuple[int, int, str, float, float]]:
        return [
            (r.step, r.n, r.digitset.csv_cell(), r.lam, r.dim) for r in self.rows
        ]

    def error_terms(self) -> tuple[float, float]:
        """Accumulated corrections (x, y) in the chained dimension.

        dim_t = (t log2 + d log n0 + log(1-x)) / (t log3 + log n0 + log(1-y))
        with d the base dimension; both sums stay small, which is what
        makes the chain dimensions converge to log(2)/log(3).
        """
        n0 = self.base.n
        d = self.rows[0].dim
        x = sum(k / (n0**d * 2**i) for i, k in enumerate(self.steps, start=1))
        y = sum(k / (n0 * 3**i) for i, k in enumerate(self.steps, start=1))
        return x, y


def _chain_reduction(n_target: int, bases) -> tuple[int, list[int]]:
    """(base, ks): the tabled base a chain to n_target starts from and
    the k of each of its steps, first step first.

    Reduction picks, at each stage, the unique k in {0,1,2} making
    n + k divisible by 3, until the base is at most max(bases).  Raises
    :class:`BaseMissingError` when no tabled base can reach the target
    (n_target < 9, or a custom table with holes).
    """
    if n_target < 9:
        raise BaseMissingError(f"no tabled base reaches {n_target} (need >= 9)")
    top = max(bases)
    ks: list[int] = []
    n = n_target
    while n > top:
        k = (-n) % 3
        ks.append(k)
        n = (n + k) // 3
    if n not in bases:
        raise BaseMissingError(f"chain reduction reached base {n}, not in table")
    ks.reverse()
    return n, ks


def chain_to_target(n_target: int,
                    base_table: dict[int, DigitSet] | None = None) -> TowerChain:
    """Tower chain from a tabled base to exactly base n_target.

    The base and steps come from :func:`_chain_reduction` (tabled bases
    9..27 by default), which raises :class:`BaseMissingError` when no
    tabled base can reach the target.
    """
    if base_table is None:
        base_table = load_base_table()
    n, ks = _chain_reduction(n_target, base_table)
    A = base_table[n]
    digits, matrix, report = _very_good_input(A)
    rows = [ChainRow(0, None, A, matrix, report.lam, report.dim)]
    words = sumset_words(digits) if ks else None
    for i, k in enumerate(ks, start=1):
        A, digits, words, matrix, report = _tower_step(A, digits, words, k, matrix, report)
        rows.append(ChainRow(i, k, A, matrix, report.lam, report.dim))
    if rows[-1].n != n_target:
        raise InvariantError(f"chain ended at base {rows[-1].n}, not {n_target}")
    return TowerChain(base=rows[0].digitset, steps=tuple(ks), rows=tuple(rows))
