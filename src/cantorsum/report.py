"""One-stop analysis of a canonical digit set, read off the two sumset
words of A: the ``gdifs`` word rule types them (as in the search and the
tower steps) and the structure automaton runs on the support word."""

from __future__ import annotations

from dataclasses import dataclass

from .digitset import DigitSet, _digit_array, _word_bits, sumset_words
from .gdifs import TypingProfile, UniquenessReport, word_report
from .structure import StructureReport, classify_structure

# Unused; bench/layers.py wraps them here until it wraps the word path.
from .digitset import sumset_profile  # noqa: F401
from .gdifs import classify_intervals, uniqueness_report  # noqa: F401

__all__ = ["AnalysisReport", "analyze"]


@dataclass(frozen=True)
class AnalysisReport:
    digitset: DigitSet
    typing: TypingProfile
    uniqueness: UniquenessReport
    structure: StructureReport

    @property
    def good(self) -> bool:
        return self.uniqueness.good

    def to_json_dict(self) -> dict:
        return {
            "n": self.digitset.n,
            "digits": list(self.digitset.digits),
            "good": self.good,
            "typing": self.typing.typing_string(),
            "matrix": [list(row) for row in self.typing.matrix],
            "lambda": self.uniqueness.lam,
            "dim": self.uniqueness.dim,
            "trivial": self.uniqueness.trivial,
            "very_good": self.uniqueness.very_good,
            "structure": self.structure.to_json_dict(),
        }


def analyze(A: DigitSet) -> AnalysisReport:
    """Goodness, typing, uniqueness dimension and structure in one pass."""
    if not A.canonical:
        raise ValueError("typing requires a canonical digit set")
    n = A.n
    m1, m2 = sumset_words(_digit_array(A))
    matrix, uniq, (l_word, r_word) = word_report(n, m1, m2)
    # one unpacking of both words; the codes TYPE_L = 1 and TYPE_R = 2 are their bits
    bits = _word_bits(l_word | r_word << 2 * n, 4 * n)
    types = bits[2 * n :] << 1
    types |= bits[: 2 * n]
    struct = classify_structure(A, m1, uniq.good)
    return AnalysisReport(digitset=A, typing=TypingProfile(n, types, matrix),
                          uniqueness=uniq, structure=struct)
