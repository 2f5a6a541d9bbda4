"""One-stop analysis of a canonical digit set."""

from __future__ import annotations

from dataclasses import dataclass

from .digitset import DigitSet, sumset_profile
from .gdifs import TypingProfile, UniquenessReport, classify_intervals, uniqueness_report
from .structure import StructureReport, classify_structure

__all__ = ["AnalysisReport", "analyze"]


@dataclass(frozen=True)
class AnalysisReport:
    digitset: DigitSet
    good: bool
    typing: TypingProfile
    uniqueness: UniquenessReport
    structure: StructureReport

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
    profile = sumset_profile(A)
    good = profile.good
    typing = classify_intervals(profile)
    uniq = uniqueness_report(typing, A, good=good)
    struct = classify_structure(A, profile=profile)
    return AnalysisReport(digitset=A, good=good, typing=typing,
                          uniqueness=uniq, structure=struct)
