import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from cantorsum.constructions import chain_to_target
from cantorsum.digitset import DigitSet, _digit_array, sumset_profile
from cantorsum.gdifs import classify_intervals, uniqueness_report
from cantorsum.report import analyze
from cantorsum.structure import cantor_sum_dimension, classify_structure

from conftest import count_path_sets

# sha256 over analyze(A).to_json_dict() and the cantor_sum_dimension
# result (or the refusal's type and message) of the 300 sets of
# _pinned_sets(); computed when analyze still typed A from its pair-count
# array and ran the covering automaton on NumPy arrays
ANSWERS_DIGEST = "c2c69aeb32d8305675323ca3a297e8808a730c66dafc658c3206379948c6b319"


def _pinned_sets():
    """300 seeded canonical sets: dense, sparse, dense with a removed
    block and very sparse, two in three at bases below 40."""
    rnd = random.Random(20261019)
    out = []
    for i in range(300):
        n = rnd.randrange(3, 40) if i % 3 else rnd.randrange(40, 2000)
        kind = i % 4
        inner = range(1, n - 1)
        if kind == 0:
            p = rnd.uniform(0.2, 0.95)
            digits = {d for d in inner if rnd.random() < p}
        elif kind == 1:
            k = min(rnd.randrange(0, 2 * int(n ** 0.5) + 1), n - 2)
            digits = set(rnd.sample(inner, k))
        elif kind == 2:
            p = rnd.uniform(0.3, 0.7)
            lo, width = rnd.randrange(1, n - 1), rnd.randrange(1, n // 3 + 2)
            digits = {d for d in inner if rnd.random() < p and not lo <= d < lo + width}
        else:
            digits = {d for d in inner if rnd.random() < 2 / n}
        out.append(DigitSet.of(n, digits | {0, n - 1}))
    return out


class TestPinnedAnswers:
    def test_digest(self):
        h = hashlib.sha256()
        seen = Counter()
        for A in _pinned_sets():
            rep = analyze(A).to_json_dict()
            seen[rep["structure"]["case"]] += 1
            try:
                cd = cantor_sum_dimension(A)
                dim = [repr(cd.value), repr(cd.lower), repr(cd.upper), cd.exact, cd.depth]
                seen["exact" if cd.exact else "bracket"] += 1
            except (ValueError, RuntimeError) as exc:
                dim = [type(exc).__name__, str(exc)]
                seen[type(exc).__name__] += 1
            h.update(json.dumps([rep, dim], separators=(",", ":")).encode())
        # every case, both dimension paths and every refusal occur
        for key in ("FullInterval", "CantorSet", "Mixed", "exact", "bracket",
                    "NotApplicableError", "BudgetExceededError", "ValueError"):
            assert seen[key] > 0, seen
        assert h.hexdigest() == ANSWERS_DIGEST


def test_digit_array_equals_asarray():
    for A in _pinned_sets():
        got = _digit_array(A)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.asarray(A.digits, dtype=np.int64)), A


class TestTypingString:
    @staticmethod
    def joined(typing):
        """The labels by a NumPy string array and two joins: the twin."""
        chars = np.array(["O", "L", "R"])[typing.types]
        return "".join(chars[: typing.n]) + " " + "".join(chars[typing.n :])

    def test_equals_join_twin(self):
        sets = _pinned_sets() + [r.digitset for r in chain_to_target(10**5).rows]
        for A in sets:
            typing = analyze(A).typing
            assert typing.typing_string() == self.joined(typing), A.n


def _assert_matches_counts(A):
    """analyze's word path against the count path, field by field."""
    rep = analyze(A)
    profile = sumset_profile(A)
    typing = classify_intervals(profile)
    assert rep.good is profile.good, A
    assert rep.typing.types.dtype == np.uint8
    assert np.array_equal(rep.typing.types, typing.types), A
    assert rep.typing.matrix == typing.matrix and rep.typing.n == typing.n, A
    assert rep.uniqueness == uniqueness_report(typing, A), A
    return rep


class TestWordsAgainstCounts:
    def test_every_count_path(self):
        # grouped by the sumset_words path analyze takes
        seen = Counter()
        for path, sets in count_path_sets(20261019, words=True).items():
            for A in sets:
                seen[path, _assert_matches_counts(A).structure.case.value] += 1
        assert {path for path, _ in seen} == {"runs", "bincount", "split", "fft"}
        assert {case for _, case in seen} == {"FullInterval", "CantorSet", "Mixed"}, seen

    def test_tower_outputs(self):
        for row in chain_to_target(4000).rows:
            rep = _assert_matches_counts(row.digitset)
            assert rep.uniqueness.very_good and rep.typing.matrix == row.matrix

    @pytest.mark.parametrize("A", [DigitSet(5, (0, 1, 2)), DigitSet.general(5, [0, 3, 7]),
                                   DigitSet.general(5, [2, 9])])
    def test_non_canonical_rejected(self, A):
        with pytest.raises(ValueError, match="typing requires a canonical digit set"):
            analyze(A)
        for fn in (classify_structure, cantor_sum_dimension):
            with pytest.raises(ValueError, match="structure classification needs a canonical"):
                fn(A)
