import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorsum.digitset import DigitSet, _bits_word, reflect, sumset_profile, sumset_words
from cantorsum.gdifs import (
    TypingProfile,
    classify_intervals,
    edge_digit_dimension_bound,
    perron_eigenvalue,
    uniqueness_report,
    word_edge_digit,
    word_good,
    word_report,
    word_typing,
)

from conftest import canonical_sets


def typed(n, digits):
    A = DigitSet.of(n, digits)
    t = classify_intervals(sumset_profile(A))
    return A, t


class TestClassifyIntervals:
    def test_base8_example(self):
        _, t = typed(8, [0, 2, 5, 7])
        assert t.typing_string() == "LROOLOOO OOOROOLR"
        assert t.matrix == ((2, 1), (1, 2))

    def test_base5_example(self):
        _, t = typed(5, [0, 2, 4])
        assert t.typing_string() == "LROOO OOOLR"
        assert t.matrix == ((1, 1), (1, 1))

    def test_steinhaus(self):
        # hand-applied typing rule on counts {0:1, 2:2, 4:1}
        _, t = typed(3, [0, 2])
        assert t.typing_string() == "LRO OLR"
        assert t.matrix == ((1, 1), (1, 1))

    def test_extremes_always_typed(self):
        for n in range(3, 11):
            for A in canonical_sets(n):
                t = classify_intervals(sumset_profile(A))
                assert t.types[0] == 1  # leftmost is L
                assert t.types[-1] == 2  # rightmost is R
                assert t.a >= 1 and t.d >= 1

    def test_rejects_general_mode(self):
        with pytest.raises(ValueError):
            classify_intervals(sumset_profile(DigitSet.of(5, [0, 1, 7, 8])))


class TestUniquenessReport:
    def test_base8_dimension(self):
        A, t = typed(8, [0, 2, 5, 7])
        r = uniqueness_report(t, A)
        assert r.lam == pytest.approx(3.0, abs=1e-12)
        assert r.dim == pytest.approx(math.log(3) / math.log(8), abs=1e-9)
        assert round(r.dim, 5) == 0.52832
        assert r.very_good and r.good and not r.trivial

    def test_steinhaus_dimension(self):
        A, t = typed(3, [0, 2])
        r = uniqueness_report(t, A)
        assert r.lam == pytest.approx(2.0, abs=1e-12)
        assert r.dim == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
        assert abs(r.dim - 0.6309297534) < 1e-9

    def test_identity_matrix_trivial(self):
        t = TypingProfile(7, np.zeros(14, dtype=np.uint8), ((1, 0), (0, 1)))
        r = uniqueness_report(t, DigitSet.of(7, range(7)))
        assert r.trivial and r.lam == 1.0 and r.dim == 0.0

    def test_table_row_16(self):
        A, t = typed(16, [0, 2, 6, 9, 13, 15])
        r = uniqueness_report(t, A)
        assert r.dim == pytest.approx(0.5, abs=1e-9)
        assert r.very_good

    def test_non_good_flagged_not_rejected(self):
        A, t = typed(5, [0, 1, 4])
        r = uniqueness_report(t, A)
        assert not r.good and not r.very_good
        assert r.dim > 0

    def test_very_good_needs_missing_edge_digits(self):
        A, t = typed(4, [0, 1, 2, 3])
        r = uniqueness_report(t, A)
        assert r.good and not r.very_good  # 1 and n-2 present


class TestPerronEigenvalue:
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
           st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, a, b, c, d):
        lam = perron_eigenvalue(a, b, c, d)
        eigs = np.linalg.eigvals(np.array([[a, b], [c, d]], dtype=float))
        assert lam == pytest.approx(max(eigs.real), abs=1e-9)

    def test_dichotomy_exhaustive_small(self):
        for n in range(3, 12):
            for A in canonical_sets(n):
                t = classify_intervals(sumset_profile(A))
                r = uniqueness_report(t, A)
                assert r.lam == 1.0 or r.lam >= 2.0, (A, r.lam)
                assert r.lam <= A.size + 1e-9


class TestReflectionInvariance:
    @pytest.mark.parametrize("n", [5, 8, 9, 11])
    def test_lambda_and_string(self, n):
        swap = {"L": "R", "R": "L", "O": "O"}
        for A in canonical_sets(n):
            t = classify_intervals(sumset_profile(A))
            tr = classify_intervals(sumset_profile(reflect(A)))
            assert uniqueness_report(t, A).lam == pytest.approx(
                uniqueness_report(tr, reflect(A)).lam, abs=1e-12
            )
            flat = t.typing_string().replace(" ", "")
            flat_r = tr.typing_string().replace(" ", "")
            assert flat_r == "".join(swap[ch] for ch in reversed(flat))


class TestEdgeDigitBound:
    def test_examples(self):
        for n, digits in [(8, [0, 2, 5, 7]), (3, [0, 2]), (5, [0, 2, 4])]:
            A, t = typed(n, digits)
            r = uniqueness_report(t, A)
            assert edge_digit_dimension_bound(A, r)

    def test_exhaustive_small(self):
        for n in range(3, 12):
            for A in canonical_sets(n):
                t = classify_intervals(sumset_profile(A))
                r = uniqueness_report(t, A)
                if r.good:
                    assert edge_digit_dimension_bound(A, r), A


class TestWordEdgeDigit:
    """The word path reads the edge digits 1 and n - 2 off the support
    word; the count path reads them off the digits."""

    def test_identity_every_canonical_set(self):
        for n in range(3, 17):
            words, want = [], []
            for A in canonical_sets(n):
                mask = sum(1 << d for d in A.digits)
                m1 = 0
                for d in A.digits:
                    m1 |= mask << d
                words.append(m1)
                want.append(1 in A or n - 2 in A)
            got = [word_edge_digit(n, m1) != 0 for m1 in words]
            assert got == want, n
            vector = word_edge_digit(n, np.array(words, dtype=np.uint64)) != 0
            assert vector.tolist() == want, n

    def test_word_very_good_matches_uniqueness_report(self):
        for n in range(3, 13):
            for A in canonical_sets(n):
                profile = sumset_profile(A)
                rep = uniqueness_report(classify_intervals(profile), A)
                words = sumset_words(np.asarray(A.digits, dtype=np.int64))
                _, word_rep, _ = word_report(n, *words)
                assert (word_rep.good, word_rep.very_good) == (rep.good, rep.very_good), A


def span_forms(n, m1, m2):
    """Goodness by a 2n-2 bit span mask and the L/R words by `& ~`, the
    forms that take a negative operand on Python ints."""
    span = (1 << (2 * n - 2)) - 1
    unique = m1 ^ m2
    return (m1 | m1 >> 1) & span == span, unique & ~(m1 << 1), unique << 1 & ~m1


def random_words(rng, n, count):
    """Rows of canonical-shaped (m1, m2) bits 0..2n-2: m1 holds 0 and
    2n-2 (single pairs, so not in m2), densities from sparse to nearly
    full, so both good and non-good words occur."""
    width = 2 * n - 1
    ones = rng.random((count, width)) < rng.choice([0.3, 0.6, 0.9, 0.97, 0.995], (count, 1))
    ones[:, [0, -1]] = True
    twos = ones & (rng.random((count, width)) < 0.5)
    twos[:, [0, -1]] = False
    return ones, twos


class TestWordForms:
    """word_good and word_typing's L/R words, written with non-negative
    operands, against the span-mask and `& ~` forms."""

    def test_uint64_every_base(self):
        rng = np.random.default_rng(32)
        for n in range(3, 33):  # at n = 32 the R word reaches bit 63
            ones, twos = random_words(rng, n, 2000)
            weights = np.uint64(1) << np.arange(2 * n - 1, dtype=np.uint64)
            m1, m2 = ((bits * weights).sum(axis=1, dtype=np.uint64) for bits in (ones, twos))
            good, very_good, *quad, l_word, r_word = word_typing(n, m1, m2, np.bitwise_count)
            want = span_forms(n, m1, m2)
            assert good.dtype == bool and 0 < np.count_nonzero(good) < len(good), n
            for got, old in zip((good, l_word, r_word), want):
                assert np.array_equal(got, old), n
            # the scalar path agrees row by row
            for i in range(0, 2000, 97):
                words = int(m1[i]), int(m2[i])
                assert word_typing(n, *words, int.bit_count) == (
                    *(col[i] for col in (good, very_good, *quad)), int(l_word[i]), int(r_word[i]))

    def test_python_ints(self):
        rng = np.random.default_rng(10**4)
        seen = set()
        for n in (33, 64, 65, 500, 2049, 10**4):
            ones, twos = random_words(rng, n, 12)
            for row_1, row_2 in zip(ones, twos):
                m1, m2 = _bits_word(row_1), _bits_word(row_2)
                good, _, _, _, _, _, l_word, r_word = word_typing(n, m1, m2, int.bit_count)
                assert (good, l_word, r_word) == span_forms(n, m1, m2), n
                assert word_good(n, m1) is good
                seen.add(good)
        # a full word is good at every size
        for n in (3, 32, 33, 10**4):
            assert word_good(n, (1 << 2 * n - 1) - 1)
        assert seen == {True, False}
