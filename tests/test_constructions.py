import hashlib
import math

import numpy as np
import pytest

from cantorsum import constructions
from cantorsum.constructions import (
    BaseMissingError,
    TowerVerificationError,
    VeryGoodPreconditionError,
    chain_to_target,
    load_base_table,
    load_base_table_dims,
    predicted_tower_matrix,
    sqrt_good_set,
    tower,
    tower_dim,
)
from cantorsum.digitset import (
    DigitSet,
    InvariantError,
    _doubled_digitset,
    is_n_good,
    sumset_profile,
    sumset_words,
)
from cantorsum.gdifs import classify_intervals, uniqueness_report, word_typing

from conftest import canonical_sets

A524 = DigitSet.of(5, [0, 2, 4])

# lambda values down the published chain to a million
CHAIN_LAMBDAS = {
    17: 4, 51: 8, 153: 16, 458: 31, 1372: 60, 4116: 120,
    12346: 238, 37038: 476, 111112: 950, 333334: 1898, 1000000: 3794,
}

# sha256 over the rows of the chains to 458, 99999, 10^5 and 10^6 and to
# 81 from base 9 alone, as (n, k, matrix, repr(lam), repr(dim), sha256 of
# the digits' csv cell), then over tower(A, k) for k = 0, 1, 2 on the
# table rows of bases 9, 17 and 27; computed when every step was still
# typed from its pair-count array
CHAIN_DIGEST = "18dfd892c353cf37de2ab80752ff97494b45754729828bece9a7dcb4e4f55a14"


def direct_report(A):
    t = classify_intervals(sumset_profile(A))
    return t, uniqueness_report(t, A)


class TestSqrtConstruction:
    def test_101_matches_ladder(self):
        A = sqrt_good_set(101)
        expected = sorted(set(range(11)) | set(range(0, 101, 10)) | set(range(90, 101)))
        assert list(A.digits) == expected
        assert is_n_good(A)
        _, rep = direct_report(A)
        assert rep.trivial and rep.lam == 1.0

    def test_small_base(self):
        A = sqrt_good_set(9)
        assert is_n_good(A)
        assert A.size <= 12

    @pytest.mark.parametrize("n", [9, 101, 1000, 5000])
    def test_good_small_trivial(self, n):
        A = sqrt_good_set(n)
        assert is_n_good(A)
        assert A.size <= 3 * math.ceil(math.sqrt(n)) + 3
        _, rep = direct_report(A)
        assert rep.trivial

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sqrt_good_set(8)

    def test_sampled_bases_to_5000(self, rng):
        for n in sorted(int(x) for x in rng.integers(9, 5001, size=25)):
            A = sqrt_good_set(n)
            assert is_n_good(A), n
            assert A.size <= 3 * math.ceil(math.sqrt(n)) + 3, n
            _, rep = direct_report(A)
            assert rep.trivial, n


class TestTower:
    def test_worked_example_sets(self):
        assert tower(A524, 0).digits == (0, 2, 4, 10, 12, 14)
        assert tower(A524, 0).n == 15
        assert tower(A524, 1).digits == (0, 2, 4, 9, 11, 13)
        assert tower(A524, 1).n == 14
        # the displayed shift formula gives {0,2,4,8,10,12}; the output
        # is re-verified 13-very-good with eigenvalue 2 below
        assert tower(A524, 2).digits == (0, 2, 4, 8, 10, 12)
        assert tower(A524, 2).n == 13

    @pytest.mark.parametrize("k,lam,matrix", [
        (0, 4.0, ((2, 2), (2, 2))),
        (1, 3.0, ((2, 1), (1, 2))),
        (2, 2.0, ((1, 1), (1, 1))),
    ])
    def test_worked_example_dimensions(self, k, lam, matrix):
        out = tower(A524, k)
        t, rep = direct_report(out)
        assert t.matrix == matrix
        assert rep.lam == pytest.approx(lam, abs=1e-12)
        assert rep.very_good
        assert rep.dim == pytest.approx(
            math.log(2 * 2 - k) / math.log(3 * 5 - k), abs=1e-9
        )

    def test_precondition_violation(self):
        with pytest.raises(VeryGoodPreconditionError):
            tower(DigitSet.of(3, [0, 1, 2]), 0)  # 1 is a digit
        with pytest.raises(VeryGoodPreconditionError):
            tower(DigitSet.of(4, [0, 3]), 1)  # not even good

    def test_verification_errors(self, monkeypatch):
        A = load_base_table()[9]
        with monkeypatch.context() as m:
            # words of a 27-digit set whose sumset is only {0, 52}: not good
            m.setattr(constructions, "sumset_words", lambda digits: (1 | 1 << 52, 0))
            with pytest.raises(TowerVerificationError, match="not very-good"):
                tower(A, 0)
        monkeypatch.setattr(constructions, "predicted_tower_matrix",
                            lambda matrix, k: ((0, 0), (0, 0)))
        with pytest.raises(TowerVerificationError,
                           match=r"derived matrix .* vs predicted \(\(0, 0\), \(0, 0\)\)"):
            tower(A, 0)

    def test_asymmetric_matrix_bookkeeping(self):
        # unequal off-diagonals: the seam removes one L and one R from
        # the *totals*, so the predicted matrix uses a+c and b+d
        A = DigitSet.of(10, [0, 2, 6, 7, 9])
        t, rep = direct_report(A)
        assert t.matrix == ((2, 2), (1, 1)) and rep.very_good
        out = tower(A, 1)  # raises if the re-derived matrix disagrees
        t_out, rep_out = direct_report(out)
        assert t_out.matrix == predicted_tower_matrix(t.matrix, 1) == ((3, 2), (2, 3))
        assert rep_out.lam == pytest.approx(2 * rep.lam - 1, abs=1e-12)

    def test_tower_dim_recurrence(self):
        assert tower_dim(2.0, 5, 0) == (4.0, 15)
        assert tower_dim(2.0, 5, 1) == (3.0, 14)
        assert tower_dim(2.0, 5, 2) == (2.0, 13)
        for k in (0, 1, 2):
            lam, n = tower_dim(2.0, 5, k)
            assert math.log(lam) / math.log(n) == pytest.approx(
                math.log(4 - k) / math.log(15 - k), abs=1e-12
            )

    def test_soundness_over_small_very_good_sets(self):
        # every tower output re-derives to the predicted matrix; here we
        # just confirm no verification error fires across a population
        checked = 0
        for n in range(9, 13):
            for A in canonical_sets(n):
                t, rep = direct_report(A)
                if not rep.very_good or rep.trivial:
                    continue
                for k in (0, 1, 2):
                    out = tower(A, k)
                    assert out.n == 3 * n - k
                checked += 1
        assert checked >= 40


class TestTrustedOutputs:
    """Tower outputs skip DigitSet's digit walk; they must not differ."""

    @staticmethod
    def assert_checked(A):
        assert A == DigitSet(A.n, A.digits)
        assert all(type(d) is int for d in A.digits)
        assert type(A.n) is int

    @pytest.mark.parametrize("target", [458, 99999, 10**6])
    def test_chain_rows(self, target):
        for row in chain_to_target(target).rows:
            self.assert_checked(row.digitset)

    def test_tower_on_every_table_row(self):
        for A in load_base_table().values():
            for k in (0, 1, 2):
                self.assert_checked(tower(A, k))

    @pytest.mark.parametrize("digits,n", [
        ([0, 3, 2, 5], 6),  # the seam falls: 3 > 2
        ([0, 2, 2, 4], 5),  # the seam repeats a digit
        ([1, 2, 4, 5], 6),  # no digit 0
        ([0, 2, 4, 6], 8),  # last digit below n - 1
    ])
    def test_end_tests_raise(self, digits, n):
        # InvariantError, not assert: this holds under python -O too
        with pytest.raises(InvariantError, match="must start at 0"):
            _doubled_digitset(n, np.array(digits, dtype=np.int64))

    def test_step_on_foreign_digits(self):
        # A's digits end at 8, these at 18: the output ends at 36, not 26
        A = load_base_table()[9]
        t, rep = direct_report(A)
        with pytest.raises(InvariantError, match="end at 26"):
            digits = np.array([0, 2, 6, 18])
            constructions._tower_step(A, digits, sumset_words(digits), 0, t.matrix, rep)


class TestBaseTable:
    def test_all_rows_very_good_with_listed_dim(self):
        table = load_base_table()
        dims = load_base_table_dims()
        assert set(table) == set(range(9, 28))
        for n, A in table.items():
            _, rep = direct_report(A)
            assert rep.very_good, n
            assert abs(rep.dim - dims[n]) <= 1e-9, n

    def test_each_call_returns_a_fresh_table(self):
        table = load_base_table()
        dims = load_base_table_dims()
        assert set(dims) == set(table)
        del table[9]
        table[99] = table[27]
        dims[9] = 0.0
        again = load_base_table()
        assert set(again) == set(range(9, 28))
        assert again[9] == DigitSet.of(9, [0, 2, 6, 8])
        assert load_base_table_dims()[9] != 0.0


class TestChain:
    def test_million_chain_rows(self):
        chain = chain_to_target(10**6)
        assert [r.n for r in chain.rows] == sorted(CHAIN_LAMBDAS)
        for row in chain.rows:
            assert row.lam == pytest.approx(CHAIN_LAMBDAS[row.n], abs=1e-9)
            assert row.dim == pytest.approx(
                math.log(CHAIN_LAMBDAS[row.n]) / math.log(row.n), abs=1e-9
            )
        assert chain.final.digitset.size == 6144
        assert round(chain.final.dim, 4) == 0.5965

    def test_intermediate_targets(self):
        assert chain_to_target(51).final.dim == pytest.approx(
            math.log(8) / math.log(51), abs=1e-9
        )
        assert chain_to_target(458).final.dim == pytest.approx(
            math.log(31) / math.log(458), abs=1e-9
        )
        assert round(chain_to_target(458).final.dim, 4) == 0.5605

    def test_target_inside_table(self):
        chain = chain_to_target(27)
        assert chain.steps == ()
        assert chain.final.digitset == load_base_table()[27]

    def test_dims_climb_toward_log2_log3(self):
        chain = chain_to_target(10**6)
        dims = [r.dim for r in chain.rows]
        assert dims == sorted(dims)
        assert dims[-1] < math.log(2) / math.log(3)
        # the gap shrinks with every tripling
        gaps = [math.log(2) / math.log(3) - d for d in dims]
        assert gaps == sorted(gaps, reverse=True)

    def test_error_term_bounds(self):
        for target in (10**6, 458, 5000, 99999):
            chain = chain_to_target(target)
            if chain.rows[0].dim < 0.442144:
                continue
            x, y = chain.error_terms()
            assert abs(x) <= 0.75708
            assert abs(y) <= 1 / 9

    def test_base_missing(self):
        with pytest.raises(BaseMissingError):
            chain_to_target(8)
        with pytest.raises(BaseMissingError):
            chain_to_target(100, base_table={9: load_base_table()[9]})

    def test_pinned_digest(self):
        table = load_base_table()
        chains = [chain_to_target(t) for t in (458, 99999, 10**5, 10**6)]
        chains.append(chain_to_target(81, {9: table[9]}))
        h = hashlib.sha256()
        for chain in chains:
            for r in chain.rows:
                cell = hashlib.sha256(r.digitset.csv_cell().encode()).hexdigest()
                h.update(repr((r.n, r.k, r.matrix, repr(r.lam), repr(r.dim), cell)).encode())
        for n in (9, 17, 27):
            for k in (0, 1, 2):
                out = tower(table[n], k)
                h.update(repr((out.n, out.digits)).encode())
        assert h.hexdigest() == CHAIN_DIGEST

    @pytest.mark.parametrize("target", [458, 99999, 10**5, 10**6])
    def test_word_typing_matches_interval_typing(self, target):
        for row in chain_to_target(target).rows:
            A = row.digitset
            t, rep = direct_report(A)
            words = sumset_words(np.asarray(A.digits, dtype=np.int64))
            good, very_good, a, b, c, d, _, _ = word_typing(A.n, *words, int.bit_count)
            assert row.matrix == ((a, b), (c, d)) == t.matrix, row.n
            assert (good, very_good) == (rep.good, rep.very_good) == (True, True), row.n
            assert (row.lam, row.dim) == (rep.lam, rep.dim), row.n

    def test_table_base_must_be_very_good(self):
        with pytest.raises(VeryGoodPreconditionError, match="is not 27-very-good"):
            chain_to_target(81, base_table={27: DigitSet.of(27, [0, 1, 26])})

    def test_custom_base_table(self):
        # substituting a better base is supported; base 9 reaches 81
        chain = chain_to_target(81, base_table={9: load_base_table()[9]})
        assert chain.final.n == 81
        assert chain.final.dim == pytest.approx(
            math.log(2) / math.log(3), abs=1e-9
        )
