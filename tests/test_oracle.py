import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cantorsum import oracle
from cantorsum.constructions import chain_to_target
from cantorsum.digitset import DigitSet, is_n_good, sumset_profile
from cantorsum.gdifs import classify_intervals, uniqueness_report
from cantorsum.oracle import (
    BudgetExceededError,
    growth_check,
    is_refinement,
    level_set,
    level_start_counts,
    level_typing_counts,
    typing_count_evolution,
)
from cantorsum.report import analyze
from cantorsum.search import iter_exhaustive_records

from conftest import canonical_sets, feasible_oracle_depth


class TestLevelSet:
    def test_general_mode_three_components(self):
        # integer digit set beyond the base: wider cylinders, exact cover
        A = DigitSet.of(5, [0, 1, 7, 8])
        expected = [
            (Fraction(0), Fraction(6, 5)),
            (Fraction(7, 5), Fraction(13, 5)),
            (Fraction(14, 5), Fraction(4)),
        ]
        for m in (1, 2, 3, 4):
            ls = level_set(A, m)
            assert ls.width == 4
            assert ls.component_fractions() == expected

    def test_mixed_gap_bracketing(self):
        A = DigitSet.of(5, [0, 1, 4])
        ls = level_set(A, 3)
        assert ls.misses_open_interval(Fraction(7, 5), Fraction(8, 5))
        fracs = ls.component_fractions()
        assert any(hi <= Fraction(7, 5) for _, hi in fracs)
        assert any(lo >= Fraction(8, 5) for lo, _ in fracs)

    def test_misses_open_interval_false_on_overlap(self):
        # depth-1 components [0, 7/5] and [8/5, 2]
        ls = level_set(DigitSet(5, (0, 1, 4)), 1)
        assert not ls.misses_open_interval(Fraction(0), Fraction(1, 5))
        assert not ls.misses_open_interval(Fraction(13, 10), Fraction(3, 2))
        assert ls.misses_open_interval(Fraction(7, 5), Fraction(8, 5))

    def test_full_interval_single_component(self):
        A = DigitSet.of(3, [0, 2])
        for m in (1, 3, 8):
            ls = level_set(A, m)
            assert ls.components == ((0, 2 * 3**m),)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            level_set(DigitSet.of(12, [0, 2, 3, 5, 9, 11]), 9)

    def test_depth_beyond_word_range_rejected(self):
        # sparse enough to fit the budget, too deep for 64-bit starts
        with pytest.raises(ValueError, match="64-bit"):
            level_set(DigitSet.of(30, [0, 29]), 14)

    def test_csv_rows(self):
        ls = level_set(DigitSet.of(5, [0, 1, 7, 8]), 2)
        assert ls.csv_rows()[0] == (2, 0, 30, 25)

    def test_goodness_agreement_exhaustive(self):
        # single component covering [0, 2] at the deepest affordable
        # depth (up to 8) is exactly goodness, for every small base
        for n in range(3, 9):
            for A in canonical_sets(n):
                m = feasible_oracle_depth(A, 8)
                assert m >= 4, A
                ls = level_set(A, m)
                full = ls.components == ((0, 2 * n**m),)
                assert full == is_n_good(A), (A, m)

    def test_monotone_refinement(self):
        for n in range(3, 13):
            for A in canonical_sets(n):
                assert is_refinement(level_set(A, 4), level_set(A, 3)), A


class TestTypingCounts:
    def test_steinhaus_depths(self):
        A = DigitSet.of(3, [0, 2])
        assert level_typing_counts(A, 1) == (2, 2)
        assert level_typing_counts(A, 2) == (4, 4)
        assert [c for c in typing_count_evolution(A, 6)] == [
            (2**m, 2**m) for m in range(1, 7)
        ]

    def test_base8_level_one(self):
        assert level_typing_counts(DigitSet.of(8, [0, 2, 5, 7]), 1) == (3, 3)

    def test_level_one_matches_interval_typing(self):
        for n in range(3, 9):
            for A in canonical_sets(n):
                t = classify_intervals(sumset_profile(A))
                assert level_typing_counts(A, 1) == (t.a + t.c, t.b + t.d), A

    def test_rejects_general_mode(self):
        with pytest.raises(ValueError):
            level_typing_counts(DigitSet.of(5, [0, 1, 7, 8]), 2)

    def test_level_one_memory(self):
        # depth 1 types the int32 pair counts themselves: 4 bytes per
        # slot and two bool masks, 6 in all; at 10^5 the counting peaks
        # higher, at 6.9, on the int64 pair sums of its 384-digit bincount
        self.check_level_one_memory(10**5, 8)

    def test_level_one_memory_large(self):
        self.check_level_one_memory(10**6, 6.5)

    @staticmethod
    def check_level_one_memory(target, bound):
        final = chain_to_target(target).final
        A = final.digitset
        tracemalloc.start()
        try:
            counts = level_typing_counts(A, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (a, b), (c, d) = final.matrix
        assert counts == (a + c, b + d)
        assert peak <= bound * (2 * A.n - 1), peak / (2 * A.n - 1)

    def test_deep_level_memory(self):
        # a deeper level is one uint8 array and two bool masks, with
        # the level before's masks (1/12 of its size each) still held
        # while the new ones are built: about 3.2 bytes per slot
        A = DigitSet.of(12, [0, 2, 3, 5, 9, 11])
        slots = 22 * (12**6 - 1) // 11 + 1
        tracemalloc.start()
        try:
            counts = level_typing_counts(A, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (3**6, 3**6)  # (3, 3) at depth 1, tripled each level
        assert peak <= 4 * slots, peak / slots

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            level_typing_counts(DigitSet.of(12, [0, 2, 3, 5, 9, 11]), 9)

    def test_depth_beyond_word_range_rejected(self):
        # the dense engine takes the runs' 64-bit rule too, so a raised
        # budget cannot let it allocate a start array past 2^62 entries
        A = DigitSet.of(5, [0, 1, 4])
        with pytest.raises(ValueError, match="64-bit range"):
            level_typing_counts(A, 40, budget=10**40)
        with pytest.raises(ValueError, match="64-bit range"):
            growth_check(A, 40, budget=10**40)


def twin_typing(A, m_max):
    """[((L_m, R_m), peak_m)] for m = 1..m_max: the multiplicities in
    int64, each level a sum of shifted products dense * count, the
    counts saturated at 2 like the previous level; peak_m is the
    largest depth-m multiplicity before it is saturated."""
    sat = np.minimum(sumset_profile(A).counts.astype(np.int64), 2)
    dense, out = sat, []
    for m in range(1, m_max + 1):
        if m > 1:
            nxt = np.zeros(A.n * len(dense) + len(sat) - A.n, dtype=np.int64)
            for b in np.flatnonzero(sat):
                nxt[b : b + A.n * len(dense) : A.n] += dense * sat[b]
            dense = nxt
        peak = int(dense.max())
        dense = np.minimum(dense, 2)
        padded = np.concatenate([[0], dense, [0]])
        one, zero = padded == 1, padded == 0
        out.append(((int(np.sum(one[1:] & zero[:-1])), int(np.sum(one[:-1] & zero[1:]))), peak))
    return out


def word_typing_counts(A, m):
    """(L_m, R_m) by enumerating every depth-m digit-pair word: each
    word of ordered pairs adds one to its start, unsaturated."""
    mult = {}
    pairs = [a + b for a in A.digits for b in A.digits]
    for word in itertools.product(pairs, repeat=m):
        start = sum(s * A.n ** (m - 1 - i) for i, s in enumerate(word))
        mult[start] = mult.get(start, 0) + 1
    unique = {t for t, c in mult.items() if c == 1}
    L = sum(1 for t in unique if t - 1 not in mult)
    R = sum(1 for t in unique if t + 1 not in mult)
    return L, R


def dense_twin_sets():
    """Seeded canonical sets at bases 3..30, after a crafted one: in base
    7, {0, 1, 2, 3, 6} has the sums 1..4 and 8 each with >= 2 ordered
    pairs, so slot 7 * 2 + 1 at depth 2 takes 2 * 2 from b = 1 and
    2 * 2 from b = 8, the largest value before saturation."""
    rng = np.random.default_rng(20261019)
    sets = [DigitSet.of(7, [0, 1, 2, 3, 6])]
    for n in rng.integers(3, 31, size=12).tolist():
        inner = np.flatnonzero(rng.random(n - 2) < rng.choice([0.3, 0.6])) + 1
        sets.append(DigitSet.of(n, [0, *inner.tolist(), n - 1]))
    return sets


class TestDenseTwin:
    """The uint8 dense engine against an int64 twin of its recursion,
    and the twin against word enumeration at tiny bases."""

    @pytest.mark.parametrize("A", dense_twin_sets(), ids=str)
    def test_depths_one_to_four(self, A):
        twin = twin_typing(A, 4)
        assert list(typing_count_evolution(A, 4)) == [lr for lr, _ in twin]
        for m in range(1, 5):
            assert level_typing_counts(A, m) == twin[m - 1][0]
        # depth 1 holds raw pair counts; every deeper slot stays <= 8
        assert all(peak <= 8 for _, peak in twin[1:]), twin

    def test_crafted_slot_reaches_eight(self):
        A = DigitSet.of(7, [0, 1, 2, 3, 6])
        assert [peak for _, peak in twin_typing(A, 3)[1:]] == [8, 8]

    @pytest.mark.parametrize("A,m,want", [(DigitSet.of(4, [0, 1, 3]), 9, (10, 1)),
                                          (DigitSet.of(5, [0, 1, 4]), 8, (256, 256))], ids=str)
    def test_saturation_keeps_uint8_exact(self, A, m, want):
        # unsaturated, these levels wrap a multiplicity mod 256 onto 0 or 1
        # next to a typed slot: (11, 2) and (256, 257) instead
        assert twin_typing(A, m)[-1][0] == want
        assert level_typing_counts(A, m) == want

    @pytest.mark.parametrize("A", [DigitSet.of(7, [0, 1, 2, 3, 6]), DigitSet.of(3, [0, 2]),
                                   DigitSet.of(5, [0, 1, 4]), DigitSet.of(6, [0, 2, 3, 5])],
                             ids=str)
    def test_twin_equals_word_enumeration(self, A):
        for m, (lr, _) in enumerate(twin_typing(A, 3), start=1):
            assert lr == word_typing_counts(A, m), m


class TestGrowthCheck:
    def test_base8_triples_each_level(self):
        rep = growth_check(DigitSet.of(8, [0, 2, 5, 7]), 5)
        assert rep.matches_transpose
        sums = [L + R for L, R in rep.counts]
        assert all(b == 3 * a for a, b in zip(sums, sums[1:]))

    def test_orientation_pinned_by_asymmetric_instance(self):
        # hand instance whose matrix has unequal off-diagonal entries
        rep = growth_check(DigitSet.of(10, [0, 2, 6, 7, 9]), 4)
        assert rep.matrix == ((2, 2), (1, 1))
        assert rep.matches_transpose and not rep.matches_direct
        assert rep.orientation == "transpose"

    def test_orientation_pinned_by_search_discovered_instance(self):
        # find a fresh asymmetric very-good set by enumeration and make
        # sure the orientation verdict is the same
        found = None
        for n in (10, 11, 12):
            for rec in iter_exhaustive_records(n, require_very_good=True):
                if rec.lam > 1.5 and rec.b != rec.c:
                    found = rec
                    break
            if found:
                break
        assert found is not None
        rep = growth_check(found.digitset, 4)
        assert rep.orientation in ("transpose", "ambiguous")
        assert rep.matches_transpose

    def test_symmetric_instance_ambiguous(self):
        rep = growth_check(DigitSet.of(3, [0, 2]), 4)
        assert rep.orientation == "ambiguous"

    def test_non_good_set_outgrows_its_matrix(self):
        # not good: the unique-interval counts grow by phi^2 = 2.618 a
        # level, not by the matrix's lambda = 2, so analyze's dim is only
        # the L/R-core dimension, below the uniqueness set's 0.4946.  The
        # exact count automaton of ROADMAP Direction 1 moves this test.
        A = DigitSet(7, (0, 1, 6))
        rep = growth_check(A, 7)
        want = [2, 5, 13, 34, 89, 233, 610]
        assert [L for L, _ in rep.counts] == [R for _, R in rep.counts] == want
        assert rep.orientation == "mismatch"
        rep = analyze(A)
        assert not rep.good
        assert (rep.uniqueness.lam, round(rep.uniqueness.dim, 10)) == (2.0, 0.3562071871)

    def test_trivial_construction_stays_at_one(self):
        from cantorsum.constructions import sqrt_good_set

        rep = growth_check(sqrt_good_set(101), 3)
        assert rep.counts == ((1, 1), (1, 1), (1, 1))
        assert rep.dim == 0.0

    def test_dimension_equals_closed_form_report(self):
        for A in (DigitSet.of(8, [0, 2, 5, 7]), DigitSet.of(10, [0, 2, 6, 7, 9]),
                  DigitSet.of(12, [0, 2, 3, 5, 9, 11]), DigitSet.of(3, [0, 2])):
            t = classify_intervals(sumset_profile(A))
            assert growth_check(A, 3).dim == uniqueness_report(t, A).dim

    def test_estimates_approach_dimension(self):
        # counts are 2 * 3^m here, so the depth-m estimate exceeds the
        # dimension by exactly log(2)/(m log 8)
        rep = growth_check(DigitSet.of(8, [0, 2, 5, 7]), 6)
        gaps = [abs(e - rep.dim) for e in rep.dim_estimates]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] == pytest.approx(math.log(2) / (6 * math.log(8)), abs=1e-9)


class TestStartCounts:
    def test_counts_grow_and_submultiply(self):
        A = DigitSet(6, (0, 1, 5))
        counts = level_start_counts(A, 6)
        assert len(counts) == 6
        assert all(b > a for a, b in zip(counts, counts[1:]))
        # start counts are submultiplicative across depths
        assert counts[3] <= counts[1] * counts[2] + 1e-9

    @pytest.mark.parametrize("m", [0, -1])
    def test_depth_below_one_rejected(self, m):
        A = DigitSet(6, (0, 1, 5))
        with pytest.raises(ValueError, match="depth must be >= 1"):
            level_start_counts(A, m)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            level_set(A, m)
        # the dense typing engine keeps the same rule
        B = DigitSet.of(8, [0, 2, 5, 7])
        with pytest.raises(ValueError, match="depth must be >= 1"):
            list(typing_count_evolution(B, m))
        with pytest.raises(ValueError, match="depth must be >= 1"):
            level_typing_counts(B, m)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            growth_check(B, m)

    def test_range_refusal_builds_no_profile(self, monkeypatch):
        # the 64-bit bound needs only max(A), so a refused depth costs no
        # pair counts; depth and budget errors keep their precedence
        def no_profile(A):
            raise AssertionError("built a sumset profile")

        monkeypatch.setattr(oracle, "sumset_profile", no_profile)
        A = DigitSet.of(5000, [0, 1, 4999])
        for fn in (level_start_counts, level_set):
            with pytest.raises(ValueError, match="64-bit range"):
                fn(A, 8)
            with pytest.raises(ValueError, match="depth must be >= 1"):
                fn(A, 0, budget=10**40)
            with pytest.raises(ValueError):
                fn(A, 8, budget="many")

    def test_last_count_is_level_set_size(self):
        for A, depth in ((DigitSet(6, (0, 1, 5)), 5), (DigitSet.of(5, [0, 1, 7, 8]), 4),
                         (DigitSet.of(8, [0, 2, 5, 7]), 4), (DigitSet.of(5, [0, 1, 4]), 3)):
            counts = level_start_counts(A, depth)
            for m in range(1, depth + 1):
                assert level_set(A, m).n_starts == counts[m - 1]


def brute_starts(A, m):
    """Depth-m starts as a Python set, level by level from the sumset."""
    sums = {a + b for a in A.digits for b in A.digits}
    starts = set(sums)
    for _ in range(m - 1):
        starts = {A.n * s + b for s in starts for b in sums}
    return starts


def brute_union(intervals, link):
    """Union of inclusive integer intervals; neighbors within link join."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + link:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [tuple(r) for r in out]


class TestChunkedExpansion:
    """Runs, components and counts of the run engine against brute force
    on small sets with support runs longer and shorter than the base."""

    # {0,1,2,4} base 5: support run [0, 6] (length >= n) and the short
    # run [8, 8]; {0,2,5,7} base 8: short runs only; {0,1,7,8} base 5:
    # general mode, short runs beyond the base
    SETS = (DigitSet.of(5, [0, 1, 2, 4]), DigitSet.of(8, [0, 2, 5, 7]),
            DigitSet.of(5, [0, 1, 7, 8]))

    @pytest.mark.parametrize("A", SETS, ids=str)
    def test_small_chunks_match_default_and_brute_force(self, A):
        counts = level_start_counts(A, 4)
        for m in range(1, 5):
            ls = level_set(A, m)
            starts = sorted(brute_starts(A, m))
            assert counts[m - 1] == len(starts)
            runs = brute_union([(s, s) for s in starts], link=1)
            assert list(zip(ls.run_lo.tolist(), ls.run_hi.tolist())) == runs
            cover = brute_union([(s, s + ls.width) for s in starts], link=0)
            assert list(ls.components) == cover


def twin_start_levels(A, max_pieces=2_000_000, max_depth=10):
    """Start arrays by the *trailing* digit, S' = n S + B, from the
    digits alone; deepens while the next expansion has at most
    max_pieces entries (max_depth keeps the starts within 64 bits)."""
    d = np.array(A.digits, dtype=np.int64)
    B = np.unique(np.add.outer(d, d))
    levels = [B]
    while len(levels) < max_depth and len(levels[-1]) * len(B) <= max_pieces:
        levels.append(np.unique((A.n * levels[-1][:, None] + B).ravel()))
    return levels


def twin_sets():
    """Seeded canonical and general sets, after two fixed ones: support
    run [0, 9] longer than base 7, and a wide general set in base 23."""
    rng = np.random.default_rng(20261018)
    sets = [DigitSet.of(7, [0, 1, 2, 3, 6]), DigitSet.of(23, [0, 12, *range(16, 61, 4)])]
    for _ in range(8):
        n = int(rng.integers(3, 31))
        inner = np.flatnonzero(rng.random(n - 2) < 0.4) + 1
        sets.append(DigitSet.of(n, [0, *inner.tolist(), n - 1]))
        top = int(rng.integers(n, 3 * n))
        ds = rng.choice(np.arange(1, top + 1), size=int(rng.integers(1, 6)), replace=False)
        sets.append(DigitSet.of(n, [0, *ds.tolist()]))
    return sets


class TestTrailingDigitTwin:
    """The run engine grows starts by the leading digit; an independent
    twin grows plain start arrays by the trailing digit."""

    @pytest.mark.parametrize("A", twin_sets(), ids=str)
    def test_runs_and_counts_match_twin(self, A):
        levels = twin_start_levels(A)
        m = len(levels)
        assert level_start_counts(A, m, budget=10**9) == [len(S) for S in levels]
        S = levels[-1]
        cut = np.flatnonzero(np.diff(S) > 1)
        ls = level_set(A, m, budget=10**9)
        assert np.array_equal(ls.run_lo, S[np.r_[0, cut + 1]])
        assert np.array_equal(ls.run_hi, S[np.r_[cut, len(S) - 1]])
