import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorsum import digitset, gdifs, report, structure
from cantorsum.digitset import DigitSet, _bits_word, sumset_profile, sumset_words
from cantorsum.oracle import level_set
from cantorsum.structure import (
    NotApplicableError,
    StructureCase,
    cantor_sum_dimension,
    classify_structure,
)

from conftest import canonical_sets, count_path_sets, feasible_oracle_depth, word_path


# Reference covering automaton: states are (x, y) pairs of booleans and
# every transition is a frozenset lookup per residue, the scalar twin of
# the automaton on bit-words in structure.py.
_DEAD = (False, False)
_LIVE = {(True, False), (False, True), (True, True)}


def _children(state, B, n):
    x, y = state
    out = []
    for r in range(n):
        xp = (x and r in B) or (y and n + r in B)
        yp = (x and r - 1 in B) or (y and n + r - 1 in B)
        out.append((xp, yp))
    return out


def _seed_states(B, n):
    """Level-1 states by unit index j = 0..2n-1."""
    return [((j in B), (j - 1 in B)) for j in range(2 * n)]


def _reference_full(B, n):
    """The FULL states: the greatest fixed point, one residue at a time."""
    full = set(_LIVE)
    while True:
        keep = {s for s in full if all(c in full for c in _children(s, B, n))}
        if keep == full:
            return full
        full = keep


def reference_structure(A):
    """(case, gap witness, interval witness, witness level) by the scalar
    automaton: first dead run, FULL fixed point, rightmost FULL unit."""
    n = A.n
    profile = sumset_profile(A)
    if profile.good:
        return StructureCase.FULL_INTERVAL, None, (Fraction(0), Fraction(2)), None
    B = frozenset(int(s) for s in profile.support)
    seeds = _seed_states(B, n)
    j = seeds.index(_DEAD)
    k = j
    while k + 1 < 2 * n and seeds[k + 1] == _DEAD:
        k += 1
    gap = (Fraction(j, n), Fraction(k + 1, n))
    full = _reference_full(B, n)
    frontier = {}
    for j, s in enumerate(seeds):
        if s != _DEAD and (s not in frontier or j > frontier[s]):
            frontier[s] = j
    seen = set(frontier)
    level = 1
    while frontier and full:
        hits = [(j, s) for s, j in frontier.items() if s in full]
        if hits:
            j = max(hits)[0]
            return (StructureCase.MIXED, gap,
                    (Fraction(j, n**level), Fraction(j + 1, n**level)), level)
        nxt = {}
        for s, j in frontier.items():
            for r, child in enumerate(_children(s, B, n)):
                if child != _DEAD and child not in seen:
                    nxt[child] = max(nxt.get(child, -1), n * j + r)
        seen |= set(nxt)
        frontier = nxt
        level += 1
    return StructureCase.CANTOR_SET, gap, None, None


def _transfer_dimension(A):
    """log rho(T) / log n for the transfer matrix T of the scalar
    automaton's three live states."""
    B = frozenset(int(x) for x in sumset_profile(A).support)
    states = sorted(_LIVE)
    T = np.zeros((3, 3))
    for i, s in enumerate(states):
        for child in _children(s, B, A.n):
            if child in _LIVE:
                T[i][states.index(child)] += 1
    return math.log(max(abs(np.linalg.eigvals(T)))) / math.log(A.n)


def _verdict(rep):
    return rep.case, rep.gap_witness, rep.interval_witness, rep.witness_level


def _random_set(rng, n, kind):
    """Dense random, sparse random, or dense with a removed block."""
    if kind == 0:
        inner = np.flatnonzero(rng.random(n - 2) < rng.uniform(0.2, 0.95)) + 1
    elif kind == 1:
        k = int(rng.integers(0, 2 * math.isqrt(n) + 1))
        inner = rng.choice(np.arange(1, n - 1), size=min(k, n - 2), replace=False)
    else:
        inner = np.flatnonzero(rng.random(n - 2) < rng.uniform(0.3, 0.7)) + 1
        lo, width = int(rng.integers(1, n - 1)), int(rng.integers(1, n // 3 + 2))
        inner = inner[(inner < lo) | (inner >= lo + width)]
    return DigitSet.of(n, {0, n - 1} | {int(d) for d in inner})


canonical_strategy = st.integers(3, 40).flatmap(
    lambda n: st.sets(st.integers(1, n - 2), max_size=n - 2).map(
        lambda inner: DigitSet.of(n, inner | {0, n - 1})
    )
)


class TestTrichotomyExamples:
    def test_steinhaus_full_interval(self):
        rep = classify_structure(DigitSet.of(3, [0, 2]))
        assert rep.case is StructureCase.FULL_INTERVAL
        assert rep.gap_witness is None
        assert rep.interval_witness == (Fraction(0), Fraction(2))

    def test_two_digits_cantor(self):
        rep = classify_structure(DigitSet.of(4, [0, 3]))
        assert rep.case is StructureCase.CANTOR_SET
        assert rep.gap_witness is not None
        assert rep.interval_witness is None

    def test_mixed_example(self):
        rep = classify_structure(DigitSet.of(5, [0, 1, 4]))
        assert rep.case is StructureCase.MIXED
        lo, hi = rep.gap_witness
        assert lo <= Fraction(7, 5) and Fraction(8, 5) <= hi
        ilo, ihi = rep.interval_witness
        assert Fraction(1) <= ilo and ihi <= Fraction(5, 4)
        assert rep.points_dim_lower_bound == pytest.approx(
            math.log(2) / math.log(5), abs=1e-12
        )

    def test_json_witnesses(self):
        rep = classify_structure(DigitSet.of(5, [0, 1, 4]))
        obj = rep.to_json_dict()
        assert obj["case"] == "Mixed"
        assert obj["gap_witness"]["lo"] == {"num": 7, "den": 5}
        assert obj["gap_witness"]["hi"] == {"num": 8, "den": 5}

    def test_rejects_general_mode(self):
        with pytest.raises(ValueError):
            classify_structure(DigitSet.of(5, [0, 1, 7, 8]))


class TestTrichotomyExhaustive:
    def test_exclusive_and_matches_goodness(self):
        seen = {case: 0 for case in StructureCase}
        for n in range(3, 13):
            for A in canonical_sets(n):
                profile = sumset_profile(A)
                # the automaton on the count path's support word
                rep = classify_structure(A, _bits_word(profile.counts > 0))
                seen[rep.case] += 1
                good = bool(np.all(profile.gaps <= 2))
                assert (rep.case is StructureCase.FULL_INTERVAL) == good
                if rep.case is StructureCase.MIXED:
                    assert rep.gap_witness and rep.interval_witness
                    assert rep.points_dim_lower_bound >= math.log(2) / math.log(n) - 1e-12
                if rep.case is StructureCase.CANTOR_SET:
                    assert rep.interval_witness is None
        # all three cases actually occur in the sweep
        assert all(v > 0 for v in seen.values())


class TestWitnessesAgainstOracle:
    @pytest.mark.parametrize("n,digits", [(5, (0, 1, 4)), (7, (0, 1, 2, 6)),
                                          (7, (0, 3, 4, 6))])
    def test_mixed_witnesses_hold_at_depth(self, n, digits):
        A = DigitSet(n, digits)
        rep = classify_structure(A)
        if rep.case is not StructureCase.MIXED:
            pytest.skip("not a mixed instance")
        for m in range(1, feasible_oracle_depth(A, 8) + 1):
            ls = level_set(A, m)
            assert ls.misses_open_interval(*rep.gap_witness), m
            assert ls.covers_interval(*rep.interval_witness), m

    def test_witness_self_similarity(self):
        # pushing a witness through x -> (x + 2n-2)/n lands on another one
        A = DigitSet.of(5, [0, 1, 4])
        rep = classify_structure(A)
        glo, ghi = rep.gap_witness
        ilo, ihi = rep.interval_witness
        ls = level_set(A, 6)
        for _ in range(3):
            glo, ghi = (glo + 8) / 5, (ghi + 8) / 5
            ilo, ihi = (ilo + 8) / 5, (ihi + 8) / 5
            assert ls.misses_open_interval(glo, ghi)
            assert ls.covers_interval(ilo, ihi)

    def test_cantor_cases_never_fill_a_unit(self):
        # depth-6 unit fully surviving to depth 8 would refute the verdict
        checked = 0
        for n in range(4, 9):
            for A in canonical_sets(n):
                rep = classify_structure(A)
                if rep.case is not StructureCase.CANTOR_SET:
                    continue
                if feasible_oracle_depth(A, 8) < 8:
                    continue
                ls = level_set(A, 8)
                unit = n**2
                for lo, hi in ls.components:
                    assert hi // unit - (-(-lo // unit)) < 1, (A, lo, hi)
                checked += 1
        assert checked > 10


class TestCantorDimension:
    def test_exact_cases(self):
        for n, digits, expect in [
            (5, [0, 4], math.log(3) / math.log(5)),
            (4, [0, 3], math.log(3) / math.log(4)),
            (9, [0, 8], math.log(3) / math.log(9)),
        ]:
            cd = cantor_sum_dimension(DigitSet.of(n, digits))
            assert cd.exact
            assert float(cd) == pytest.approx(expect, abs=1e-12)
        assert cantor_sum_dimension(DigitSet.of(9, [0, 8])).value == pytest.approx(0.5)

    def test_bracket_case_agrees_with_transfer_matrix(self):
        # overlapping images: box-count estimate vs an independent
        # spectral computation on the covering automaton
        A = DigitSet(6, (0, 1, 5))
        cd = cantor_sum_dimension(A)
        assert not cd.exact
        assert cd.lower <= cd.value <= cd.upper
        assert cd.width < 0.05
        truth = _transfer_dimension(A)
        # upper is certified for box dimension; lower, the minimum of the
        # last three growth rates, is no bound and sits a little above
        # the truth here, so it gets a hair of slack
        assert truth <= cd.upper + 1e-9
        assert cd.lower - 1e-3 <= truth
        assert cd.value == pytest.approx(truth, abs=1e-3)

    @pytest.mark.parametrize("digits", [(0, 1, 5), (0, 3, 5)])
    def test_upper_is_a_bound(self, digits):
        A = DigitSet(6, digits)
        cd = cantor_sum_dimension(A)
        assert not cd.exact
        assert cd.upper >= _transfer_dimension(A)

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            cantor_sum_dimension(DigitSet.of(3, [0, 2]))
        with pytest.raises(NotApplicableError):
            cantor_sum_dimension(DigitSet.of(5, [0, 1, 4]))


class TestAutomatonInternals:
    def test_seeding_matches_membership(self):
        A = DigitSet.of(5, [0, 1, 4])
        B = frozenset(int(x) for x in sumset_profile(A).support)
        seeds = _seed_states(B, 5)
        assert seeds[0] == (True, False)
        assert seeds[7] == (False, False)  # the gap unit
        assert seeds[5] == (True, True)

    def test_dead_state_absorbs(self):
        B = frozenset([0, 3, 6])
        assert all(c == (False, False) for c in _children((False, False), B, 4))


def _check_against_scalar(A):
    want = reference_structure(A)
    rep = classify_structure(A)
    assert _verdict(rep) == want, A
    # a FULL state always occurs at level 1 (structure module docstring)
    assert rep.witness_level == (1 if rep.case is StructureCase.MIXED else None), A
    return want


class TestArrayAutomatonAgainstScalar:
    @given(canonical_strategy)
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_sets(self, A):
        _check_against_scalar(A)

    def test_random_sets_all_cases(self, rng):
        seen = {case: 0 for case in StructureCase}
        for i in range(240):
            n = 4980 + i % 40 if i % 8 == 0 else int(rng.integers(3, 400))
            seen[_check_against_scalar(_random_set(rng, n, i % 3))[0]] += 1
        assert all(v >= 5 for v in seen.values()), seen

    def test_bases_from_1000_on_every_count_path(self):
        # grouped by the sumset_words path classify_structure takes: the
        # run walk, the translate split, bincount and FFT counts
        seen = {case: 0 for case in StructureCase}
        paths = set()
        for path, sets in count_path_sets(1000, per_path=12, words=True).items():
            for A in sets:
                if A.n >= 1000:
                    seen[_check_against_scalar(A)[0]] += 1
                    paths.add(path)
        assert all(v >= 3 for v in seen.values()), seen
        assert paths == {"runs", "split", "bincount", "fft"}, paths

    def test_every_set_up_to_base_10(self):
        for n in range(3, 11):
            for A in canonical_sets(n):
                _check_against_scalar(A)


class TestFullStatesAgainstScalar:
    """The FULL set on bit masks of child codes against the scalar fixed
    point (a verdict reads it for non-good sets only; good ones are
    checked too)."""

    @staticmethod
    def check(A):
        profile = sumset_profile(A)
        B = frozenset(int(s) for s in profile.support)
        want = sum(1 << (2 * x + y) for x, y in _reference_full(B, A.n))
        assert structure._full_states(A.n, _bits_word(profile.counts > 0)) == want, A
        return want

    def test_every_set_up_to_base_10(self):
        seen = set()
        for n in range(3, 11):
            for A in canonical_sets(n):
                seen.add(self.check(A))
        # empty, all three, {(1,1)} and the two pairs with (1,1)
        assert seen == {0, 0b1110, 0b1000, 0b1100, 0b1010}, seen

    def test_random_sets(self, rng):
        seen = set()
        for i in range(200):
            n = int(rng.integers(11, 3000)) if i % 4 else int(rng.integers(4980, 5020))
            seen.add(self.check(_random_set(rng, n, i % 3)))
        assert 0 in seen and len(seen) >= 2, seen


class TestProfileBuiltOnce:
    def test_cantor_sum_dimension_builds_one_profile(self, monkeypatch):
        # one pair of sumset words per call, and no count profile; the
        # oracle behind the bracket builds its own
        calls = []

        def counting(digits):
            calls.append(tuple(digits.tolist()))
            return sumset_words(digits)

        monkeypatch.setattr(structure, "sumset_words", counting)
        monkeypatch.setattr(structure, "sumset_profile", None)
        for digits in ([0, 1, 6], [0, 6]):  # bracket path, exact path
            calls.clear()
            A = DigitSet.of(7, digits)
            cantor_sum_dimension(A)
            assert calls == [A.digits]


    # one run-path set per case; the Cantor one has no adjacent sums, so
    # its dimension is exact and no oracle builds counts
    RUN_PATH_SETS = (DigitSet(7, (0, 1, 3, 5, 6)), DigitSet.of(19, [*range(5), *range(13, 19)]),
                     DigitSet(82, (0, 20, 81)))

    @pytest.mark.parametrize("entry", ["analyze", "cantor_sum_dimension"])
    def test_one_word_pass(self, entry, monkeypatch):
        # one sumset_words call, no pair counts and one goodness test per
        # question: the automaton takes goodness from the word report
        calls = Counter()

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module in (structure, report):
            counting(module, "sumset_words")
        counting(digitset, "pair_sum_counts")
        counting(gdifs, "word_good")
        counting(structure, "word_good")
        cases = set()
        for A in self.RUN_PATH_SETS:
            assert word_path(A) == "runs", A
            calls.clear()
            if entry == "analyze":
                cases.add(report.analyze(A).structure.case)
            else:
                try:
                    assert cantor_sum_dimension(A).exact
                    cases.add(StructureCase.CANTOR_SET)
                except NotApplicableError:
                    pass
            assert calls == {"sumset_words": 1, "word_good": 1}, (A, calls)
        assert cases == (set(StructureCase) if entry == "analyze" else {StructureCase.CANTOR_SET})


class TestCodeWords:
    def test_xor_forms_match_complements(self):
        # the code words complement by XOR with the unit mask; the
        # negative-operand forms ~(x | y), ~x & y, x & ~y are their twin
        rng = np.random.default_rng(3)
        for width in (1, 2, 63, 64, 65, 1000, 20001):
            units = (1 << width) - 1
            for p in (0.1, 0.5, 0.9):
                x, y = (_bits_word(rng.random(width) < p) for _ in range(2))
                want = (~(x | y) & units, ~x & y, x & ~y, x & y)
                assert structure._code_words(x, y, units) == want, width
