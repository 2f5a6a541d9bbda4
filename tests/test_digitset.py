from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorsum import digitset
from cantorsum.constructions import chain_to_target
from cantorsum.digitset import (
    DigitSet,
    InvariantError,
    is_n_good,
    reflect,
    sumset_profile,
)

from conftest import canonical_sets


def counts_dict(A):
    p = sumset_profile(A)
    return {int(s): int(p.counts[s]) for s in p.support}


canonical_strategy = st.integers(3, 16).flatmap(
    lambda n: st.sets(st.integers(1, n - 2), max_size=n - 2).map(
        lambda inner: DigitSet.of(n, inner | {0, n - 1})
    )
)


class TestDigitSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            DigitSet(2, (0, 1))
        with pytest.raises(ValueError):
            DigitSet(5, (0,))
        with pytest.raises(ValueError):
            DigitSet(5, (0, 2, 2, 4))
        with pytest.raises(ValueError):
            DigitSet(5, (1, 4))
        with pytest.raises(ValueError):
            DigitSet.of(5, [0, 3, 3, 4])

    @pytest.mark.parametrize("n,digits,message", [
        (2, (0, 1), "base must be an integer >= 3"),
        (5, (0,), "need at least two digits"),
        (5, (-2, 0, 4), "digits must be non-negative"),
        # unsorted and negative: the sign is reported first
        (5, (0, 4, -1), "digits must be non-negative"),
        (5, (0, 4, 2), "digits must be strictly increasing"),
        (5, (0, 2, 2, 4), "digits must be strictly increasing"),
        # unsorted without 0 first: the order is reported first
        (5, (4, 0), "digits must be strictly increasing"),
        (5, (1, 4), "smallest digit must be 0"),
    ])
    def test_validation_messages(self, n, digits, message):
        with pytest.raises(ValueError, match=message):
            DigitSet(n, digits)

    def test_numpy_integers_accepted(self):
        A = DigitSet(np.int64(10), (np.int64(0), np.int32(4), 9))
        assert A == DigitSet(10, (0, 4, 9))
        assert type(A.n) is int and all(type(d) is int for d in A.digits)
        assert DigitSet.of(np.uint16(10), np.array([9, 0, 4])).digits == (0, 4, 9)

    def test_non_integers_rejected(self):
        with pytest.raises(ValueError):
            DigitSet(10, (0, 2.7, 9))
        with pytest.raises(ValueError):
            DigitSet(10.0, (0, 9))
        with pytest.raises(ValueError):
            DigitSet.of(10, [0, 2.7, 9])
        with pytest.raises(ValueError):
            DigitSet.general(10, [1.5, 3])
        with pytest.raises(ValueError):
            DigitSet.from_json('{"n": 10, "digits": [0, 2.7, 9]}')

    def test_modes(self):
        assert DigitSet.of(5, [0, 2, 4]).canonical
        assert not DigitSet.of(5, [0, 1, 7, 8]).canonical
        assert DigitSet.general(5, [3, 4, 10, 11]).digits == (0, 1, 7, 8)

    @pytest.mark.parametrize("source", ["random", "chain"])
    def test_membership_matches_set_lookup(self, source, rng):
        if source == "random":
            n = 3000
            inner = np.flatnonzero(rng.random(n - 2) < 0.3) + 1
            A = DigitSet.of(n, {0, n - 1} | {int(d) for d in inner})
        else:
            A = chain_to_target(10**5).final.digitset
        n, digits = A.n, set(A.digits)
        between = [d + 1 for d in A.digits] + [d - 1 for d in A.digits]
        probes = list(A.digits) + between + [-1, n - 1, n, 2 * n]
        assert any(p not in digits for p in between)
        for p in probes:
            assert (p in A) == (p in digits), p

    def test_json_roundtrip(self):
        A = DigitSet.of(8, [0, 2, 5, 7])
        assert DigitSet.from_json(A.to_json()) == A
        assert A.to_json() == '{"n": 8, "digits": [0, 2, 5, 7]}'
        assert A.csv_cell() == "0;2;5;7"
        assert DigitSet.from_csv_cell(8, "0;2;5;7") == A


class TestSumsetProfile:
    def test_steinhaus_counts(self):
        assert counts_dict(DigitSet.of(3, [0, 2])) == {0: 1, 2: 2, 4: 1}

    def test_base8_support_and_uniques(self):
        p = sumset_profile(DigitSet.of(8, [0, 2, 5, 7]))
        assert p.support.tolist() == [0, 2, 4, 5, 7, 9, 10, 12, 14]
        assert [int(p.counts[s]) for s in (0, 4, 10, 14)] == [1, 1, 1, 1]
        assert all(int(p.counts[s]) >= 2 for s in (2, 5, 7, 9, 12))

    def test_two_digit_set(self):
        assert counts_dict(DigitSet.of(4, [0, 3])) == {0: 1, 3: 2, 6: 1}

    def test_count_at_out_of_range(self):
        p = sumset_profile(DigitSet.of(3, [0, 2]))
        assert p.count_at(-1) == 0
        assert p.count_at(5) == 0
        assert p.count_at(2) == 2

    @given(canonical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_total_is_size_squared(self, A):
        assert int(sumset_profile(A).counts.sum()) == A.size**2

    @given(canonical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_endpoints_unique(self, A):
        p = sumset_profile(A)
        assert p.count_at(0) == 1
        assert p.count_at(2 * A.n - 2) == 1

    @given(canonical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_reflection_mirrors_counts(self, A):
        p = sumset_profile(A)
        q = sumset_profile(reflect(A))
        top = 2 * A.n - 2
        assert all(
            p.count_at(s) == q.count_at(top - s) for s in range(top + 1)
        )


def pair_twin(A):
    """Pair-sum histogram one digit row at a time (distinct sums per row)."""
    digits = np.asarray(A.digits, dtype=np.int64)
    counts = np.zeros(2 * int(digits[-1]) + 1, dtype=np.int64)
    for a in A.digits:
        counts[a + digits] += 1
    return counts


def convolve_twin(A):
    """Pair-sum histogram as the direct self-convolution of the indicator.

    O(max(A)^2): the 0/1 products sum exactly in float64, which NumPy
    convolves several times faster than int64.
    """
    ind = np.zeros(A.digits[-1] + 1)
    ind[list(A.digits)] = 1.0
    return np.rint(np.convolve(ind, ind)).astype(np.int64)


PATHS = ("_pair_counts", "_split_pair_counts", "_fft_pair_counts")


@pytest.fixture
def paths(monkeypatch):
    """Record (path, digit count) for every pair-count path in call order."""
    calls = []
    for name in PATHS:
        def spy(digits, top, fn=getattr(digitset, name), name=name):
            calls.append((name, len(digits)))
            return fn(digits, top)

        monkeypatch.setattr(digitset, name, spy)
    return calls


def check_counts(A, paths, convolve=True):
    """Compare sumset_profile with the twins; return the paths it took."""
    paths.clear()
    p = sumset_profile(A)
    taken = list(paths)
    want = pair_twin(A)
    assert p.counts.dtype == np.int32
    assert np.array_equal(p.counts, want)
    assert np.array_equal(p.support, np.flatnonzero(want))
    if convolve:
        assert np.array_equal(p.counts, convolve_twin(A))
    return taken


def halving(k, leaf):
    """The split calls from k digits down to `leaf`, then the leaf path."""
    calls = []
    while k != leaf[1]:
        calls.append(("_split_pair_counts", k))
        k //= 2
    return calls + [leaf]


class TestSumsetAgainstPairTwin:
    """Every side of the bincount/split/FFT choice against a row-loop twin."""

    def test_full_digit_set_at_20000(self, paths):
        # range(20000) is range(10000) u (range(10000) + 10000); halving
        # reaches the FFT at the odd size 625.
        n = 20_000
        A = DigitSet(n, tuple(range(n)))
        taken = check_counts(A, paths, convolve=False)
        assert taken == halving(n, ("_fft_pair_counts", 625))
        assert sumset_profile(A).counts.max() == n

    def test_chain_set(self, paths):
        A = chain_to_target(10**5).final.digitset
        assert A.size == 1536
        taken = check_counts(A, paths, convolve=False)
        assert taken == halving(1536, ("_pair_counts", 384))

    def test_random_sets_both_paths(self, rng, paths):
        seen = set()
        for i in range(60):
            n = int(rng.integers(3, 3000))
            density = rng.choice([0.02, 0.1, 0.3, 0.9])
            inner = np.flatnonzero(rng.random(n) < density)
            if i % 2:
                # general mode: digits up to 2n, smallest translated to 0
                inner = np.concatenate([inner, n + inner[: len(inner) // 2]])
                A = DigitSet.general(n, {0, 1} | {int(d) for d in inner})
            else:
                A = DigitSet.of(n, {0, n - 1} | {int(d) for d in inner if d < n})
            (only,) = check_counts(A, paths, convolve=False)
            seen.add(only[0])
        assert seen == {"_pair_counts", "_fft_pair_counts"}

    @pytest.mark.parametrize("chunk", [1, 60, 10**6])
    def test_bincount_in_chunks(self, chunk, monkeypatch, paths):
        # one digit row a chunk; four rows a chunk, the last with three; one chunk
        monkeypatch.setattr(digitset, "_PAIR_CHUNK", chunk)
        A = DigitSet.of(500, [0, 3, 4, 40, 41, 77, 100, 230, 231, 232, 260, 301, 450, 467, 499])
        assert check_counts(A, paths) == [("_pair_counts", A.size)]


class TestTranslateSplit:
    """X = Y u (Y + h) counted from Y, against the twins and the FFT."""

    @pytest.mark.parametrize("target", [458, 99999, 10**5, 10**6])
    def test_every_chain_row(self, target, paths):
        # direct convolution is O(n^2), so it stops at base 40,000
        split = []
        for row in chain_to_target(target).rows:
            A = row.digitset
            taken = check_counts(A, paths, convolve=A.n <= 40_000)
            assert "_fft_pair_counts" not in dict(taken), (row.n, taken)
            if taken[0][0] == "_split_pair_counts":
                # a tower output halves down to a sparse ancestor row
                assert taken == halving(A.size, taken[-1]), (row.n, taken)
                assert taken[-1][0] == "_pair_counts"
                split.append(row.n)
            digits = np.asarray(A.digits, dtype=np.int64)
            fft = digitset._fft_pair_counts(digits, 2 * A.digits[-1])
            assert np.array_equal(sumset_profile(A).counts, fft)
        assert (target in split) == (target >= 99999), split

    @staticmethod
    def doubled(rng, top, gap):
        """Sorted Y u (Y + h), Y random in 0..top with 0 and top, h = top + gap."""
        Y = np.flatnonzero(rng.random(top + 1) < rng.choice([0.4, 0.7, 0.95]))
        Y = np.union1d(Y, [0, top])
        return np.concatenate([Y, Y + top + gap])

    @pytest.mark.parametrize("mode", ["canonical", "general"])
    def test_random_doubled_sets(self, mode, paths):
        # gap 1 is the tightest fit (range(n) has it); the three count
        # ranges c_Y[s], c_Y[s-h], c_Y[s-2h] overlap until h > 2 max Y.
        rng = np.random.default_rng(20261018)
        for top in (500, 777, 1500):
            for gap in (1, 2, 3, int(rng.integers(4, top)), top, top + 1, top + 2, 3 * top):
                X = self.doubled(rng, top, gap)
                if mode == "canonical":
                    A = DigitSet(int(X[-1]) + 1, tuple(X.tolist()))
                else:
                    A = DigitSet.general(int(X[-1]) // 2 + 2, (X + 7).tolist())
                assert A.canonical == (mode == "canonical")
                taken = check_counts(A, paths)
                assert taken[0] == ("_split_pair_counts", len(X)), (top, gap, taken)

    def test_near_misses_do_not_split(self, paths):
        rng = np.random.default_rng(7)
        for top in (600, 1200):
            X = self.doubled(rng, top, int(rng.integers(1, top)))
            half = len(X) // 2
            assert check_counts(DigitSet.general(3, X), paths)[0][0] == "_split_pair_counts"
            # one upper digit moved by 1; X[-1] == X[half-1] + X[half] still holds
            free = [i for i in range(half + 1, len(X) - 1) if X[i] + 1 < X[i + 1]]
            moved = X.copy()
            moved[free[len(free) // 2]] += 1
            assert moved[-1] == moved[half - 1] + moved[half]
            # odd length: one upper digit dropped
            odd = np.delete(X, half + half // 2)
            # interleaved halves: Y u (Y + h) with h below max Y
            Y = X[:half]
            inter = np.union1d(Y, Y + int(rng.integers(1, top)))
            for near in (moved, odd, inter):
                taken = check_counts(DigitSet.general(3, near), paths)
                assert taken == [("_fft_pair_counts", len(near))], taken


class TestFFTGuard:
    DENSE = DigitSet(1000, tuple(range(0, 1000, 2)) + (999,))

    @pytest.mark.parametrize("fault,message", [("residual", "off an integer"),
                                               ("total", "total"),
                                               ("negative", "below zero")])
    def test_bad_rounding_raises(self, fault, message, monkeypatch):
        irfft = np.fft.irfft

        def faulty(*args, **kwargs):
            y = irfft(*args, **kwargs)
            if fault == "residual":
                return y + 0.4
            if fault == "total":
                y[0] += 1
            else:
                y[0] -= 2
                y[1] += 2
            return y

        monkeypatch.setattr(np.fft, "irfft", faulty)
        with pytest.raises(InvariantError, match=message):
            sumset_profile(self.DENSE)


class TestGoodness:
    def test_steinhaus_good(self):
        assert is_n_good(DigitSet.of(3, [0, 2]))

    @pytest.mark.parametrize("n", [4, 5, 7, 12])
    def test_endpoints_only_not_good(self, n):
        assert not is_n_good(DigitSet.of(n, [0, n - 1]))

    @pytest.mark.parametrize("n", [5, 6, 9, 13])
    def test_missing_one_two_not_good(self, n):
        # dropping digits 1 and 2 leaves a length-3 hole at the bottom
        assert not is_n_good(DigitSet.of(n, [0] + list(range(3, n))))

    def test_101_ladder_good(self):
        digits = set(range(11)) | set(range(0, 101, 10)) | set(range(90, 101))
        assert is_n_good(DigitSet.of(101, digits))

    def test_rejects_general_mode(self):
        with pytest.raises(ValueError):
            is_n_good(DigitSet.of(5, [0, 1, 7, 8]))

    @given(canonical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_reflection_invariant(self, A):
        assert is_n_good(A) == is_n_good(reflect(A))

    def test_good_sets_have_sqrt_size(self):
        for n in range(3, 13):
            for A in canonical_sets(n):
                if is_n_good(A):
                    assert A.size**2 >= n, A


class TestReflect:
    def test_examples(self):
        assert reflect(DigitSet.of(8, [0, 2, 5, 7])).digits == (0, 2, 5, 7)
        assert reflect(DigitSet.of(5, [0, 1, 4])).digits == (0, 3, 4)
        assert reflect(DigitSet.of(3, [0, 2])).digits == (0, 2)

    @given(canonical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, A):
        assert reflect(reflect(A)) == A


def threshold_word(counts, t):
    """Bit s set when counts[s] >= t, built from a '0'/'1' string."""
    bits = (counts[::-1] >= t).astype(np.uint8) + ord("0")
    return int(bits.tobytes(), 2)


def check_words(digits):
    """sumset_words against the thresholded row-loop counts."""
    A = DigitSet.general(3, digits)
    counts = pair_twin(A)
    want = threshold_word(counts, 1), threshold_word(counts, 2)
    assert digitset.sumset_words(np.asarray(A.digits, dtype=np.int64)) == want


class TestSumsetWords:
    """The doubled-word recurrence and the run words against thresholded
    pair counts."""

    @pytest.mark.parametrize("target", [458, 99999, 10**5, 10**6])
    def test_every_chain_row(self, target):
        rows = chain_to_target(target).rows
        for prev, row in zip((None,) + rows, rows):
            digits = np.asarray(row.digitset.digits, dtype=np.int64)
            if prev is not None:
                assert digitset._doubling_shift(digits) == 2 * prev.n - row.k
            check_words(digits)

    def test_nested_doubled_sets(self):
        # h from max + 1 (Y and Y + h abut) to 3 max + 1; up to 2 max the
        # ranges of c_Y[s] and c_Y[s - h] overlap
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            top = int(rng.integers(1, 200))
            X = np.union1d(np.flatnonzero(rng.random(top + 1) < rng.random()), [0, top])
            for _ in range(int(rng.integers(1, 5))):
                top = int(X[-1])
                h = int(rng.choice([top + 1, 2 * top, 2 * top + 1, 3 * top + 1,
                                    int(rng.integers(top + 1, 3 * top + 2))]))
                X = np.concatenate([X, X + h])
                assert digitset._doubling_shift(X) == h
            check_words(X)

    def test_leaf_sets(self):
        rng = np.random.default_rng(11)
        leaves = 0
        for _ in range(200):
            top = int(rng.integers(1, 400))
            X = np.union1d(np.flatnonzero(rng.random(top + 1) < rng.random()), [0, top])
            if digitset._doubling_shift(X):  # the few doubled draws are not leaves
                continue
            check_words(X)
            leaves += 1
        assert leaves > 150
        # odd counts, and upper halves that are no translate of the lower
        for X in ([0, 1, 2], [0, 2, 3, 4], [0, 1, 3, 7]):
            assert digitset._doubling_shift(np.array(X)) == 0
            check_words(X)

    @staticmethod
    def runs_set(rng, top, runs):
        """Digits 0 and top plus `runs` random runs of length 1..top/2."""
        digits = {0, top}
        for _ in range(runs):
            lo = int(rng.integers(0, top + 1))
            digits |= set(range(lo, min(top, lo + int(rng.integers(1, top // 2 + 2)))))
        return np.array(sorted(digits), dtype=np.int64)

    @staticmethod
    def run_path(digits):
        """True when sumset_words answers without the pair counts."""
        with mock.patch.object(digitset, "pair_sum_counts",
                               wraps=digitset.pair_sum_counts) as counts:
            digitset.sumset_words(digits)
        return not counts.called

    def test_random_runs(self):
        rng = np.random.default_rng(20261019)
        taken = 0
        for _ in range(60):
            top = int(np.exp(rng.uniform(np.log(20), np.log(10**4))))
            X = self.runs_set(rng, top, int(rng.integers(1, 9)))
            check_words(X)
            taken += self.run_path(X)
        assert taken >= 20

    def test_block_shapes(self):
        rng = np.random.default_rng(5)
        shapes = []
        for n in (301, 1001, 3001, 5001):  # odd: {0..n-1} is not doubled
            # the benchmark's Mixed family: two end blocks, up to 3 extras
            k1 = int(rng.integers(1, n // 2))
            extra = {int(d) for d in rng.integers(1, n - 1, size=3)}
            shapes.append(set(range(k1 + 1)) | set(range(n - 1 - (n // 2 - k1), n)) | extra)
            shapes.append(set(range(n)))  # one run
            shapes.append(set(range(n // 2)) | {n - 1})  # a run at 0, a lone top
            shapes.append({0} | set(range(n // 3, n)))  # a lone 0, a run at the top
        for digits in shapes:
            X = np.array(sorted(digits), dtype=np.int64)
            assert not digitset._bincounted(X) and not digitset._doubling_shift(X)
            assert self.run_path(X), len(X)
            check_words(X)

    def test_many_runs_count(self):
        # past the bincount bound, the cost rule walks 60 runs of 49 digits
        # at base 3000 (every 50th digit out) and counts 300 runs of 9
        # (every 10th out) by FFT
        n = 3000
        for gap, walks in ((50, True), (10, False)):
            X = np.array([d for d in range(n) if d % gap or d in (0, n - 1)], dtype=np.int64)
            assert not digitset._bincounted(X) and not digitset._doubling_shift(X)
            assert digitset._walk_cheaper(len(X), *digitset._digit_runs(X)) is walks
            assert self.run_path(X) is walks
            check_words(X)


def spread(n, k, seed=0):
    """0, n - 1 and k - 2 seeded even digits in 2..n-3: k single-digit
    runs, for k up to about n / 2."""
    evens = np.random.default_rng([seed, n, k]).choice(np.arange(2, n - 2, 2), k - 2, replace=False)
    return np.union1d(evens, [0, n - 1]).astype(np.int64)


def walks(X):
    """The cost rule's choice for the digits X."""
    return digitset._walk_cheaper(len(X), *digitset._digit_runs(X))


class TestWordCostRule:
    """sumset_words on both sides of its cost rule, against the
    thresholded row-loop counts (check_words) or closed forms."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**5, 10**6])
    def test_single_digit_runs_both_sides(self, n):
        # the largest k whose spread set walks, by bisection on the rule
        top = len(range(2, n - 2, 2)) + 2  # the most single-digit runs
        lo, hi = 2, top
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if walks(spread(n, mid)) else (lo, mid - 1)
        sides = set()
        for k in range(max(2, lo - 1), min(top, lo + 2) + 1):
            X = spread(n, k)
            assert len(X) == k and np.all(np.diff(X) >= 2) and not digitset._doubling_shift(X)
            assert TestSumsetWords.run_path(X) is walks(X) is (k <= lo), (n, k)
            sides.add(k <= lo)
            check_words(X)
        # at base 10 every set walks; from base 100 on both sides are reached
        assert sides == ({True} if n == 10 else {True, False}), (n, lo)

    @pytest.mark.parametrize("n", [11, 101, 1001, 10**4 + 1, 10**5 + 1, 10**6 + 1])
    def test_one_run(self, n):
        # {0..n-1}, n odd so that it is not doubled: every sum has a pair,
        # and all but 0 and 2n - 2 two
        X = np.arange(n, dtype=np.int64)
        assert not digitset._doubling_shift(X) and TestSumsetWords.run_path(X)
        top = 2 * n - 2
        assert digitset.sumset_words(X) == ((1 << top + 1) - 1, (1 << top) - 2)
        if n <= 10**4:
            check_words(X)

    def test_runs_touching_both_ends(self):
        rng = np.random.default_rng(24)
        seen = set()
        for n in (10, 31, 100, 1000, 3001, 10**4 + 1):
            for _ in range(6):
                head, tail = (int(rng.integers(2, max(3, n // 8))) for _ in range(2))
                middle = rng.choice(np.arange(head + 1, n - tail - 1),
                                    size=int(rng.integers(0, min(400, n // 4))), replace=False)
                X = np.union1d(np.union1d(np.arange(head), np.arange(n - tail, n)), middle)
                if digitset._doubling_shift(X):
                    continue
                los, his = digitset._digit_runs(X)
                assert los[0] == 0 and his[0] >= 1 and his[-1] == n - 1 and los[-1] < n - 1
                seen.add(TestSumsetWords.run_path(X))
                assert TestSumsetWords.run_path(X) is walks(X)
                check_words(X)
        assert seen == {True, False}

    def test_doubled_sets_walk_their_halves(self):
        rng = np.random.default_rng(2024)
        for top in (9, 40, 300, 2000, 7000):
            for runs in (1, 3, 8):
                Y = TestSumsetWords.runs_set(rng, top, runs)
                X = np.concatenate([Y, Y + top + int(rng.integers(1, top + 2))])
                assert digitset._doubling_shift(X) and walks(Y)
                with mock.patch.object(digitset, "_run_words",
                                       wraps=digitset._run_words) as walk:
                    assert TestSumsetWords.run_path(X)
                # one walk, over the lower half's runs
                (los, his), _ = walk.call_args
                assert (los, his) == digitset._digit_runs(Y)
                check_words(X)

    def test_every_word_path_reachable(self):
        from conftest import word_path

        n = 5001
        sets = {
            "runs": [0, 1, 2, 40, 41, 900, 4998, 4999, 5000],
            "bincount": spread(n, 120).tolist(),
            "split": list(chain_to_target(10**5).final.digitset.digits),
            "fft": [d for d in range(n) if d % 3 or d in (0, n - 1)],
        }
        for path, digits in sets.items():
            A = DigitSet.of(int(digits[-1]) + 1, digits)
            assert word_path(A) == path, path
            if path != "split":
                check_words(digits)

    def test_list_and_array_runs_agree(self):
        # sets of at most _LIST_MAX digits find their runs on a list
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 400))
            X = np.union1d(np.flatnonzero(rng.random(n) < rng.random()), [0, n - 1])
            assert digitset._digit_runs(X.tolist()) == digitset._digit_runs(X)
            assert digitset._doubling_shift(X.tolist()) == digitset._doubling_shift(X)
