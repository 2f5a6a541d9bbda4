import random
from unittest import mock

import numpy as np
import pytest

from cantorsum import digitset
from cantorsum.digitset import DigitSet, sumset_profile
from cantorsum.gdifs import word_report
from cantorsum.search import _PairCounts


def canonical_sets(n):
    """Every canonical digit set for base n."""
    for inner in range(1 << (n - 2)):
        digits = [0] + [d for d in range(1, n - 1) if (inner >> (d - 1)) & 1] + [n - 1]
        yield DigitSet(n, tuple(digits))


def word_row(n, m1, m2):
    """(good, very_good, a, b, c, d, lam, dim) of the sumset words m1, m2
    by the scalar word rule."""
    ((a, b), (c, d)), rep, _ = word_report(n, m1, m2)
    return rep.good, rep.very_good, a, b, c, d, rep.lam, rep.dim


def batch_flags(n, masks):
    """The set sizes (int16) and edge flags (1 or n - 2 a digit) that
    search._type_batch takes, from the uint64 masks by popcount and bit
    tests."""
    masks = np.asarray(masks, dtype=np.uint64)
    edges = (masks >> np.uint64(1) | masks >> np.uint64(n - 2)) & np.uint64(1)
    return np.bitwise_count(masks).astype(np.int16), edges.astype(bool)


def eval_mask(n, mask):
    """Scalar twin of the batch kernel: goodness, typing, lambda and dim
    of one mask from its pair counts and sumset words."""
    return word_row(n, *_PairCounts(n, mask).low_words(2))


def feasible_oracle_depth(A, cap, budget=10**7):
    """Largest depth <= cap within the oracle's default budget."""
    p = sumset_profile(A)
    blen = len(p.support)
    mx = int(p.support[-1])
    best = 0
    for m in range(1, cap + 1):
        if min(blen**m, mx * (A.n**m - 1) // (A.n - 1) + 2) <= budget:
            best = m
    return best


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def count_path(A):
    """The path pair_sum_counts takes for A's counts: "bincount",
    "split" (translate-doubled) or "fft", seen by spying on the last two."""
    digits = np.asarray(A.digits, dtype=np.int64)
    with mock.patch.object(digitset, "_split_pair_counts",
                           wraps=digitset._split_pair_counts) as split, \
            mock.patch.object(digitset, "_fft_pair_counts",
                              wraps=digitset._fft_pair_counts) as fft:
        digitset.pair_sum_counts(digits)
    # split recurses into its lower half; FFT and bincount never recurse
    return "split" if split.called else "fft" if fft.called else "bincount"


def word_path(A):
    """The path sumset_words takes for A's words: "split" (translate-
    doubled), "runs" (the digit-run walk), or the path of the pair
    counts it thresholds, "bincount" or "fft"."""
    digits = np.asarray(A.digits, dtype=np.int64)
    if digitset._doubling_shift(digits):
        return "split"
    with mock.patch.object(digitset, "pair_sum_counts",
                           wraps=digitset.pair_sum_counts) as counts:
        digitset.sumset_words(digits)
    return count_path(A) if counts.called else "runs"


def count_path_sets(seed, per_path=16, max_n=5000, words=False):
    """{path: sets}: seeded canonical sets at bases 3..max_n, per_path
    for each pair_sum_counts path (each sumset_words path, the run walk
    too, with `words`), each family (sparse, dense, dense with a removed
    block, translate-doubled) feeding every path it reaches."""
    rnd = random.Random(seed)
    path = word_path if words else count_path
    out = {"bincount": [], "split": [], "fft": []} | ({"runs": []} if words else {})
    while min(map(len, out.values())) < per_path:
        family = rnd.randrange(4)
        if family == 3:  # Y u (Y + h): digit 0 and max(Y) in Y, h > max(Y)
            top = rnd.randrange(2, max_n // 2)
            p = rnd.uniform(0.3, 0.95)
            low = {0, top} | {d for d in range(1, top) if rnd.random() < p}
            h = top + rnd.randrange(1, 4)
            A = DigitSet.of(h + top + 1, low | {d + h for d in low})
        else:
            n = rnd.randrange(3, max_n + 1)
            inner = range(1, n - 1)
            if family == 0:
                k = min(rnd.randrange(2 * int(n ** 0.5) + 1), n - 2)
                digits = set(rnd.sample(inner, k))
            else:
                p = rnd.uniform(0.2, 0.95)
                digits = {d for d in inner if rnd.random() < p}
                if family == 2:
                    lo = rnd.randrange(1, max(2, n - 1))
                    width = rnd.randrange(1, n // 3 + 2)
                    digits = {d for d in digits if not lo <= d < lo + width}
            A = DigitSet.of(n, digits | {0, n - 1})
        group = out[path(A)]
        if len(group) < per_path:
            group.append(A)
    return out
