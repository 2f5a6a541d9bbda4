import numpy as np
import pytest

from cantorsum.digitset import DigitSet, sumset_profile
from cantorsum.search import _PairCounts


def canonical_sets(n):
    """Every canonical digit set for base n."""
    for inner in range(1 << (n - 2)):
        digits = [0] + [d for d in range(1, n - 1) if (inner >> (d - 1)) & 1] + [n - 1]
        yield DigitSet(n, tuple(digits))


def eval_mask(n, mask):
    """Scalar twin of the batch kernel: goodness, typing, lambda and dim
    of one mask from its pair counts and sumset words."""
    return _PairCounts(n, mask).row()


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
