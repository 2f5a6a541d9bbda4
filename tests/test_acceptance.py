"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.
"""

import math
import time

import numpy as np

from cantorsum.constructions import (
    chain_to_target,
    load_base_table,
    load_base_table_dims,
    predicted_tower_matrix,
    sqrt_good_set,
    tower,
)
from cantorsum.digitset import DigitSet, is_n_good, sumset_profile
from cantorsum.gdifs import classify_intervals, uniqueness_report
from cantorsum.oracle import growth_check, is_refinement, level_set
from cantorsum.report import analyze
from cantorsum.search import iter_exhaustive_records, search_exhaustive, search_heuristic
from cantorsum.structure import StructureCase, cantor_sum_dimension, classify_structure

from conftest import canonical_sets, eval_mask

TOL = 1e-9


def ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_01_steinhaus_pipeline():
    A = DigitSet.of(3, [0, 2])
    rep = analyze(A)
    assert rep.good
    assert rep.typing.matrix == ((1, 1), (1, 1))
    assert abs(rep.uniqueness.dim - math.log(2) / math.log(3)) <= TOL
    analyze(A)  # warm
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        analyze(A)
        times.append(time.perf_counter() - t0)
    best = min(times)
    assert best < 1e-3, f"analyze took {best * 1e3:.3f} ms"
    ok(1, f"full pipeline on the ternary pair, {best * 1e6:.0f} us")


def test_02_base8_worked_example():
    rep = analyze(DigitSet.of(8, [0, 2, 5, 7]))
    low, high = rep.typing.typing_string().split(" ")
    assert list(low) == ["L", "R", "O", "O", "L", "O", "O", "O"]
    assert list(high) == ["O", "O", "O", "R", "O", "O", "L", "R"]
    assert rep.typing.matrix == ((2, 1), (1, 2))
    assert abs(rep.uniqueness.dim - math.log(3) / math.log(8)) <= TOL
    assert round(rep.uniqueness.dim, 5) == 0.52832
    ok(2, "typing strings, matrix and dimension of the base-8 example")


def test_03_tower_worked_example():
    A = DigitSet.of(5, [0, 2, 4])
    for k in (0, 1, 2):
        out = tower(A, k)
        assert out.n == 15 - k
        t = classify_intervals(sumset_profile(out))
        rep = uniqueness_report(t, out)
        assert rep.very_good
        assert abs(rep.dim - math.log(4 - k) / math.log(15 - k)) <= TOL
    ok(3, "towers over the ternary-style base-5 set, re-typed directly")


def test_04_base_table_rows_and_maxima():
    table = load_base_table()
    dims = load_base_table_dims()
    for n, A in table.items():
        rep = analyze(A)
        assert rep.uniqueness.very_good, n
        assert abs(rep.uniqueness.dim - dims[n]) <= TOL, n
    findings = []
    t0 = time.perf_counter()
    for n in range(9, 28):
        res = search_exhaustive(n, require_very_good=True)
        if res.best.dim > dims[n] + TOL:
            findings.append((n, res.best))
        else:
            assert abs(res.best.dim - dims[n]) <= TOL, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"exhaustive 9..27 took {elapsed:.1f}s"
    for n, rec in findings:
        print(f"FINDING: base {n} very-good optimum {rec.dim:.10f} "
              f"exceeds the tabled value (digits {rec.digits})")
    ok(4, f"19 table rows verified; maxima confirmed to base 27 "
          f"in {elapsed:.2f}s; findings: {len(findings)}")


def test_05_million_base_chain():
    want_lam = {17: 4, 51: 8, 153: 16, 458: 31, 1372: 60, 4116: 120,
                12346: 238, 37038: 476, 111112: 950, 333334: 1898,
                1000000: 3794}
    t0 = time.perf_counter()
    chain = chain_to_target(10**6)  # every row re-typed from scratch
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"chain with direct verification took {elapsed:.1f}s"
    lam = 4.0
    for row in chain.rows:
        if row.k is not None:
            lam = 2 * lam - row.k
        assert abs(row.lam - want_lam[row.n]) <= TOL
        assert abs(row.lam - lam) <= TOL  # recurrence
        assert abs(row.dim - math.log(want_lam[row.n]) / math.log(row.n)) <= TOL
    assert abs(chain.final.dim - math.log(3794) / math.log(10**6)) <= TOL
    prev = chain.rows[-2]
    assert chain.final.matrix == predicted_tower_matrix(prev.matrix, chain.steps[-1])
    assert chain.final.digitset.size == 6144
    ok(5, f"all 11 chain rows, final 6144-digit set re-typed at n=10^6 "
          f"in {elapsed:.2f}s")


def test_06_structure_trichotomy_with_oracle():
    full = classify_structure(DigitSet.of(3, [0, 2]))
    assert full.case is StructureCase.FULL_INTERVAL
    assert level_set(DigitSet.of(3, [0, 2]), 8).components == ((0, 2 * 3**8),)

    cantor = classify_structure(DigitSet.of(4, [0, 3]))
    assert cantor.case is StructureCase.CANTOR_SET
    cd = cantor_sum_dimension(DigitSet.of(4, [0, 3]))
    assert abs(float(cd) - math.log(3) / math.log(4)) <= TOL
    ls = level_set(DigitSet.of(4, [0, 3]), 8)
    unit = 4**2
    for lo, hi in ls.components:  # no depth-6 unit survives whole
        assert hi // unit - (-(-lo // unit)) < 1

    A = DigitSet.of(5, [0, 1, 4])
    mixed = classify_structure(A)
    assert mixed.case is StructureCase.MIXED
    from fractions import Fraction
    glo, ghi = mixed.gap_witness
    assert glo <= Fraction(7, 5) and Fraction(8, 5) <= ghi
    ilo, ihi = mixed.interval_witness
    assert Fraction(1) <= ilo and ihi <= Fraction(5, 4)
    ls = level_set(A, 8)
    assert ls.misses_open_interval(glo, ghi)
    assert ls.covers_interval(ilo, ihi)
    ok(6, "trichotomy on the three reference sets, depth-8 oracle agrees")


def test_07_property_suites():
    violations = 0
    for n in range(3, 13):
        for rec in iter_exhaustive_records(n):
            if not (rec.lam == 1.0 or rec.lam >= 2.0):
                violations += 1
            if rec.lam > len(rec.digits) + TOL:
                violations += 1
            if rec.good and len(rec.digits) ** 2 < n:
                violations += 1
            if (rec.good and 1 not in rec.digits and n - 2 not in rec.digits
                    and rec.lam < 2.0):
                violations += 1
    rng = np.random.default_rng(7)
    for n in range(3, 19):
        masks = [1 | (int(rng.integers(0, 1 << (n - 2))) << 1) | (1 << (n - 1))
                 for _ in range(60 if n > 12 else 0)]
        if n <= 12:
            masks = [1 | (inner << 1) | (1 << (n - 1))
                     for inner in range(1 << (n - 2))]
        for mask in masks:
            row = eval_mask(n, mask)
            digits = tuple(x for x in range(n) if (mask >> x) & 1)
            refl_mask = sum(1 << (n - 1 - d) for d in digits)
            row_r = eval_mask(n, refl_mask)
            if row[0] != row_r[0] or abs(row[6] - row_r[6]) > TOL:
                violations += 1
    for n in range(3, 13):
        for A in canonical_sets(n):
            rep = classify_structure(A)
            if (rep.case is StructureCase.FULL_INTERVAL) != is_n_good(A):
                violations += 1
    for n in range(3, 13):
        for A in canonical_sets(n):
            if not is_refinement(level_set(A, 3), level_set(A, 2)):
                violations += 1
    assert violations == 0
    ok(7, "dichotomy, containment, size bounds, reflection, structure "
          "and refinement: zero violations")


def test_08_conjecture_monitor():
    exceed = []
    for n in range(3, 19):
        exceed.extend(search_exhaustive(n).exceedances)
    for n in range(19, 31):
        exceed.extend(search_heuristic(n, budget=1500, seed=0).exceedances)
    for rec in exceed:
        print(f"CONJECTURE MONITOR: dim {rec.dim:.10f} > log2/log3 at "
              f"n={rec.n} digits={rec.digits}")
    assert exceed == []
    ok(8, "no dimension above log2/log3 + 1e-9 across bases 3..30")


def test_09_oracle_gdifs_agreement():
    population = []
    for n in (11, 12, 13):
        for rec in iter_exhaustive_records(n, require_very_good=True):
            if rec.lam >= 2.0:
                population.append(rec)
    rng = np.random.default_rng(42)
    sample = [population[i] for i in
              rng.choice(len(population), size=50, replace=False)]
    worst = 0.0
    for rec in sample:
        rep = growth_check(rec.digitset, 6)
        assert rep.matches_transpose, rec  # exact for m <= 5 (and 6)
        assert abs(rep.dim - rec.dim) <= TOL
        gap = rep.final_estimate_gap
        worst = max(worst, gap)
        assert gap <= 0.05, (rec, gap)
    ok(9, f"50 sampled sets follow the matrix powers exactly; worst "
          f"depth-6 estimate gap {worst:.4f}")


def test_10_sqrt_construction():
    for n in (9, 101, 1000, 5000):
        A = sqrt_good_set(n)
        assert is_n_good(A)
        assert A.size <= 3 * math.ceil(math.sqrt(n)) + 3
        t = classify_intervals(sumset_profile(A))
        rep = uniqueness_report(t, A, good=True)
        assert rep.trivial and rep.lam == 1.0
    ok(10, "sqrt-size sets are good, small and trivial at 9/101/1000/5000")
