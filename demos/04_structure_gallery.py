"""The three possible shapes of the sum, with machine-checked witnesses.

A canonical digit set's sum with itself is a full interval, a Cantor
set, or a mixture of infinitely many intervals and gaps.  The covering
automaton decides which, and the finite-depth oracle corroborates the
witnesses it produces.
"""

from cantorsum import DigitSet, cantor_sum_dimension, classify_structure, level_set
from cantorsum.structure import StructureCase

GALLERY = [
    (3, [0, 2], "the ternary pair"),
    (4, [0, 3], "two extreme digits only"),
    (5, [0, 1, 4], "interval plus gap"),
]

for n, digits, label in GALLERY:
    A = DigitSet.of(n, digits)
    rep = classify_structure(A)
    print(f"{A}  ({label})")
    print(f"  case: {rep.case.value}")
    if rep.gap_witness:
        lo, hi = rep.gap_witness
        print(f"  gap witness: ({lo}, {hi}) misses the sum")
    if rep.interval_witness:
        lo, hi = rep.interval_witness
        print(f"  interval witness: [{lo}, {hi}] inside the sum")
    if rep.points_dim_lower_bound:
        print(f"  residual point set has dimension >= "
              f"{rep.points_dim_lower_bound:.6f}")

    ls = level_set(A, 6)
    print(f"  oracle at depth 6: {len(ls.components)} component(s)")
    if rep.gap_witness:
        print(f"    gap confirmed empty: "
              f"{ls.misses_open_interval(*rep.gap_witness)}")
    if rep.interval_witness:
        print(f"    interval confirmed covered: "
              f"{ls.covers_interval(*rep.interval_witness)}")
    if rep.case is StructureCase.CANTOR_SET:
        cd = cantor_sum_dimension(A)
        print(f"  dimension of the Cantor sum: {float(cd):.6f} "
              f"(exact: {cd.exact})")
    print()

print("a Cantor case whose images overlap (no open set condition):")
A = DigitSet(6, (0, 1, 5))
cd = cantor_sum_dimension(A)
print(f"{A}: box-count estimate {cd.value:.4f}, "
      f"certified upper bound {cd.upper:.4f}, "
      f"minimum of the last three growth rates {cd.lower:.4f}")
