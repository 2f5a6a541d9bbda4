"""Seeded inputs, library calls, answer keys and correctness checks.

A workload is one *pass*: a list of questions (:class:`Op`) generated
from the workload seed alone.  The worker asks the whole pass again and
again until its time is up, so every question is asked equally often
and the mix a run measures does not depend on how fast the machine is.

Bases are stratified: spread log-uniformly, one at the centre of each
equal stratum, the same for every seed.  A question's cost depends
mostly on its base, so fixed bases keep seed-to-seed spread of the
end-to-end metrics small, while the digits and search seeds are drawn
afresh for each seed.

Every check runs outside the timed region and takes a path independent
of the answer it checks: a closed form, a certificate the generator
holds from how it built the set, a re-analysis from scratch, or the
finite-depth oracle against the closed-form typing.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from math import isqrt

import numpy as np

from cantorsum import constructions, oracle, report, search, structure
from cantorsum.digitset import DigitSet
from cantorsum.structure import StructureCase

DIM_TOL = 1e-9

# Exhaustive: every constraint at each base that fits one 2^20-mask batch
# (n <= 22), plus one call at n = 23, which takes two batches, with a
# seeded constraint.  More calls at n = 23 would leave too few passes for
# SAMPLES in a short run.
EXHAUSTIVE_BASES = tuple(range(15, 23))
EXHAUSTIVE_MULTI_BATCH = 23
CONSTRAINTS = {
    "none": {},
    "good": {"require_good": True},
    "very_good": {"require_very_good": True},
}

# Heuristic: one climb per stratum of [lo, hi]; the budget caps the
# single-set evaluations of each climb.
HEURISTIC_CALLS = 32
HEURISTIC_BASES = (300, 1500)
HEURISTIC_BUDGET = 200

# Analyze: sets per kind, their base range, and tower chains per pass.
ANALYZE_SETS = {"good": 90, "cantor": 90, "mixed": 90}
ANALYZE_BASES = (10, 5000)
CHAINS = 8
CHAIN_TARGETS = (10**5, 10**6)

_MAX_DRAWS = 100_000


class GeneratorError(RuntimeError):
    """No input with the wanted certificate was found."""


@dataclass(frozen=True)
class Op:
    """One question: the library entry point and its generated input.

    ``family`` names how the generator built the input, which is what
    its certificate says: ``good``, ``cantor`` or ``mixed``.
    """

    kind: str
    n: int
    A: DigitSet | None = None
    arg: object = None
    family: str = ""

    def describe(self) -> str:
        digits = "" if self.A is None else ";".join(map(str, self.A.digits))
        return f"{self.kind}|{self.n}|{digits}|{self.arg}|{self.family}"


# --- independent integer helpers ------------------------------------------


def support_word(digits) -> int:
    """Sumset support of the digits as a bit word (bit s: s in A + A)."""
    mask = 0
    for d in digits:
        mask |= 1 << d
    word = 0
    for d in digits:
        word |= mask << d
    return word


def has_wide_gap(word: int, n: int) -> bool:
    """Some support element below 2n-2 has its next two sums missing."""
    below_top = (1 << (2 * n - 2)) - 1
    return word & ~(word >> 1) & ~(word >> 2) & below_top != 0


def cantor_certified(word: int, n: int) -> bool:
    """No interval survives: some child index r dies in every state.

    A unit's child r survives only if r or r-1 (or n+r or n+r-1) is a
    sum, so a residue r with none of those kills that child of every
    unit and no covering state can be full.
    """
    low = (1 << n) - 1
    cover = word | (word << 1)
    return ~((cover & low) | ((cover >> n) & low)) & low != 0


def mixed_certified(word: int, n: int) -> bool:
    """An interval survives: the state (1, 1) is reachable and full.

    With 0 and 1 both sums the level-1 unit 1 is in state (1, 1).  If
    every residue r has r or n+r among the sums, each child of a (1, 1)
    unit is again (1, 1), so that unit stays covered at every depth.
    """
    low = (1 << n) - 1
    return word & 3 == 3 and ((word | (word >> n)) & low) == low


def exhaustive_count(n: int) -> int:
    """Reflection classes of canonical sets: (2^(n-2) + 2^ceil((n-2)/2)) / 2."""
    return ((1 << (n - 2)) + (1 << -(-(n - 2) // 2))) // 2


# --- generators ------------------------------------------------------------


def _strata(count: int, lo: int, hi: int) -> list[int]:
    """`count` integers log-uniform over [lo, hi], one per equal stratum."""
    span = math.log(hi / lo)
    return [int(lo * math.exp((i + 0.5) / count * span)) for i in range(count)]


def _shuffled(rng, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def _draw(n: int, accept, make):
    for _ in range(_MAX_DRAWS):
        digits = make()
        if accept(digits):
            return DigitSet.of(n, digits)
    raise GeneratorError(f"no certified set found at base {n}")


def _good_set(rng, n: int) -> DigitSet:
    core = set(constructions.sqrt_good_set(n).digits)
    size = int(rng.integers(0, min(len(core), n - 2) + 1))
    extra = rng.choice(np.arange(1, n - 1), size=size, replace=False)
    digits = sorted(core | {int(d) for d in extra})
    if has_wide_gap(support_word(digits), n):
        raise GeneratorError(f"sqrt_good_set({n}) plus digits is not good")
    return DigitSet.of(n, digits)


def _cantor_set(rng, n: int) -> DigitSet:
    top = max(4, isqrt(n) - 1)

    def make():
        size = int(rng.integers(4, top + 1))
        inner = rng.choice(np.arange(1, n - 1), size=size - 2, replace=False)
        return sorted({0, n - 1} | {int(d) for d in inner})

    def accept(digits):
        word = support_word(digits)
        return has_wide_gap(word, n) and cantor_certified(word, n)

    return _draw(n, accept, make)


def _mixed_set(rng, n: int) -> DigitSet:
    half = -(-(n - 3) // 2)

    def make():
        k1 = int(rng.integers(1, half + 1))
        k2 = half - k1 + int(rng.integers(0, 2))
        extra = rng.integers(1, n - 1, size=int(rng.integers(0, 4)))
        return sorted(set(range(k1 + 1)) | set(range(n - 1 - k2, n))
                      | {int(d) for d in extra})

    def accept(digits):
        word = support_word(digits)
        return has_wide_gap(word, n) and mixed_certified(word, n)

    return _draw(n, accept, make)


def exhaustive_ops(rng) -> list[Op]:
    """Bases in ascending order, the constraints at each in a seeded order.

    A call's time depends on the size of the call before it (heap and
    cache state), so the bases keep one order for every seed.
    """
    names = sorted(CONSTRAINTS)
    ops = [Op("exhaustive", n, arg=names[i])
           for n in EXHAUSTIVE_BASES for i in rng.permutation(len(names))]
    ops.append(Op("exhaustive", EXHAUSTIVE_MULTI_BATCH, arg=str(rng.choice(names))))
    return ops


def heuristic_ops(rng) -> list[Op]:
    bases = _strata(HEURISTIC_CALLS, *HEURISTIC_BASES)
    ops = [Op("heuristic", n, arg=int(rng.integers(0, 2**32))) for n in bases]
    return _shuffled(rng, ops)


def analyze_ops(rng) -> list[Op]:
    makers = {"good": _good_set, "cantor": _cantor_set, "mixed": _mixed_set}
    ops: list[Op] = []
    for family, count in ANALYZE_SETS.items():
        for n in _strata(count, *ANALYZE_BASES):
            A = makers[family](rng, n)
            ops.append(Op("analyze", n, A, family=family))
            if family == "cantor":
                ops.append(Op("cantor_dim", n, A, family=family))
    for target in _chain_targets(rng):
        ops.append(Op("chain", target))
    return _shuffled(rng, ops)


def _chain_targets(rng) -> list[int]:
    """One target per stratum of CHAIN_TARGETS, drawn so that every seed
    gets chains of the same shape.

    A chain to t takes the fewest s steps with ceil(t / 3^s) <= 27 and
    starts from the tabled base ceil(t / 3^s), so every t in
    ((n0 - 1) 3^s, n0 3^s] doubles the same base set s times.  Keeping
    (n0, s) at the stratum's centre keeps the chain's cost fixed.
    """
    targets = []
    lo, hi = CHAIN_TARGETS
    for i in range(CHAINS):
        centre = lo * (hi / lo) ** ((i + 0.5) / CHAINS)
        s = 0
        while -(-int(centre) // 3**s) > 27:
            s += 1
        n0 = -(-int(centre) // 3**s)
        targets.append((n0 - 1) * 3**s + 1 + int(rng.integers(0, 3**s)))
    return targets


GENERATORS = {
    "exhaustive": exhaustive_ops,
    "heuristic": heuristic_ops,
    "analyze": analyze_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The pass of questions for a workload, from the seed alone."""
    return GENERATORS[workload](np.random.default_rng([seed, zlib.crc32(workload.encode())]))


_WARM_UP = {
    "exhaustive": [Op("exhaustive", 10, arg="good")],
    "heuristic": [Op("heuristic", 60, arg=0)],
    "analyze": [Op("analyze", 8, DigitSet(8, (0, 2, 5, 7))),
                Op("cantor_dim", 10, DigitSet(10, (0, 9))), Op("chain", 100)],
}


def warm_up(workload: str) -> None:
    """Ask one small question of each kind, untimed, so first-call costs
    (imports, resource loading, NumPy dispatch) stay out of the run."""
    for op in _WARM_UP[workload]:
        call(op)


def inputs_digest(ops: list[Op]) -> str:
    return hashlib.sha256("\n".join(op.describe() for op in ops).encode()).hexdigest()


# --- calls -----------------------------------------------------------------


def call(op: Op):
    """Ask the library.  Entry points are looked up on their modules at
    call time, so a traced run sees the wrapped functions."""
    kind = op.kind
    if kind == "exhaustive":
        return search.search_exhaustive(op.n, **CONSTRAINTS[op.arg])
    if kind == "heuristic":
        return search.search_heuristic(op.n, budget=HEURISTIC_BUDGET, seed=op.arg)
    if kind == "analyze":
        return report.analyze(op.A)
    if kind == "cantor_dim":
        return structure.cantor_sum_dimension(op.A)
    if kind == "chain":
        return constructions.chain_to_target(op.n)
    raise ValueError(f"unknown question kind {kind!r}")


def refusal(kind: str, exc: BaseException) -> str | None:
    """The kind of a documented refusal, or None for any other error.

    Only ``cantor_sum_dimension`` (question kind ``cantor_dim``) may
    refuse: its oracle either needs more starts than the budget, or
    places starts beyond 64 bits.  The same exceptions from any other
    question are failures.
    """
    if kind != "cantor_dim":
        return None
    if isinstance(exc, oracle.BudgetExceededError):
        return "budget"
    if isinstance(exc, ValueError) and "64-bit range" in str(exc):
        return "range"
    return None


def work(op: Op, result) -> int:
    """Digit sets an answered question evaluated."""
    if op.kind in ("exhaustive", "heuristic"):
        return result.evaluations
    if op.kind == "chain":
        return len(result.rows)
    return 1


# --- answer keys -------------------------------------------------------------


def _record_key(rec) -> list:
    if rec is None:
        return []
    return [list(rec.digits), rec.good, rec.very_good, rec.a, rec.b, rec.c, rec.d,
            repr(rec.lam), repr(rec.dim)]


def answer_key(op: Op, result) -> str:
    """A compact, timing-free rendering of one answer."""
    kind = op.kind
    if kind in ("exhaustive", "heuristic"):
        body = [_record_key(result.best), result.n_enumerated, result.n_matching,
                result.evaluations, [_record_key(r) for r in result.exceedances]]
    elif kind == "analyze":
        body = result.to_json_dict()
        del body["digits"]
    elif kind == "cantor_dim":
        body = [repr(result.value), repr(result.lower), repr(result.upper),
                result.exact, result.depth]
    elif kind == "chain":
        final = result.final
        body = [list(result.steps), final.n, final.matrix, repr(final.lam),
                repr(final.dim), hashlib.sha256(final.digitset.csv_cell().encode()).hexdigest()[:24]]
    else:
        raise ValueError(kind)
    return json.dumps(body, separators=(",", ":"), default=str)


# --- checks --------------------------------------------------------------------


class CheckContext:
    """Reference data the checks share, loaded once per run."""

    def __init__(self):
        self.table_dims = constructions.load_base_table_dims()
        self._chain_dims: dict[int, float] = {}

    def chain_dim(self, n: int) -> float:
        if n not in self._chain_dims:
            self._chain_dims[n] = constructions.chain_to_target(n).final.dim
        return self._chain_dims[n]


def _record_problems(rec, want_good: bool, want_very_good: bool) -> list[str]:
    """Re-analyze a search record from scratch and compare."""
    out = []
    again = report.analyze(rec.digitset)
    if again.typing.matrix != ((rec.a, rec.b), (rec.c, rec.d)):
        out.append(f"matrix {again.typing.matrix} != record {(rec.a, rec.b, rec.c, rec.d)}")
    if again.good != rec.good or again.uniqueness.very_good != rec.very_good:
        out.append("good/very-good flags differ on re-analysis")
    if abs(again.uniqueness.dim - rec.dim) > DIM_TOL:
        out.append(f"dim {rec.dim} != re-analyzed {again.uniqueness.dim}")
    if (want_good and not rec.good) or (want_very_good and not rec.very_good):
        out.append("best record breaks the search constraint")
    return out


def check(op: Op, result, ctx: CheckContext) -> list[str]:
    """Problems with one answer; an empty list means it passed."""
    kind = op.kind
    out: list[str] = []
    if kind == "exhaustive":
        want = CONSTRAINTS[op.arg]
        if result.n_enumerated != exhaustive_count(op.n):
            out.append(f"enumerated {result.n_enumerated} != {exhaustive_count(op.n)}")
        if result.best is None:
            out.append("no best record")
            return out
        out += _record_problems(result.best, want.get("require_good", False),
                                want.get("require_very_good", False))
        if op.arg == "very_good" and op.n in ctx.table_dims:
            if result.best.dim < ctx.table_dims[op.n] - DIM_TOL:
                out.append(f"very-good maximum {result.best.dim} below table dim")
    elif kind == "heuristic":
        if result.best is None:
            return ["no best record"]
        if result.evaluations != HEURISTIC_BUDGET:
            out.append(f"{result.evaluations} evaluations, budget {HEURISTIC_BUDGET}")
        out += _record_problems(result.best, True, False)
        if result.best.dim < ctx.chain_dim(op.n) - DIM_TOL:
            out.append("best dim below the tower chain it started from")
    elif kind == "analyze":
        A = op.A
        case = result.structure.case
        if result.good != (case is StructureCase.FULL_INTERVAL):
            out.append("good disagrees with the structure case")
        expected = {"good": StructureCase.FULL_INTERVAL, "cantor": StructureCase.CANTOR_SET,
                    "mixed": StructureCase.MIXED}[op.family]
        if case is not expected:
            out.append(f"case {case.value}, certificate says {expected.value}")
        t = result.typing
        if oracle.level_typing_counts(A, 1) != (t.a + t.c, t.b + t.d):
            out.append("oracle level-1 typing differs from the matrix")
        gap = result.structure.gap_witness
        if gap is not None and not oracle.level_set(A, 1).misses_open_interval(*gap):
            out.append("level-1 cover meets the gap witness")
    elif kind == "cantor_dim":
        word = support_word(op.A.digits)
        if result.exact:
            if not (word & (word >> 1)) == 0:
                out.append("exact answer for a sumset with adjacent elements")
            want = math.log(word.bit_count()) / math.log(op.n)
            if abs(result.value - want) > DIM_TOL:
                out.append(f"exact dim {result.value} != log|B|/log n = {want}")
        elif not result.lower - DIM_TOL <= result.value <= result.upper + DIM_TOL:
            out.append("bracket does not contain its value")
    elif kind == "chain":
        final = result.final
        if final.n != op.n:
            out.append(f"chain ends at base {final.n}, not {op.n}")
        (a, b), (c, d) = final.matrix
        if oracle.level_typing_counts(final.digitset, 1) != (a + c, b + d):
            out.append("oracle level-1 typing differs from the chain matrix")
    return out
