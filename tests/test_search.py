import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cantorsum
from cantorsum import search
from cantorsum.constructions import (BaseMissingError, TowerVerificationError, chain_to_target,
                                    sqrt_good_set)
from cantorsum.digitset import DigitSet, InvariantError, _bits_word, is_n_good, reflect, sumset_profile
from cantorsum.gdifs import classify_intervals, uniqueness_report, word_edge_digit, word_typing
from cantorsum.report import analyze
from cantorsum.search import (
    LOG2_OVER_LOG3,
    InfeasibleSearchError,
    SearchRecord,
    _PairCounts,
    figure_data,
    iter_exhaustive_records,
    search_exhaustive,
    search_heuristic,
)

from conftest import batch_flags, eval_mask, word_row


def table_digits(n):
    """k of the low table at base n: its rows are the 2^k low parts."""
    return search._low_table(n, search._Workspace(1 << search._TABLE_DIGITS))[0]


def two_lambda(a, b, c, d):
    """v = 2 lambda of int16 columns, in a workspace of their length."""
    ws = search._Workspace(len(a))
    return search._two_lambda(a, b, c, d, (ws.key, *ws.counts[4:]))


class TestExhaustive:
    def test_table_row_9(self):
        res = search_exhaustive(9, require_very_good=True)
        assert res.best.digits == (0, 2, 6, 8)
        assert abs(res.best.dim - 0.6309297534) < 1e-9

    def test_table_row_12(self):
        res = search_exhaustive(12, require_very_good=True)
        assert abs(res.best.dim - 0.4421141088) < 1e-9
        # the listed set attains the same maximum
        A = DigitSet.of(12, [0, 2, 3, 5, 9, 11])
        t = classify_intervals(sumset_profile(A))
        assert uniqueness_report(t, A).dim == res.best.dim

    def test_base4_good_brute_force(self):
        # only {0,1,3}/{0,2,3}/{0,1,2,3} are 4-good, all trivial
        res = search_exhaustive(4, require_good=True)
        assert res.best.digits == (0, 1, 2, 3)
        assert res.best.lam == 1.0 and res.best.dim == 0.0
        assert res.n_enumerated == 3  # reflection-deduplicated
        assert res.n_matching == 2

    def test_refuses_beyond_32(self):
        with pytest.raises(InfeasibleSearchError):
            search_exhaustive(33)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_bases_below_3_rejected(self, n):
        with pytest.raises(ValueError, match="base must be >= 3"):
            search_exhaustive(n)
        with pytest.raises(ValueError, match="base must be >= 3"):
            list(iter_exhaustive_records(n))

    def test_record_stream_refuses_beyond_32(self):
        with pytest.raises(InfeasibleSearchError):
            next(iter_exhaustive_records(33))

    def test_reflection_canonical_emission(self):
        for n in (6, 9, 11):
            seen = set()
            for rec in iter_exhaustive_records(n):
                refl = tuple(sorted(n - 1 - d for d in rec.digits))
                assert refl not in seen or refl == rec.digits
                seen.add(rec.digits)

    @pytest.mark.parametrize("n", [12, 17])
    def test_stream_in_mask_order(self, n):
        # n = 17 spans four batches, and the high digits grow with the batch
        masks = [sum(1 << d for d in rec.digits) for rec in iter_exhaustive_records(n)]
        assert masks == sorted(masks) and len(set(masks)) == len(masks)

    def test_determinism_bytes(self):
        rows1 = list(iter_exhaustive_records(10))
        rows2 = list(iter_exhaustive_records(10))
        assert rows1 == rows2

    def test_records_equal_analyze_bit_for_bit(self):
        # lambda and dim of a record come from gdifs.matrix_dimension, as
        # analyze's do, so they are equal and not merely close
        bests = [search_exhaustive(n, **kw).best for n in range(3, 25)
                 for kw in ({}, {"require_good": True}, {"require_very_good": True})]
        assert bests.count(None) == 1  # base 4 has no very-good set
        recs = [rec for n in range(3, 13) for rec in iter_exhaustive_records(n)]
        assert len(recs) == 1085
        for rec in recs + [best for best in bests if best]:
            uniq = analyze(rec.digitset).uniqueness
            assert (rec.lam, rec.dim) == (uniq.lam, uniq.dim), rec


class TestKernelAgainstReference:
    def test_matches_interval_typing_path(self, rng):
        for _ in range(250):
            n = int(rng.integers(3, 16))
            inner = int(rng.integers(0, 1 << (n - 2)))
            mask = 1 | (inner << 1) | (1 << (n - 1))
            good, very_good, a, b, c, d, lam, dim = eval_mask(n, mask)
            A = DigitSet(n, tuple(x for x in range(n) if (mask >> x) & 1))
            t = classify_intervals(sumset_profile(A))
            rep = uniqueness_report(t, A)
            assert good == is_n_good(A)
            assert (a, b, c, d) == (t.a, t.b, t.c, t.d)
            assert lam == rep.lam
            assert dim == rep.dim
            assert very_good == rep.very_good

    def test_batch_kernel_matches_scalar(self, rng):
        for n in (5, 9, 13, 20):
            # the very-good column is typed only when very-good is required
            for masks, batch, _, _ in search._batches(n, False, True):
                idx = rng.integers(0, len(masks), size=50 if n < 20 else 5)
                for i in idx:
                    row = eval_mask(n, int(masks[i]))
                    got = tuple(col[i] for col in batch)
                    assert row[0] == got[0] and row[1] == got[1]
                    assert row[2:6] == tuple(int(x) for x in got[2:6])
                    # the float32 key against the scalar's float64 lambda
                    assert got[6].dtype == np.float32
                    assert abs(float(got[6]) - 2 * row[6]) < search._V_ERROR


# The shift-loop batch kernel that the split-mask kernel replaced, kept as
# its independent twin: masks from consecutive subset indices, reflection
# by a 16-bit reversal table, and sumset words from the mask shifted by
# each of its own digits (the number of shifted words covering s is the
# ordered-pair count of s).
_REV16 = np.zeros(1 << 16, dtype=np.uint64)
for _i in range(16):
    _REV16 |= ((np.arange(1 << 16, dtype=np.uint64) >> _i) & 1) << (15 - _i)


def _reflect_mask(n, mask):
    rev32 = (_REV16[mask & np.uint64(0xFFFF)] << np.uint64(16)) | _REV16[mask >> np.uint64(16)]
    return rev32 >> np.uint64(32 - n)


def _shift_loop_kernel(n, masks):
    m1 = np.zeros_like(masks)
    m2 = np.zeros_like(masks)
    one = np.uint64(1)
    for d in range(n):
        has = ((masks >> np.uint64(d)) & one).astype(bool)
        w = np.where(has, masks << np.uint64(d), np.uint64(0))
        m2 |= m1 & w
        m1 |= w
    word_mask = np.uint64((1 << (2 * n)) - 1)
    low_mask = np.uint64((1 << n) - 1)
    below_top = np.uint64((1 << (2 * n - 2)) - 1)
    m1 &= word_mask
    m2 &= word_mask
    bad = m1 & ~(m1 >> one) & ~(m1 >> np.uint64(2)) & below_top
    good = bad == 0
    unique = m1 & ~m2
    l_word = (unique & ~(m1 << one)) & word_mask
    r_word = ((unique << one) & ~m1) & word_mask
    a = np.bitwise_count(l_word & low_mask).astype(np.int64)
    b = np.bitwise_count(r_word & low_mask).astype(np.int64)
    c = np.bitwise_count(l_word >> np.uint64(n)).astype(np.int64)
    d = np.bitwise_count(r_word >> np.uint64(n)).astype(np.int64)
    # 2 lambda in float32: the root and the sum each rounded once
    v = np.sqrt(((a - d) ** 2 + 4 * b * c).astype(np.float32)) + (a + d).astype(np.float32)
    bit1 = ((masks >> one) & one).astype(bool)
    bitn2 = ((masks >> np.uint64(n - 2)) & one).astype(bool)
    very_good = good & ~bit1 & ~bitn2 & ((a + b == c + d) | (a + c == b + d))
    return good, very_good, a, b, c, d, v


def _reference_rows(n, lo, hi):
    """Canonical masks with subset indices lo..hi-1 and their columns."""
    inner = np.arange(lo, hi, dtype=np.uint64)
    masks = np.uint64(1) | (inner << np.uint64(1)) | np.uint64(1 << (n - 1))
    masks = masks[_reflect_mask(n, masks) >= masks]
    return masks, _shift_loop_kernel(n, masks)


def _split_rows(n, tops=None, require_good=False):
    """The split-mask batches of the high parts `tops`, ordered by mask,
    with the kernel's very-good column of every row.  The batches are
    typed as good or unconstrained searches type them: the kernel types
    the very-good column itself only for very-good searches, which skip
    the rows that cannot be good, so it is typed here by
    search._very_good_rows from the workspace each pass leaves.  With
    `require_good`, only the matching (good) rows, or None when the
    prune skips them all; each batch is copied, as its arrays last only
    until the next one."""
    parts = []
    with mock.patch.object(search, "_type_batch", wraps=search._type_batch) as spy:
        for masks, cols, keep, _ in search._batches(n, require_good, False, tops):
            very_good = search._very_good_rows(len(masks), spy.call_args.args[-1])
            cols = (cols[0], very_good, *cols[2:])
            parts.append((masks[keep], [col[keep] for col in cols]))
    if not parts:  # every row skipped
        return None
    masks = np.concatenate([m for m, _ in parts])
    order = np.argsort(masks)
    return masks[order], [np.concatenate([c[j] for _, c in parts])[order] for j in range(7)]


def _good_rows(rows):
    """The rows of (masks, columns) whose good column is set."""
    masks, cols = rows
    good = cols[0]
    return masks[good], [col[good] for col in cols]


def _assert_same_rows(got, want):
    masks, cols = got
    ref_masks, ref_cols = want
    assert np.array_equal(masks, ref_masks)
    assert len(cols) == len(ref_cols)
    for j, (col, ref) in enumerate(zip(cols, ref_cols)):
        if col.dtype.kind == "f":  # bit for bit, not just equal
            assert col.dtype == ref.dtype, ("column", j)
            col, ref = col.view(f"u{col.itemsize}"), ref.view(f"u{ref.itemsize}")
        assert np.array_equal(col, ref), ("column", j)


class TestSplitMaskKernel:
    """Split-mask batches against the shift-loop twin, bit for bit."""

    @pytest.mark.parametrize("n", list(range(3, 18)) + [22])
    def test_every_canonical_mask(self, n):
        # up to n = 14 the sets fit one batch
        _assert_same_rows(_split_rows(n), _reference_rows(n, 0, 1 << (n - 2)))

    # at n = 32, m1 << 1 reaches bit 63
    @pytest.mark.parametrize("n", [23, 25, 28, 30, 31, 32])
    def test_first_last_and_random_high_part(self, n, rng):
        k = table_digits(n)
        last = (1 << (n - 2 - k)) - 1
        for top in (0, last, int(rng.integers(1, last))):
            _assert_same_rows(_split_rows(n, range(top, top + 1)),
                              _reference_rows(n, top << k, (top + 1) << k))

    # passes of one high part, of several, and a full pass before a part
    # that does not fit it; with all parts, 21 passes at n = 22 and 42 at
    # n = 23 against one per part, 32 and 64
    @pytest.mark.parametrize("n,tops,passes", [
        (23, range(30, 36), 4), (23, range(56, 64), 1), (25, range(0, 3), 3),
        (25, range(132, 136), 2), (28, range(0, 2), 2), (28, range(2040, 2048), 1),
        (22, None, 21), (23, None, 42)])
    def test_passes_of_consecutive_high_parts(self, n, tops, passes):
        got = [masks.copy() for masks, _, _, _ in search._batches(n, False, False, tops)]
        assert len(got) == passes
        assert all(len(masks) <= 1 << search._TABLE_DIGITS for masks in got)
        # each pass lies above the last, so the record stream sorts by pass
        assert all(lo.max() < hi.min() for lo, hi in zip(got, got[1:]))
        if tops is not None:
            k = table_digits(n)
            _assert_same_rows(_split_rows(n, tops),
                              _reference_rows(n, tops.start << k, tops.stop << k))

    @pytest.mark.parametrize("n", list(range(3, 18)) + [22])
    def test_sizes_and_edges_match_the_masks(self, n, monkeypatch):
        seen = []
        type_batch = search._type_batch

        def spy(n, m1, m2, sizes, edges, ws):
            seen.append((sizes.copy(), edges.copy()))
            return type_batch(n, m1, m2, sizes, edges, ws)

        monkeypatch.setattr(search, "_type_batch", spy)
        for i, (masks, _, _, _) in enumerate(search._batches(n, False, False)):
            want = batch_flags(n, masks)
            assert all(np.array_equal(got, ref) for got, ref in zip(seen[i], want)), i
        assert len(seen) == i + 1

    def test_tail_matches_scalar_tail_on_wide_counts(self):
        # all 30 digits, words with every even sum unique: a = b = c = d = 15
        n, mask = 30, (1 << 30) - 1
        m1 = sum(1 << s for s in range(0, 2 * n - 1, 2))
        sizes, _ = batch_flags(n, [mask])
        # the words claim neither sum 1 nor 2n - 3; the scalar twin reads
        # the edge digits off m1
        edges = np.array([word_edge_digit(n, m1)], dtype=bool)
        ws = search._Workspace(1)
        good, *cols = search._type_batch(n, np.array([m1], dtype=np.uint64),
                                         np.zeros(1, dtype=np.uint64), sizes, edges, ws)
        want = word_row(n, m1, 0)
        assert want[2:6] == (15, 15, 15, 15)
        got = tuple(col[0] for col in (good, search._very_good_rows(1, ws), *cols))
        assert got[:6] == want[:6]
        assert got[6] == 60.0 == 2 * want[6]
        rec = search._record(n, mask, bool(got[0]), *(int(x) for x in got[2:6]))
        assert (rec.lam, rec.dim) == want[6:]

    def test_enumerated_count_closed_form(self):
        # the pass loop counts the sets the good prune skips too
        for n in range(3, 25):
            want = ((1 << (n - 2)) + (1 << -(-(n - 2) // 2))) // 2
            for kw in ({}, {"require_good": True}, {"require_very_good": True}):
                assert search_exhaustive(n, **kw).n_enumerated == want, (n, kw)


class TestGoodPrune:
    """Good and very-good searches skip the low-table rows and the high
    parts that cannot be good; what they return equals the full
    enumeration's."""

    @pytest.mark.parametrize("n", range(3, 19))
    def test_streams_and_counts_equal_the_full_enumeration(self, n):
        every = list(iter_exhaustive_records(n))
        for kw, rule in (({"require_good": True}, lambda r: r.good),
                         ({"require_very_good": True}, lambda r: r.very_good)):
            want = [r for r in every if rule(r)]
            assert list(iter_exhaustive_records(n, **kw)) == want, kw
            best = None
            for r in want:
                if best is None or search._outranks(*_rank_key(r), *_rank_key(best)):
                    best = r
            res = search_exhaustive(n, **kw)
            assert (res.n_enumerated, res.n_matching, res.evaluations) == (
                len(every), len(want), len(every)), kw
            assert (res.best, res.exceedances) == (best, ()), kw

    # the first high part (n - 1 alone) leaves a double gap above n + k at
    # these bases and is skipped; the last (every high digit) is kept
    @pytest.mark.parametrize("n", [23, 28, 32])
    def test_single_high_parts_keep_every_good_row(self, n, rng):
        k = table_digits(n)
        last = (1 << (n - 2 - k)) - 1
        kept = []
        for top in (0, last, int(rng.integers(1, last))):
            want = _good_rows(_reference_rows(n, top << k, (top + 1) << k))
            got = _split_rows(n, range(top, top + 1), require_good=True)
            kept.append(got is not None)
            if got is None:
                assert len(want[0]) == 0, top
            else:
                _assert_same_rows(got, want)
        assert kept[:2] == [False, True]

    def test_table_rows_cover_the_low_sums(self):
        # kept: exactly the rows whose sums 0..k have no double gap, in
        # table order, with their own columns
        ws = search._Workspace(1 << search._TABLE_DIGITS)
        for n in (5, 15, 22, 32):
            k, _, table = search._low_table(n, ws)
            cols, index = search._covering_rows(k, table, ws)
            m1 = table[1].tolist()
            want = [i for i, w in enumerate(m1)
                    if all(w >> s & 3 for s in range(k))]
            assert index.tolist() == want, n
            for col, ref in zip(cols, table):
                assert np.array_equal(col, ref[want]), n

    def test_pass_count_at_22(self):
        # 21 passes unpruned (TestSplitMaskKernel); the kept rows of the
        # kept high parts fill 10, each counting the sets it skipped
        got = [(masks.copy(), sets) for masks, _, _, sets in search._batches(22, True, False)]
        assert len(got) == 10
        assert sum(sets for _, sets in got) == ((1 << 20) + (1 << 10)) // 2
        assert all(lo.max() < hi.min() for (lo, _), (hi, _) in zip(got, got[1:]))


def _doubling_low_table(n):
    """The low table with every self-paired digit doubled per call, its
    rows then stably partitioned by mirror >= mask, then digit 0 and the
    prefix digits p..1; sizes by popcount and edges by a bit test."""
    k = min(n - 2, search._TABLE_DIGITS, (n + 10) // 2)
    p = n - 2 - k
    table = np.zeros((3, 1 << k), dtype=np.uint64)
    mirror = np.zeros(1 << (k - p), dtype=np.uint64)
    for j in range(p + 1, k + 1):
        half = 1 << (j - p - 1)
        search._add_digit_rows(j, table[:, :half], table[:, half:2 * half])
        np.bitwise_or(mirror[:half], 1 << (n - 1 - j), out=mirror[half:2 * half])
    own = table[:, :len(mirror)]
    canonical = mirror >= own[0]
    own[:] = own[:, np.argsort(canonical, kind="stable")]
    search._add_digit_rows(0, own, own)
    for i in range(p, 0, -1):
        half = 1 << (k - i)
        search._add_digit_rows(i, table[:, :half], table[:, half:2 * half])
    sizes = np.bitwise_count(table[0]).astype(np.int16)
    edges = table[0] & np.uint64(2) != 0
    return k, len(canonical) - int(np.count_nonzero(canonical)), (*table, sizes, edges)


class TestLowTable:
    """The low table from the shared self-paired block against the table
    built digit by digit per call, bit for bit."""

    @pytest.fixture(scope="class")
    def dirty(self):
        # one workspace for every base, filled with garbage first, so a
        # cell the table leaves unwritten shows
        ws = search._Workspace(1 << search._TABLE_DIGITS)
        ws.table.fill(0xDEADBEEF)
        ws.table_sizes.fill(-1)
        ws.table_edges.fill(True)
        return ws

    @pytest.mark.parametrize("n", range(3, 33))
    def test_matches_per_digit_doubling(self, n, dirty):
        k, s0, cols = search._low_table(n, dirty)
        want_k, want_s0, want = _doubling_low_table(n)
        assert (k, s0) == (want_k, want_s0)
        for name, col, ref in zip(("mask", "m1", "m2", "size", "edge"), cols, want):
            assert col.dtype == ref.dtype and np.array_equal(col, ref), name

    def test_blocks_are_shared_read_only_and_lazy(self):
        block, s0 = search._self_paired(5)
        assert search._self_paired(5)[0] is block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1
        # nothing is built at import
        code = "from cantorsum import search; print(search._self_paired.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])},
                             check=True)
        assert out.stdout.split() == ["0"]


class TestWorkspace:
    """Each exhaustive call holds a workspace of its own from its first
    batch to its last: interleaved, nested and threaded calls equal the
    same calls run one after another, and a repeated call allocates
    nothing of batch size."""

    def test_interleaved_generators(self):
        # different bases, so a shared low table would mix them
        want = [list(iter_exhaustive_records(17)),
                list(iter_exhaustive_records(16, require_good=True))]
        gens = [iter_exhaustive_records(17), iter_exhaustive_records(16, require_good=True)]
        got = [[], []]
        for pair in itertools.zip_longest(*gens):
            for out, rec in zip(got, pair):
                if rec is not None:
                    out.append(rec)
        assert got == want

    def test_search_inside_record_stream(self):
        want_records = list(iter_exhaustive_records(17))
        want_inner = search_exhaustive(15)
        records, inner = [], []
        for i, rec in enumerate(iter_exhaustive_records(17)):
            records.append(rec)
            if i % 3000 == 0:
                inner.append(search_exhaustive(15))
        assert records == want_records
        assert len(inner) > 1 and all(res == want_inner for res in inner)

    def test_threads_at_different_bases(self):
        # more threads than cores, switching often; NumPy drops the
        # interpreter lock inside each step, so the batches interleave
        calls = [(22, {}), (21, {"require_good": True})] * 2
        want = [search_exhaustive(n, **kw) for n, kw in calls]
        got = [None] * len(calls)

        def run(i):
            got[i] = search_exhaustive(calls[i][0], **calls[i][1])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_repeated_call_allocates_no_batch(self):
        search_exhaustive(22, require_good=True)
        tracemalloc.start()
        try:
            search_exhaustive(22, require_good=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 32,768-row uint64 temporary alone is 256 KB
        assert peak <= 256 * 1024, peak


class TestBatchInvariants:
    """Each inline invariant of the batch tail raises its own message on
    crafted words (base 5: sums 0..8, lower half l < 5), placed behind a
    valid row, the full digit set, whose sums 0 and 8 are unique.  A row
    that breaks two invariants reports the one checked first."""

    FULL = (0b11111, (1 << 9) - 1, (1 << 8) - 2)

    @pytest.mark.parametrize("message,row", [
        # no digits; sums 0 and 6 unique, 7 twice: a = b = c = 1, d = 0,
        # not trivial, lambda = (1 + sqrt 5) / 2 below 2 and above |A|
        ("eigenvalue dichotomy violated", (0, 0b11000001, 0b10000000)),
        # digits 0 and 4, good words with a = 2, b = c = 1, d = 0: lambda =
        # 1 + sqrt 2 exceeds |A| = 2 by less than 1/2; also good with 2^2 < 5
        ("lambda exceeded |A|", (0b10001, 0b110111010, 0b100100000)),
        # two digits whose words claim every sum twice: good, 2^2 < 5
        ("good set smaller than sqrt(n)", (0b10001, (1 << 9) - 1, (1 << 9) - 1)),
        # words with every sum but 1 and 7 (no edge digit 1 or 3), each
        # twice: good, a = b = c = d = 0, so lambda = 0 < 2
        ("missing-edge-digit bound violated", (0b10101, 0b101111101, 0b101111101)),
    ])
    def test_crafted_words_raise(self, message, row):
        masks, m1, m2 = (np.array(col, dtype=np.uint64) for col in zip(self.FULL, row))
        sizes, edges = batch_flags(5, masks)
        ws = search._Workspace(len(masks))
        # the valid row alone passes
        search._type_batch(5, m1[:1], m2[:1], sizes[:1], edges[:1], ws)
        with pytest.raises(InvariantError) as exc:
            search._type_batch(5, m1, m2, sizes, edges, ws)
        assert str(exc.value) == message


class TestExactKey:
    """The batch key v = 2 lambda in float32 against exact comparisons, on
    every quadrant matrix a base <= 32 can produce: a + b <= 32 and
    c + d <= 32 (the L's and R's of each half), as (s, q) with
    2 lambda = s + sqrt(q), s = a + d and q = (a - d)^2 + 4bc."""

    N = 32

    @pytest.fixture(scope="class")
    def domain(self):
        pairs = np.array([(x, y) for x in range(self.N + 1) for y in range(self.N + 1 - x)],
                         dtype=np.int16)
        low, high = (idx.ravel() for idx in np.indices((len(pairs), len(pairs))))
        (a, b), (c, d) = pairs[low].T, pairs[high].T
        v = two_lambda(a, b, c, d)
        s = (a + d).astype(np.int64)
        q = (a.astype(np.int64) - d) ** 2 + 4 * b.astype(np.int64) * c
        # v is one value per (s, q), the eigenvalue's integer form
        sq, first, inverse = np.unique(np.stack([s, q], axis=1), axis=0,
                                       return_index=True, return_inverse=True)
        assert len(sq) == 18_417
        assert np.array_equal(v, v[first][inverse.ravel()])
        return sq[:, 0], sq[:, 1], v[first]

    def test_covers_the_exhaustive_bases(self):
        assert search.EXHAUSTIVE_MAX_N <= self.N

    def test_orders_and_ties_as_the_exact_eigenvalue(self, domain):
        s, q, v = domain
        assert v.dtype == np.float32
        order = np.argsort(v, kind="stable")
        ties = 0
        for i, j in zip(order[:-1].tolist(), order[1:].tolist()):
            exact = search._root_sum_sign(int(s[j]), int(q[j]), int(s[i]), int(q[i]))
            assert exact == (v[j] > v[i]), (s[i], q[i], s[j], q[j])
            ties += exact == 0
        # distinct (s, q) can share an eigenvalue, e.g. 4 + sqrt(0) = 2 + sqrt(4)
        assert ties > 0

    def test_compares_with_every_integer_exactly(self, domain):
        s, q, v = domain
        # and lies within the conjecture monitor's margin of 2 lambda
        assert np.abs(v - (s + np.sqrt(q))).max() < search._V_ERROR
        for t in range(2 * self.N + 1):
            x = t - s  # s + sqrt(q) against t is sqrt(q) against x
            assert np.array_equal(np.sign(v - np.float32(t)),
                                  np.sign(q - x * np.abs(x))), t


def _threshold_words(ind):
    """Words of the sums with at least t = 1..4 ordered pairs, from
    np.convolve and a bit loop."""
    cnt = np.convolve(ind, ind)
    return tuple(sum(1 << int(s) for s in np.flatnonzero(cnt >= t)) for t in (1, 2, 3, 4))


def _trial(counts, d):
    """(mask, m1, m2) of the set of `counts` with digit d flipped, in
    Python ints: the scalar twin of the climb's flip kernel.

    Adding d is :func:`search._add_digit`.  Removing d takes 2 from the
    count of every a + d, a != d, which was at least 2, so those bits of
    m1 and m2 come from the words t = 3 and 4.  The count of 2d is odd
    and drops by 1: its m1 bit comes from t = 2, and its m2 bit from
    t = 3, which at an odd count is the bit m2 already holds.
    """
    w1, w2, w3, w4 = counts.low_words(4)
    bit = 1 << d
    if not counts.mask & bit:
        return search._add_digit(d, counts.mask, w1, w2)
    mask = counts.mask ^ bit
    cross = mask << d
    keep = ~cross
    double = 1 << 2 * d
    m1 = (w1 & keep | w3 & cross) & ~double | w2 & double
    return mask, m1, w2 & keep | w4 & cross


class TestIncrementalPairCounts:
    """The climb's per-flip count updates and proposal words against
    from-scratch paths."""

    @pytest.mark.parametrize("n", [40, 97, 300])
    def test_random_flips_match_scratch_and_reference(self, rng, n):
        from cantorsum.search import _random_inner

        counts = _PairCounts(n, 1 | (1 << (n - 1)) | (_random_inner(rng, n - 2) << 1))
        # np.convolve is the independent twin of the start counts too
        assert np.array_equal(counts.cnt, np.convolve(counts.ind, counts.ind))
        assert counts.low_words(4) == _threshold_words(counts.ind)
        added = removed = 0
        for _ in range(60):
            d = int(rng.integers(1, n - 1))
            if (counts.mask >> d) & 1:
                removed += 1
            else:
                added += 1
            counts.flip(d)
            A = DigitSet(n, tuple(x for x in range(n) if (counts.mask >> x) & 1))
            profile = sumset_profile(A)
            assert np.array_equal(counts.cnt, profile.counts)
            assert np.array_equal(counts.cnt, np.convolve(counts.ind, counts.ind))
            assert counts.low_words(4) == _threshold_words(counts.ind)
            assert counts.low_words(2) == counts.low_words(4)[:2]  # the climb's start typing
            row = word_row(n, *counts.low_words(2))
            assert row == eval_mask(n, counts.mask)
            good, very_good, a, b, c, d_, lam, dim = row
            t = classify_intervals(profile)
            rep = uniqueness_report(t, A)
            assert good == is_n_good(A)
            assert (a, b, c, d_) == (t.a, t.b, t.c, t.d)
            assert lam == rep.lam
            assert dim == rep.dim
            assert very_good == rep.very_good
        assert added and removed

    @pytest.mark.parametrize("n", [9, 40, 97, 300])
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_trial_words_match_convolution(self, rng, n, density):
        inner = rng.random(n - 2) < density
        ind = np.concatenate(([1], inner, [1])).astype(np.int64)
        mask = sum(1 << int(x) for x in np.flatnonzero(ind))
        counts = _PairCounts(n, mask)
        before = counts.low_words(4)
        assert before == _threshold_words(ind)
        for d in range(1, n - 1):
            flipped = ind.copy()
            flipped[d] ^= 1
            w1, w2, _, _ = _threshold_words(flipped)
            assert _trial(counts, d) == (mask ^ (1 << d), w1, w2), d
        # a trial leaves the counts and words alone
        assert counts.mask == mask and counts.low_words(4) == before
        assert np.array_equal(counts.cnt, np.convolve(ind, ind))

    def test_flip_twice_restores_counts(self):
        counts = _PairCounts(9, 0b100100101)
        before = counts.cnt.copy(), counts.ind.copy(), counts.mask, counts.low_words(4)
        for d in (1, 2, 5, 7):
            counts.flip(d)
            counts.flip(d)
            assert np.array_equal(counts.cnt, before[0])
            assert np.array_equal(counts.ind, before[1])
            assert counts.mask == before[2]
            assert counts.low_words(4) == before[3]


def _flip_kernel(n, rows):
    """A climb's flip kernel in base n for windows of up to `rows` digits."""
    return search._FlipKernel(n, rows, np.empty(search._scratch_limbs(n, rows), dtype=np.uint64))


class TestFlipKernel:
    """The climb's block kernel against its scalar twin: :func:`_trial`,
    then the word rule, on random sets with additions and removals."""

    # 2n - 1 on both sides of limb edges; n = 97 and up shift by 64
    BASES = [9, 31, 32, 33, 63, 64, 65, 97, 300, 1500]

    def _check(self, counts, kernel, digits):
        n = counts.n
        cols = kernel.type_flips(counts, np.asarray(digits, dtype=np.int64))
        for i, d in enumerate(digits):
            _, m1, m2 = _trial(counts, d)
            good, _, a, b, c, d_, _, _ = word_typing(n, m1, m2, int.bit_count)
            s, q = a + d_, (a - d_) ** 2 + 4 * b * c
            want = (good, a, b, c, d_, s, q, s + math.sqrt(q))
            assert tuple(col[i].item() for col in cols) == want, (n, d)

    @pytest.mark.parametrize("n", BASES)
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_every_flip_matches_scalar_twin(self, rng, n, density):
        inner = rng.random(n - 2) < density
        inner[:2] = True, False  # a removal and an addition at any density
        counts = _PairCounts(n, 1 | 1 << (n - 1) | _bits_word(inner) << 1)
        flips = list(range(1, n - 1))
        # one window of every interior digit (limbs innermost when it
        # spans fewer than k digits), then windows of one to three digits
        self._check(counts, _flip_kernel(n, n - 2), flips)
        kernel = _flip_kernel(n, 3)
        for start in range(0, n - 2, 97):
            self._check(counts, kernel, flips[start:start + 1 + start % 3])

    @pytest.mark.parametrize("n", [97, 129, 300, 1500])
    def test_limb_edges(self, rng, n):
        # d = 64j shifts whole limbs (a funnel carry shifted by 64), and 2d
        # sits at the first or last bit of a limb for d = 32j, 32j + 31
        edges = [d for d in range(1, n - 1) if d % 32 in (0, 31)]
        counts = _PairCounts(n, 1 | 1 << (n - 1) | _bits_word(rng.random(n - 2) < 0.5) << 1)
        for d in edges:
            if not counts.mask >> d & 1:
                counts.flip(d)  # removals at every edge digit, then additions
        self._check(counts, _flip_kernel(n, len(edges)), edges)
        for d in edges:
            counts.flip(d)
        self._check(counts, _flip_kernel(n, len(edges)), edges)

    def test_upper_half_of_r_starts_at_bit_n(self):
        # removing 7 from {0, 5, 7, 9} base 10 leaves 10 = 5 + 5 unique
        # and 11 no sum, so t = unique & ~(m1 >> 1) has bit n = 10 set,
        # which R (t << 1) counts in its upper half (d, not b)
        counts = _PairCounts(10, 0b1010100001)
        self._check(counts, _flip_kernel(10, 1), [7])

    def test_results_follow_the_current_set(self, rng):
        # one kernel for a whole climb: each call reads the counts it gets
        n = 300
        counts = _PairCounts(n, 1 | 1 << (n - 1) | _bits_word(rng.random(n - 2) < 0.4) << 1)
        kernel = _flip_kernel(n, 16)
        for d in rng.integers(1, n - 1, size=6).tolist():
            self._check(counts, kernel, rng.integers(1, n - 1, size=16).tolist())
            counts.flip(d)

    def test_threads_hold_their_own_scratch(self):
        # climbs at two bases in more threads than cores, switching often:
        # a scratch block shared between two climbs would mix their words
        calls = [(300, 5), (1500, 6)] * 2
        want = [search_heuristic(n, budget=400, seed=seed) for n, seed in calls]
        got = [None] * len(calls)

        def run(i):
            got[i] = search_heuristic(calls[i][0], budget=400, seed=calls[i][1])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_window_memory_is_bounded_at_large_base(self):
        # the climb's scratch comes back to a free list, and a window's
        # arrays stay within the byte bound: at n = 10^5 (k = 3125 limbs)
        # a climb of 30 evaluations peaks no higher than one of a single
        # evaluation plus one window array; windows of the budget's 29
        # rows would take 8 MB of scratch
        n = 10**5
        search_heuristic(n, budget=30, seed=0)
        peaks = []
        for budget in (1, 30):
            tracemalloc.start()
            try:
                search_heuristic(n, budget=budget, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= search._WINDOW_LIMBS * 8, peaks


def _root_sum_sign_twin(p1, q1, p2, q2):
    """Sign of (p1 + sqrt(q1)) - (p2 + sqrt(q2)) at 60 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        diff = (Decimal(p1) + Decimal(q1).sqrt()) - (Decimal(p2) + Decimal(q2).sqrt())
    return 0 if abs(diff) < Decimal("1e-40") else (1 if diff > 0 else -1)


def _rank_key(rec):
    """(s, q, mask) of a record, with 2 lambda = s + sqrt(q): its
    arguments to :func:`search._outranks`."""
    s, q = rec.a + rec.d, (rec.a - rec.d) ** 2 + 4 * rec.b * rec.c
    return s, q, sum(1 << x for x in rec.digits)


def _spy_records(monkeypatch):
    """The list that every :func:`search._record` call from now on
    appends its record to."""
    built = []
    record = search._record

    def spy(*args):
        built.append(record(*args))
        return built[-1]

    monkeypatch.setattr(search, "_record", spy)
    return built


class TestExactRanking:
    def _record(self, digits, abcd, dim):
        a, b, c, d = abcd
        return SearchRecord(n=23, digits=digits, good=True, very_good=False,
                            a=a, b=b, c=c, d=d, lam=0.0, dim=dim)

    def test_dims_one_ulp_apart_tie(self):
        dim = 0.5714440358797147
        low = self._record((0, 1, 22), (3, 3, 3, 3), dim)
        high = self._record((0, 2, 22), (3, 3, 3, 3), math.nextafter(dim, 1.0))
        assert search._outranks(*_rank_key(low), *_rank_key(high))
        assert not search._outranks(*_rank_key(high), *_rank_key(low))

    def test_larger_lambda_wins_over_float_dim(self):
        # lambda 3 + sqrt(2) > 4 even if the stored float dims said otherwise
        big = self._record((0, 9, 22), (3, 1, 2, 3), 0.1)
        small = self._record((0, 1, 22), (2, 0, 0, 4), 0.2)
        assert search._outranks(*_rank_key(big), *_rank_key(small))
        assert not search._outranks(*_rank_key(small), *_rank_key(big))

    @pytest.mark.parametrize("n", [15, 16, 17])
    def test_best_is_the_exact_argmax_of_the_stream(self, n):
        # at n = 17 (no constraint) the best lambda occurs in two batches,
        # and the later one holds the smaller digit list
        for kw in ({}, {"require_good": True}, {"require_very_good": True}):
            recs = list(iter_exhaustive_records(n, **kw))
            two_lam = {}
            with localcontext() as ctx:
                ctx.prec = 60
                for r in recs:
                    s, q = r.a + r.d, (r.a - r.d) ** 2 + 4 * r.b * r.c
                    two_lam[r.digits] = Decimal(s) + Decimal(q).sqrt()
            top = max(two_lam.values())
            want = min(k for k, v in two_lam.items() if top - v < Decimal("1e-40"))
            assert search_exhaustive(n, **kw).best.digits == want, (n, kw)

    @pytest.mark.parametrize("search_fn,kw", [
        # n = 17: the best lambda occurs in two passes
        (search_exhaustive, {"n": 17}),
        (search_exhaustive, {"n": 20, "require_good": True}),
        (search_heuristic, {"n": 300, "budget": 200}),
    ])
    def test_builds_only_the_winners_record(self, monkeypatch, search_fn, kw):
        # ranking is exact on keys; lambda and dim are worked out once
        built = _spy_records(monkeypatch)
        res = search_fn(**kw)
        assert res.exceedances == ()
        assert built == [res.best]

    def test_root_sum_sign_against_decimal(self, rng):
        ties = [(5, 0, 3, 4), (4, 9, 6, 1), (2, 8, 2, 8), (0, 0, 0, 0), (7, 1, 8, 0)]
        draws = rng.integers(0, 60, size=(20_000, 4))
        for p1, q1, p2, q2 in ties + [tuple(map(int, r)) for r in draws]:
            assert search._root_sum_sign(p1, q1, p2, q2) == \
                _root_sum_sign_twin(p1, q1, p2, q2), (p1, q1, p2, q2)


class TestTrackerRows:
    """_Best.offer_rows, a pass at a time, against offering every matching
    row in order through _Best.offer: the same leader, key and monitor
    hits."""

    N = 23

    @staticmethod
    def _pool(n):
        """Every matrix with entries 0..9 and its float32 key v = 2 lambda."""
        a, b, c, d = (col.astype(np.int16) for col in np.indices((10,) * 4).reshape(4, -1))
        return np.stack((a, b, c, d)), two_lambda(a, b, c, d).copy()

    def _rows(self, keys, rng, size=3000):
        """(masks, good, a..d, v) of `size` rows whose keys are all zero,
        are the top keys below the monitor's threshold (where the floor
        follows the top) with exact ties, lie either side of the
        threshold, or mix the three with random matrices."""
        n = self.N
        pool, v = self._pool(n)
        order = np.argsort(v, kind="stable")
        below = order[:np.searchsorted(v[order], search._Best(n).monitor_v)]
        picks = {
            "zero": np.flatnonzero(v == 0),
            "ties": below[-40:],  # several matrices to a key
            "monitor": order[len(below) - 20:len(below) + 20],
        }
        picks["mixed"] = np.concatenate([*picks.values(), rng.integers(0, len(v), 40)])
        idx = rng.choice(picks[keys], size=size)
        if keys in ("ties", "mixed"):
            idx[rng.choice(size, size // 10, replace=False)] = below[-1]
        masks = rng.choice(1 << (n - 2), size=size, replace=False).astype(np.uint64)
        masks = masks << np.uint64(1) | np.uint64(1 | 1 << (n - 1))
        return masks, rng.random(size) < 0.5, *pool[:, idx], v[idx]

    @pytest.mark.parametrize("keys", ["zero", "ties", "monitor", "mixed"])
    @pytest.mark.parametrize("flags", ["every", "all", "none", "1%", "80%", "random",
                                       "below_top"])
    def test_same_as_offering_every_row(self, keys, flags, rng):
        masks, good, a, b, c, d, v = self._rows(keys, rng)
        share = {"every": 1.0, "all": 1.0, "none": 0.0, "1%": 0.01, "80%": 0.8,
                 "random": rng.random(), "below_top": 1.0}[flags]
        match = None if flags == "every" else rng.random(len(v)) < share
        if flags == "below_top":  # the top of all rows must not set the floor
            match &= v < v.max()
        row = lambda i: (int(masks[i]), bool(good[i]), int(a[i]), int(b[i]),
                         int(c[i]), int(d[i]))
        want = search._Best(self.N)
        for i in range(len(v)):
            if match is None or match[i]:
                want.offer(*row(i), float(v[i]))
        got = search._Best(self.N)
        for lo in range(0, len(v), 700):  # passes of 700 rows
            part = slice(lo, lo + 700)
            got.offer_rows(v[part].copy(), None if match is None else match[part],
                           lambda i, lo=lo: row(lo + i))
        assert got.lead == want.lead
        assert got.best_v == want.best_v
        assert got.exceed == want.exceed
        if keys == "monitor" and flags in ("every", "all"):
            assert got.exceed  # the keys above the threshold trip it


class TestHeuristic:
    def test_matches_exhaustive_optimum_at_9(self):
        ex = search_exhaustive(9, require_good=True)
        h = search_heuristic(9, budget=10_000, seed=5)
        assert h.best.dim == pytest.approx(ex.best.dim, abs=1e-12)

    def test_tiny_base(self):
        # at most 64 sets: the climb is the exhaustive search
        for n in range(3, 9):
            for kw in ({"require_good": False}, {"require_good": True},
                       {"require_good": False, "require_very_good": True}):
                assert search_heuristic(n, budget=10, seed=0, **kw) == \
                    search_exhaustive(n, **kw), (n, kw)

    def test_deterministic_given_seed(self):
        a = search_heuristic(23, budget=3000, seed=11)
        b = search_heuristic(23, budget=3000, seed=11)
        assert a == b

    def test_tower_seed_gives_floor(self):
        res = search_heuristic(51, budget=2000, seed=1)
        assert res.best.dim >= math.log(8) / math.log(51) - 1e-9

    # (n, seed, budget, constraints) -> SearchResult as produced by the
    # climb that re-typed every proposal from scratch: best record fields,
    # bookkeeping and a digest of the whole result's repr.
    PINNED = [
        ((23, 11, 3000, {}),
         (3000, 2331, "0.5714440358797147", (3, 3, 3, 3), 8,
          "eb57aef08e7f679ae5a7be5235ee47fd075df0152a9115d029467b90505d976b")),
        ((97, 4, 2000, {"require_very_good": True}),
         (2000, 215, "0.5033290854469099", (5, 5, 5, 5), 21,
          "1c2d7af8f4fb47a1f15768ca832f21f45713e0e805e4c46936d0931b9428c1dc")),
        ((300, 7, 400, {"require_good": False}),
         (400, 400, "0.587363977488419", (13, 15, 15, 14), 31,
          "6e5b10c885e3972044a9c7f00ec20973d9ea30ccdfa21b05a169dd733ab958a8")),
    ]

    @pytest.mark.parametrize("case,want", PINNED)
    def test_pinned_results(self, case, want):
        n, seed, budget, kw = case
        evals, matching, dim, abcd, size, digest = want
        res = search_heuristic(n, budget=budget, seed=seed, **kw)
        assert res.evaluations == res.n_enumerated == evals
        assert res.n_matching == matching
        assert res.exceedances == ()
        assert repr(res.best.dim) == dim
        assert (res.best.a, res.best.b, res.best.c, res.best.d) == abcd
        assert len(res.best.digits) == size
        assert hashlib.sha256(repr(res).encode()).hexdigest() == digest

    def test_pinned_climbs_digest(self):
        # 189 climbs: every base, constraint, seed and budget below, one
        # sha256 over their results' reprs in loop order
        digest = hashlib.sha256()
        for n in (9, 12, 30, 57, 100, 300, 1000):
            for kw in ({"require_good": False}, {"require_good": True},
                       {"require_very_good": True}):
                for seed in range(3):
                    for budget in (50, 200, 2000):
                        res = search_heuristic(n, budget=budget, seed=seed, **kw)
                        digest.update(repr(res).encode())
        assert digest.hexdigest() == \
            "f81dfc87959fd6aa074ea7cff3dfba49460b53deefd90d017a448092b413824d"

    def test_tower_verification_failure_propagates(self, monkeypatch):
        # the climb builds its tower seed from the chain's reduction, not
        # the verified chain; a failure there still leaves the climb
        for error in (TowerVerificationError, BaseMissingError):
            def broken(n, bases, error=error):
                raise error("no tower seed")

            monkeypatch.setattr(search, "_chain_reduction", broken)
            with pytest.raises(error):
                search_heuristic(30, budget=50, seed=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # at every base, the exhaustive ones too, as the CLI does
        for n in (5, 30):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                search_heuristic(n, budget=budget)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            figure_data(25, 25, budget=budget)

    def test_bases_beyond_word_size(self):
        # masks wider than 64 bits: pure-int path and random restarts
        res = search_heuristic(81, budget=300, seed=2)
        assert res.best is not None
        assert res.best.dim >= LOG2_OVER_LOG3 - 1e-9  # 81 = 3^4 tower seed


class TestSeedMasks:
    """The climb's warm starts, built by mask doubling without typing,
    against the verified tower chain and the sqrt family."""

    def test_equal_to_verified_constructions(self):
        for n in [*range(3, 401), 1500, 12345, 10**5]:
            sets = [chain_to_target(n).final.digitset, sqrt_good_set(n)] if n >= 9 else []
            want = [sum(1 << d for d in A.digits) for A in sets] + [(1 << n) - 1]
            # the tower, sqrt and full sets are pairwise distinct
            assert len(set(want)) == len(want), n
            assert list(search._seed_masks(n)) == want, n

    def test_sqrt_seed_built_only_when_reached(self, monkeypatch):
        # a budget-200 climb at n = 300 never leaves its tower seed
        want = [search_heuristic(300, budget=200, seed=s) for s in range(3)]

        def unreached(n):
            raise RuntimeError("sqrt seed built")

        monkeypatch.setattr(search, "sqrt_good_set", unreached)
        assert [search_heuristic(300, budget=200, seed=s) for s in range(3)] == want
        # a climb that does reach it builds it
        with pytest.raises(RuntimeError, match="sqrt seed built"):
            search_heuristic(9, budget=2000, seed=0)


def _reference_climb(n, budget, seed, require_good, require_very_good):
    """The slow twin of :func:`search_heuristic`: flip the counts, re-type
    the set from them, unflip on reject.  Returns the result and the
    number of random restarts, removals and accepts."""
    base = 1 | (1 << (n - 1))
    best = None
    exceed = []
    matching = evals = 0
    rng = np.random.default_rng(seed)
    unconstrained = not (require_good or require_very_good)
    events = {"restarts": 0, "removals": 0, "accepts": 0}

    def consider(counts):
        nonlocal best, evals, matching
        evals += 1
        row = word_row(n, _bits_word(counts.cnt > 0), _bits_word(counts.cnt > 1))
        good, very_good, dim = row[0], row[1], row[7]
        if not ((require_very_good and not very_good) or (require_good and not good)):
            matching += 1
            cand = search._record(n, counts.mask, good, *row[2:6])
            assert cand.very_good == very_good
            if dim > search._MONITOR_DIM:
                exceed.append(cand)
            if best is None or search._outranks(*_rank_key(cand), *_rank_key(best)):
                best = cand
        return good or unconstrained, dim

    stack = list(search._seed_masks(n))
    current = None
    current_dim = -1.0
    stuck = 0
    while evals < budget:
        if current is None:
            if stack:
                mask = stack.pop(0)
            else:
                mask = base | (search._random_inner(rng, n - 2) << 1)
                events["restarts"] += 1
            start = _PairCounts(n, mask)
            climbable, dim = consider(start)
            if climbable:
                current, current_dim = start, dim
            stuck = 0
            continue
        d = int(rng.integers(1, n - 1))
        events["removals"] += (current.mask >> d) & 1
        current.flip(d)
        climbable, dim = consider(current)
        if climbable and dim > current_dim:
            current_dim = dim
            stuck = 0
            events["accepts"] += 1
        else:
            current.flip(d)
            stuck += 1
            if stuck > 4 * n:
                current = None
    exceed.sort(key=lambda r: (r.n, r.digits))
    res = search.SearchResult(best=best, n_enumerated=evals, n_matching=matching,
                              evaluations=evals, exceedances=tuple(exceed),
                              source="heuristic")
    return res, events


class TestClimbAgainstReference:
    """Proposals typed from threshold words climb exactly like proposals
    typed from flipped counts."""

    @staticmethod
    def _against_reference(n, budget):
        """Every constraint and seeds 0-2 repr-equal to the reference
        climb; the reference's events of each case."""
        cases = []
        for kw in ({"require_good": False}, {"require_good": True},
                   {"require_good": False, "require_very_good": True}):
            for seed in range(3):
                want, events = _reference_climb(n, budget, seed, kw["require_good"],
                                                kw.get("require_very_good", False))
                got = search_heuristic(n, budget=budget, seed=seed, **kw)
                assert repr(got) == repr(want), (n, kw, seed)
                cases.append(events)
        total = {key: sum(events[key] for events in cases) for key in cases[0]}
        assert all(total.values()), total
        return cases, total

    @pytest.mark.parametrize("n,budget", [(9, 2000), (13, 2000), (50, 3000), (300, 6000)])
    def test_same_results_as_flip_and_retype(self, n, budget):
        cases, total = self._against_reference(n, budget)
        if n == 300:
            # every case accepts inside a window, and this n restarts: a
            # stuck run of 4n + 1 = 1201 rejections fits one window of
            # this n's 2978 rows
            assert all(events["accepts"] for events in cases), cases
            assert total["restarts"] > 0, total

    def test_windows_shorter_than_a_stuck_run(self, monkeypatch):
        # windows of at most 64 flips at n = 300 (k = 10 limbs): a stuck
        # run of 4n + 1 = 1201 rejections spans 19 of them, and so does the
        # rest of a run re-typed after an accept, carrying its drawn digits;
        # after an accept the window starts at 8 flips and doubles
        n, budget, rows = 300, 6000, 64
        monkeypatch.setattr(search, "_WINDOW_LIMBS", rows * 11)
        monkeypatch.setattr(search, "_ACCEPT_LIMBS", 8 * 18)
        sizes = []
        type_flips = search._FlipKernel.type_flips

        def spy(kernel, counts, digits):
            sizes.append(len(digits))
            return type_flips(kernel, counts, digits)

        monkeypatch.setattr(search._FlipKernel, "type_flips", spy)
        cases, total = self._against_reference(n, budget)
        assert all(events["accepts"] for events in cases), cases
        assert total["restarts"] > 0, total
        assert max(sizes) == rows and 4 * n + 1 > 3 * rows, sizes
        assert {8, 16, 32} <= set(sizes), sizes
        # most evaluated flips were typed in full windows
        assert sizes.count(rows) * rows > 9 * budget // 2, sizes


class TestFlipBlocks:
    """The climb draws its flip digits k at a time; NumPy's bounded
    integers take each draw from the bit generator's buffered 32-bit
    stream, so one size-k call is the k scalar calls."""

    @pytest.mark.parametrize("n", [9, 300, 1500, 10**5])
    @pytest.mark.parametrize("k", [1, 7, 1024])
    def test_block_equals_scalar_draws(self, n, k):
        block, scalar = np.random.default_rng(n + k), np.random.default_rng(n + k)
        got = block.integers(1, n - 1, size=k).tolist()
        assert got == [int(scalar.integers(1, n - 1)) for _ in range(k)]
        assert block.bit_generator.state == scalar.bit_generator.state
        assert search._random_inner(block, n - 2) == search._random_inner(scalar, n - 2)


class TestFigureData:
    def test_reference_column_and_known_values(self):
        rows, exceed = figure_data(9, 11, budget=500, seed=0)
        assert [r[0] for r in rows] == [9, 10, 11]
        for _, _, ref in rows:
            assert ref == pytest.approx(LOG2_OVER_LOG3, abs=1e-15)
        best = {n: d for n, d, _ in rows}
        assert abs(best[9] - 0.6309297534) < 1e-9
        assert best[10] >= 0.4771212549 - 1e-9
        assert exceed == []

    def test_climbs_above_base_32(self, monkeypatch):
        calls = []
        climb = search.search_heuristic
        monkeypatch.setattr(search, "search_heuristic",
                            lambda n, **kw: calls.append(n) or climb(n, **kw))
        rows, exceed = figure_data(33, 34, budget=300)
        assert calls == [33, 34]
        assert [r[0] for r in rows] == [33, 34]
        assert exceed == []
        for n, best, _ in rows:
            # not below the tower set, the climb's first start
            assert best >= chain_to_target(n).final.dim
            # and the good-set climb's own best: no exact optimum exists
            # above 32 to bound it
            assert best == climb(n, budget=300, require_good=True).best.dim

    def test_exact_through_base_32(self, monkeypatch):
        # the default 10^4-budget climb reaches only 0.4956483270 at n = 20
        (row,), _ = figure_data(20, 20)
        assert row[1] == search_exhaustive(20, require_good=True).best.dim
        # every base through 32 is the exact good-set search, never a climb
        calls = []
        res = search_exhaustive(9, require_good=True)
        monkeypatch.setattr(search, "search_exhaustive",
                            lambda n, **kw: calls.append((n, kw)) or res)
        monkeypatch.setattr(search, "search_heuristic", None)
        figure_data(3, 32)
        assert calls == [(n, {"require_good": True}) for n in range(3, 33)]


class TestGoodOptima:
    """The best good sets at bases 25..28, which the figure reads off
    the exhaustive search (bases 29..32 are in
    measurements/exhaustive_prune.json)."""

    @pytest.mark.parametrize("n,digits,dim", [
        (25, (0, 2, 5, 7, 16, 18, 22, 24), 0.5834795897626972),
        (26, (0, 2, 6, 8, 17, 19, 23, 25), 0.5972536805913646),
        (27, (0, 2, 6, 8, 18, 20, 24, 26), 0.6309297535714574),
        (28, (0, 2, 6, 8, 9, 19, 21, 25, 27), 0.5665649848567639),
    ])
    def test_pinned(self, n, digits, dim):
        best = search_exhaustive(n, require_good=True).best
        assert (best.digits, best.good, best.dim) == (digits, True, dim)
        assert figure_data(n, n)[0][0][1] == dim


class TestPropertySuites:
    """Exhaustive n <= 12, sampled 13..18: the cheap integer laws."""

    def test_exhaustive_small_bases(self):
        root3 = LOG2_OVER_LOG3
        for n in range(3, 13):
            for rec in iter_exhaustive_records(n):
                assert rec.lam == 1.0 or rec.lam >= 2.0
                assert rec.lam <= len(rec.digits) + 1e-9
                if rec.good:
                    assert len(rec.digits) ** 2 >= n
                if rec.good and 1 not in rec.digits and n - 2 not in rec.digits:
                    assert rec.lam >= 2.0
                assert rec.dim <= root3 + 1e-9

    def test_sampled_larger_bases(self, rng):
        for n in range(13, 19):
            for _ in range(200):
                inner = int(rng.integers(0, 1 << (n - 2)))
                mask = 1 | (inner << 1) | (1 << (n - 1))
                good, very_good, a, b, c, d, lam, dim = eval_mask(n, mask)
                assert lam == 1.0 or lam >= 2.0
                assert lam <= mask.bit_count() + 1e-9
                if good:
                    assert mask.bit_count() ** 2 >= n
                digits = tuple(x for x in range(n) if (mask >> x) & 1)
                A = DigitSet(n, digits)
                Ar = reflect(A)
                row_r = eval_mask(n, sum(1 << x for x in Ar.digits))
                assert row_r[0] == good
                assert row_r[6] == pytest.approx(lam, abs=1e-12)

    def test_sqrt_size_bound_exhaustive_to_18(self):
        # goodness forces at least sqrt(n) digits; the batch kernel
        # asserts this inline over every enumerated set
        for n in range(3, 19):
            search_exhaustive(n)


class TestConjectureMonitor:
    def test_no_exceedance_small_bases(self):
        for n in range(3, 19):
            res = search_exhaustive(n)
            assert res.exceedances == ()

    def test_flags_exactly_the_rows_above_the_threshold(self, monkeypatch):
        # at n = 9 the threshold dim log 2/log 3 is lambda = 4: a crafted
        # batch with lambda 5, lambda 4 (dim equal to log 2/log 3, within
        # DIM_TOL, so not flagged although it passes the prefilter) and 2
        a, b, c, d = np.array([(5, 0, 0, 5), (4, 0, 0, 4), (1, 1, 1, 1)], dtype=np.int16).T
        masks = np.array([0b100000111, 0b100001011, 0b100000101], dtype=np.uint64)
        keep = np.ones(3, dtype=bool)
        cols = (keep, keep, a, b, c, d, two_lambda(a, b, c, d))
        monkeypatch.setattr(search, "_batches", lambda *args: iter([(masks, cols, keep, 3)]))
        built = _spy_records(monkeypatch)
        res = search_exhaustive(9)
        assert [r.digits for r in res.exceedances] == [(0, 1, 2, 8)]
        assert res.exceedances[0].dim == math.log(5) / math.log(9)
        assert res.best == res.exceedances[0]
        # one record per hit, one for the winner
        assert built == [*res.exceedances, res.best]

    def test_monitor_reports_rather_than_asserts(self):
        # the mechanism itself: records above the threshold are carried
        # in the result, not raised
        res = search_exhaustive(9)
        assert isinstance(res.exceedances, tuple)


class TestChecksSurviveOptimize:
    SCRIPT = textwrap.dedent("""
        import json

        import numpy as np

        from cantorsum import constructions, search, structure
        from cantorsum.digitset import DigitSet, InvariantError, sumset_profile
        from cantorsum.structure import classify_structure
        from conftest import batch_flags

        def raised(fn):
            try:
                fn()
            except InvariantError as exc:
                return str(exc)
            return None

        out = {"debug": __debug__}
        out["best"] = list(search.search_exhaustive(10, require_good=True).best.digits)
        out["chain_n"] = constructions.chain_to_target(100).final.n
        # an empty set whose words claim every sum twice: good with 0 digits
        full = np.full(1, (1 << 5) - 1, dtype=np.uint64)
        out["kernel"] = raised(lambda: search._type_batch(
            3, full, full, *batch_flags(3, np.zeros(1, dtype=np.uint64)),
            search._Workspace(1)))
        # goodness denied over a support word (sums 0..8) with no dead unit
        structure.word_good = lambda n, m1: False
        out["structure"] = raised(lambda: classify_structure(DigitSet(5, (0, 4)), (1 << 9) - 1))
        constructions._tower_step = lambda A, digits, words, k, matrix, report: (
            A, digits, words, matrix, report)
        out["chain"] = raised(lambda: constructions.chain_to_target(100))
        # FFT pair counts 0.4 off every integer, on a dense set that is not
        # translate-doubled (digit 500 dropped), so the FFT path runs
        irfft = np.fft.irfft
        np.fft.irfft = lambda *args, **kwargs: irfft(*args, **kwargs) + 0.4
        dense = DigitSet(1000, tuple(d for d in range(1000) if d != 500))
        out["fft"] = raised(lambda: sumset_profile(dense))
        print(json.dumps(out))
    """)

    def test_invariants_raise_under_python_O(self):
        src = str(Path(cantorsum.__file__).resolve().parents[1])
        env = dict(os.environ)
        tests = str(Path(__file__).resolve().parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["debug"] is False
        assert tuple(out["best"]) == search_exhaustive(10, require_good=True).best.digits
        assert out["chain_n"] == 100
        assert out["kernel"] == "good set smaller than sqrt(n)"
        assert "left every level-1 unit covered" in out["structure"]
        assert out["chain"] == "chain ended at base 12, not 100"
        assert out["fft"].startswith("FFT pair counts off an integer by 0.4")
