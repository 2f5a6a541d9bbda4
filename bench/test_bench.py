"""Self-tests of the benchmark: inputs, closed forms, tracing, digests.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cantorsum import search_exhaustive
from cantorsum.digitset import DigitSet
from cantorsum.structure import StructureCase, classify_structure

import workloads as wl
from layers import LAYERS, WRAPPED, LayerTracer, current_functions
from speed import Speedometer
from worker import MIN_PASSES, Tally, digest, latency_summary, measure, scale_to_reference

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_a_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.GENERATORS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LayerTracer().metrics()) | {"trace.overhead_frac"} == per_layer


@pytest.mark.parametrize("workload", list(wl.GENERATORS))
def test_inputs_follow_the_seed(workload):
    first = [op.describe() for op in wl.make_ops(workload, 3)]
    again = [op.describe() for op in wl.make_ops(workload, 3)]
    other = [op.describe() for op in wl.make_ops(workload, 4)]
    assert first == again
    assert first != other


def test_mask_count_closed_form():
    for n in range(3, 17):
        assert search_exhaustive(n).n_enumerated == wl.exhaustive_count(n)


def _canonical_sets(n):
    for inner in range(1 << (n - 2)):
        yield DigitSet(n, (0, *[d for d in range(1, n - 1) if inner >> (d - 1) & 1], n - 1))


def test_certificates_agree_with_the_library():
    for n in range(4, 11):
        for A in _canonical_sets(n):
            word = wl.support_word(A.digits)
            case = classify_structure(A).case
            assert wl.has_wide_gap(word, n) == (case is not StructureCase.FULL_INTERVAL)
            if wl.has_wide_gap(word, n) and wl.cantor_certified(word, n):
                assert case is StructureCase.CANTOR_SET
            if wl.has_wide_gap(word, n) and wl.mixed_certified(word, n):
                assert case is StructureCase.MIXED


def _small_pass():
    """A cheap pass asking every kind of question the workloads ask."""
    analyze = [op for op in wl.make_ops("analyze", 5)
               if op.kind in ("analyze", "cantor_dim") and op.n < 200]
    return [
        wl.Op("exhaustive", 12, arg="very_good"),
        wl.Op("exhaustive", 11, arg="none"),
        wl.Op("heuristic", 40, arg=7),
        *analyze[:12],
        wl.Op("cantor_dim", 10, DigitSet(10, (0, 5, 8, 9))),
        wl.Op("chain", 1000),
    ]


def test_tracing_restores_every_function_and_keeps_the_answers():
    ops = _small_pass()
    before = current_functions()
    speed = Speedometer("analyze")
    plain = measure(ops, 0, speed, ctx=wl.CheckContext(), passes=1)
    assert plain.failed == 0 and not plain.problems and not plain.errors
    with LayerTracer() as tracer:
        assert all(a is not b for a, b in zip(current_functions(), before))
        traced = measure(ops, 0, speed, tracer=tracer, passes=1, reference=plain.keys)
    assert all(a is b for a, b in zip(current_functions(), before))
    assert traced.mismatches == 0
    assert digest(traced.keys) == digest(plain.keys)
    metrics = tracer.metrics()
    for layer in LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert len(WRAPPED) == len(before)


def test_only_cantor_sum_dimension_may_refuse():
    over_budget = wl.oracle.BudgetExceededError(2, 1)
    out_of_range = ValueError("depth 8 places starts beyond the 64-bit range")
    assert wl.refusal("cantor_dim", over_budget) == "budget"
    assert wl.refusal("cantor_dim", out_of_range) == "range"
    for kind in ("exhaustive", "heuristic", "analyze", "chain"):
        assert wl.refusal(kind, over_budget) is None
        assert wl.refusal(kind, out_of_range) is None
    speed = Speedometer("analyze")
    tally = measure([wl.Op("cantor_dim", 10, DigitSet(10, (0, 5, 8, 9)))], 0, speed, passes=1)
    assert tally.failed == 0 and tally.refused == {"budget": 1}


def test_tail_has_ten_samples_beyond_it():
    lat = latency_summary([float(i) for i in range(25)])
    assert lat["tail_ms"] == 14.0 and lat["tail_percentile"] == 60.0
    assert lat["p50_ms"] == 12.0
    assert "tail_ms" not in latency_summary([1.0] * 10)


def test_times_are_scaled_by_the_nearest_reference_samples():
    assert measure([wl.Op("exhaustive", 5, arg="none")], 0,
                   Speedometer("exhaustive")).passes == MIN_PASSES
    speed = Speedometer("heuristic")
    nominal = speed.nominal_ns
    # the host at full speed until t = 10, then at half speed
    speed.at_ns = list(range(0, 21))
    speed.took_ns = [nominal if t < 10 else 2 * nominal for t in speed.at_ns]
    assert speed.scale(2) == 1.0 and speed.scale(15) == 0.5
    tally = Tally(2)
    tally.latency_ns = [[4e6, 8e6, 8e6], [1e6, 1e6, 1e6]]
    tally.start_ns = [[3, 14, 15], [4, 5, 6]]
    scale_to_reference(tally, speed)
    assert tally.scaled_ms == [[4.0, 4.0, 4.0], [1.0, 1.0, 1.0]]
    assert tally.scaled_timed_s == 0.015


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
