"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this in a fresh single-threaded interpreter with the
checkout's ``src`` on PYTHONPATH.  The pass of questions is asked again
and again until the timed wall time reaches ``--seconds`` and at least
``MIN_PASSES`` passes have run; only whole passes are run, so each
question is asked equally often.

Every question's time is scaled to the host's reference speed
(:mod:`speed`): reference loops are timed between questions, outside the
timed region, and a question that ran while the host was slow is scaled
down by as much as the loops around it slowed.  A question's latency is
the median of its scaled repeats; p50 and the tail are taken over the
distinct questions.  Rates divide the work of all passes by their scaled
timed wall time.

With ``--trace 1`` the same number of passes is asked a second time
under :class:`layers.LayerTracer`; the answers must equal the untraced
ones exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 5  # repeats behind each question's latency, at least


def _import_library():
    import cantorsum

    where = Path(cantorsum.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        sys.exit(f"cantorsum was imported from {where}, not from {ROOT / 'src'}")
    return cantorsum


class Tally:
    """What one measured sequence of passes asked, answered and timed."""

    def __init__(self, n_ops: int):
        self.latency_ns = [[] for _ in range(n_ops)]
        self.start_ns = [[] for _ in range(n_ops)]
        self.keys: list[str | None] = [None] * n_ops
        self.problems: dict[int, list[str]] = {}
        self.passes = 0
        self.pass_ns: list[int] = []
        self.executions = 0
        self.timed_ns = 0
        self.scaled_ms: list[list[float]] = []
        self.scaled_timed_s = 0.0
        self.sets = 0
        self.refused: dict[str, int] = {}
        self.errors: list[str] = []
        self.mismatches = 0
        self.failed = 0


def measure(ops, seconds: float, speed, ctx=None, tracer=None, passes=None,
            reference=None):
    """Ask whole passes until `seconds` of timed wall and at least
    MIN_PASSES passes (or exactly `passes` passes), sampling `speed`
    (a :class:`speed.Speedometer`) between questions.

    On the first pass every answer is checked against `ctx` and its key
    kept; later passes (and a traced replay, through `reference`) must
    give the same keys.
    """
    from workloads import answer_key, call, check, refusal, work

    tally = Tally(len(ops))
    limit_ns = seconds * 1e9
    clock = time.perf_counter_ns
    speed.sample(force=True)
    while True:
        first = tally.passes == 0
        for i, op in enumerate(ops):
            speed.sample()
            if tracer is not None:
                tracer.begin_question()
            start = clock()
            try:
                result, error = call(op), None
            except Exception as exc:  # recorded below: a refusal or a failure
                result, error = None, exc
            elapsed = clock() - start
            tally.timed_ns += elapsed
            tally.latency_ns[i].append(elapsed)
            tally.start_ns[i].append(start)
            tally.executions += 1
            failed = False
            if error is None:
                key = answer_key(op, result)
                tally.sets += work(op, result)
            else:
                kind = refusal(op.kind, error)
                key = f"refused:{kind}" if kind else f"error:{type(error).__name__}: {error}"
                if kind:
                    tally.refused[kind] = tally.refused.get(kind, 0) + 1
                else:
                    failed = True
                    if len(tally.errors) < 5:
                        tally.errors.append(f"{op.describe()[:120]}: {key}")
            if first:
                tally.keys[i] = key
                if ctx is not None and error is None:
                    try:
                        problems = check(op, result, ctx)
                    except Exception as exc:  # a check that crashes is a failed check
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                    if problems:
                        tally.problems[i] = problems
            want = reference[i] if reference is not None else tally.keys[i]
            if key != want:
                tally.mismatches += 1
                failed = True
            if i in tally.problems:
                failed = True
            tally.failed += failed
            del result
        tally.passes += 1
        tally.pass_ns.append(tally.timed_ns - sum(tally.pass_ns))
        if (tally.passes >= passes if passes is not None
                else tally.timed_ns >= limit_ns and tally.passes >= MIN_PASSES):
            speed.sample(force=True)
            scale_to_reference(tally, speed)
            return tally


def scale_to_reference(tally: Tally, speed) -> None:
    """Each repeat's time at the reference speed, and their total."""
    tally.scaled_ms = [
        [ns / 1e6 * speed.scale(at) for ns, at in zip(times, starts)]
        for times, starts in zip(tally.latency_ns, tally.start_ns)
    ]
    tally.scaled_timed_s = sum(map(sum, tally.scaled_ms)) / 1e3


def question_latency_ms(tally: Tally) -> list[float]:
    """Each question's median scaled repeat."""
    return [statistics.median(v) for v in tally.scaled_ms]


def latency_summary(per_question_ms: list[float]) -> dict:
    per_question = sorted(per_question_ms)
    out = {"samples": len(per_question), "p50_ms": statistics.median(per_question)}
    if len(per_question) >= 11:
        # the highest percentile with at least ten samples beyond it
        k = len(per_question) - 10
        out["tail_ms"] = per_question[k - 1]
        out["tail_percentile"] = 100.0 * k / len(per_question)
    return out


def digest(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    cantorsum = _import_library()
    from speed import Speedometer
    from workloads import CheckContext, inputs_digest, make_ops, warm_up

    cantorsum.load_base_table()
    ops = make_ops(workload, seed)
    ctx = CheckContext()
    warm_up(workload)
    speed = Speedometer(workload)

    tally = measure(ops, seconds, speed, ctx=ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    answered = tally.executions - sum(tally.refused.values()) - tally.failed
    lat = latency_summary(question_latency_ms(tally))
    lat["repeats_per_question"] = tally.passes
    scaled_s = tally.scaled_timed_s
    out = {
        "workload": workload,
        "seed": seed,
        "passes": tally.passes,
        "questions_per_pass": len(ops),
        "attempted": tally.executions,
        "answered": answered,
        "refused": tally.refused,
        "failed": tally.failed,
        "errors": tally.errors,
        "check_failures": [
            {"question": ops[i].describe()[:200], "problems": p}
            for i, p in list(tally.problems.items())[:5]
        ],
        "mismatched_repeats": tally.mismatches,
        "timed_s": tally.timed_ns / 1e9,
        "scaled_timed_s": scaled_s,
        "pass_s": [ns / 1e9 for ns in tally.pass_ns],
        "reference": speed.summary(),
        "inputs_sha256": inputs_digest(ops),
        "answers_sha256": digest(tally.keys),
        "latency": lat,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "end_to_end": {
            "sets_per_s": tally.sets / scaled_s,
            "queries_per_s": answered / scaled_s,
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat.get("tail_ms"),
            "peak_rss_mb": peak_rss_mb,
            "answered_frac": answered / tally.executions,
        },
    }
    if trace:
        from layers import LayerTracer, current_functions

        originals = current_functions()
        with LayerTracer() as tracer:
            traced = measure(ops, seconds, speed, tracer=tracer, passes=tally.passes,
                             reference=tally.keys)
        restored = all(a is b for a, b in zip(current_functions(), originals))
        layers = tracer.metrics()
        layers["trace.overhead_frac"] = traced.scaled_timed_s / scaled_s - 1
        out["layers"] = layers
        out["traced_answers_sha256"] = digest(traced.keys)
        out["traced_mismatches"] = traced.mismatches
        out["wrappers_restored"] = restored
        out["attempted"] += traced.executions
        out["failed"] += traced.failed + (not restored)
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
