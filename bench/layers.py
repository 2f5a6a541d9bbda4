"""Per-layer spans and counters, taken from outside the library.

The layers are the modules of ``cantorsum``.  A :class:`LayerTracer`
replaces, for the duration of a ``with`` block, the public functions
each module imports from another (and the entry points the benchmark
calls) with wrappers that time a span and count work.  A layer's self
time is its spans minus the child spans they contain.  Nothing under
``src/`` changes, and every original is put back when the block ends.

The time the wrappers spend on their own counters is credited to the
enclosing span as child time, so it stays out of every layer's self
time and shows only in the traced run's overall wall time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from cantorsum import constructions, digitset, gdifs, oracle, report, search, structure

from workloads import refusal

_MODULES = {
    "search": search, "constructions": constructions, "digitset": digitset,
    "gdifs": gdifs, "structure": structure, "oracle": oracle, "report": report,
}
LAYERS = tuple(_MODULES)

# (module whose name is replaced, function name, layer that does the work)
WRAPPED = (
    ("report", "sumset_profile", "digitset"),
    ("report", "classify_intervals", "gdifs"),
    ("report", "uniqueness_report", "gdifs"),
    ("report", "classify_structure", "structure"),
    ("structure", "sumset_profile", "digitset"),
    ("oracle", "level_start_counts", "oracle"),
    ("constructions", "sumset_profile", "digitset"),
    ("constructions", "classify_intervals", "gdifs"),
    ("constructions", "uniqueness_report", "gdifs"),
    ("gdifs", "is_n_good", "digitset"),
    ("oracle", "sumset_profile", "digitset"),
    ("oracle", "classify_intervals", "gdifs"),
    ("search", "chain_to_target", "constructions"),
    ("search", "load_base_table", "constructions"),
    ("search", "sqrt_good_set", "constructions"),
    # entry points the benchmark calls itself
    ("search", "search_exhaustive", "search"),
    ("search", "search_heuristic", "search"),
    ("report", "analyze", "report"),
    ("structure", "cantor_sum_dimension", "structure"),
    ("constructions", "chain_to_target", "constructions"),
)


def current_functions() -> list:
    """The functions now bound at every wrapped name, in WRAPPED order."""
    return [getattr(_MODULES[mod_name], attr) for mod_name, attr, _ in WRAPPED]


class LayerTracer:
    """Context manager that wraps the layer boundaries and aggregates."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # child nanoseconds per open span
        self._saved: list[tuple[object, str, object]] = []
        self._profiled: set = set()

    # --- lifetime ----------------------------------------------------------

    def __enter__(self):
        for mod_name, attr, layer in WRAPPED:
            module = _MODULES[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, _HOOKS.get(attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def begin_question(self) -> None:
        """Start a new question: sumset repeats are counted within one."""
        self._profiled.clear()

    # --- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                end = clock()
                stack.pop()
                self.calls[layer] += 1
                self.self_ns[layer] += end - start - frame[0]
                if hook is not None:
                    hook(self, args, kwargs, result, error)
                if stack:
                    stack[-1][0] += clock() - start
            return result

        return wrapper

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds, work counts and ratios."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        c = self.counts
        secs = {layer: self.self_ns[layer] / 1e9 for layer in LAYERS}
        out["search.sets_evaluated"] = c["search.sets_evaluated"]
        out["search.sets_matching"] = c["search.sets_matching"]
        out["search.match_ratio"] = _ratio(c["search.sets_matching"], c["search.sets_evaluated"])
        out["search.exceedances"] = c["search.exceedances"]
        out["search.sets_per_self_s"] = _ratio(c["search.sets_evaluated"], secs["search"])
        out["constructions.tower_steps"] = c["constructions.tower_steps"]
        out["constructions.digits_retyped"] = c["constructions.digits_retyped"]
        out["digitset.pairs"] = c["digitset.pairs"]
        out["digitset.repeat_ratio"] = _ratio(c["digitset.repeats"], c["digitset.sumsets"])
        out["gdifs.intervals_typed"] = c["gdifs.intervals_typed"]
        for key in ("full_interval", "cantor_set", "mixed", "cantor_dim_exact",
                    "cantor_dim_bracket", "cantor_dim_refused_budget",
                    "cantor_dim_refused_range"):
            out[f"structure.{key}"] = c[f"structure.{key}"]
        out["structure.cantor_dim_answered"] = (
            c["structure.cantor_dim_exact"] + c["structure.cantor_dim_bracket"])
        out["oracle.starts"] = c["oracle.starts"]
        out["oracle.starts_per_self_s"] = _ratio(c["oracle.starts"], secs["oracle"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# --- counters at the boundaries -------------------------------------------------
# Each hook receives (tracer, args, kwargs, result, error); result is None
# when the call raised.


def _sumset(tr, args, kwargs, result, error):
    A = args[0]
    tr.counts["digitset.sumsets"] += 1
    tr.counts["digitset.pairs"] += len(A.digits) ** 2
    key = (A.n, A.digits)
    if key in tr._profiled:
        tr.counts["digitset.repeats"] += 1
    tr._profiled.add(key)


def _typed(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["gdifs.intervals_typed"] += 2 * result.n


def _structure(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts[f"structure.{result.case.name.lower()}"] += 1


def _cantor_dim(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["structure.cantor_dim_exact" if result.exact
                  else "structure.cantor_dim_bracket"] += 1
    elif error is not None and (kind := refusal("cantor_dim", error)):
        tr.counts[f"structure.cantor_dim_refused_{kind}"] += 1


def _chain(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["constructions.tower_steps"] += len(result.steps)
        tr.counts["constructions.digits_retyped"] += sum(r.digitset.size for r in result.rows)


def _search(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["search.sets_evaluated"] += result.evaluations
        tr.counts["search.sets_matching"] += result.n_matching
        tr.counts["search.exceedances"] += len(result.exceedances)


def _start_counts(tr, args, kwargs, result, error):
    if result is not None:
        tr.counts["oracle.starts"] += result[-1]


_HOOKS = {
    "sumset_profile": _sumset,
    "is_n_good": _sumset,
    "classify_intervals": _typed,
    "classify_structure": _structure,
    "cantor_sum_dimension": _cantor_dim,
    "chain_to_target": _chain,
    "search_exhaustive": _search,
    "search_heuristic": _search,
    "level_start_counts": _start_counts,
}
