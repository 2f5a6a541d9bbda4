"""Command-line front end.

Commands: analyze, search, tower, construct, structure, oracle, figure.
`search` enumerates every set unless --heuristic is given; `tower`
prints rows that the construction has already re-typed from scratch;
only `oracle` accepts general digit sets.  Exit codes: 2 malformed
input, 3 infeasible exhaustive search, 4 chain base missing, 5 oracle
budget exceeded.  Decimals print with 10 digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .constructions import BaseMissingError, chain_to_target, load_base_table, sqrt_good_set
from .digitset import DigitSet
from .oracle import BudgetExceededError, growth_check, level_set, level_typing_counts
from .report import analyze
from .search import (
    InfeasibleSearchError,
    figure_data,
    search_exhaustive,
    search_heuristic,
)
from .structure import classify_structure

EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_BASE_MISSING = 4
EXIT_BUDGET = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad digit list {text!r}: {exc}") from exc


def _digitset(n: int, digits_text: str) -> DigitSet:
    try:
        return DigitSet.of(n, _parse_digits(digits_text))
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad digit set: {exc}") from exc


def _canonical_digitset(n: int, digits_text: str) -> DigitSet:
    A = _digitset(n, digits_text)
    if not A.canonical:
        raise CliError(EXIT_MALFORMED,
                       f"{A} is not canonical; only the oracle accepts general sets")
    return A


def _whole_number(minimum: int):
    """An argparse type: a whole number >= minimum, written as 1000 or 1e6."""
    def parse(text: str) -> int:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or value.denominator != 1 or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a whole number >= {minimum}, got {text!r}")
        return int(value)
    return parse


def _parse_bases(text: str) -> tuple[int, int]:
    """-n of search and figure: a base or a range a..b, bases >= 3."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, f"bad range {text!r}") from exc
    if lo > hi:
        raise CliError(EXIT_MALFORMED, f"empty range {text!r}")
    if lo < 3:
        raise CliError(EXIT_MALFORMED, "base must be >= 3")
    return lo, hi


def _analysis_lines(rep, as_json: bool) -> list[str]:
    if as_json:
        return [json.dumps(rep.to_json_dict(), indent=2)]
    u = rep.uniqueness
    # log lambda / log n counts only the points whose unit is L or R at
    # every level
    core = "" if rep.good else " (L/R-core dimension; a lower bound unless the set is good)"
    return [
        f"set: {rep.digitset}",
        f"good: {str(rep.good).lower()}",
        f"typing: {rep.typing.typing_string()}",
        f"matrix: [[{rep.typing.a}, {rep.typing.b}], [{rep.typing.c}, {rep.typing.d}]]",
        f"lambda: {_fmt(u.lam)}",
        f"dim: {_fmt(u.dim)}{core}",
        f"trivial: {str(u.trivial).lower()}",
        f"very_good: {str(u.very_good).lower()}",
        f"structure: {rep.structure.case.value}",
    ]


def _structure_lines(rep, as_json: bool) -> list[str]:
    if as_json:
        return [json.dumps(rep.to_json_dict(), indent=2)]
    lines = [f"case: {rep.case.value}"]
    if rep.gap_witness is not None:
        lo, hi = rep.gap_witness
        lines.append(f"gap_witness: ({lo}, {hi})")
    if rep.interval_witness is not None:
        lo, hi = rep.interval_witness
        lines.append(f"interval_witness: [{lo}, {hi}]")
    if rep.points_dim_lower_bound is not None:
        lines.append(f"points_dim_lower_bound: {_fmt(rep.points_dim_lower_bound)}")
    return lines


def cmd_analyze(args) -> list[str]:
    A = _canonical_digitset(args.n, args.digits)
    return _analysis_lines(analyze(A), args.json)


def cmd_structure(args) -> list[str]:
    A = _canonical_digitset(args.n, args.digits)
    return _structure_lines(classify_structure(A), args.json)


def cmd_construct(args) -> list[str]:
    try:
        A = sqrt_good_set(args.n)
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc)) from exc
    return _analysis_lines(analyze(A), args.json)


_SEARCH_CSV_HEADER = "n,digits,good,very_good,a,b,c,d,lambda,dim"


def _search_csv_row(rec) -> str:
    return ",".join([
        str(rec.n), ";".join(map(str, rec.digits)),
        str(rec.good).lower(), str(rec.very_good).lower(),
        str(rec.a), str(rec.b), str(rec.c), str(rec.d),
        _fmt(rec.lam), _fmt(rec.dim),
    ])


def _monitor_warnings(exceedances) -> None:
    for rec in exceedances:
        print(
            f"CONJECTURE MONITOR: dim {_fmt(rec.dim)} exceeds log2/log3 "
            f"at n={rec.n} digits={';'.join(map(str, rec.digits))}",
            file=sys.stderr,
        )


def cmd_search(args) -> list[str]:
    lo, hi = _parse_bases(args.n)
    lines = [_SEARCH_CSV_HEADER]
    exceed = []
    for n in range(lo, hi + 1):
        if args.heuristic:
            res = search_heuristic(n, budget=args.budget, seed=args.seed,
                                   require_good=args.require_good,
                                   require_very_good=args.require_very_good)
        else:
            try:
                res = search_exhaustive(
                    n,
                    require_good=args.require_good,
                    require_very_good=args.require_very_good,
                )
            except InfeasibleSearchError as exc:
                raise CliError(EXIT_INFEASIBLE, str(exc)) from exc
        exceed.extend(res.exceedances)
        if res.best is not None:
            lines.append(_search_csv_row(res.best))
    _monitor_warnings(exceed)
    return lines


def cmd_figure(args) -> list[str]:
    lo, hi = _parse_bases(args.n)
    rows, exceed = figure_data(lo, hi, budget=args.budget, seed=args.seed)
    lines = ["n,best_dim,reference"]
    for n, best, ref in rows:
        lines.append(f"{n},{_fmt(best)},{_fmt(ref)}")
    _monitor_warnings(exceed)
    return lines


def cmd_tower(args) -> list[str]:
    table = load_base_table()
    if args.base_n is not None:
        if args.base_n not in table:
            raise CliError(EXIT_BASE_MISSING, f"no table base {args.base_n}")
        table = {args.base_n: table[args.base_n]}
    try:
        chain = chain_to_target(args.target, base_table=table)
    except BaseMissingError as exc:
        raise CliError(EXIT_BASE_MISSING, str(exc)) from exc
    lines = ["step,n,digits,lambda,dim"]
    for step, n, digits, lam, dim in chain.csv_rows():
        lines.append(f"{step},{n},{digits},{_fmt(lam)},{_fmt(dim)}")
    return lines


def cmd_oracle(args) -> list[str]:
    A = _digitset(args.n, args.digits)
    try:
        if args.which == "em":
            ls = level_set(A, args.depth, budget=args.budget)
            lines = ["depth,start_numerator,end_numerator,denominator"]
            for row in ls.csv_rows():
                lines.append(",".join(map(str, row)))
            return lines
        if args.which == "typing":
            L, R = level_typing_counts(A, args.depth, budget=args.budget)
            return [f"L={L}, R={R}"]
        rep = growth_check(A, args.depth, budget=args.budget)
        lines = ["m,L,R,dim_estimate"]
        for m, ((L, R), est) in enumerate(zip(rep.counts, rep.dim_estimates), 1):
            lines.append(f"{m},{L},{R},{_fmt(est)}")
        lines.append(f"matrix_power_match: {str(rep.matches_transpose).lower()}")
        lines.append(f"dim: {_fmt(rep.dim)}")
        lines.append(f"final_estimate_gap: {_fmt(rep.final_estimate_gap)}")
        return lines
    except BudgetExceededError as exc:
        raise CliError(EXIT_BUDGET, str(exc)) from exc
    except ValueError as exc:
        raise CliError(EXIT_MALFORMED, str(exc)) from exc


def _write_manifest(path: str, command: str, params: dict, seed,
                    wall: float, digest: str) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "wall_time_s": wall,
        "output_digest": digest,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _add_common(p, seed=False):
    p.add_argument("--manifest", default=None, help="write a run manifest JSON here")
    if seed:
        p.add_argument("--seed", type=_whole_number(0), default=0,
                       help="search seed, a whole number >= 0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cantorsum",
        description="Analyze sums of linear Cantor sets C_A + C_A.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="goodness, typing, dimension, structure")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-A", dest="digits", required=True, help="comma-separated digits")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("structure", help="FullInterval / CantorSet / Mixed with witnesses")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-A", dest="digits", required=True)
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("construct", help="sqrt-size good set for a base")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="best digit sets per base, CSV")
    p.add_argument("-n", required=True, help="base or range a..b")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--require-good", action="store_true")
    p.add_argument("--require-very-good", action="store_true")
    p.add_argument("--budget", type=_whole_number(1), default=10_000)
    p.add_argument("--csv-out", default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("figure", help="best known dimension per base, CSV")
    p.add_argument("-n", required=True, help="range a..b")
    p.add_argument("--budget", type=_whole_number(1), default=10_000)
    p.add_argument("--csv-out", default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("tower", help="tower chain from a tabled base to a target")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--base-n", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("oracle", help="finite-depth brute force")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-A", dest="digits", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--em", dest="which", action="store_const", const="em")
    g.add_argument("--typing", dest="which", action="store_const", const="typing")
    g.add_argument("--growth", dest="which", action="store_const", const="growth")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=_whole_number(1), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        lines = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    csv_out = getattr(args, "csv_out", None)
    if csv_out:
        with open(csv_out, "w") as fh:
            fh.write(text)
    if args.manifest:
        params = {
            k: v for k, v in vars(args).items()
            if k not in ("func", "manifest", "command") and v is not None
        }
        params.pop("seed", None)
        _write_manifest(
            args.manifest,
            args.command,
            params,
            getattr(args, "seed", None),
            time.perf_counter() - t0,
            hashlib.sha256(text.encode()).hexdigest(),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
