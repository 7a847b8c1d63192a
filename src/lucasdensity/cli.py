"""Command-line front end: exact densities, empirical checks, tables, traces."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .density import (
    DensityResult,
    REFERENCE_ROWS,
    dispatch,
    normal_form,
    series_oracle,
)
from .errors import LucasDensityError, OracleMismatchError, UnreachableCaseError
from .lucasrank import dump_ranks, empirical_density
from .quadfield import Target, gamma_from_radicand, make_context, root_quotient

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INCONSISTENT = 3


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _decimal6(x: Fraction) -> str:
    """Decimal expansion truncated (not rounded) at six places."""
    sign = "-" if x < 0 else ""
    q, r = divmod(abs(x.numerator) * 10**6, x.denominator)
    whole, frac = divmod(q, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _rat_dec(x: Fraction) -> str:
    return f"{_rat(x)} ({_decimal6(x)})"


def _num_den(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _echo_str(value) -> object:
    if isinstance(value, Fraction):
        return _rat(value)
    return value


def _trace_dicts(result: DensityResult) -> list[dict]:
    return [{"d": t.d, "e": t.e, "h": t.h, "nu": t.nu,
             "coeff": _num_den(t.coefficient), "value": _num_den(t.value)}
            for t in result.trace]


def _density_json(result: DensityResult) -> dict:
    echo = result.inputs_echo
    return {
        "delta": _num_den(result.delta),
        "delta_plus": _num_den(result.delta_plus),
        "delta_minus": _num_den(result.delta_minus),
        "case": result.case_tag,
        "h": echo.get("h"),
        "zeta": echo.get("source_zeta", echo.get("zeta_star")),
        "trace": _trace_dicts(result),
    }


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _shield_gamma_values(argv: Sequence[str]) -> list[str]:
    # argparse reads "-13/14" as an option; a leading space defuses that and
    # Fraction() strips it back off
    out: list[str] = []
    shield = 0
    for tok in argv:
        if shield and tok.startswith("-"):
            out.append(" " + tok)
        else:
            out.append(tok)
        shield = 2 if tok == "--gamma" else max(0, shield - 1)
    return out


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a1", type=int, help="first recurrence parameter")
    sub.add_argument("--a2", type=int, help="second recurrence parameter")
    sub.add_argument(
        "--gamma",
        nargs=2,
        metavar=("U", "V"),
        help="element u + v*sqrt(radicand); rationals like 17/32",
    )
    sub.add_argument(
        "--radicand", type=int, help="radicand of the quadratic field for --gamma"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasdensity",
        description="Densities of primes whose rank of appearance is divisible by d.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_density = subs.add_parser("density", help="exact density for one (input, d)")
    _add_input_flags(p_density)
    p_density.add_argument("--d", type=int, required=True)
    p_density.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_density.add_argument(
        "--oracle-check",
        action="store_true",
        help="also certify the value against the exact sum of the defining series",
    )

    p_verify = subs.add_parser("verify", help="empirical ratio against the exact value")
    _add_input_flags(p_verify)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--limit", type=int, default=1_000_000)
    p_verify.add_argument("--threads", type=int, default=None,
                          help="deprecated and ignored: the empirical count is one vectorised pass")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--dump-ranks", metavar="PATH", default=None)

    p_tables = subs.add_parser("tables", help="recompute the bundled reference rows")
    p_tables.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_tables.add_argument(
        "--limit", type=int, default=None, help="also run the empirical column up to this bound"
    )

    p_explain = subs.add_parser("explain", help="show the routing and every term")
    _add_input_flags(p_explain)
    p_explain.add_argument("--d", type=int, required=True)

    return parser


def _resolve_target(args: argparse.Namespace) -> Target:
    has_pair = args.a1 is not None or args.a2 is not None
    has_gamma = args.gamma is not None or args.radicand is not None
    if has_pair == has_gamma:
        raise LucasDensityError(
            "supply exactly one input: --a1/--a2 or --gamma U V --radicand D"
        )
    if has_pair:
        if args.a1 is None or args.a2 is None:
            raise LucasDensityError("--a1 and --a2 must be given together")
        return make_context(args.a1, args.a2)
    if args.gamma is None or args.radicand is None:
        raise LucasDensityError("--gamma needs --radicand (and vice versa)")
    try:
        u = Fraction(args.gamma[0].strip())
        v = Fraction(args.gamma[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise LucasDensityError(f"unparsable --gamma component: {exc}") from exc
    # a rational element has norm u^2, or is the root of unity +-1
    return root_quotient(gamma_from_radicand(u, v, args.radicand), args.subcommand)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _check_limit(limit: int) -> None:
    if limit < 100:
        raise LucasDensityError(f"--limit must be >= 100, got {limit}")


def cmd_density(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    result = dispatch(target, args.d)

    if args.format == "json":
        print(json.dumps(_density_json(result)))
    elif args.format == "csv":
        print("delta,delta_plus,delta_minus,case")
        print(
            f"{_rat(result.delta)},{_rat(result.delta_plus)},"
            f"{_rat(result.delta_minus)},{result.case_tag}"
        )
    else:
        print(f"delta = {_rat_dec(result.delta)}")
        print(f"delta_plus = {_rat_dec(result.delta_plus)}")
        print(f"delta_minus = {_rat_dec(result.delta_minus)}")
        print(f"case = {result.case_tag}")

    if args.oracle_check:
        norm = normal_form(target)
        reference = dispatch(norm, args.d)
        series = series_oracle(norm, args.d)
        equal = series == reference.delta
        print(
            "oracle check (h-normalized element): delta "
            f"{_rat(reference.delta)}, series sum {_rat(series)}: "
            f"{'equal' if equal else 'NOT EQUAL'}"
        )
        if not equal:
            return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    _check_limit(args.limit)
    delta = dispatch(target, args.d).delta
    t0 = time.perf_counter()
    report = empirical_density(target, args.d, args.limit)
    runtime = time.perf_counter() - t0
    if args.dump_ranks is not None:
        try:
            dump_ranks(target, args.d, args.limit, args.dump_ranks)
        except OSError as exc:
            raise LucasDensityError(f"cannot write --dump-ranks {args.dump_ranks}: {exc}") from exc
    deviation = abs(report.ratio - delta)
    tolerance = (
        Fraction(3)
        * Fraction(float((delta * (1 - delta) / report.eligible) ** 0.5))
        + Fraction(1, 500)
        if report.eligible
        else Fraction(1)
    )
    passed = deviation <= tolerance

    if args.format == "json":
        print(
            json.dumps(
                {
                    "delta": _num_den(delta),
                    "ratio": _num_den(report.ratio),
                    "ratio_plus": _num_den(report.ratio_plus),
                    "ratio_minus": _num_den(report.ratio_minus),
                    "counted": report.counted,
                    "eligible": report.eligible,
                    "x": report.x,
                    "deviation": float(deviation),
                    "tolerance": float(tolerance),
                    "passed": passed,
                    "runtime_seconds": round(runtime, 3),
                }
            )
        )
    elif args.format == "csv":
        print("d,x,counted,counted_plus,counted_minus,eligible,ratio,delta,deviation,passed")
        print(
            f"{report.d},{report.x},{report.counted},{report.counted_plus},"
            f"{report.counted_minus},{report.eligible},{_rat(report.ratio)},"
            f"{_rat(delta)},{float(deviation):.8f},{int(passed)}"
        )
    else:
        print(f"closed form delta = {_rat_dec(delta)}")
        print(
            f"empirical ratio = {_rat(report.ratio)} ({_decimal6(report.ratio)}) "
            f"over {report.eligible} eligible primes up to {report.x}"
        )
        print(f"deviation = {_decimal6(deviation)}")
        print(f"tolerance = {_decimal6(tolerance)}")
        print(f"{'PASS' if passed else 'FAIL'} (runtime {runtime:.1f}s)")

    if not passed and args.strict:
        return 1
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    if args.limit:
        _check_limit(args.limit)
    # (row, result, match, (empirical ratio, deviation) or None), for every format
    rows = []
    for row in REFERENCE_ROWS:
        result = dispatch(row.gamma, row.d)
        ok = result.delta == row.delta and result.case_tag == row.case_tag
        empirical = None
        if args.limit:
            ratio = empirical_density(row.gamma, row.d, args.limit).ratio
            empirical = (float(ratio), float(abs(ratio - row.delta)))
        rows.append((row, result, ok, empirical))
    matches = sum(ok for _, _, ok, _ in rows)

    if args.format == "json":
        entries = []
        for row, result, ok, empirical in rows:
            entry = {"gamma": str(row.gamma), "d": row.d, "computed": _num_den(result.delta),
                     "expected": _num_den(row.delta), "case": result.case_tag, "match": ok}
            if row.annotation:
                entry["annotation"] = row.annotation
            if empirical:
                entry["empirical"], entry["deviation"] = empirical
            entries.append(entry)
        print(json.dumps(entries))
    elif args.format == "csv":
        cols = ["gamma", "d", "case", "computed", "expected", "match"]
        if args.limit:
            cols += ["empirical", "deviation"]
        print(",".join(cols))
        for row, result, ok, empirical in rows:
            vals = [f"\"{row.gamma}\"", str(row.d), result.case_tag,
                    f"{result.delta.numerator}/{result.delta.denominator}",
                    f"{row.delta.numerator}/{row.delta.denominator}", str(int(ok))]
            if empirical:
                vals += [f"{x:.6f}" for x in empirical]
            print(",".join(vals))
    else:
        for row, result, ok, empirical in rows:
            line = (f"{str(row.gamma):>26}  d={row.d:<4} {result.case_tag:<13} "
                    f"{_rat(result.delta):>12}  {'ok' if ok else 'MISMATCH'}")
            if empirical:
                line += "  empirical {:.6f} (dev {:.6f})".format(*empirical)
            print(line)
            if row.annotation:
                print(f"{'':28}note: {row.annotation}")
        print(f"{matches}/{len(rows)} rows match the expected values")

    return EXIT_OK if matches == len(rows) else EXIT_INCONSISTENT


def cmd_explain(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    if args.d == 1:
        print("trivial: density 1 (every rank is divisible by 1)")
        return EXIT_OK
    result = dispatch(target, args.d)
    print(f"case = {result.case_tag}")
    for key, value in result.inputs_echo.items():
        print(f"{key} = {_echo_str(value)}")
    print(f"terms ({len(result.trace)}):")
    for t in result.trace:
        print(
            f"  {_rat(t.coefficient):>6} * S(d={t.d}, e={t.e}, "
            f"h={t.h}, nu={t.nu}) = {_rat(t.coefficient):>6} * "
            f"{_rat(t.value)} = {_rat(t.contribution)}"
        )
    print(f"delta = {_rat_dec(result.delta)}")
    print(f"delta_plus = {_rat_dec(result.delta_plus)}")
    print(f"delta_minus = {_rat_dec(result.delta_minus)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "density": cmd_density,
    "verify": cmd_verify,
    "tables": cmd_tables,
    "explain": cmd_explain,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_shield_gamma_values(raw))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.subcommand](args)
    except (OracleMismatchError, UnreachableCaseError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except LucasDensityError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
