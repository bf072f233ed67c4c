"""Command-line front end.

Thresholds arrive as decimal strings and stay exact (Fraction) all the way
into the census; output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .census import (
    constant_C,
    count_F_in_progression,
    enumerate_surfaces,
    fit_report,
    leading_constant,
    xi,
)
from .classgroup import is_admissible
from .hermitian import SurfaceIndex
from .verify import SCOPES, order_report, run_scope
from .volume import area_closed_form

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader's early close


class _UsageError(Exception):
    """A malformed command line; main prints it and returns EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would exit 2, the domain-error code."""

    def error(self, message):
        message = message.replace("argument command: invalid choice", "unknown subcommand")
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _parse_threshold(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a decimal threshold: {text!r}") from exc
    if value <= 0:
        raise ValueError(f"threshold must be positive, got {text}")
    return value


def _records_as_dicts(records) -> list[dict]:
    return [
        {
            "m": t.m,
            "c": t.c,
            "r": t.r,
            "d0": t.d0,
            "D": t.D,
            "q_num": t.q.numerator,
            "q_den": t.q.denominator,
            "area_decimal": t.area().decimal(15),
        }
        for t in records
    ]


_CSV_COLUMNS = ["m", "c", "r", "d0", "D", "q_num", "q_den", "area_decimal"]


def _emit_csv(rows: list[dict], out) -> None:
    writer = csv.DictWriter(out, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _cmd_check(args) -> int:
    res = is_admissible(args.d)
    payload = {
        "d": res.d,
        "admissible": res.admissible,
        "h": res.class_number,
        "invariants": list(res.invariants) if res.invariants is not None else None,
        "reason": res.reason,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_area(args) -> int:
    area = area_closed_form(SurfaceIndex(args.d, args.m, args.c, args.r))
    q = area.q
    print(f"{q.numerator}/{q.denominator} · π ≈ {area.decimal(15)}")
    return EXIT_OK


def _cmd_census(args) -> int:
    X = _parse_threshold(args.X)
    if args.format == "csv" or args.records:
        records = enumerate_surfaces(args.d, X)
        rows = _records_as_dicts(records)
        if args.format == "csv":
            _emit_csv(rows, sys.stdout)
        else:
            payload = {"d": args.d, "X": args.X, "xi": len(rows), "records": rows}
            print(json.dumps(payload, indent=2))
    else:
        payload = {"d": args.d, "X": args.X, "xi": xi(args.d, X)}
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_constant(args) -> int:
    c = constant_C(args.d, digits=args.digits)
    payload = {
        "d": args.d,
        "C": repr(c.value),
        "tail_bound": repr(c.tail_bound),
        "truncation_prime": c.truncation_prime,
        "certified_digits": c.certified_digits,
    }
    if args.full:
        rep = leading_constant(args.d)
        payload["l_main"] = repr(rep.l_main)
        payload["l_main_bound"] = repr(rep.l_main_bound)
        payload["l_census_form"] = repr(rep.l_census_form)
        payload["l_census_bound"] = repr(rep.l_census_bound)
        payload["chain_gap"] = repr(rep.chain_gap)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_fit(args) -> int:
    points = [_parse_threshold(p) for p in args.points.split(",")]
    rows = fit_report(args.d, points)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["X", "xi", "ratio", "l_main", "rel_deviation"])
    for row in rows:
        writer.writerow(
            [str(row.X), row.xi, repr(row.ratio), repr(row.leading), repr(row.rel_deviation)]
        )
    return EXIT_OK


def _cmd_lemma_count(args) -> int:
    X = _parse_threshold(args.X)
    print(count_F_in_progression(args.d, args.a, args.r, X))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.scope and args.scope[0] == "order":
        if len(args.scope) != 4 or not all(v.removeprefix("-").isdigit() for v in args.scope[1:]):
            args.parser.error("order takes integers <d> <m> <c>")
        d, m, c = (int(v) for v in args.scope[1:])
        print(json.dumps(order_report(d, m, c), indent=2))
        return EXIT_OK
    if len(args.scope) > 1:
        args.parser.error("takes a single scope")
    scope = args.scope[0] if args.scope else "all"
    if scope not in ("all", *SCOPES):
        args.parser.error(f"unknown scope {scope!r}; expected all or one of {SCOPES}")
    reports = run_scope(scope, fast=args.fast)
    ok = True
    for rep in reports:
        print(rep.summary())
        ok = ok and rep.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bianchisurf",
        description="Census of totally geodesic surfaces in Bianchi orbifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="admissibility and class group of d")
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("area", help="exact area of the surface indexed by (m, c)")
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--r", type=int, default=1, help="coset divisor (area does not depend on it)")
    p.set_defaults(fn=_cmd_area)

    p = sub.add_parser("census", help="count (or list) surfaces with area below X")
    p.add_argument("d", type=int)
    p.add_argument("X", help="area threshold, decimal string, handled exactly")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--records", action="store_true", help="materialize per-r records")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("constant", help="the counting constant C with tail certificate")
    p.add_argument("d", type=int)
    p.add_argument("--digits", type=int, default=12)
    p.add_argument("--full", action="store_true", help="also the leading-constant chain")
    p.set_defaults(fn=_cmd_constant)

    p = sub.add_parser("fit", help="xi(X)/X against the predicted constant")
    p.add_argument("d", type=int)
    p.add_argument("--points", required=True, help="comma-separated ascending thresholds")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("lemma-count", help="#{n = r mod a : F(n) < X}")
    p.add_argument("d", type=int)
    p.add_argument("a", type=int)
    p.add_argument("r", type=int)
    p.add_argument("X")
    p.set_defaults(fn=_cmd_lemma_count)

    p = sub.add_parser("verify", help="run oracle-equivalence suites")
    p.add_argument(
        "scope",
        nargs="*",
        help="all | orders | areas | constants | counts | classgroups | order <d> <m> <c>",
    )
    p.add_argument("--fast", action="store_true", help="smoke run: orders and areas sweep D <= 60, the other suites run in full")
    p.set_defaults(fn=_cmd_verify, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader closed stdout early: point it at the null device, so
        # the interpreter's final flush of what is buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
