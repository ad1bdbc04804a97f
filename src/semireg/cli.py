"""Command-line front end: reports, table sweeps, verification.

Subcommands:

  exact M N          exact degree of regularity (optionally the coefficients)
  bounds M N         the four closed-form bounds, exact value, sandwich verdict
  table              benchmark-style sweeps over parameter families
  verify MAX_N       certified cross-validation battery up to family size MAX_N

Exit codes: 0 ok, 1 verification failure, 2 usage or precondition violation.
Output is deterministic: identical invocations produce byte-identical text.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import (
    AiryConstant,
    BoundOutcome,
    DEFAULT_AIRY,
    kz_lower,
    kz_root_bound,
    l_upper,
    l_upper_root_bound,
    ls_lower,
    ls_lower_asymptotic,
    ls_lower_root_bound,
    ls_upper,
    ls_upper_root_bound,
)
from .exact import SystemShape, degree_of_regularity_exact, f5_cost_log2, hilbert_truncation
from .roots import CROSS_VALIDATION_CEILING
from .verify import run_all

ALL_COLUMNS = (
    "dreg",
    "kz_lower",
    "ls_lower",
    "ls_upper",
    "l_upper",
    "f5_log2",
    "ls_asymptotic",
)
DEFAULT_COLUMNS = ("dreg", "kz_lower", "ls_lower", "ls_upper", "l_upper")

_HEADERS = {
    "dreg": "d_reg",
    "kz_lower": "KZ_lower",
    "ls_lower": "LS_lower",
    "ls_upper": "LS_upper",
    "l_upper": "L_upper",
    "f5_log2": "F5_log2",
    "ls_asymptotic": "LS_asymptotic",
}


@dataclass(frozen=True)
class TableSpec:
    """A resolved sweep: family label, explicit (m, n) rows, column selection."""

    family: str
    pairs: tuple[tuple[int, int], ...]  # ordered by n
    columns: tuple[str, ...]
    m_rounding: str | None = None  # set when the family rounds non-integral m


def floor_n_log2_n(n: int) -> int:
    """floor(n * log2(n)) without floating point.

    Equals bit_length(n^n) - 1; powers of two short-circuit to n * log2(n).
    """
    if n < 2:
        raise ValueError(f"requires n >= 2; got n={n}")
    if n & (n - 1) == 0:
        return n * (n.bit_length() - 1)
    return (n ** n).bit_length() - 1


_FAMILY_AFFINE = re.compile(r"^n\+(\d+)$")
_FAMILY_MULTIPLE = re.compile(r"^(\d+)n$")


def build_table_spec(
    family: str,
    n_values: Sequence[int],
    columns: Sequence[str],
    pairs: Sequence[tuple[int, int]] | None = None,
) -> TableSpec:
    """Resolve a family string ('n+100', '2n', 'nlog2n', 'explicit') to rows."""
    for c in columns:
        if c not in ALL_COLUMNS:
            raise ValueError(f"unknown column {c!r}; choose from {ALL_COLUMNS}")
    rounding = None
    if family == "explicit":
        rows = sorted(set(pairs or ()), key=lambda p: (p[1], p[0]))
        label = "explicit"
    else:
        ns = sorted(set(n_values))
        match_affine = _FAMILY_AFFINE.match(family)
        match_multiple = _FAMILY_MULTIPLE.match(family)
        if match_affine:
            alpha = int(match_affine.group(1))
            if alpha < 1:
                raise ValueError("affine family requires a positive offset")
            rows = [(n + alpha, n) for n in ns]
            label = f"m=n+{alpha}"
        elif match_multiple:
            beta = int(match_multiple.group(1))
            if beta < 2:
                raise ValueError("multiple family requires a factor >= 2")
            rows = [(beta * n, n) for n in ns]
            label = f"m={beta}n"
        elif family == "nlog2n":
            rows = [(floor_n_log2_n(n), n) for n in ns]
            label = "m=n*log2(n)"
            rounding = "floor"
        else:
            raise ValueError(
                f"unknown family {family!r}; expected n+<int>, <int>n, nlog2n or explicit"
            )
    read, unread, ignored = (("--pairs", "--n-values", n_values) if family == "explicit"
                             else ("--n-values", "--pairs", pairs))
    if ignored:
        raise ValueError(f"family {family!r} does not read {unread}; "
                         f"its rows come from {read}")
    if not rows:
        raise ValueError(f"family {family!r} requires at least one entry in {read}")
    for m, n in rows:
        SystemShape(m, n)  # raises on m <= n, surfacing bad family parameters
    return TableSpec(family=label, pairs=tuple(rows), columns=tuple(dict.fromkeys(columns)),
                     m_rounding=rounding)


# --------------------------------------------------------------------------
# cell computation and rendering
# --------------------------------------------------------------------------


def _bound_cell(outcome: BoundOutcome) -> dict:
    return {
        "value": outcome.value,
        "reason": (outcome.not_applicable_reason.value
                   if outcome.not_applicable_reason else None),
        "near_boundary": outcome.certification.near_boundary,
    }


def compute_row(m: int, n: int, columns: Sequence[str], airy: AiryConstant) -> dict:
    shape = SystemShape(m, n)
    cells: dict[str, object] = {}
    dreg = None
    if "dreg" in columns or "f5_log2" in columns:
        dreg = degree_of_regularity_exact(shape)
    for col in columns:
        if col == "dreg":
            cells[col] = dreg
        elif col == "kz_lower":
            cells[col] = _bound_cell(kz_lower(shape))
        elif col == "ls_lower":
            cells[col] = _bound_cell(ls_lower(shape, airy))
        elif col == "ls_upper":
            cells[col] = _bound_cell(ls_upper(shape))
        elif col == "l_upper":
            cells[col] = _bound_cell(l_upper(shape))
        elif col == "f5_log2":
            cells[col] = round(f5_cost_log2(shape, dreg), 2)
        elif col == "ls_asymptotic":
            cells[col] = round(ls_lower_asymptotic(shape), 2)
    return {"n": n, "m": m, "cells": cells}


def _cell_text(value: object) -> str:
    if isinstance(value, dict):  # bound cell
        if value["value"] is None:
            return "-"
        suffix = "?" if value["near_boundary"] else ""
        return f"{value['value']}{suffix}"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(spec: TableSpec, rows: list[dict], fmt: str, airy: AiryConstant,
                 precision: Fraction) -> str:
    if fmt == "json":
        doc = {
            "family": spec.family,
            "metadata": {
                "m_rounding": spec.m_rounding,
                "precision": str(precision),
                "airy_i1": str(airy.i1),
                "airy_precision_radius": str(airy.precision_radius),
            },
            "columns": list(spec.columns),
            "rows": rows,
        }
        return json.dumps(doc, indent=2) + "\n"

    header = ["n", "m"] + [_HEADERS[c] for c in spec.columns]
    text_rows = [
        [str(r["n"]), str(r["m"])] + [_cell_text(r["cells"][c]) for c in spec.columns]
        for r in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(text_rows)
        if spec.m_rounding:
            buf.write(f"# m_rounding: {spec.m_rounding}\n")
        return buf.getvalue()
    if fmt == "md":
        widths = [max(len(h), *(len(tr[i]) for tr in text_rows)) if text_rows else len(h)
                  for i, h in enumerate(header)]
        lines = [
            "| " + " | ".join(h.rjust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 1) + ":" for w in widths) + "|",
        ]
        for tr in text_rows:
            lines.append("| " + " | ".join(c.rjust(w) for c, w in zip(tr, widths)) + " |")
        out = f"family: {spec.family}\n\n" + "\n".join(lines) + "\n"
        if spec.m_rounding:
            out += f"\nm rounding: {spec.m_rounding}\n"
        return out
    raise ValueError(f"unknown format {fmt!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_exact(args: argparse.Namespace) -> int:
    shape = SystemShape(args.m, args.n)
    dreg = degree_of_regularity_exact(shape)
    print(f"d_reg = {dreg}")
    if args.coefficients:
        prefix = hilbert_truncation(shape)
        print(f"coefficients (degrees 0..{len(prefix) - 1}): "
              + " ".join(str(c) for c in prefix))
    return 0


def _format_bound_line(label: str, sense: str, outcome: BoundOutcome) -> str:
    if not outcome.applicable:
        return f"{label}: not applicable ({outcome.not_applicable_reason.value})"
    flag = " ?" if outcome.certification.near_boundary else ""
    return (f"{label} {sense} {outcome.value}{flag}   "
            f"[{outcome.certification.method.value}]")


def cmd_bounds(args: argparse.Namespace) -> int:
    shape = SystemShape(args.m, args.n)
    airy = args.airy
    if args.curve:
        print(_curve_csv(shape, airy), end="")
        return 0
    dreg = degree_of_regularity_exact(shape)
    kz = kz_lower(shape)
    lsl = ls_lower(shape, airy)
    lsu = ls_upper(shape)
    lu = l_upper(shape)
    print(f"m={shape.m} n={shape.n} (N={shape.N}, t={shape.t})")
    print(f"d_reg exact = {dreg}")
    print(_format_bound_line("KZ lower", ">=", kz))
    print(_format_bound_line("LS lower", ">=", lsl))
    print(_format_bound_line("LS upper", "<=", lsu))
    print(_format_bound_line("L  upper", "<=", lu))
    parts = [str(kz.value), str(lsl.value), str(dreg)]
    uppers = [o.value for o in (lu, lsu) if o.applicable]
    parts += [str(v) for v in sorted(uppers)]
    ok = kz.value <= dreg and lsl.value <= dreg and all(dreg <= v for v in uppers)
    print(f"sandwich {' <= '.join(parts)} : {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _curve_csv(shape: SystemShape, airy: AiryConstant) -> str:
    """Plot-ready per-degree bound curves against k."""
    N = shape.N
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "kz_lower_bound", "ls_lower_bound",
                     "ls_upper_bound", "l_upper_bound"])
    for k in range(1, N // 2 + 1):
        kz = f"{kz_root_bound(N, k):.6f}" if 2 * k < N else ""
        lsl = f"{ls_lower_root_bound(N, k, airy):.6f}"
        lsu = f"{ls_upper_root_bound(N, k):.6f}"
        lu = f"{l_upper_root_bound(N, k):.6f}"
        writer.writerow([k, kz, lsl, lsu, lu])
    return buf.getvalue()


def _parse_list(text: str, option: str, parse, form: str) -> list:
    """Parse a comma-separated option value; a bad chunk names itself and the form."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                out.append(parse(chunk))
            except ValueError:
                raise ValueError(
                    f"bad {option} entry {chunk!r}; expected {form}"
                ) from None
    return out


def _pair(chunk: str) -> tuple[int, int]:
    m_str, _, n_str = chunk.partition(":")
    return int(m_str), int(n_str)


def cmd_table(args: argparse.Namespace) -> int:
    pairs = _parse_list(args.pairs or "", "--pairs", _pair, "M:N, e.g. 356:256")
    n_values = _parse_list(args.n_values, "--n-values", int, "an integer n, e.g. 256")
    columns = [c.strip() for c in args.columns.split(",")] if args.columns \
        else list(DEFAULT_COLUMNS)
    spec = build_table_spec(args.family, n_values, columns, pairs)
    rows = [compute_row(m, n, spec.columns, args.airy) for m, n in spec.pairs]
    sys.stdout.write(render_table(spec, rows, args.format, args.airy, args.precision))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ceiling = args.ceiling
    if args.max_N > ceiling:
        raise ValueError(f"MAX_N={args.max_N} exceeds the cross-validation "
                         f"ceiling {ceiling} (raise with --ceiling)")
    results = run_all(args.max_N, width=args.precision)
    for res in results:
        print(res.summary())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_airy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--airy-i1", type=_fraction_arg, default=DEFAULT_AIRY.i1, metavar="DECIMAL",
        help="override the Airy-type constant i1 (default %(default)s)",
    )
    parser.add_argument(
        "--airy-radius", type=_fraction_arg, default=DEFAULT_AIRY.precision_radius,
        metavar="RADIUS",
        help="certification half-width around i1 (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Degree of regularity of overdetermined quadratic "
                    "semi-regular systems: exact values, certified "
                    "cross-checks and closed-form bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact degree of regularity")
    p_exact.add_argument("m", type=int)
    p_exact.add_argument("n", type=int)
    p_exact.add_argument("--coefficients", action="store_true",
                         help="also print the positive coefficient prefix")
    p_exact.set_defaults(func=cmd_exact)

    p_bounds = sub.add_parser("bounds", help="four bounds, exact value, sandwich")
    p_bounds.add_argument("m", type=int)
    p_bounds.add_argument("n", type=int)
    p_bounds.add_argument("--curve", action="store_true",
                          help="emit per-degree bound curves as CSV instead")
    _add_airy_options(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_table = sub.add_parser("table", help="parameter-family sweeps")
    p_table.add_argument("--family", required=True,
                         help="n+<int>, <int>n, nlog2n, or explicit")
    p_table.add_argument("--n-values", default="", metavar="LIST",
                         help="comma-separated n values, e.g. 256,512,1024")
    p_table.add_argument("--pairs", default=None, metavar="LIST",
                         help="explicit m:n pairs, e.g. 356:256,512:256")
    p_table.add_argument("--columns", default=None, metavar="LIST",
                         help=f"subset of {','.join(ALL_COLUMNS)}")
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_table.add_argument("--precision", type=_fraction_arg,
                         default=Fraction(1, 10 ** 6), metavar="RATIONAL")
    _add_airy_options(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-validation battery")
    p_verify.add_argument("max_N", type=int)
    p_verify.add_argument("--ceiling", type=int, default=CROSS_VALIDATION_CEILING,
                          help="cross-validation size ceiling (default %(default)s)")
    p_verify.add_argument("--precision", type=_fraction_arg,
                          default=Fraction(1, 10 ** 6), metavar="RATIONAL",
                          help="enclosure width of the interlacing and duality "
                               "suites (default %(default)s)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "airy_i1"):
        try:
            args.airy = AiryConstant(i1=args.airy_i1,
                                     precision_radius=args.airy_radius)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
