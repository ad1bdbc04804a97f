"""Command-line front end: reports, table sweeps, verification.

Subcommands:

  exact M N          exact degree of regularity (optionally the coefficients)
  bounds M N         the four closed-form bounds, exact value, sandwich verdict
  table              benchmark-style sweeps over parameter families
  verify MAX_N       certified cross-validation battery up to family size MAX_N

Exit codes: 0 ok, 1 verification failure, 2 usage or precondition violation,
141 stdout closed by its reader (what a shell reports for a writer SIGPIPE ended).
Output is deterministic: identical invocations produce byte-identical text.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

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
    sandwich_verdict,
)
from .exact import SystemShape, degree_of_regularity_exact, f5_cost_log2, hilbert_truncation
from .roots import CROSS_VALIDATION_CEILING
from .verify import run_all

# name -> (header, cell(shape, dreg, airy)). Each cell looks its function up by
# module name when called, so a patched `cli.kz_lower` is the one that runs.
_COLUMNS = {
    "dreg": ("d_reg", lambda shape, dreg, airy: dreg),
    "kz_lower": ("KZ_lower", lambda shape, dreg, airy: _bound_cell(kz_lower(shape))),
    "ls_lower": ("LS_lower", lambda shape, dreg, airy: _bound_cell(ls_lower(shape, airy))),
    "ls_upper": ("LS_upper", lambda shape, dreg, airy: _bound_cell(ls_upper(shape))),
    "l_upper": ("L_upper", lambda shape, dreg, airy: _bound_cell(l_upper(shape))),
    "f5_log2": ("F5_log2", lambda shape, dreg, airy: round(f5_cost_log2(shape, dreg), 2)),
    "ls_asymptotic": ("LS_asymptotic",
                      lambda shape, dreg, airy: round(ls_lower_asymptotic(shape), 2)),
}
ALL_COLUMNS = tuple(_COLUMNS)
DEFAULT_COLUMNS = ("dreg", "kz_lower", "ls_lower", "ls_upper", "l_upper")


class TableSpec(namedtuple("TableSpec", "family pairs columns m_rounding", defaults=(None,))):
    """A resolved sweep: family label, explicit (m, n) rows, column selection.

    pairs are ordered by n; m_rounding is set when the family rounds
    non-integral m.
    """

    __slots__ = ()


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
    if not columns:
        raise ValueError(f"--columns requires at least one of {ALL_COLUMNS}")
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
    dreg = None
    if "dreg" in columns or "f5_log2" in columns:
        dreg = degree_of_regularity_exact(shape)
    cells = {col: _COLUMNS[col][1](shape, dreg, airy) for col in columns}
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


# float.__repr__ of the specials -> json's spelling of them
_JSON_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(doc: object) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for a document keyed by str.

    With an indent, json.dumps runs its pure-Python encoder; this writes the
    same text directly.  Keys and strings go through json's
    `encode_basestring_ascii`, ints through `int.__repr__`, and floats are
    spelled as json's `floatstr` spells them: `float.__repr__`, with NaN,
    Infinity and -Infinity for the specials.  A non-str key raises TypeError
    in `encode_basestring_ascii`, and a value json cannot write raises it here.
    """
    from json.encoder import encode_basestring_ascii as encode
    out = []

    def write(value: object, newline: str) -> None:
        # newline: the line break and indent of the level value starts at
        if isinstance(value, str):
            out.append(encode(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, float):
            text = float.__repr__(value)
            out.append(_JSON_FLOAT_SPECIALS.get(text, text))
        elif isinstance(value, dict):
            inner, sep = newline + "  ", "{"
            for key, item in value.items():
                out.append(f"{sep}{inner}{encode(key)}: ")
                write(item, inner)
                sep = ","
            out.append(newline + "}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            inner, sep = newline + "  ", "["
            for item in value:
                out.append(sep + inner)
                write(item, inner)
                sep = ","
            out.append(newline + "]" if value else "[]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(doc, "\n")
    return "".join(out)


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
        return _json_text(doc) + "\n"

    header = ["n", "m"] + [_COLUMNS[c][0] for c in spec.columns]
    text_rows = [
        [str(r["n"]), str(r["m"])] + [_cell_text(r["cells"][c]) for c in spec.columns]
        for r in rows
    ]
    if fmt == "csv":
        import csv
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
        # lift Python's int-to-str digit limit (3.10.7 on) for the prefix alone
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            text = " ".join(map(str, prefix))
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        print(f"coefficients (degrees 0..{len(prefix) - 1}): {text}")
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
    uppers = sorted(o.value for o in (lu, lsu) if o.applicable)
    chain = " <= ".join(map(str, [kz.value, lsl.value, dreg, *uppers]))
    ok = sandwich_verdict(dreg, kz, lsl, lsu, lu)[2]
    print(f"sandwich {chain} : {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _curve_csv(shape: SystemShape, airy: AiryConstant) -> str:
    """Plot-ready per-degree bound curves against k."""
    import csv
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
    columns = (DEFAULT_COLUMNS if args.columns is None
               else _parse_list(args.columns, "--columns", str, "a column name"))
    spec = build_table_spec(args.family, n_values, columns, pairs)
    rows = [compute_row(m, n, spec.columns, args.airy) for m, n in spec.pairs]
    sys.stdout.write(render_table(spec, rows, args.format, args.airy, args.precision))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ceiling = args.ceiling
    if args.max_N > ceiling:
        raise ValueError(f"MAX_N={args.max_N} exceeds the cross-validation "
                         f"ceiling {ceiling} (raise with --ceiling)")
    results = run_all(args.max_N)
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


def _add_exact_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("m", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--coefficients", action="store_true",
                        help="also print the positive coefficient prefix")
    parser.set_defaults(func=cmd_exact)


def _add_bounds_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("m", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--curve", action="store_true",
                        help="emit per-degree bound curves as CSV instead")
    _add_airy_options(parser)
    parser.set_defaults(func=cmd_bounds)


def _add_table_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True,
                        help="n+<int>, <int>n, nlog2n, or explicit")
    parser.add_argument("--n-values", default="", metavar="LIST",
                        help="comma-separated n values, e.g. 256,512,1024")
    parser.add_argument("--pairs", default=None, metavar="LIST",
                        help="explicit m:n pairs, e.g. 356:256,512:256")
    parser.add_argument("--columns", default=None, metavar="LIST",
                        help=f"subset of {','.join(ALL_COLUMNS)}")
    parser.add_argument("--format", choices=("md", "csv", "json"), default="md")
    parser.add_argument("--precision", type=_fraction_arg,
                        default=Fraction(1, 10 ** 6), metavar="RATIONAL")
    _add_airy_options(parser)
    parser.set_defaults(func=cmd_table)


def _add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("max_N", type=int)
    parser.add_argument("--ceiling", type=int, default=CROSS_VALIDATION_CEILING,
                        help="cross-validation size ceiling (default %(default)s)")
    parser.set_defaults(func=cmd_verify)


# name -> (help, the function that adds its arguments and its `func` default),
# in the order the main help lists them
_SUBCOMMANDS = {
    "exact": ("exact degree of regularity", _add_exact_arguments),
    "bounds": ("four bounds, exact value, sandwich", _add_bounds_arguments),
    "table": ("parameter-family sweeps", _add_table_arguments),
    "verify": ("run the cross-validation battery", _add_verify_arguments),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The semireg parser; only the subparser that argv[0] names gets its arguments,
    or all four do when argv[0] names none (no argv, -h, --, a typo)."""
    # Left to itself, argparse asks the terminal for its width in every help
    # formatter it makes (25 per build on Python 3.11), and formats the main
    # usage only to name the subcommands "semireg ...".  Both values are
    # handed over here as argparse computes them, so every text is unchanged.
    import shutil
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="semireg",
        description="Degree of regularity of overdetermined quadratic "
                    "semi-regular systems: exact values, certified "
                    "cross-checks and closed-form bounds.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="semireg")
    subparsers = {name: sub.add_parser(name, help=help_text, formatter_class=formatter)
                  for name, (help_text, _) in _SUBCOMMANDS.items()}
    named = argv[0] if argv else None
    for name in [named] if named in _SUBCOMMANDS else _SUBCOMMANDS:
        _SUBCOMMANDS[name][1](subparsers[name])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if hasattr(args, "airy_i1"):
            args.airy = AiryConstant(i1=args.airy_i1, precision_radius=args.airy_radius)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # last flush is silent, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
