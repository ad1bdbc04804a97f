"""The three workloads, as the argv lists handed to `semireg.cli.main`.

The program only ever receives these argv lists; the seed is the
benchmark's and only `shape-reports` depends on it.

- table-families: the published table, one `table` command per family over
  n = 256..32768 (40 rows).  The exact recurrence on integers tens of
  kilobits wide does most of the work; `roots` is never called.
- shape-reports: one user asking about single shapes, `bounds M N` or
  `exact M N --coefficients`.  Per-call fixed costs (argv parsing, the
  bounds and their interval arithmetic) dominate, and `exact` builds the
  whole prefix instead of the table's streaming scan.
- verify-battery: `verify 60` at the CLI default precision.  The root and
  eigenvalue certification, the verify suites and Krawtchouk evaluation do
  almost all of the work; `exact` and `bounds` see only small N.
"""

from __future__ import annotations

import random
from math import isqrt
from dataclasses import dataclass
from typing import Callable

TABLE_FAMILIES = ("n+100", "n+256", "2n", "8n", "nlog2n")
TABLE_N_VALUES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
TABLE_COLUMNS = "dreg,kz_lower,ls_lower,ls_upper,l_upper,f5_log2,ls_asymptotic"

ALPHAS = (1, 2, 5, 16, 100, 256)  # m = n + alpha
BETAS = (2, 3, 8)  # m = beta * n
# n runs over a log-spaced grid, 16 points per octave from 8 to 2048, so the
# golden outputs of every shape a seed can draw fit in one small file.
N_MIN, OCTAVES, STEPS_PER_OCTAVE = 8, 8, 16
GRID_POINTS = OCTAVES * STEPS_PER_OCTAVE + 1
# Stratified draws per (command, family): n is log-uniform within each
# stratum, so seeds differ in their shapes but not in their cost profile.
# 64 : 16 strata gives the 80% / 20% split of bounds and exact reports.
BOUNDS_STRATA, EXACT_STRATA = 64, 16

VERIFY_MAX_N = 60


def table_argv(family: str, n_values=TABLE_N_VALUES) -> list[str]:
    return ["table", "--family", family, "--n-values", ",".join(map(str, n_values)),
            "--format", "json", "--columns", TABLE_COLUMNS]


def grid_n(i: int) -> int:
    """The i-th grid point, round(8 * 2^(i/16)), in integer arithmetic."""
    octave, step = divmod(i, STEPS_PER_OCTAVE)
    # 2^(step/16) to 40 bits via an integer 16th root, then round half up
    scaled = _root16((1 << (40 * STEPS_PER_OCTAVE)) << step)
    return (N_MIN * scaled * (1 << octave) + (1 << 39)) >> 40


def _root16(x: int) -> int:
    """Floor of the 16th root of x: four integer square roots."""
    for _ in range(4):
        x = isqrt(x)
    return x


SHAPE_FAMILIES = [("+", a) for a in ALPHAS] + [("*", b) for b in BETAS]


def m_of(family: tuple[str, int], n: int) -> int:
    op, k = family
    return n + k if op == "+" else k * n


def report_argv(command: str, m: int, n: int) -> list[str]:
    if command == "bounds":
        return ["bounds", str(m), str(n)]
    return ["exact", str(m), str(n), "--coefficients"]


def shape_reports(seed: int) -> list[list[str]]:
    """The seed's list of single-shape reports, in the order they are sent."""
    rng = random.Random(seed)
    argvs = []
    for family in SHAPE_FAMILIES:
        for command, strata in (("bounds", BOUNDS_STRATA), ("exact", EXACT_STRATA)):
            for s in range(strata):
                i = min(GRID_POINTS - 1, int((s + rng.random()) * GRID_POINTS / strata))
                n = grid_n(i)
                argvs.append(report_argv(command, m_of(family, n), n))
    rng.shuffle(argvs)
    return argvs


def shape_pool() -> list[list[str]]:
    """Every report any seed can draw."""
    ns = sorted({grid_n(i) for i in range(GRID_POINTS)})
    return [report_argv(command, m_of(family, n), n)
            for family in SHAPE_FAMILIES for n in ns
            for command in ("bounds", "exact")]


@dataclass(frozen=True)
class Workload:
    name: str
    setup_argv: list[str]  # the first call timed in set-up
    passes: Callable[[int], list[list[str]]]  # seed -> argv lists of one pass
    cli_runs: Callable[[int], list[list[str]]]  # seed -> argv lists run as subprocesses
    cli_sweeps: int = 0  # cli_s samples whole sweeps of cli_runs, this many; 0: each command


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "table-families",
            setup_argv=table_argv("n+100", TABLE_N_VALUES[:1]),
            passes=lambda seed: [table_argv(f) for f in TABLE_FAMILIES],
            cli_runs=lambda seed: [table_argv(f) for f in TABLE_FAMILIES],
            cli_sweeps=3,
        ),
        Workload(
            "shape-reports",
            setup_argv=["bounds", "24", "12"],
            passes=shape_reports,
            cli_runs=lambda seed: shape_reports(seed)[:21],
        ),
        Workload(
            "verify-battery",
            setup_argv=["verify", "8"],
            passes=lambda seed: [["verify", str(VERIFY_MAX_N)]],
            cli_runs=lambda seed: [["verify", str(VERIFY_MAX_N)]],
            cli_sweeps=2,
        ),
    )
}


def ops_in(argv: list[str]) -> int:
    """Ops one command completes: a table row each, otherwise the command."""
    if argv[0] == "table":
        return len(argv[argv.index("--n-values") + 1].split(","))
    return 1


def golden_argvs() -> list[list[str]]:
    """Every command whose output the golden file records."""
    argvs = [table_argv(f) for f in TABLE_FAMILIES]
    argvs += [w.setup_argv for w in WORKLOADS.values()]
    argvs.append(["verify", str(VERIFY_MAX_N)])
    return argvs + shape_pool()
