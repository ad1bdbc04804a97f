"""Correctness of every op: golden digests plus checks independent of the program.

An op fails when its exit code is not 0, when its stdout differs by a single
byte from the output recorded in `golden.json`, or when an independent check
rejects it:

- `table` rows must equal the published reference values, read from the
  repository's `tests/reference_tables.py`;
- each report's d_reg (and `--coefficients` prefix) must equal a binomial
  convolution that does not use the three-term recurrence, and each bound
  report's sandwich must hold against that value and read `OK`;
- `verify` must pass every suite, and `verify 60` must check exactly the
  per-suite case counts recorded in `golden.json`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from pathlib import Path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_of(argv: list[str]) -> str:
    return " ".join(argv)


def prefix_by_convolution(m: int, n: int) -> list[int]:
    """Positive prefix of (1-z)^(m-n) (1+z)^m, by a binomial convolution.

    Uses (1-z)^t (1+z)^m = (1-z^2)^t (1+z)^n with t = m - n, so
    c_k = sum_j (-1)^j C(t, j) C(n, k - 2j); no recurrence between
    coefficients is involved.
    """
    t = m - n
    row_n, row_t = [1], [1]
    out = []
    k = 0
    while True:
        while len(row_n) <= min(k, n):
            i = len(row_n) - 1
            row_n.append(row_n[i] * (n - i) // (i + 1))
        j_max = min(t, k // 2)
        while len(row_t) <= j_max:
            i = len(row_t) - 1
            row_t.append(row_t[i] * (t - i) // (i + 1))
        c = 0
        for j in range(max(0, (k - n + 1) // 2), j_max + 1):
            term = row_t[j] * row_n[k - 2 * j]
            c += -term if j & 1 else term
        if c <= 0:
            return out
        out.append(c)
        k += 1


_BOUND_LINE = re.compile(r"^(KZ lower|LS lower|LS upper|L  upper) (>=|<=) (\d+)")
SUITE_LINE = re.compile(r"^(\w+): (PASS|FAIL) \((\d+) cases\)")


class Oracle:
    """Judges each op's output; the verdict for an output is computed once."""

    def __init__(self, root: Path, golden: dict):
        self.root = root
        self.outputs = golden["outputs"]
        self.verify_checked = golden["verify_checked"]
        self._verdicts: dict[str, str | None] = {}
        self._reference = None

    def check(self, argv: list[str], rc, text: str) -> str | None:
        """None when the op is correct, else the reason it failed."""
        if rc != 0:
            return f"exit status {rc!r}"
        key = key_of(argv)
        expected = self.outputs.get(key)
        if expected is None:
            return "no golden output recorded"
        if digest(text) != expected:
            return "stdout differs from the golden output"
        if key not in self._verdicts:  # same bytes as before, same verdict
            self._verdicts[key] = self.independent(argv, text)
        return self._verdicts[key]

    def independent(self, argv: list[str], text: str) -> str | None:
        command = argv[0]
        if command == "table":
            return self._check_table(argv, text)
        if command in ("bounds", "exact"):
            return self._check_report(argv, text)
        if command == "verify":
            return self._check_verify(argv, text)
        return f"no independent check for {command!r}"

    def _reference_tables(self):
        if self._reference is None:
            path = self.root / "tests" / "reference_tables.py"
            spec = importlib.util.spec_from_file_location("_reference_tables", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._reference = module
        return self._reference

    def _check_table(self, argv: list[str], text: str) -> str | None:
        ref = self._reference_tables()
        family = argv[argv.index("--family") + 1]
        entry = next((e for e in ref.FAMILIES.values() if e["family_arg"] == family), None)
        if entry is None:
            return f"no reference rows for family {family}"
        expected = {row[0]: row for row in entry["rows"]}
        rows = json.loads(text)["rows"]
        wanted = [int(x) for x in argv[argv.index("--n-values") + 1].split(",")]
        if [r["n"] for r in rows] != wanted:
            return "table rows are not the requested n values"
        reasons = {"ls_upper": ref.LS_UPPER_NA_REASON, "l_upper": ref.L_UPPER_NA_REASON}
        for row in rows:
            n, cells = row["n"], row["cells"]
            _, dreg, kz, lsl, lsu, lu = expected[n]
            if row["m"] != entry["m_of_n"](n) or cells["dreg"] != dreg:
                return f"{family} n={n}: m or d_reg differs from the reference"
            for column, value in (("kz_lower", kz), ("ls_lower", lsl),
                                  ("ls_upper", lsu), ("l_upper", lu)):
                cell = cells[column]
                if cell["value"] != value:
                    return f"{family} n={n}: {column} {cell['value']} != {value}"
                if value is None and cell["reason"] != reasons[column]:
                    return f"{family} n={n}: {column} reason {cell['reason']}"
        return None

    def _check_report(self, argv: list[str], text: str) -> str | None:
        m, n = int(argv[1]), int(argv[2])
        prefix = prefix_by_convolution(m, n)
        dreg = len(prefix)
        lines = text.splitlines()
        if argv[0] == "exact":
            if lines[0] != f"d_reg = {dreg}":
                return f"({m}, {n}): {lines[0]!r}, convolution gives {dreg}"
            if "--coefficients" in argv:
                _, _, values = lines[1].partition(": ")
                if values != " ".join(map(str, prefix)):
                    return f"({m}, {n}): coefficient prefix differs from the convolution"
            return None
        if lines[1] != f"d_reg exact = {dreg}":
            return f"({m}, {n}): {lines[1]!r}, convolution gives {dreg}"
        for line in lines[2:6]:
            match = _BOUND_LINE.match(line)
            if match is None:
                if "not applicable" not in line:
                    return f"({m}, {n}): unreadable bound line {line!r}"
                continue
            value = int(match.group(3))
            if (value > dreg) if match.group(2) == ">=" else (value < dreg):
                return f"({m}, {n}): {match.group(1)} {value} against d_reg {dreg}"
        if not lines[6].endswith(": OK"):
            return f"({m}, {n}): {lines[6]!r}"
        return None

    def _check_verify(self, argv: list[str], text: str) -> str | None:
        lines = text.splitlines()
        suites = [SUITE_LINE.match(line) for line in lines[:-1]]
        if lines[-1] != f"{len(suites)}/{len(suites)} suites passed" or len(suites) != 6:
            return f"verify {argv[1]}: {lines[-1]!r}"
        counts = {}
        for match in suites:
            if match is None or match.group(2) != "PASS" or int(match.group(3)) < 1:
                return f"verify {argv[1]}: a suite failed or checked nothing"
            counts[match.group(1)] = int(match.group(3))
        recorded = self.verify_checked.get(argv[1])
        if recorded is not None and counts != recorded:
            return f"verify {argv[1]}: checked {counts}, recorded {recorded}"
        return None
