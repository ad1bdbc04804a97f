"""Spans recorded from outside the program, and the per-layer sums built on them.

A traced run replaces public functions of `semireg` with timing wrappers, on
the function's home module and on every `semireg` module that imported the
name (so `semireg.verify.dreg_via_roots` is wrapped as well as
`semireg.roots.dreg_via_roots`).  Each call records one span in memory:
name, start, end, parent span and the op it belongs to.  Nothing under
`src/` knows about this; uninstalling restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Iterable

# Span record layout; lists, not objects, so a wrapper costs one append.
NAME, START, END, PARENT, OP, NOTE = range(6)

# The six verify suites, by function name.
SUITES = {
    "check_interlacing": "interlacing",
    "check_gf_identity": "gf_identity",
    "check_orthogonality": "orthogonality",
    "check_three_way_agreement": "three_way_agreement",
    "check_eigenvalue_root_duality": "eigenvalue_root_duality",
    "check_sandwich": "sandwich",
}


def _shape_steps(args, kwargs, result):
    """(m, n, recurrence steps) of an exact call: d_reg or the prefix length."""
    shape = args[0] if args else kwargs["shape"]
    steps = result if isinstance(result, int) else len(result)
    return (shape.m, shape.n, steps)


def _bound_flags(args, kwargs, result):
    return (result.certification.near_boundary, not result.applicable)


def _checked(args, kwargs, result):
    return result.checked


# (module, function, note taken from the call) for every traced function.
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("exact", "degree_of_regularity_exact", _shape_steps),
    ("exact", "hilbert_truncation", _shape_steps),
    ("krawtchouk", "gf_identity_check", None),
    ("krawtchouk", "integer_values", None),
    ("krawtchouk", "eval_integer", None),
    ("intervals", "iroot", None),
    ("intervals", "sqrt_enclosure", None),
    ("intervals", "nth_root_enclosure", None),
    ("roots", "dreg_via_roots", None),
    ("roots", "dreg_via_eigenvalues", None),
    ("roots", "largest_eigenvalue", None),
    ("bounds", "kz_lower", _bound_flags),
    ("bounds", "ls_lower", _bound_flags),
    ("bounds", "ls_upper", _bound_flags),
    ("bounds", "l_upper", _bound_flags),
    ("bounds", "ls_lower_asymptotic", None),
    *(("verify", name, _checked) for name in SUITES),
    ("cli", "main", None),
    ("cli", "build_parser", None),
    ("cli", "compute_row", None),
    ("cli", "render_table", None),
)


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a semireg module holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "semireg" or key.startswith("semireg."))]
        for module_name, func_name, note in TRACED:
            home = sys.modules[f"semireg.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and empty the list in place.

        The wrappers hold this very list, so it is cleared, not rebound.
        """
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one pass of spans (names as in BENCHMARK.json)."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    entries: dict[str, int] = {}  # calls into a layer from outside it
    layer_busy: dict[str, float] = {}
    steps = near = outcomes = not_applicable = 0
    checked: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        name = span[NAME]
        layer = layer_of(name)
        busy[name] = busy.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        layer_busy[layer] = layer_busy.get(layer, 0.0) + self_s
        parent = span[PARENT]
        if parent < 0 or layer_of(spans[parent][NAME]) != layer:
            entries[layer] = entries.get(layer, 0) + 1
        note = span[NOTE]
        if note is None:
            continue
        if layer == "exact":
            steps += note[2]
        elif layer == "bounds":
            outcomes += 1
            near += note[0]
            not_applicable += note[1]
        elif layer == "verify":
            checked[SUITES[name.split(".", 1)[1]]] = note

    out: dict[str, float] = {}
    for func in ("degree_of_regularity_exact", "hilbert_truncation"):
        out[f"exact.{func}.busy_s"] = busy.get(f"exact.{func}", 0.0)
    out["exact.degree_of_regularity_exact.calls"] = calls.get("exact.degree_of_regularity_exact", 0)
    out["exact.recurrence_steps"] = steps
    for func in ("kz_lower", "ls_lower", "ls_upper", "l_upper", "ls_lower_asymptotic"):
        out[f"bounds.{func}.busy_s"] = busy.get(f"bounds.{func}", 0.0)
    out["bounds.near_boundary"] = near
    out["bounds.outcomes"] = outcomes
    out["bounds.not_applicable"] = not_applicable
    out["intervals.busy_s"] = layer_busy.get("intervals", 0.0)
    out["intervals.calls"] = entries.get("intervals", 0)
    for func in ("dreg_via_roots", "dreg_via_eigenvalues", "largest_eigenvalue"):
        out[f"roots.{func}.busy_s"] = busy.get(f"roots.{func}", 0.0)
        out[f"roots.{func}.calls"] = calls.get(f"roots.{func}", 0)
    out["krawtchouk.busy_s"] = layer_busy.get("krawtchouk", 0.0)
    out["krawtchouk.calls"] = entries.get("krawtchouk", 0)
    for func, suite in SUITES.items():
        out[f"verify.{suite}.busy_s"] = busy.get(f"verify.{func}", 0.0)
        out[f"verify.{suite}.checked"] = checked.get(suite, 0)
    for func in ("build_parser", "compute_row", "render_table"):
        out[f"cli.{func}.busy_s"] = busy.get(f"cli.{func}", 0.0)
    out["cli.main.self_s"] = busy.get("cli.main", 0.0)
    return out


def slowest_exact_call(spans: Iterable[list]) -> tuple[float, str, int, int] | None:
    """(duration, function, m, n) of the longest exact-layer span."""
    best = None
    for span in spans:
        if span[NOTE] is not None and layer_of(span[NAME]) == "exact":
            duration = span[END] - span[START]
            if best is None or duration > best[0]:
                best = (duration, span[NAME], span[NOTE][0], span[NOTE][1])
    return best
