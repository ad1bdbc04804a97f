"""Span, self-time and per-layer arithmetic of the traced run.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from spans import NOTE, PARENT, Tracer, layer_metrics, self_times, slowest_exact_call

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, 0, note]


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("bounds.ls_lower", 1.0, 4.0, parent=0),
        span("intervals.iroot", 2.0, 3.0, parent=1),
        span("bounds.l_upper", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        span("verify.check_sandwich", 0.0, 10.0),
        span("bounds.kz_lower", 2.0, 6.0, parent=0),
        span("bounds.ls_lower", 4.0, 8.0, parent=0),
        span("bounds.l_upper", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_notes_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("intervals.iroot", lambda x: x)
    outer = tracer.wrap("bounds.kz_lower", lambda x: inner(x) + 1, note=lambda a, k, r: r)
    tracer.op = 7
    assert outer(41) == 42
    spans = tracer.take()
    assert [(s[0], s[1], s[2], s[PARENT], s[4], s[NOTE]) for s in spans] == [
        ("bounds.kz_lower", 0.0, 3.0, -1, 7, 42),
        ("intervals.iroot", 1.0, 2.0, 0, 7, None),
    ]
    assert tracer.take() == []


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("bad shape")

    with pytest.raises(ValueError):
        tracer.wrap("exact.degree_of_regularity_exact", boom)()
    (only,) = tracer.take()
    assert only[2] >= only[1] and only[PARENT] == -1


def test_layer_calls_count_entries_from_outside_the_layer():
    spans = [
        span("bounds.ls_lower", 0.0, 5.0, note=(False, False)),
        span("intervals.sqrt_enclosure", 1.0, 3.0, parent=0),
        span("intervals.nth_root_enclosure", 1.5, 2.5, parent=1),
        span("intervals.iroot", 1.6, 2.0, parent=2),
        span("intervals.iroot", 3.5, 4.0, parent=0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["intervals.calls"] == 2
    assert metrics["intervals.busy_s"] == pytest.approx(2.5)
    assert metrics["bounds.ls_lower.busy_s"] == pytest.approx(2.5)
    assert metrics["bounds.outcomes"] == 1


def test_tracer_wraps_imported_names_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import semireg.cli
    import semireg.exact

    original = semireg.exact.degree_of_regularity_exact
    tracer = Tracer()
    tracer.install()
    try:
        assert semireg.cli.degree_of_regularity_exact is not original
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert semireg.cli.main(["exact", "24", "12", "--coefficients"]) == 0
    finally:
        tracer.uninstall()
    assert semireg.cli.degree_of_regularity_exact is original
    assert semireg.exact.degree_of_regularity_exact is original
    assert out.getvalue().startswith("d_reg = 4\n")

    spans = tracer.take()
    names = [s[0] for s in spans]
    assert names == ["cli.main", "cli.build_parser",
                     "exact.degree_of_regularity_exact", "exact.hilbert_truncation"]
    assert [s[PARENT] for s in spans] == [-1, 0, 0, 0]
    metrics = layer_metrics(spans)
    assert metrics["exact.recurrence_steps"] == 4 + 4  # d_reg 4, prefix of length 4
    assert metrics["exact.degree_of_regularity_exact.calls"] == 1
    assert slowest_exact_call(spans)[2:] == (24, 12)


def test_metric_names_and_units_match_benchmark_json():
    from run import END_TO_END, per_layer_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layer_names = [*layer_metrics([]), "exact.max_call_ms", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: per_layer_unit(name) for name in layer_names}
