#!/usr/bin/env python3
"""Benchmark of the semireg library and CLI: one closed-loop client, no threads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One client sends each command of a workload (`workloads.py`) to
`semireg.cli.main` in this process only after the previous one returned, and
repeats whole passes until S seconds are spent.  Every op is checked
(`oracle.py`).  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run (`spans.py`); README.md defines them.
Times are scaled to a reference machine speed (`pace.py`) and printed
unscaled as well.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.  Exit status 2, without a result, when the
checkout holds no program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import Oracle
from pace import REFERENCE_S, Pace
from percentiles import percentile, tail_percentile
from spans import NAME, NOTE, END, OP, PARENT, START, Tracer, layer_metrics, slowest_exact_call
from workloads import WORKLOADS, ops_in

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
SUBPROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "battery_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"busy_s": "s", "self_s": "s", "overhead_s": "s", "max_call_ms": "ms"}

# Imports the program and runs one call in a fresh interpreter; prints the
# elapsed seconds and exit status, then the call's stdout.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import semireg.cli
import io
real, sys.stdout = sys.stdout, io.StringIO()
try:
    rc = semireg.cli.main(sys.argv[1:])
finally:
    text, sys.stdout = sys.stdout.getvalue(), real
elapsed = time.perf_counter() - t0
sys.stdout.write(f"{elapsed!r} {rc!r}\\n{text}")
"""


def load_program():
    """Import semireg from this checkout's src/, or None when it is absent."""
    if not (SRC / "semireg" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import semireg.cli
    if Path(semireg.cli.__file__).resolve().parent != SRC / "semireg":
        return None
    return semireg.cli


def call(cli, argv: list[str], clock=time.perf_counter) -> tuple[float, float, float, object, str]:
    """Run one command in-process: (start, end, seconds by `clock`, exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start, begin = time.perf_counter(), clock()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - begin
    return start, time.perf_counter(), elapsed, rc, buf.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a Python subprocess in the checkout: (start, end, process)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return start, time.perf_counter(), proc


def machine_note(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit_hash(),
        "seed": seed,
    }


def commit_hash() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git work tree)"


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the pace samples."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Ledger:
    """Counts ops attempted and failed, keeping the first few reasons."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: list[str], rc, text: str) -> None:
        reason = self.oracle.check(argv, rc, text)
        ops = ops_in(argv)
        self.attempted += ops
        if reason is not None:
            self.failed += ops
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(argv)[:80]}: {reason}")


# A timing is (start, end, seconds); seconds is what the metric counts, which
# for a set-up child is the time it measured itself.


def run_pass(cli, argvs, ledger, pace, tracer=None) -> list[tuple[float, float, float]]:
    """One pass over the argv lists: the timing of each command."""
    timings = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        start, end, elapsed, rc, text = call(cli, argv, pace.clock)
        ledger.record(argv, rc, text)
        timings.append((start, end, elapsed))
    return timings


def measure_setup(workload, ledger) -> list[tuple[float, float, float]]:
    timings = []
    for i in range(SETUP_RUNS + 1):  # the first run also writes bytecode caches
        start, end, proc = run_child(["-c", _SETUP_CHILD, *workload.setup_argv])
        head, _, text = proc.stdout.partition("\n")
        try:
            elapsed_text, rc_text = head.split(" ", 1)
            elapsed, rc = float(elapsed_text), int(rc_text)
        except ValueError:
            elapsed, rc = None, f"child exit {proc.returncode}: {proc.stderr[-200:]}"
        ledger.record(workload.setup_argv, rc, text)
        if i and elapsed is not None:
            timings.append((start, end, elapsed))
    return timings


def measure_cli(workload, seed, ledger) -> list[list[tuple[float, float, float]]]:
    """Timings of the subprocess runs, grouped into the samples of cli_s."""
    groups = []
    for _ in range(max(1, workload.cli_sweeps)):
        sweep = []
        for argv in workload.cli_runs(seed):
            start, end, proc = run_child(["-m", "semireg.cli", *argv])
            ledger.record(argv, proc.returncode, proc.stdout)
            sweep.append((start, end, end - start))
        groups += [sweep] if workload.cli_sweeps else [[timing] for timing in sweep]
    return groups


def end_to_end(cli, workload, seed, seconds, ledger) -> tuple[dict, list[str]]:
    pace = Pace()
    argvs = workload.passes(seed)
    passes = []
    with pace.running():
        setup = measure_setup(workload, ledger)
        *_, rc, text = call(cli, workload.setup_argv)  # warm-up, checked but untimed
        ledger.record(workload.setup_argv, rc, text)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(cli, argvs, ledger, pace))
        cli_groups = measure_cli(workload, seed, ledger)

    ops = sum(map(ops_in, argvs)) * len(passes)
    n_ops = len(argvs) * len(passes)
    tail = tail_percentile(n_ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(seconds_of) -> dict:
        latencies = [s for p in passes for s in seconds_of(p)]
        return {
            "setup_s": statistics.median(seconds_of(setup)) if setup else float("nan"),
            "ops_per_s": ops / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            # below 20 samples the tail rule falls back to the median itself
            "op_p90_ms": (percentile(latencies, tail) if tail > 50
                          else statistics.median(latencies)) * 1e3,
            "battery_s": statistics.median(sum(seconds_of(p)) for p in passes),
            "cli_s": statistics.median(sum(seconds_of(g)) for g in cli_groups),
            "peak_rss_mb": peak_mb,
        }

    metrics = figures(pace.scaled)
    raw = figures(lambda timings: [s for _, _, s in timings])
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters, "
        f"first call `{' '.join(workload.setup_argv)}`",
        f"ops: {ops} in {len(passes)} passes of {len(argvs)} commands; "
        f"op_p90_ms is p{tail} of {n_ops} command latencies",
        f"cli_s: median of {len(cli_groups)} samples",
        f"pace: median loop {pace.median() * 1e3:.4f} ms over {len(pace.samples)} samples; "
        f"times are scaled to {REFERENCE_S * 1e3:g} ms",
        "unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
    ]
    return metrics, notes


def per_layer(cli, workload, seed, seconds, ledger, note) -> tuple[dict, list[str]]:
    pace = Pace()
    argvs = workload.passes(seed)
    tracer = Tracer(clock=pace.clock)  # spans leave out the time spent sampling
    plain, traced, sums = [], [], {}
    slowest, last = None, []
    with pace.running():
        *_, rc, text = call(cli, workload.setup_argv)  # warm-up, checked but untimed
        ledger.record(workload.setup_argv, rc, text)
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(run_pass(cli, argvs, ledger, pace))
            tracer.install()
            try:
                traced.append(run_pass(cli, argvs, ledger, pace, tracer=tracer))
            finally:
                tracer.uninstall()
            last = tracer.take()
            for name, value in layer_metrics(last).items():
                sums[name] = sums.get(name, 0.0) + value
            pass_slowest = slowest_exact_call(last)
            if pass_slowest and (slowest is None or pass_slowest[0] > slowest[0]):
                slowest = pass_slowest

    metrics = {name: total / len(traced) for name, total in sums.items()}
    metrics["exact.max_call_ms"] = slowest[0] * 1e3 if slowest else 0.0
    metrics["trace.overhead_s"] = (statistics.median(sum(pace.scaled(p)) for p in traced)
                                   - statistics.median(sum(pace.scaled(p)) for p in plain))
    notes = [f"passes: {len(plain)} untraced, {len(traced)} traced; "
             f"values are per pass of {len(argvs)} commands; busy times are unscaled"]
    if slowest:
        notes.append(f"exact.max_call_ms: {slowest[1]} m={slowest[2]} n={slowest[3]}")
    if metrics["bounds.outcomes"]:
        notes.append(f"bounds.near_boundary: {metrics['bounds.near_boundary']:g} of "
                     f"{metrics['bounds.outcomes']:g} bound outcomes per pass")
    notes.append(f"spans: {write_spans(workload.name, seed, last, note)}")
    return metrics, notes


def write_spans(workload: str, seed: int, spans: list[list], note: dict) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"machine": note, "workload": workload}) + "\n")
        for index, span in enumerate(spans):
            f.write(json.dumps({"id": index, "parent": span[PARENT], "op": span[OP],
                                "name": span[NAME], "start": span[START],
                                "end": span[END], "note": span[NOTE]}) + "\n")
    return str(path.relative_to(ROOT))


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    if cli is None:
        print(f"error: no semireg package under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    ledger = Ledger(Oracle(ROOT, golden))
    workload = WORKLOADS[args.workload]
    note = machine_note(args.seed)
    pin_to_one_cpu()
    print(f"# semireg benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(note)}")

    if args.trace:
        values, notes = per_layer(cli, workload, args.seed, args.seconds, ledger, note)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values, notes = end_to_end(cli, workload, args.seed, args.seconds, ledger)
        units = END_TO_END
    for line in notes:
        print(f"# {line}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} failed of {ledger.attempted} ops attempted)")
    for reason in ledger.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
