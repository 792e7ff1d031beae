"""The benchmark's measuring loop: set-up, timed rounds, checks, tallies.

`bench/run.py` is the command; this module holds what it does, so that the
self-test can drive the same loop and checks on a few operations.

Times are reported at a reference machine speed.  The host this benchmark
was built on changes speed in steps lasting tens of seconds (a fixed
interpreter loop ran at 1x, 1.4x and 2x its fastest time within three
minutes), which no number of operations per run averages out.  So every
op's wall time is multiplied by REFERENCE_PROBE_S over the recent time of
a fixed calibration probe of the workload's kind of work, which runs no
quon2d code (see probe_seconds and Speed).  So
`setup_s`, `op_p50_ms` and `ops_per_s` are times at the reference speed,
not the wall times of this run; the raw wall times stay in the run record
and the raw op p50 is printed to standard error.

Metric names and units are those of BENCHMARK.json; this module only
computes the values.
"""

import ast
import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracing
import workloads

SETUP_REPEATS = 5
# each probe's time on the development machine in a fast phase
REFERENCE_PROBE_S = {"numeric": 0.0065, "objects": 0.017}
PROBE_EVERY_S = 1.0
PROBE_WINDOW = 5
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((120, 120)) * (1 + 0.5j)
_PROBE_TREE = ast.parse("\n".join(
    f"def f{i}(a, b=({i}, 'k')):\n"
    f"    return [x * a + b[0] for x in range({i}) if x % 3] or {{'k': (a, b)}}"
    for i in range(60)))

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json lists under `kind`
    ("end_to_end" or "per_layer"), in its order."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def probe_seconds(kind: str) -> float:
    """Time of a fixed mix of work that runs no quon2d code.  The host slows
    kinds of work by different factors, so the probe is of the workload's
    kind: "numeric" is an integer loop with numpy rank-2 updates, like the
    Pfaffian-bound workloads; "objects" is, in about equal thirds, a shorter
    such loop, unparsing a syntax tree (many small objects and calls, like
    the diagram code) and Fraction arithmetic.  The garbage collector is
    off meanwhile: its passes would time the program's heap, not the host."""
    gc.disable()
    t0 = time.perf_counter()
    total = 0
    for i in range(40000 if kind == "numeric" else 20000):
        total += i * i
    a = _PROBE_MATRIX.copy()
    for k in range(0, 40, 2):
        tau = a[k, k + 2:] / (abs(a[k, k + 1]) + 3.0)
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    if kind == "objects":
        ast.unparse(_PROBE_TREE)
        frac = Fraction(0)
        for i in range(1, 800):
            frac += Fraction(1, i) * Fraction(i + 1, i + 2)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Speed:
    """The machine's current speed relative to the reference for one kind of
    probe: the probe is run again whenever the last run is PROBE_EVERY_S
    old, and the median of the last PROBE_WINDOW runs smooths the probe's
    own noise."""

    def __init__(self, kind: str):
        self.kind = kind
        # a full window up front, so that the first scales are medians too
        self.probes = [probe_seconds(kind) for _ in range(PROBE_WINDOW)]
        self._at = time.perf_counter()

    def scale(self) -> float:
        now = time.perf_counter()
        if now - self._at >= PROBE_EVERY_S:
            self.probes.append(probe_seconds(self.kind))
            self._at = time.perf_counter()
        return REFERENCE_PROBE_S[self.kind] / statistics.median(self.probes[-PROBE_WINDOW:])

    def run_scale(self) -> float:
        """The scale over every probe so far: steadier than the window for
        the few seconds of set-up, which have few probes of their own."""
        return REFERENCE_PROBE_S[self.kind] / statistics.median(self.probes)


def run_op(workload, inputs):
    """(result, None), or (None, fault) when the op raises."""
    try:
        return workload.run(inputs), None
    except Exception as exc:  # a failed op is counted, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def timed_rounds(workload, prepared, seconds: float, speed: Speed):
    """Run whole rounds until `seconds` of wall time have passed (at least
    one round).  Each record is (op index, wall seconds, result, fault,
    speed scale)."""
    records = []
    start = time.perf_counter()
    while True:
        for index, inputs in enumerate(prepared):
            scale = speed.scale()
            t0 = time.perf_counter()
            result, fault = run_op(workload, inputs)
            records.append((index, time.perf_counter() - t0, result, fault, scale))
        if time.perf_counter() - start >= seconds:
            return records


def check(workload, specs, records):
    """Per-op error against the references; a raised op has error None."""
    refs = [workload.reference(spec) for spec in specs]
    errors = []
    for index, _, result, fault, _ in records:
        if fault is not None:
            errors.append(None)
            continue
        try:
            errors.append(workload.error(result, refs[index]))
        except Exception:  # a result the check cannot read is wrong
            errors.append(math.inf)
    return errors


def tally(errors, tol):
    """(attempted, failed, wrong): failed counts raised and wrong ops."""
    raised = sum(1 for e in errors if e is None)
    wrong = sum(1 for e in errors if e is not None and not e <= tol)
    return len(errors), raised + wrong, wrong


def p50_ms(records, scaled: bool = True) -> float:
    """Median time of the ops that completed, at the reference speed unless
    `scaled` is false.  The caller makes sure some op completed."""
    return 1e3 * statistics.median(
        dt * (scale if scaled else 1.0) for _, dt, _, fault, scale in records if fault is None)


def no_result(records) -> None:
    """Exit without a result when no op completed: there is no time to report."""
    if all(r[3] is not None for r in records):
        sys.exit(f"bench: no operation completed; first fault: {records[0][3]}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, started: float):
    """One run: set-up (`started` is when the process began), timed rounds,
    then checks.  Returns (the printed summary, a fuller record)."""
    workload = workloads.WORKLOADS[workload_name]
    import_s = time.perf_counter() - started
    speed = Speed(workload.probe)

    specs = workloads.generate_round(workload, seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.scale()  # keeps probing through set-up
        t0 = time.perf_counter()
        prepared = [workload.prepare(spec) for spec in specs]
        # warm-up, untimed; a fault here shows again in the timed rounds
        warmup_fault = run_op(workload, prepared[0])[1]
        setup_times.append(time.perf_counter() - t0)

    if not trace:
        start = time.perf_counter()
        records = timed_rounds(workload, prepared, 0, speed)
        # every op has now run; later rounds repeat them and only add results
        # kept for the checks, which are the benchmark's memory, not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        left = seconds - (time.perf_counter() - start)
        if left > 0:
            records += timed_rounds(workload, prepared, left, speed)
        no_result(records)
        completed = [r for r in records if r[3] is None]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times)) * speed.run_scale(),
            # completed ops over the loop's wall time less the speed probes
            # (the summed op times), at the reference speed
            "ops_per_s": len(completed) / sum(dt * scale for _, dt, _, _, scale in records),
            "op_p50_ms": p50_ms(records),
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_units("end_to_end")
    else:
        # untraced and traced rounds alternate, so drift in the machine's
        # speed does not show up as tracing overhead
        plain, records = [], []
        tracer = tracing.Tracer()
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            plain += timed_rounds(workload, prepared, 0, speed)
            tracer.install()
            try:
                records += timed_rounds(workload, prepared, 0, speed)
            finally:
                tracer.uninstall()
        no_result(plain)
        no_result(records)
        metrics = tracing.layer_values(tracer, len(records))
        metrics["trace.overhead_pct"] = 100 * (p50_ms(records) / p50_ms(plain) - 1)
        traced_ms = 1e3 * statistics.fmean(r[1] for r in records)
        records = plain + records
        units = declared_units("per_layer")

    errors = check(workload, specs, records)
    attempted, failed, wrong = tally(errors, workloads.TOL)
    detail = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "import_s": import_s, "setup_round_s": setup_times, "warmup_fault": warmup_fault,
        "raw_op_p50_ms": p50_ms(records, scaled=False),
        "probe": speed.kind, "probe_s": speed.probes,
        # mean wall time of a traced op, the base of each layer's share of an op
        "traced_op_ms_mean": traced_ms if trace else None,
        "op_ms": [1e3 * r[1] for r in records],
        "op_scale": [r[4] for r in records],
        "op_index": [r[0] for r in records],
        "errors": [e if e is None or math.isfinite(e) else "inf" for e in errors],
        "faults": sorted({r[3] for r in records if r[3] is not None}),
    }
    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return summary, detail
