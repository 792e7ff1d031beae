"""Self-test of the benchmark: its references, checks and tracer.

    python3 -m pytest -q bench/test_bench.py

No timing is asserted.  Every workload runs a few operations through the
same loop and checks as `bench/run.py`, and a corrupted result of each must
be counted as failed.
"""

import dataclasses
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import oracles  # noqa: E402
import quon2d  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quon2d import gaussian  # noqa: E402


@pytest.mark.parametrize("rows,cols", [(1, 7), (2, 6), (3, 3), (4, 5), (5, 4)])
def test_transfer_matrix_matches_enumeration(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    horizontal = rng.uniform(-0.8, 0.8, (rows, cols - 1))
    vertical = rng.uniform(-0.8, 0.8, (rows - 1, cols))
    exact = oracles.ising_log_z_enumerated(rows, cols, horizontal, vertical)
    assert oracles.ising_log_z(rows, cols, horizontal, vertical) == pytest.approx(
        exact, rel=1e-12)


def _random_gates(rng, n, count):
    names = ["X", "Y", "Z", "S", "H", "RZ"] + (["XX", "CNOT", "CZ", "SWAP"] if n > 1 else [])
    gates = []
    for _ in range(count):
        name = names[int(rng.integers(0, len(names)))]
        angle = float(rng.uniform(-4, 4)) if name in ("RZ", "XX") else None
        if name in ("XX", "CNOT", "CZ", "SWAP"):
            a = int(rng.integers(0, n - 1))
            qubits = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
        else:
            qubits = (int(rng.integers(0, n)),)
        gates.append((name, qubits, angle))
    return gates


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_state_vector_matches_circuit_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        gates = _random_gates(rng, n, 12)
        u = oracles.circuit_unitary(n, gates)
        expected = quon2d.circuit_oracle_unitary(workloads.to_circuit(n, gates))
        assert np.max(np.abs(u - expected)) < 1e-12
        bits_in, bits_out = tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n))
        amp = oracles.circuit_amplitude(n, gates, bits_in, bits_out)
        assert abs(amp - expected[int("".join(map(str, bits_out)), 2),
                                   int("".join(map(str, bits_in)), 2)]) < 1e-12


def _corrupt(name, result):
    if name == "ising_z":
        return result * 1.001
    if name == "circuit_amp":
        return result + 1e-6
    if name == "dense_tensor":
        entries = result.entries.copy()
        entries[5] += 1e-6
        return quon2d.DenseTensor(result.rank, entries)
    simplified, parsed = result
    return simplified.scaled(1 + 1e-6), parsed.scaled(1 + 1e-6)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def few_ops(request):
    """Two operations of one workload, run once through the timed loop."""
    workload = workloads.WORKLOADS[request.param]
    specs = workloads.generate_round(workload, seed=7)[:2]
    prepared = [workload.prepare(spec) for spec in specs]
    records = harness.timed_rounds(workload, prepared, 0, harness.Speed(workload.probe))
    return workload, specs, records


def test_workload_ops_pass_their_checks(few_ops):
    workload, specs, records = few_ops
    errors = harness.check(workload, specs, records)
    assert harness.tally(errors, workloads.TOL) == (2, 0, 0)
    assert all(e <= workloads.TOL for e in errors)


def test_corrupted_result_counts_as_failed(few_ops):
    workload, specs, records = few_ops
    index, dt, result, fault, scale = records[1]
    bad = records[:1] + [(index, dt, _corrupt(workload.name, result), fault, scale)]
    errors = harness.check(workload, specs, bad)
    assert errors[1] > workloads.TOL
    assert harness.tally(errors, workloads.TOL) == (2, 1, 1)


def test_edit_round_trip_mismatch_counts_as_failed():
    workload = workloads.WORKLOADS["edit"]
    spec = workloads.generate_round(workload, seed=5)[0]
    simplified, parsed = workload.run(workload.prepare(spec))
    bad = [(0, 0.0, (simplified, parsed.scaled(-1)), None, 1.0)]
    assert harness.check(workload, [spec], bad) == [math.inf]


def test_raised_op_counts_as_failed_but_not_wrong():
    assert harness.tally([0.0, None, 1e-12], workloads.TOL) == (3, 1, 0)


def test_run_with_no_completed_op_prints_no_result(monkeypatch):
    def fail(_):
        raise ValueError("boom")

    workload = dataclasses.replace(workloads.WORKLOADS["edit"], run=fail)
    monkeypatch.setitem(workloads.WORKLOADS, "edit", workload)
    # the warm-up op raises too, and is not what stops the run
    with pytest.raises(SystemExit, match="no operation completed; first fault: ValueError"):
        harness.run("edit", seed=1, seconds=0, trace=False, started=time.perf_counter())


def test_tracer_counts_one_amplitude_and_restores_names():
    workload = workloads.WORKLOADS["circuit_amp"]
    inputs = workload.prepare(workloads.generate_round(workload, seed=3)[0])
    original = gaussian.pfaffian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(inputs)
    finally:
        tracer.uninstall()
    assert gaussian.pfaffian is original
    assert quon2d.diagram.MajoranaDiagram.__post_init__.__name__ == "__post_init__"
    values = tracing.layer_values(tracer, n_ops=1)
    # every declared layer metric but the overhead comes from the tracer
    assert set(harness.declared_units("per_layer")) - set(values) == {"trace.overhead_pct"}
    # 5 projections: 32 terms of one assembled core, one Pfaffian each
    assert values["quon.expand.terms"] == 32
    assert values["gaussian.pfaffian.calls"] == 32
    assert values["quon.terms_per_assembly"] == 32
    assert values["quon.encode.calls"] == 1
    assert all(v >= 0 for v in values.values())

