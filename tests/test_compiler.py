import cmath
import math

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate, circuit_oracle_unitary, gate_matrix
from quon2d.compiler import (
    DenseTensor,
    circuit_amplitude,
    compile_circuit,
    compile_generator_tensor,
    contract_legs,
    dense_gate_matrix,
    parity_tensor_quon,
    quon_to_dense_tensor,
)
from quon2d.errors import InvalidBit, NonAdjacentTwoQubitGate, TooManyLegs, UnknownGenerator
from quon2d.quon import BasisAssignment, all_projections, count_holes, encode_basis

from conftest import random_circuit

PI = math.pi

ALL_GATES = [
    Gate("X", (0,)), Gate("Y", (0,)), Gate("Z", (0,)),
    Gate("S", (0,)), Gate("SINV", (0,)), Gate("H", (0,)),
    Gate("RXQ+", (0,)), Gate("RXQ-", (0,)),
    Gate("RZ", (0,), 0.3), Gate("RZ", (0,), 4.1),
    Gate("XX", (0, 1), 0.77), Gate("XX", (1, 0), 5.5),
    Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0)),
    Gate("CZ", (0, 1)), Gate("SWAP", (0, 1)),
]


def test_oracle_gate_basics():
    assert np.allclose(gate_matrix(Gate("S", (0,))), np.diag([1, 1j]))
    hh = Circuit(1, (Gate("H", (0,)), Gate("H", (0,))))
    assert np.max(np.abs(circuit_oracle_unitary(hh) - np.eye(2))) <= 1e-15
    cnot = circuit_oracle_unitary(Circuit(2, (Gate("CNOT", (0, 1)),)))
    want = np.eye(4)[[0, 1, 3, 2]]
    assert np.allclose(cnot, want)


def test_nearest_neighbor_enforced():
    with pytest.raises(NonAdjacentTwoQubitGate):
        Circuit(3, (Gate("CNOT", (0, 2)),))


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: f"{g.name}{g.qubits}")
def test_gate_fidelity_including_global_phase(gate):
    n = max(gate.qubits) + 1
    c = Circuit(n, (gate,))
    got = dense_gate_matrix(compile_circuit(c))
    want = circuit_oracle_unitary(c)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_compiled_s_structure():
    q = compile_circuit(Circuit(1, (Gate("S", (0,)),)))
    from quon2d.diagram import BraidNeg

    assert q.core.elements == (BraidNeg(1),)
    assert q.core.amplitude == pytest.approx(cmath.exp(1j * PI / 8))


def test_compiled_h_structure():
    q = compile_circuit(Circuit(1, (Gate("H", (0,)),)))
    assert len(q.core.elements) == 3
    assert q.core.amplitude == pytest.approx(cmath.exp(1j * PI / 8))


def test_compiled_rz_structure():
    q = compile_circuit(Circuit(1, (Gate("RZ", (0,), 0.3),)))
    from quon2d.diagram import Scattering

    assert q.core.elements == (Scattering(1, 0.3),)
    t = dense_gate_matrix(q)
    assert np.allclose(t, np.diag([1, cmath.exp(0.3j)]))


def test_rz_quarter_dense():
    q = compile_circuit(Circuit(1, (Gate("RZ", (0,), PI / 2),)))
    assert np.max(np.abs(dense_gate_matrix(q) - np.diag([1, 1j]))) <= 1e-12


def test_swap_carries_two_holes():
    q = compile_circuit(Circuit(2, (Gate("SWAP", (0, 1)),)))
    assert count_holes(q) == 2


def test_functoriality(rng):
    for _ in range(3):
        c1 = random_circuit(2, 2, rng, two_qubit_rate=0.35)
        c2 = random_circuit(2, 2, rng, two_qubit_rate=0.35)
        both = Circuit(2, c1.gates + c2.gates)
        from quon2d.quon import quon_compose

        composed = quon_compose(compile_circuit(c1), compile_circuit(c2))
        direct = compile_circuit(both)
        a = dense_gate_matrix(composed)
        b = dense_gate_matrix(direct)
        assert np.max(np.abs(a - b)) <= 1e-9


def test_clifford_components_match_the_unitary():
    """Every basis component of random Clifford circuits with at most 7
    projections: their Gaussian cores are exactly singular (deferred pivots)
    and many components are exactly zero."""
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 10:
        c = random_circuit(int(rng.integers(2, 4)), 8, rng, two_qubit_rate=0.4,
                           names1=("H", "S", "X", "Y", "Z"), names2=("CZ", "CNOT", "SWAP"))
        q = compile_circuit(c)
        if len(all_projections(q)) > 7:
            continue
        checked += 1
        assert np.max(np.abs(dense_gate_matrix(q) - circuit_oracle_unitary(c))) <= 1e-9


def test_circuit_amplitude_examples(rng):
    ident = Circuit(2, ())
    assert circuit_amplitude(ident, (0, 0), (0, 0)) == pytest.approx(1.0)
    # <00| e^{i pi/4 XX} |11> = i/sqrt(2)
    c = Circuit(2, (Gate("XX", (0, 1), (-PI / 2) % (2 * PI)),))
    # XXRot(-pi/2) = e^{-i pi/4} e^{i pi/4 XX}; scale accordingly
    amp = circuit_amplitude(c, (1, 1), (0, 0))
    want = cmath.exp(-1j * PI / 4) * (1j * math.sin(PI / 4))
    assert amp == pytest.approx(want, abs=1e-10)


def test_random_circuit_amplitudes(rng):
    for _ in range(5):
        n = 3
        c = random_circuit(n, 4, rng, two_qubit_rate=0.35)
        u = circuit_oracle_unitary(c)
        bits_in = tuple(int(b) for b in rng.integers(0, 2, n))
        bits_out = tuple(int(b) for b in rng.integers(0, 2, n))
        row = int("".join(map(str, bits_out)), 2)
        col = int("".join(map(str, bits_in)), 2)
        assert circuit_amplitude(c, bits_in, bits_out) == pytest.approx(
            u[row, col], abs=1e-9
        )


def test_twelve_projection_amplitudes():
    """2 qubits, four H/CZ/H/CNOT layers with seeded one-qubit gates
    between them: 12 projections, 4096 terms per amplitude, more than one
    stack for the larger term sizes."""
    rng = np.random.default_rng(12)
    gates = []
    for _ in range(4):
        for gate in (Gate("H", (0,)), Gate("CZ", (0, 1)), Gate("H", (1,)), Gate("CNOT", (0, 1))):
            name = ("S", "X", "RZ", "RXQ+", "Y")[int(rng.integers(0, 5))]
            angle = float(rng.uniform(0, 2 * PI)) if name == "RZ" else None
            gates += [gate, Gate(name, (int(rng.integers(0, 2)),), angle)]
    c = Circuit(2, tuple(gates))
    assert len(all_projections(compile_circuit(c))) == 12
    u = circuit_oracle_unitary(c)
    for col, row in enumerate(rng.integers(0, 4, 4)):
        bits_in, bits_out = (col >> 1, col & 1), (int(row) >> 1, int(row) & 1)
        assert abs(circuit_amplitude(c, bits_in, bits_out) - u[row, col]) <= 1e-9


def test_basis_bits_must_be_0_or_1():
    c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    assert abs(circuit_amplitude(c, (True, 0.0), (1, np.int64(1))) + 0.5 ** 0.5) <= 1e-12
    for bits_in, bits_out in (((2, 0), (0, 0)), ((0.5, 0), (0, 0)), ((0, 0), (0, -1)),
                              (("1", 0), (0, 0)), ((0, 0), (1.5, 1))):
        with pytest.raises(InvalidBit, match="bits must be 0 or 1"):
            circuit_amplitude(c, bits_in, bits_out)
    q = compile_circuit(Circuit(1, (Gate("H", (0,)),)))
    for bits in (((2,), (0,)), ((0,), (-1,)), ((0.5,), (0,))):
        with pytest.raises(InvalidBit, match="bits must be 0 or 1"):
            encode_basis(q, BasisAssignment(bits))
    with pytest.raises(InvalidBit, match="bits must be a sequence"):
        BasisAssignment((0, 1))


# -- generating tensors -------------------------------------------------------


def test_ket0_generator():
    t = quon_to_dense_tensor(compile_generator_tensor("ket0")).entries
    assert np.allclose(t, [1.0, 0.0])


def test_parity_tensor_generator():
    for d in (1, 2, 3, 4):
        t = quon_to_dense_tensor(parity_tensor_quon(d)).entries
        want = np.array([1.0 if bin(i).count("1") % 2 == 0 else 0.0
                         for i in range(2 ** d)])
        assert np.max(np.abs(t - want)) <= 1e-12


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        compile_generator_tensor("frobnicate")


def test_generator_rz_dense():
    q = compile_generator_tensor("rz", PI / 2)
    assert np.max(np.abs(dense_gate_matrix(q) - np.diag([1, 1j]))) <= 1e-12


def test_compiled_swap_permutation():
    q = compile_circuit(Circuit(2, (Gate("SWAP", (0, 1)),)))
    got = dense_gate_matrix(q)
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.max(np.abs(got - want)) <= 1e-12


# -- leg operations -----------------------------------------------------------


def test_leg_permutation_is_reindexing():
    p3 = parity_tensor_quon(3)
    t = quon_to_dense_tensor(p3)
    rotated = t.permuted((1, 2, 0))
    assert np.array_equal(
        rotated.tensor(), np.transpose(t.tensor(), (1, 2, 0))
    )


def test_contract_identity_to_identity():
    # gluing an identity tensor's leg into a circuit leg leaves it unchanged
    c = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("S", (1,)))))
    t_full = quon_to_dense_tensor(c).tensor().reshape(2, 2, 2, 2)
    glued = contract_legs(c, 2, 3, "neighboring")
    got = quon_to_dense_tensor(glued).tensor()
    want = np.einsum("abxx->ab", t_full)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_contract_non_neighboring_adds_hole(rng):
    p4 = parity_tensor_quon(4)
    before = count_holes(p4)
    q = contract_legs(p4, 0, 2, "non_neighboring")
    assert count_holes(q) == before + 1
    t4 = quon_to_dense_tensor(p4).tensor()
    got = quon_to_dense_tensor(q).tensor()
    assert np.max(np.abs(got - np.einsum("axay->xy", t4))) <= 1e-9


def test_random_contraction_matches_dense_oracle(rng):
    for _ in range(5):
        c = random_circuit(2, 3, rng, two_qubit_rate=0.3)
        q = compile_circuit(c)
        t = quon_to_dense_tensor(q).tensor().reshape(2, 2, 2, 2)
        glued = contract_legs(q, 0, 1, "neighboring")  # the two top legs
        got = quon_to_dense_tensor(glued).tensor()
        want = np.einsum("xxab->ab", t)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_too_many_legs():
    with pytest.raises(TooManyLegs):
        quon_to_dense_tensor(parity_tensor_quon(13))


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor(2, np.zeros(3))
