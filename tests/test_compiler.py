import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from quon2d.circuits import GATES, Circuit, Gate, circuit_oracle_unitary, gate_matrix
from quon2d.classify import classify
from quon2d.compiler import (
    DenseTensor,
    caps_from_pairing,
    circuit_amplitude,
    compile_circuit,
    compile_generator_tensor,
    contract_legs,
    parity_tensor_quon,
    quon_to_dense_tensor,
)
from quon2d.errors import (
    InvalidBit,
    InvariantViolation,
    NonAdjacentTwoQubitGate,
    OracleTooLarge,
    TooManyLegs,
    UnknownGenerator,
    UnknownMode,
)
from quon2d.factory import FactoryLedger, Insert, insert_move
from quon2d.diagram import MajoranaDiagram
from quon2d.quon import (
    TOP,
    BasisAssignment,
    OpenInterval,
    all_projections,
    encode_basis,
    evaluate_closed_quon,
)

from conftest import as_matrix, dense_gate_matrix, permuted, quon_compose, random_circuit

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


def test_all_gates_cover_the_gate_table():
    """A gate added to GATES without a block or a matrix fails the fidelity
    test below."""
    assert {g.name for g in ALL_GATES} == set(GATES)


@pytest.mark.parametrize("make, match", [
    (lambda: Gate("RZ", (0,), float("nan")), "RZ needs a finite angle"),
    (lambda: Gate("XX", (0, 1), float("inf")), "XX needs a finite angle"),
    (lambda: Gate("RZ", (0,)), "RZ needs a finite angle"),
    (lambda: Gate("RZ", (0,), "0.3"), "RZ needs a finite angle"),
    (lambda: Gate("X", (0,), 0.3), "X takes no angle"),
    (lambda: Gate("X", (0.5,)), "qubits must be integers"),
    (lambda: Gate("CZ", (0, 1.0)), "qubits must be integers"),
    (lambda: Gate("FROB", (0,)), "unknown gate 'FROB'"),
    (lambda: Gate("H", (0, 1)), r"H takes 1 qubit\(s\)"),
    (lambda: Gate("SWAP", (0,)), r"SWAP takes 2 qubit\(s\)"),
    (lambda: Circuit(2, (Gate("X", (2,)),)), "outside 0..1"),
])
def test_bad_gates_raise_invariant_violation(make, match):
    with pytest.raises(InvariantViolation, match=match):
        make()


@pytest.mark.parametrize("n_qubits", [1.5, -1, True, "2", None])
def test_bad_qubit_counts_raise_invariant_violation(n_qubits):
    with pytest.raises(InvariantViolation, match="n_qubits must be a non-negative integer"):
        Circuit(n_qubits, ())


def test_qubit_count_becomes_an_int():
    c = Circuit(np.int64(2), (Gate("CZ", (0, 1)),))
    assert type(c.n_qubits) is int and c == Circuit(2, (Gate("CZ", (0, 1)),))
    assert compile_circuit(Circuit(0, ())).core.elements == ()


def test_gate_qubits_become_ints_and_angles_reduce():
    g = Gate("xx", (np.int64(1), np.int64(0)), -PI / 2)
    assert g == Gate("XX", (1, 0), 1.5 * PI)
    assert all(type(q) is int for q in g.qubits)


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


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: f"{g.name}{g.qubits}")
def test_gates_at_clifford_angles_compile_to_clifford_form(gate):
    """Every gate of the table is Clifford-form at angles k*pi/2; at a generic
    angle RZ and XX are not."""
    n = max(gate.qubits) + 1
    if gate.angle is not None:
        generic = classify(compile_circuit(Circuit(n, (gate,))))
        assert not generic.clifford_form and generic.generic_scattering_count == 1
        gate = replace(gate, angle=round(gate.angle / (PI / 2)) * PI / 2)
    report = classify(compile_circuit(Circuit(n, (gate,))))
    assert report.clifford_form and report.generic_scattering_count == 0


@pytest.mark.parametrize("c, t", [(0, 1), (1, 0)])
def test_cz_is_h_cnot_h(c, t):
    """CZ(c, t) compiles to H(t) CNOT(c, t) H(t): one notch, no holes,
    Clifford-form and not matchgate-form."""
    q = compile_circuit(Circuit(2, (Gate("CZ", (c, t)),)))
    assert q == compile_circuit(Circuit(2, (Gate("H", (t,)), Gate("CNOT", (c, t)),
                                            Gate("H", (t,)))))
    assert len(q.notches) == 1 and q.parity_cuts == ()
    report = classify(q)
    assert report.clifford_form and report.generic_scattering_count == 0
    assert not report.matchgate_form


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
    assert q.hole_count() == 2


def test_functoriality(rng):
    for _ in range(3):
        c1 = random_circuit(2, 2, rng, two_qubit_rate=0.35)
        c2 = random_circuit(2, 2, rng, two_qubit_rate=0.35)
        both = Circuit(2, c1.gates + c2.gates)
        composed = quon_compose(compile_circuit(c1), compile_circuit(c2))
        direct = compile_circuit(both)
        a = dense_gate_matrix(composed)
        b = dense_gate_matrix(direct)
        assert np.max(np.abs(a - b)) <= 1e-9


def test_clifford_components_match_the_unitary():
    """Every basis component of random Clifford circuits with at most 7
    projections, and of an XX circuit whose exactly-zero entries met a
    round-off pivot once: their Gaussian cores are exactly singular
    (deferred pivots) and many components are exactly zero."""
    rng = np.random.default_rng(61)
    c = Circuit(3, (Gate("H", (2,)), Gate("S", (2,)), Gate("XX", (1, 2), 5.379157193737768),
                    Gate("CNOT", (0, 1))))
    circuits = [(c, compile_circuit(c))]
    while len(circuits) < 11:
        c = random_circuit(int(rng.integers(2, 4)), 8, rng, two_qubit_rate=0.4,
                           names1=("H", "S", "X", "Y", "Z"), names2=("CZ", "CNOT", "SWAP"))
        q = compile_circuit(c)
        if len(all_projections(q)) <= 7:
            circuits.append((c, q))
    for c, q in circuits:
        assert np.max(np.abs(dense_gate_matrix(q) - circuit_oracle_unitary(c))) <= 1e-9


@pytest.mark.parametrize("offset", [1e-8, -1e-8, 1e-6, 1e-4, 1e-3, 1e-2])
def test_near_clifford_amplitudes_match_the_unitary(offset):
    """Every amplitude of random 2-qubit circuits whose angles sit at
    k*pi/2 + offset: a core pivot of the size of the offset must be deferred,
    not kept with multipliers of the inverse size."""
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 4:
        c = random_circuit(2, 5, rng, names2=("XX", "SWAP", "CNOT"))
        if len(all_projections(compile_circuit(c))) > 6:
            continue
        checked += 1
        c = Circuit(2, tuple(g if g.angle is None else replace(
            g, angle=round(g.angle / (PI / 2)) * PI / 2 + offset) for g in c.gates))
        u = circuit_oracle_unitary(c)
        for col, row in np.ndindex(4, 4):
            assert abs(circuit_amplitude(c, divmod(col, 2), divmod(row, 2)) - u[row, col]) <= 1e-9


@pytest.mark.parametrize("offset", [1e-8, -1e-8, 1e-6])
def test_near_clifford_amplitude_without_projections(offset):
    """H RZ(offset) H has no projection, so its amplitude is one elimination
    of the whole W; <1|..|0> is about offset / 2, and W's 1/mu entry near
    2 / offset makes the rows of that size fail a zero test relative to it.
    The elimination is then run again with deferral, not read as 0."""
    c = Circuit(1, (Gate("H", (0,)), Gate("RZ", (0,), offset), Gate("H", (0,))))
    u = circuit_oracle_unitary(c)
    for col, row in np.ndindex(2, 2):
        assert abs(circuit_amplitude(c, (col,), (row,)) - u[row, col]) <= 1e-9


def test_near_clifford_zero_amplitude():
    c = Circuit(2, (Gate("CNOT", (1, 0)), Gate("CNOT", (1, 0)), Gate("RZ", (0,), PI / 2 + 1e-8),
                    Gate("CNOT", (0, 1))))
    assert abs(circuit_amplitude(c, (1, 0), (0, 0))) <= 1e-9


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
    """2 qubits, six H/CZ/H/CNOT layers with seeded one-qubit gates
    between them: 12 projections, 4096 terms per amplitude, more than one
    stack for the larger term sizes."""
    rng = np.random.default_rng(12)
    gates = []
    for _ in range(6):
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
    rotated = permuted(t, (1, 2, 0))
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
    before = p4.hole_count()
    q = contract_legs(p4, 0, 2, "non_neighboring")
    assert q.hole_count() == before + 1
    t4 = quon_to_dense_tensor(p4).tensor()
    got = quon_to_dense_tensor(q).tensor()
    assert np.max(np.abs(got - np.einsum("axay->xy", t4))) <= 1e-9


def test_contract_legs_rejects_an_unknown_mode():
    """A mode other than "neighboring" or "non_neighboring" raises
    UnknownMode, naming both, instead of gluing as neighbours."""
    p4 = parity_tensor_quon(4)
    for mode in ("sideways", "Neighboring", ""):
        with pytest.raises(UnknownMode, match="'neighboring' or 'non_neighboring'"):
            contract_legs(p4, 0, 1, mode)


def test_random_contraction_matches_dense_oracle(rng):
    for _ in range(5):
        c = random_circuit(2, 3, rng, two_qubit_rate=0.3)
        q = compile_circuit(c)
        t = quon_to_dense_tensor(q).tensor().reshape(2, 2, 2, 2)
        glued = contract_legs(q, 0, 1, "neighboring")  # the two top legs
        got = quon_to_dense_tensor(glued).tensor()
        want = np.einsum("xxab->ab", t)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_string_hole_pairs_are_removed_before_the_dense_tensor():
    """20 inserted string-hole pairs leave 21 projections, 2^21 terms over the
    16 components unless string-genus removal takes the holes first."""
    c = Circuit(2, (Gate("H", (0,)), Gate("RZ", (1,), 0.7), Gate("XX", (0, 1), 0.4),
                    Gate("S", (1,)), Gate("H", (1,))))
    q = compile_circuit(c)
    ledger = FactoryLedger(q)
    for _ in range(20):
        q, ledger = insert_move(q, Insert(1, 1, "string_hole_pair"), ledger)
    assert len(all_projections(q)) == 21
    got = as_matrix(quon_to_dense_tensor(q), 2).T
    assert np.max(np.abs(got - circuit_oracle_unitary(c))) <= 1e-9


def test_oracle_dense_tensor_shares_its_propagations():
    """The oracle route propagates each top closure through each expanded
    core once; every component is still, bit for bit, the oracle value of
    the diagram its encoders close."""
    g = Gate
    c = Circuit(3, (g("H", (0,)), g("CNOT", (0, 1)), g("S", (1,)), g("CNOT", (1, 2)),
                    g("H", (2,)), g("CNOT", (0, 1)), g("S", (0,)), g("CNOT", (1, 2))))
    q = compile_circuit(c)
    tensor = quon_to_dense_tensor(q, use_oracle=True)
    assert np.max(np.abs(as_matrix(tensor, 3).T - circuit_oracle_unitary(c))) <= 1e-12
    for index in (0, 5, 42, 63):
        bits = [(index >> (5 - leg)) & 1 for leg in range(6)]
        groups = [(bits[k],) for k in range(6)]  # top intervals, then bottom ones
        closed = encode_basis(q, BasisAssignment(tuple(groups)))
        assert tensor.entries[index] == evaluate_closed_quon(closed, use_oracle=True)


def test_oracle_dense_tensor_keeps_its_width_limit():
    """Six qubits are 24 Majoranas at a slice, past the oracle's 20."""
    with pytest.raises(OracleTooLarge):
        quon_to_dense_tensor(compile_circuit(Circuit(6, (Gate("H", (0,)),))), use_oracle=True)


def test_intervals_with_their_own_pairing_data():
    """Intervals whose pairing diagrams are nested and side-by-side caps
    with unit-modulus complex amplitudes, listed out of side and start
    order: both routes give one tensor, whatever the order of the list, and
    the bras conjugate their amplitudes, so each amplitude cancels against
    its conjugate on the other side."""
    q = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RZ", (1,), 0.7))))
    a, b = 0.6 + 0.8j, -0.28 + 0.96j

    def with_pairings(amplitudes):
        nested = MajoranaDiagram(0, 4, caps_from_pairing(4, [(0, 3), (1, 2)]), amplitudes[0])
        apart = MajoranaDiagram(0, 4, caps_from_pairing(4, [(0, 1), (2, 3)]), amplitudes[1])
        intervals = [OpenInterval(iv.side, iv.start, iv.size,
                                  nested if (iv.side == TOP) == (iv.start == 0) else apart)
                     for iv in q.open_intervals]
        return replace(q, open_intervals=[intervals[i] for i in (3, 0, 2, 1)])

    own = with_pairings((a, b))
    fast = quon_to_dense_tensor(own).entries
    assert np.allclose(quon_to_dense_tensor(own, use_oracle=True).entries, fast, atol=1e-12)
    listed = replace(own, open_intervals=own.open_intervals[::-1])
    assert np.array_equal(quon_to_dense_tensor(listed).entries, fast)
    assert np.allclose(quon_to_dense_tensor(with_pairings((1.0, 1.0))).entries, fast, atol=1e-12)
    assert np.abs(fast).max() > 0.1


def test_too_many_legs():
    with pytest.raises(TooManyLegs):
        quon_to_dense_tensor(parity_tensor_quon(13))


def test_dense_tensor_validation():
    with pytest.raises(InvariantViolation, match="rank 2 needs 4 entries"):
        DenseTensor(2, np.zeros(3))
