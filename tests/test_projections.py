"""The push that prunes projections a diagram already enforces
(`wires.redundant_projections`): it removes only projections that act as
the identity, on closed diagrams against the Fock oracle and on compiled
circuits against their unitaries."""

from dataclasses import replace

import numpy as np
import pytest

from quon2d import gaussian
from quon2d.circuits import Circuit, Gate, circuit_oracle_unitary
from quon2d.compiler import compile_circuit, quon_to_dense_tensor
from quon2d.diagram import BraidNeg, BraidPos, Cap, Cup, Dot, MajoranaDiagram, Scattering
from quon2d.fock import evaluate_closed_oracle
from quon2d.ising import IsingLattice, kw_rewrite_chain
from quon2d.quon import (
    BOTTOM,
    TOP,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    all_projections,
    encode_basis,
    evaluate_closed_quon,
    expanded_core,
    projection_sum,
)
from quon2d.wires import projection_eigenvalues, prune_projections, redundant_projections

from conftest import dense_gate_matrix, random_circuit, random_closed_diagram


def _two_loops(middle) -> MajoranaDiagram:
    """Two loops, `middle` on strands 1 and 2 before slice 3, then a
    scattering on each loop and one between them."""
    return MajoranaDiagram(0, 0, (Cap(0), Cap(2), middle, Scattering(0, 0.4),
                                  Scattering(2, 0.9), Scattering(1, 0.8), Cup(2), Cup(0)))


@pytest.mark.parametrize("middle, strands, enforced", [
    (BraidPos(1), (0, 2), True),  # i g_0 g_2 becomes i g_0 g_1 across the braid: +1 on the cap
    (BraidNeg(1), (0, 2), False),  # ... becomes -i g_0 g_1: the projection kills the state
    (BraidPos(1), (1, 3), False),
    (BraidNeg(1), (1, 3), True),
    (BraidPos(1), (0, 1, 2, 3), True),  # both strands of the braid: it commutes
    (Scattering(1, 0.0), (0, 1), True),  # the angle 0 leaves no i g_1 g_2 part
    (Scattering(1, 0.1), (0, 1), False),
])
def test_the_push_passes_what_maps_the_monomial_to_one(middle, strands, enforced):
    q = QuonDiagram(_two_loops(middle), (ParityCut(3, strands),))
    assert (redundant_projections(q) == {0}) == enforced
    oracle = evaluate_closed_quon(q, use_oracle=True)
    assert abs(evaluate_closed_quon(q) - oracle) <= 1e-12
    if enforced:
        assert abs(oracle - evaluate_closed_oracle(q.core)) <= 1e-12
    assert abs(oracle) > 1e-3 or not enforced


def test_a_projection_that_arrives_as_minus_one_makes_the_value_zero(monkeypatch):
    """i g_0 g_2 becomes -i g_0 g_1 across the negative braid, and the cap
    makes that -1: the projection kills the state.  The value is 0j with no
    term run, closed or through the dense tensor of an open diagram, where
    the push reaches the boundary as -1 on every basis encoder.  The oracle
    routes keep every projection."""
    closed = QuonDiagram(_two_loops(BraidNeg(1)), (ParityCut(3, (0, 2)),))
    intervals = (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4))
    core = MajoranaDiagram(4, 4, (Dot(0), Scattering(1, 0.3), Dot(3)))
    open_ = QuonDiagram(core, (), intervals, notches=(ParityCut(1, (0, 1, 2, 3)),))
    assert projection_eigenvalues(closed) == {0: -1}
    assert projection_eigenvalues(open_) == {0: -1}
    assert prune_projections(closed) is None and prune_projections(open_) is None
    oracle = evaluate_closed_quon(closed, use_oracle=True)
    dense = quon_to_dense_tensor(open_, use_oracle=True).entries
    assert abs(oracle) <= 1e-15 and np.abs(dense).max() <= 1e-15
    assert np.abs(quon_to_dense_tensor(replace(open_, notches=())).entries).max() > 0.1

    def refuse(*args):
        raise AssertionError("a diagram the push shows to be 0 was prepared")

    monkeypatch.setattr(gaussian, "PreparedDiagram", refuse)
    assert evaluate_closed_quon(closed) == 0j
    entries = quon_to_dense_tensor(open_).entries
    assert entries.shape == (4,) and not entries.any()


def test_the_push_stops_at_another_projection_on_its_own_slice():
    """The cut on strands 0, 1 at slice 3 is fixed to +1 across the
    scattering of angle 0 above it; a notch on strands 1, 2 at the same
    slice overlaps it on one strand, so they do not commute and neither push
    gets past the other: both are kept, and the value is the oracle's."""
    core = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Scattering(1, 0.0), Scattering(0, 0.4),
                                  Scattering(2, 0.9), Cup(2), Cup(0)))
    cut = ParityCut(3, (0, 1))
    assert projection_eigenvalues(QuonDiagram(core, (cut,))) == {0: 1}
    q = QuonDiagram(core, (cut,), notches=(ParityCut(3, (1, 2)),))
    assert projection_eigenvalues(q) == {}
    oracle = evaluate_closed_quon(q, use_oracle=True)
    assert abs(oracle - 1.0) <= 1e-12
    assert abs(evaluate_closed_quon(q) - oracle) <= 1e-12


def test_pruned_values_match_the_oracle_of_the_unpruned_diagram():
    """Random closed diagrams (dots, braids, scatterings of both kinds) with a
    nonzero value, and random even parity cuts: holes and notches, ones that
    cross braids, and ones that arrive as -1, which make the value 0 and must
    stay.  The pruned fast value equals the Fock oracle of every subset."""
    rng = np.random.default_rng(11)
    pruned = killed = checked = 0
    while checked < 150:
        d = random_closed_diagram(rng, max_width=10, max_elems=30)
        if abs(evaluate_closed_oracle(d)) < 1e-3 * abs(d.amplitude):
            continue
        checked += 1
        widths = d.widths()
        cuts = []
        for _ in range(int(rng.integers(1, 4))):
            t = int(rng.integers(0, len(widths)))
            if widths[t] >= 2:
                size = 2 * int(rng.integers(1, widths[t] // 2 + 1))
                cuts.append(ParityCut(t, tuple(rng.choice(widths[t], size, replace=False))))
        q = QuonDiagram(d, tuple(cuts[:1]), notches=tuple(cuts[1:]))
        oracle = evaluate_closed_quon(q, use_oracle=True)
        assert abs(evaluate_closed_quon(q) - oracle) <= 1e-9 * max(1.0, abs(oracle))
        drop = redundant_projections(q)
        pruned += len(drop)
        killed += abs(oracle) < 1e-12
        # each pruned projection alone is the identity too
        for index in drop:
            single = QuonDiagram(d, (all_projections(q)[index],))
            assert abs(evaluate_closed_oracle(expanded_core(single, 1))
                       - evaluate_closed_oracle(d)) <= 1e-9 * max(1.0, abs(oracle))
    assert pruned > 100 and killed > 10


def test_the_oracle_route_expands_every_projection():
    q = QuonDiagram(_two_loops(BraidPos(1)),
                    (ParityCut(3, (0, 2)), ParityCut(3, (0, 1, 2, 3))))
    assert redundant_projections(q) == {0, 1}
    assert evaluate_closed_quon(q, use_oracle=True) == projection_sum(
        (evaluate_closed_oracle(expanded_core(q, s)) for s in range(4)), 2)


def test_an_open_boundary_fixes_only_whole_intervals():
    """At the top boundary a notch on a whole interval is that interval's
    parity, the same for every basis state; half of one is not."""
    intervals = (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4))
    core = MajoranaDiagram(4, 4, (Scattering(1, 0.3),))
    for strands, enforced in (((0, 1, 2, 3), True), ((0, 1), False), ((1, 2), False)):
        q = QuonDiagram(core, (), intervals, notches=(ParityCut(0, strands),))
        assert (redundant_projections(q) == {0}) == enforced
        assert np.allclose(quon_to_dense_tensor(q).entries,
                           quon_to_dense_tensor(q, use_oracle=True).entries, atol=1e-12)


def test_most_notches_of_random_circuits_are_pruned():
    """60 random circuits (2 or 3 qubits, 2 to 8 gates of every kind): the
    push removes 51 of their 97 notches and 51 of their 62 holes, and every
    dense matrix stays the unitary."""
    rng = np.random.default_rng(4)
    notches = pruned = 0
    for _ in range(60):
        c = random_circuit(int(rng.integers(2, 4)), int(rng.integers(2, 9)), rng)
        q = compile_circuit(c)
        notches += len(q.notches)
        pruned += sum(index >= len(q.parity_cuts) for index in redundant_projections(q))
        assert np.max(np.abs(dense_gate_matrix(q) - circuit_oracle_unitary(c))) <= 1e-9
    assert notches == 97 and pruned >= 49


def _template(rng, two_qubit):
    """Two random single-qubit gates (H, X, Y, Z, S or RZ) around each
    two-qubit gate, as the benchmark builds its circuits."""
    def layer():
        names = [str(rng.choice(["H", "X", "Y", "Z", "S", "RZ"])) for _ in range(2)]
        return [Gate(n, (int(rng.integers(0, 3)),), float(rng.uniform(0, 6)) if n == "RZ"
                     else None) for n in names]
    gates = layer()
    for name, pair in two_qubit:
        gates += [Gate(name, pair, 0.7 if name == "XX" else None)] + layer()
    return Circuit(3, tuple(gates))


@pytest.mark.parametrize("two_qubit", [
    (("CZ", (0, 1)), ("CNOT", (1, 2)), ("SWAP", (0, 1))),
    (("XX", (0, 1)), ("CNOT", (1, 2))),
    (("CZ", (0, 1)), ("CNOT", (2, 1)), ("SWAP", (1, 0))),
])
def test_every_projection_of_the_benchmark_templates_is_pruned(two_qubit):
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = compile_circuit(_template(rng, two_qubit))
        count = len(all_projections(q))
        assert redundant_projections(q) == frozenset(range(count))
        bits = BasisAssignment(tuple((int(rng.integers(0, 2)),) for _ in q.open_intervals))
        closed = encode_basis(q, bits)
        assert redundant_projections(closed) == frozenset(range(count))
        assert not all_projections(prune_projections(closed))


def test_every_step_of_the_kramers_wannier_chain_matches_the_first():
    """The string holes are taken by string-genus removal after the push,
    so each of the 77 steps at L = 6 (up to 16 holes) is one Pfaffian."""
    steps, _ = kw_rewrite_chain(IsingLattice.square(6, 6, 0.4))
    first = evaluate_closed_quon(steps[0])
    assert max(len(step.parity_cuts) for step in steps) == 16
    for step in steps:
        assert abs(evaluate_closed_quon(step) - first) <= 1e-9 * abs(first)


def test_a_diagram_without_projections_is_returned_as_it_is():
    q = QuonDiagram(_two_loops(BraidPos(1)))
    assert redundant_projections(q) == frozenset() and prune_projections(q) is q
