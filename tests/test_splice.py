"""Manifold edits: the splice rule, and boundary-tracking anchors carried
through moves, rewrites and contractions."""

import pytest

from quon2d.circuits import Circuit, Gate
from quon2d.classify import classify
from quon2d.cli import greedy_simplify
from quon2d.compiler import compile_circuit, contract_legs, parity_tensor_quon
from quon2d.diagram import BraidNeg, BraidPos, DotPair, MajoranaDiagram
from quon2d.errors import InvariantViolation
from quon2d.factory import FactoryLedger, Insert, Stretch, insert_move, stretch
from quon2d.quon import BOTTOM, TOP, OpenInterval, ParityCut, QuonDiagram, string_genus

# one projection of each kind and one anchor at every slice 0..4
CORE = MajoranaDiagram(2, 2, (BraidPos(0), BraidNeg(0), DotPair(0, 1), BraidPos(0)))
MARKED = QuonDiagram(
    CORE,
    tuple(ParityCut(t, (0, 1)) for t in range(5)),
    (OpenInterval(TOP, 0, 2), OpenInterval(BOTTOM, 0, 2)),
    frozenset((t, 1) for t in range(5)),
    tuple(ParityCut(t, (0, 1)) for t in range(5)),
)


def _times(q):
    return ([c.time_index for c in q.parity_cuts], [c.time_index for c in q.notches],
            sorted(t for t, _ in q.boundary_tracking))


def test_splice_replacing_a_run():
    # elements 1..2 become one: slice 2 lies inside the run, 3 and 4 after it
    core = MajoranaDiagram(2, 2, (BraidPos(0), DotPair(0, 1), BraidPos(0)))
    out = MARKED.splice(1, 2, core)
    assert out.core == core
    assert _times(out) == ([0, 1, 1, 2, 3], [0, 1, 1, 2, 3], [0, 1, 2, 3])
    assert out.open_intervals == MARKED.open_intervals


def test_splice_pure_insertion_moves_the_slice_at_the_site():
    els = CORE.elements[:2] + (BraidPos(0), BraidNeg(0)) + CORE.elements[2:]
    out = MARKED.splice(2, 0, CORE.with_elements(els))
    assert _times(out) == ([0, 1, 4, 5, 6], [0, 1, 4, 5, 6], [0, 1, 4, 5, 6])


def test_anchor_off_the_diagram_is_rejected():
    with pytest.raises(InvariantViolation, match="anchor"):
        QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(3, 0)})
    with pytest.raises(InvariantViolation, match="anchor"):
        QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(1, 2)})
    QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(1, 1)})


def test_stretch_then_simplify_gives_back_the_seed():
    seed = parity_tensor_quon(2)
    q, _ = stretch(seed, Stretch(4, 1, 1), FactoryLedger(seed))
    simplified = greedy_simplify(q)
    assert simplified == seed
    assert classify(simplified).punctured_matchgate_form


def test_string_hole_pair_then_simplify_gives_back_the_seed():
    seed = compile_circuit(Circuit(1, (Gate("Z", (0,)),)))
    q, _ = insert_move(seed, Insert(0, 1, "string_hole_pair"), FactoryLedger(seed))
    assert q.boundary_tracking == {(1, 1), (1, 2), (2, 0), (2, 3)}
    simplified = greedy_simplify(q)
    assert simplified == seed
    assert simplified.boundary_tracking == {(0, 0), (0, 3)}
    assert classify(simplified).punctured_matchgate_form


def test_top_contraction_moves_the_anchors_past_the_caps():
    q = contract_legs(compile_circuit(Circuit(2, (Gate("Z", (0,)), Gate("Z", (1,))))), 0, 1)
    assert q.boundary_tracking == {(4, 0), (4, 3), (4, 4), (4, 7)}
    assert classify(q).punctured_matchgate_form


def test_string_genus_insert_then_remove_is_exact():
    seed = compile_circuit(Circuit(2, (Gate("Z", (0,)), Gate("SWAP", (0, 1)), Gate("X", (1,)))))
    assert seed.parity_cuts and seed.boundary_tracking
    widths = seed.core.widths()
    for t in range(len(seed.core.elements) + 1):
        for p in range(1, widths[t] + 1, 2):
            q = string_genus(seed, 0, "insert", region=(t, p))
            assert string_genus(q, len(q.parity_cuts) - 1, "remove") == seed


def test_string_genus_removal_moves_anchors_beside_the_loop():
    seed = QuonDiagram(MajoranaDiagram(4, 4), (),
                       (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4)), {(0, 0), (0, 3)})
    q = string_genus(seed, 0, "insert", region=(0, 1))
    # strand 3 sits at position 5 while the loop (positions 1, 2) is alive
    q = QuonDiagram(q.core, q.parity_cuts, q.open_intervals,
                    q.boundary_tracking | {(1, 5), (1, 1)}, q.notches)
    out = string_genus(q, 0, "remove")
    assert out.boundary_tracking == {(0, 0), (0, 3)}
    assert out.core == seed.core
