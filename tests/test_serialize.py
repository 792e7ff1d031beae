import json
import time

import pytest

from quon2d.circuits import Circuit, Gate
from quon2d.compiler import compile_circuit, parity_tensor_quon
from quon2d.diagram import BraidPos, Cap, Cup, Dot, MajoranaDiagram, Scattering
from quon2d.errors import InvariantViolation, ParseError
from quon2d.factory import FactoryLedger, Insert, Stretch, Switch, apply_move
from quon2d.quon import OpenInterval, ParityCut, QuonDiagram
from quon2d.serialize import element_from_dict, emit_dot, parse_diagram, serialize_diagram

COMPILED = {
    name: compile_circuit(Circuit(2, gates))
    for name, gates in (
        ("cz", (Gate("H", (0,)), Gate("CZ", (0, 1)), Gate("RZ", (1,), 0.3))),
        ("swap", (Gate("X", (0,)), Gate("SWAP", (0, 1)))),
        ("cnot", (Gate("CNOT", (1, 0)), Gate("XX", (0, 1), 1.1))),
    )
}


def _factory_output():
    q = COMPILED["cnot"]
    ledger = FactoryLedger(q)
    for move in (Switch(0, "braid_to_scattering", theta=0.4 + 0.1j), Stretch(0, 1, 2),
                 Insert(0, 1, "string_hole_pair"), Insert(2, 2, "double_string_hole_pair"),
                 Insert(5, 0, "closed_diagram")):
        q, ledger = apply_move(q, move, ledger)
    return q


@pytest.mark.parametrize("q", [
    *COMPILED.values(), _factory_output(), parity_tensor_quon(3),
], ids=[*COMPILED, "factory", "parity3"])
def test_round_trip_is_exact(q):
    assert q.parity_cuts or q.notches or q.boundary_tracking
    text = serialize_diagram(q)
    back = parse_diagram(text)
    assert back == q
    assert serialize_diagram(back) == text


def test_round_trip_keeps_holes_notches_and_anchors():
    assert COMPILED["swap"].parity_cuts
    assert COMPILED["cz"].notches and COMPILED["cnot"].notches
    q = _factory_output()
    assert q.hole_count() == 2 and len(q.boundary_tracking) > 4
    assert parse_diagram(serialize_diagram(q)).boundary_tracking == q.boundary_tracking


def _doc(**changes):
    doc = json.loads(serialize_diagram(COMPILED["cz"]))
    doc.update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    _doc(format="other"),
    _doc(version=2),
    _doc(amplitude="x"),
    _doc(elements=[{"kind": "warp", "j": 0}]),
    _doc(elements=[{"kind": "cap"}]),
    _doc(elements=[{"kind": "cap", "j": "x"}]),
    _doc(elements=[5]),
    _doc(parity_cuts=[{"time_index": 0}]),
    _doc(notches=[{"strands": [0, 1]}]),
    _doc(open_intervals=[{"side": "top"}]),
    _doc(boundary_tracking=[[1]]),
    _doc(open_intervals=[1.5]),
    _doc(open_intervals=[None]),
    _doc(open_intervals=[{"side": "top", "start": 0, "size": 2, "pairing": [4]}]),
    _doc(open_intervals=[{"side": "top", "start": 0, "size": 2, "pairing": "x"}]),
    _doc(amplitude=[10 ** 400, 0]),
])
def test_malformed_documents_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_diagram(text)


@pytest.mark.parametrize("text", [
    _doc(width_in=7).replace('"width_in": 7', '"width_in": ' + "9" * 5000),
    "[" * 100_000,
], ids=["over-long-number", "over-deep-nesting"])
def test_unreadable_documents_raise_parse_error(text):
    with pytest.raises(ParseError, match="unreadable document"):
        parse_diagram(text)


def _interval_doc(**changes):
    intervals = json.loads(serialize_diagram(COMPILED["cz"]))["open_intervals"]
    intervals[0].update(changes)
    return _doc(open_intervals=intervals)


def test_fractional_positions_are_not_truncated():
    with pytest.raises(ParseError, match="expected an integer, got 0.5"):
        element_from_dict({"kind": "dot_pair", "j": 0.5, "k": 1.9}, "elements[0]")


@pytest.mark.parametrize("text", [
    _doc(elements=[{"kind": "dot_pair", "j": 0.5, "k": 1.9}]),
    _doc(elements=[{"kind": "cap", "j": True}]),
    _doc(elements=[{"kind": "cap", "j": "0"}]),
    _doc(width_in=8.5),
    _doc(width_out=7.9),
    _doc(parity_cuts=[{"time_index": 0.5, "strands": [0, 1]}]),
    _doc(notches=[{"time_index": 0, "strands": [0.5, 1]}]),
    _doc(boundary_tracking=[[0, 0.5]]),
    _interval_doc(start=0.5),
    _interval_doc(size=4.5),
])
def test_non_integral_fields_raise_parse_error(text):
    with pytest.raises(ParseError, match="expected an integer"):
        parse_diagram(text)


def test_integral_floats_are_read_exactly():
    assert parse_diagram(_doc(width_in=8.0, width_out=8.0)) == COMPILED["cz"]


@pytest.mark.parametrize("changes", [
    {"boundary_tracking": [[10_000, 0]]},
    {"boundary_tracking": [[0, 8]]},
    {"parity_cuts": [{"time_index": 0, "strands": [8, 9]}]},
    {"elements": [{"kind": "cup", "j": 0}]},
])
def test_structurally_invalid_documents_are_rejected(changes):
    with pytest.raises(InvariantViolation):
        parse_diagram(_doc(**changes))



def test_an_oversized_interval_fails_before_it_is_built():
    """A 400000-strand interval with the default pairing on a 2-strand
    boundary is checked against the boundary before its size / 2 caps are
    built, and the message stays short."""
    text = json.dumps({"format": "quon2d-diagram", "version": 1, "width_in": 0, "width_out": 2,
                       "elements": [{"kind": "cap", "j": 0}],
                       "open_intervals": [{"side": "bottom", "start": 0, "size": 400000,
                                           "pairing": None}]})
    assert len(text) < 200
    start = time.perf_counter()
    with pytest.raises(InvariantViolation, match="runs past the bottom boundary") as info:
        parse_diagram(text)
    assert time.perf_counter() - start < 0.05
    assert len(str(info.value)) < 300


def test_a_partition_error_lists_a_few_strands():
    intervals = [{"side": "bottom", "start": 2 * k, "size": 2, "pairing": None}
                 for k in range(2000)]
    text = json.dumps({"format": "quon2d-diagram", "version": 1, "width_in": 0,
                       "width_out": 4002, "elements": [{"kind": "cap", "j": 0}] * 2001,
                       "open_intervals": intervals})
    with pytest.raises(InvariantViolation, match="4000 strands") as info:
        parse_diagram(text)
    assert len(str(info.value)) < 300


def test_emit_dot_lists_each_segments_ends_and_touches():
    """The whole Graphviz text of a small open diagram with a hole, a notch,
    a dot, a braid and a scattering: each strand segment is drawn in time
    order as the chain of its top end or birth turn, the elements that
    touch it and its death turn or bottom end.  The braid is a crossing:
    the top strand 0 leaves it at position 1 and the cup closes it, and the
    cap's left arm leaves at position 0."""
    core = MajoranaDiagram(2, 2, (Cap(1), Dot(0), Scattering(2, 0.3), BraidPos(0), Cup(1)))
    q = QuonDiagram(core, (ParityCut(2, (0, 1)),),
                    (OpenInterval("top", 0, 2), OpenInterval("bottom", 0, 2)),
                    notches=(ParityCut(4, (2, 3)),))
    assert emit_dot(q) == """graph quon {
  rankdir=TB;
  e0 [label="0: Cap", shape=box];
  e1 [label="1: Dot", shape=box];
  e2 [label="2: Scattering 0.3+0j", shape=box];
  e3 [label="3: BraidPos", shape=box];
  e4 [label="4: Cup", shape=box];
  top0 [label="in 0", shape=plaintext];
  top0 -- e1 [label=s0];
  e1 -- e3 [label=s0];
  e3 -- e4 [label=s0];
  top1 [label="in 1", shape=plaintext];
  bot1 [label="out 1", shape=plaintext];
  top1 -- e2 [label=s1];
  e2 -- bot1 [label=s1];
  bot0 [label="out 0", shape=plaintext];
  e0 -- e3 [label=s2];
  e3 -- bot0 [label=s2];
  e0 -- e2 [label=s3];
  e2 -- e4 [label=s3];
  hole0 [label="hole @2 [0, 1]", shape=octagon];
  notch0 [label="notch @4 [2, 3]", shape=house];
}
"""
