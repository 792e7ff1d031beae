import math

import numpy as np
import pytest

from quon2d import gaussian
from quon2d.circuits import Circuit, Gate
from quon2d.classify import classify
from quon2d.compiler import compile_circuit, quon_to_dense_tensor
from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    MajoranaDiagram,
    Scattering,
)
from quon2d.errors import (
    InvalidRegion,
    InvalidSegment,
    InvariantViolation,
    ParityMismatch,
    ParseError,
    PathCrossesHole,
    PatternMismatch,
)
from quon2d.factory import (
    FactoryLedger,
    Insert,
    Stretch,
    Switch,
    apply_move,
    insert_move,
    parse_move_script,
    stretch,
    switch_move,
)
from quon2d.quon import (
    BOTTOM,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    encode_basis,
    evaluate_closed_quon,
)

from conftest import offset_elements, random_circuit, random_move

PI = math.pi


def small_compiled(rng=None):
    c = Circuit(2, (Gate("H", (0,)), Gate("XX", (0, 1), 0.7), Gate("RZ", (1,), 0.3)))
    return compile_circuit(c)


def test_bulk_stretch_preserves_components():
    q = small_compiled()
    t0 = quon_to_dense_tensor(q).entries
    q2, ledger = stretch(q, Stretch(2, 1, 3, "bulk"), FactoryLedger(q))
    t1 = quon_to_dense_tensor(q2).entries
    assert np.max(np.abs(t0 - t1)) <= 1e-9
    assert ledger.n_s == 0


def test_insert_loop_normalized():
    q = small_compiled()
    t0 = quon_to_dense_tensor(q).entries
    q2, _ = insert_move(q, Insert(0, 2, "closed_diagram"), FactoryLedger(q))
    assert np.max(np.abs(quon_to_dense_tensor(q2).entries - t0)) <= 1e-9


def test_insert_string_hole_pair():
    q = small_compiled()
    t0 = quon_to_dense_tensor(q).entries
    q2, _ = insert_move(q, Insert(1, 1, "string_hole_pair"), FactoryLedger(q))
    assert q2.hole_count() == q.hole_count() + 1
    assert np.max(np.abs(quon_to_dense_tensor(q2).entries - t0)) <= 1e-9


def test_insert_double_string_hole_pair():
    q = small_compiled()
    t0 = quon_to_dense_tensor(q).entries
    q2, _ = insert_move(q, Insert(1, 2, "double_string_hole_pair"), FactoryLedger(q))
    assert q2.hole_count() == q.hole_count() + 1
    assert np.max(np.abs(quon_to_dense_tensor(q2).entries - t0)) <= 1e-9


def test_insert_parity_mismatch():
    q = small_compiled()
    with pytest.raises(ParityMismatch):
        insert_move(q, Insert(1, 2, "string_hole_pair"), FactoryLedger(q))
    with pytest.raises(ParityMismatch):
        insert_move(q, Insert(1, 1, "double_string_hole_pair"), FactoryLedger(q))


def test_switch_braid_bookkeeping():
    q = small_compiled()
    ledger = FactoryLedger(q)
    braid_sites = [i for i, el in enumerate(q.core.elements)
                   if isinstance(el, (BraidPos, BraidNeg))]
    q1, ledger = switch_move(q, Switch(braid_sites[0], "flip_braid"), ledger)
    assert ledger.n_s == 0
    q2, ledger = switch_move(q1, Switch(braid_sites[1], "braid_to_scattering",
                                        theta=0.4), ledger)
    assert ledger.n_s == 1
    # non-generic angle: semantically a no-op, n_S unchanged
    sign_angle = -PI / 2 if isinstance(q2.core.elements[braid_sites[2]], BraidPos) else PI / 2
    q3, ledger = switch_move(q2, Switch(braid_sites[2], "braid_to_scattering",
                                        theta=sign_angle), ledger)
    assert ledger.n_s == 1
    t_orig = quon_to_dense_tensor(q2).entries
    assert np.max(np.abs(quon_to_dense_tensor(q3).entries - t_orig)) <= 1e-9


def test_switch_set_angle_and_add_dots():
    q = small_compiled()
    ledger = FactoryLedger(q)
    scat_sites = [i for i, el in enumerate(q.core.elements) if isinstance(el, Scattering)]
    q1, ledger = switch_move(q, Switch(scat_sites[0], "set_angle", theta=1.2), ledger)
    assert ledger.n_s == 0
    q2, ledger = switch_move(q1, Switch(2, "add_dot_pair", position=0), ledger)
    assert ledger.n_s == 0
    scat_site = [i for i, el in enumerate(q2.core.elements)
                 if isinstance(el, Scattering)][0]
    with pytest.raises(PatternMismatch):
        switch_move(q2, Switch(scat_site, "flip_braid"), ledger)


def test_ledger_replay_deterministic():
    q = small_compiled()
    ledger = FactoryLedger(q)
    q1, ledger = stretch(q, Stretch(2, 1, 2, "bulk"), ledger)
    q2, ledger = insert_move(q1, Insert(0, 2, "closed_diagram"), ledger)
    braids = [i for i, el in enumerate(q2.core.elements)
              if isinstance(el, (BraidPos, BraidNeg))]
    q3, ledger = switch_move(q2, Switch(braids[0], "braid_to_scattering", theta=0.9),
                             ledger)
    replayed = ledger.replay()
    assert replayed.core.elements == q3.core.elements
    assert replayed.parity_cuts == q3.parity_cuts
    assert replayed.core.amplitude == pytest.approx(q3.core.amplitude)


def test_components_of_random_scripts_match_the_oracle():
    """Random move scripts on compiled circuits: each component, one
    factorisation of its basis encoding, against the Fock oracle."""
    rng = np.random.default_rng(12)
    for _ in range(12):
        q = compile_circuit(random_circuit(2, 3, rng, names2=("XX", "CNOT")))
        ledger = FactoryLedger(q)
        for _ in range(int(rng.integers(3, 7))):
            q, ledger = apply_move(q, random_move(q, rng), ledger)
        for _ in range(3):
            bits = BasisAssignment(tuple((int(b),) for b in rng.integers(0, 2, 4)))
            closed = encode_basis(q, bits)
            assert abs(evaluate_closed_quon(closed)
                       - evaluate_closed_quon(closed, use_oracle=True)) <= 1e-9


def test_twenty_switched_braids_take_one_factorisation_per_component(monkeypatch):
    c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,)),
                    Gate("CNOT", (1, 0)), Gate("H", (0,))))
    q = compile_circuit(c)
    ledger = FactoryLedger(q)
    braids = [i for i, el in enumerate(q.core.elements) if isinstance(el, (BraidPos, BraidNeg))]
    for k, site in enumerate(braids[:20]):
        q, ledger = switch_move(q, Switch(site, "braid_to_scattering", theta=0.3 + 0.11 * k),
                                ledger)
    assert ledger.n_s == 20
    want = quon_to_dense_tensor(q).tensor()
    assert np.max(np.abs(quon_to_dense_tensor(q, use_oracle=True).tensor() - want)) <= 1e-9
    prepared = []
    real = gaussian.PreparedDiagram

    def counting(*args):
        prepared.append(1)
        return real(*args)

    monkeypatch.setattr(gaussian, "PreparedDiagram", counting)
    for index in np.ndindex(want.shape):
        bits = BasisAssignment(tuple((b,) for b in index))
        assert abs(evaluate_closed_quon(encode_basis(q, bits)) - want[index]) <= 1e-9
    assert len(prepared) == want.size


def test_set_angle_moves_n_s_by_the_change_in_genericity():
    q = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("S", (1,)))))
    q, ledger = apply_move(q, Switch(1, "braid_to_scattering", theta=0.7), FactoryLedger(q))
    assert ledger.n_s == q.core.generic_scattering_count() == 1
    q, ledger = apply_move(q, Switch(1, "set_angle", theta=PI / 2), ledger)
    assert ledger.n_s == q.core.generic_scattering_count() == 0
    q, ledger = apply_move(q, Switch(1, "set_angle", theta=0.2), ledger)
    assert ledger.n_s == q.core.generic_scattering_count() == 1


def test_near_clifford_switch_on_a_three_qubit_circuit():
    """A braid switched to pi/2 + 1e-8, next to the angle that leaves it a
    braid: the component is zero, and a core pivot of 1e-8 kept instead of
    deferred turns it into -2.43-57.9j."""
    c = Circuit(3, (Gate("S", (2,)), Gate("CNOT", (1, 2)), Gate("CNOT", (2, 1)),
                    Gate("CNOT", (1, 2)), Gate("S", (1,)), Gate("CNOT", (2, 1)),
                    Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))))
    q = compile_circuit(c)
    q, ledger = switch_move(q, Switch(14, "braid_to_scattering", theta=PI / 2 + 1e-8),
                            FactoryLedger(q))
    assert ledger.n_s == 1
    closed = encode_basis(q, BasisAssignment.of((0,), (1,), (0,), (1,), (0,), (0,)))
    want = evaluate_closed_quon(closed, use_oracle=True)
    assert abs(want) <= 1e-9
    assert abs(evaluate_closed_quon(closed) - want) <= 1e-9


@pytest.mark.parametrize("later", [
    Insert(0, 0, "closed_diagram"),
    Insert(1, 1, "string_hole_pair"),
    Insert(0, 0, "double_string_hole_pair"),
    Stretch(0, 0, 2),
    Switch(1, "add_dot_pair", position=0),
    Insert(4, 0, "closed_diagram"),  # after the scattering
])
def test_switched_scattering_after_a_later_move(later):
    q = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("S", (1,)))))
    ledger = FactoryLedger(q)
    bits = BasisAssignment.of((0,), (0,), (0,), (0,))
    q, ledger = apply_move(q, Switch(1, "braid_to_scattering", theta=0.7), ledger)
    assert ledger.n_s == 1
    assert evaluate_closed_quon(encode_basis(q, bits)) == pytest.approx(0.852 - 0.396j, abs=1e-3)
    q, ledger = apply_move(q, later, ledger)
    assert ledger.n_s == 1
    assert [el.theta for el in q.core.elements if isinstance(el, Scattering)].count(0.7) == 1
    closed = encode_basis(q, bits)
    value = evaluate_closed_quon(closed)
    assert value == pytest.approx(evaluate_closed_quon(closed, use_oracle=True), abs=1e-9)
    assert value == pytest.approx(quon_to_dense_tensor(q).entries[0], abs=1e-9)
    if not isinstance(later, Switch):  # the other moves keep every component
        assert value == pytest.approx(0.852 - 0.396j, abs=1e-3)


def test_stretch_into_encoders_grows_intervals():
    seed = QuonDiagram(MajoranaDiagram(0, 2, (Cap(0),)), (),
                       (OpenInterval(BOTTOM, 0, 2),))
    ledger = FactoryLedger(seed)
    s1, ledger = stretch(seed, Stretch(1, 0, 0, "new_encoder"), ledger)
    assert [(iv.start, iv.size) for iv in s1.open_intervals] == [(0, 2), (2, 2)]
    assert s1.open_intervals[1].qubit_count == 0  # no new tensor legs yet
    s2, ledger = stretch(s1, Stretch(1, 0, 0, "existing_encoder", interval=1), ledger)
    grown = s2.open_intervals[1]
    assert (grown.size, grown.qubit_count) == (4, 1)
    s3, ledger = stretch(s2, Stretch(1, 0, 0, "existing_encoder", interval=1), ledger)
    grown = s3.open_intervals[1]
    assert (grown.size, grown.qubit_count) == (6, 2)


def test_an_encoder_stretch_is_checked_at_the_bottom_slice_it_builds_on():
    """An encoder finger is built at the bottom slice whatever its time
    index, so its strand and the holes are checked there: a compiled SWAP
    has a hole on its bottom slice (and its top one), which every encoder
    stretch crosses; strand 5 of Cap(0) Cap(2) Cap(4) Cup(4) is alive at
    slice 3 but not at the bottom; a hole on slice 3 alone leaves the
    bottom free, and the finger is the same from every time index."""
    swap = compile_circuit(Circuit(2, (Gate("SWAP", (0, 1)),)))
    assert {cut.time_index for cut in swap.parity_cuts} == {0, len(swap.core)}
    for t in (0, 3, 5):
        with pytest.raises(PathCrossesHole):
            stretch(swap, Stretch(t, 1, 0, "new_encoder"), FactoryLedger(swap))
    core = MajoranaDiagram(0, 4, (Cap(0), Cap(2), Cap(4), Cup(4)))
    q = QuonDiagram(core, (), (OpenInterval(BOTTOM, 0, 4),))
    with pytest.raises(InvalidSegment, match="strand 5 not alive at slice 4"):
        stretch(q, Stretch(3, 5, 0, "new_encoder"), FactoryLedger(q))
    holed = QuonDiagram(core, (ParityCut(3, (0, 1)),), q.open_intervals)
    built = {stretch(holed, Stretch(t, 1, 0, "new_encoder"), FactoryLedger(holed))[0]
             for t in range(len(core) + 1)}
    assert len(built) == 1


def test_punctured_matchgate_generation():
    # stretch + insert only, from the simplest (empty-manifold) diagram:
    # the produced diagram stays in punctured-matchgate form
    seed = QuonDiagram(MajoranaDiagram(0, 2, (Cap(0),)), (),
                       (OpenInterval(BOTTOM, 0, 2),))
    ledger = FactoryLedger(seed)
    q, ledger = stretch(seed, Stretch(1, 0, 0, "new_encoder"), ledger)
    q, ledger = insert_move(q, Insert(1, 1, "string_hole_pair"), ledger)
    report = classify(q, cleanup=False)
    assert report.punctured_matchgate_form
    assert not report.matchgate_form  # the hole is genuine
    assert q.hole_count() == 1


@pytest.mark.parametrize("make, match", [
    (lambda: Switch(0, "set_angle"), "set_angle needs a finite angle"),
    (lambda: Switch(0, "braid_to_scattering", theta="x"), "needs a finite angle, got 'x'"),
    (lambda: Switch(0, "braid_to_scattering", theta=complex("nan")), "finite angle"),
    (lambda: Switch(0, "flip_braid", theta=0.3), "flip_braid takes no angle"),
    (lambda: Switch(0, "twist"), "unknown change 'twist'"),
    (lambda: Switch(0, "add_dot_pair", position=0.5), "position must be an integer"),
    (lambda: Stretch(1.5, 0, 1), "time_index must be an integer, got 1.5"),
    (lambda: Stretch(0, 0, 1, "sideways"), "unknown target 'sideways'"),
    (lambda: Stretch(0, 0, 0, "existing_encoder", interval="0"), "interval must be an integer"),
    (lambda: Insert(0, None), "position must be an integer"),
    (lambda: Insert(0, 0, "cube"), "unknown payload 'cube'"),
    (lambda: Insert(0, 0, diagram="loop"), "diagram must be a MajoranaDiagram"),
])
def test_malformed_moves_raise_invariant_violation(make, match):
    with pytest.raises(InvariantViolation, match=match):
        make()


def test_move_indices_become_ints():
    move = Stretch(np.int64(2), np.int64(1), np.int64(3))
    assert type(move.time_index) is int and move == Stretch(2, 1, 3)
    assert Switch(np.int64(4), "set_angle", theta=np.float64(0.5)).theta == 0.5


def test_move_script_parser():
    moves = parse_move_script(
        """
        # demo script
        stretch 2 1 3 bulk
        insert 0 2 loop
        insert 1 1 string_hole_pair
        switch 4 braid_to_scattering 0.4
        switch 2 add_dot_pair 0
        """
    )
    assert isinstance(moves[0], Stretch) and moves[0].reach == 3
    assert isinstance(moves[1], Insert) and moves[1].payload == "closed_diagram"
    assert isinstance(moves[2], Insert) and moves[2].payload == "string_hole_pair"
    assert isinstance(moves[3], Switch) and moves[3].theta == 0.4
    assert isinstance(moves[4], Switch) and moves[4].position == 0
    with pytest.raises(ParseError, match="line 1: unknown move 'warp'; use stretch"):
        parse_move_script("warp 1 2")
    with pytest.raises(ParseError, match="line 2: invalid literal"):
        parse_move_script("insert 0 0\nstretch 0 x 1")
    with pytest.raises(ParseError, match="line 2: Stretch: unknown target 'sideways'"):
        parse_move_script("insert 0 0\nstretch 0 0 1 sideways")
    with pytest.raises(ParseError, match="line 1: Switch set_angle needs a finite angle"):
        parse_move_script("switch 3 set_angle nan")


def test_insert_checks_and_evaluates_its_payload_when_built(monkeypatch):
    """A payload that is not closed, or that evaluates to zero, is refused
    by the move itself; the move keeps the value it normalizes with, so the
    insert evaluates nothing, and a bare loop is never evaluated again."""
    with pytest.raises(InvalidRegion, match="closed"):
        Insert(0, 0, diagram=MajoranaDiagram(0, 2, (Cap(0),)))
    with pytest.raises(InvalidRegion, match="zero"):
        Insert(0, 0, diagram=MajoranaDiagram(0, 0, (Cap(0), Cup(0)), 0.0))
    payload = MajoranaDiagram(0, 0, (Cap(0), Scattering(0, 0.4), Cup(0)), 1.5 - 0.5j)
    moves = [Insert(1, 2, diagram=payload), Insert(1, 2)]
    q = compile_circuit(Circuit(1, (Gate("H", (0,)),)))

    def refuse(*args):
        raise AssertionError("evaluated a payload at insert time")

    monkeypatch.setattr(gaussian, "PreparedDiagram", refuse)
    for move in moves:
        grown, _ = insert_move(q, move, FactoryLedger(q))
        assert grown.core.elements[1:1 + len(move._closed.elements)] == offset_elements(
            move._closed.elements, 2)
    monkeypatch.undo()
    for move in moves:
        grown, _ = insert_move(q, move, FactoryLedger(q))
        bits = BasisAssignment(((0,), (1,)))
        assert abs(evaluate_closed_quon(encode_basis(grown, bits))
                   - evaluate_closed_quon(encode_basis(q, bits))) <= 1e-12
