import math

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate
from quon2d.classify import classify
from quon2d.compiler import compile_circuit, quon_to_dense_tensor
from quon2d.diagram import BraidNeg, BraidPos, Cap, MajoranaDiagram, Scattering
from quon2d.errors import ParityMismatch, ParseError, PatternMismatch, TooManyTransformed
from quon2d.factory import (
    FactoryLedger,
    Insert,
    Stretch,
    Switch,
    apply_move,
    evaluate_component_expanded,
    insert_move,
    parse_move_script,
    stretch,
    switch_move,
)
from quon2d.quon import (
    BOTTOM,
    BasisAssignment,
    OpenInterval,
    QuonDiagram,
    encode_basis,
    evaluate_closed_quon,
)

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


def test_component_expansion_counts_terms(monkeypatch):
    q = small_compiled()
    ledger = FactoryLedger(q)
    braids = [i for i, el in enumerate(q.core.elements)
              if isinstance(el, (BraidPos, BraidNeg))]
    for site in braids[:2]:
        q, ledger = switch_move(q, Switch(site, "braid_to_scattering",
                                          theta=0.3 + 0.1 * site), ledger)
    assert ledger.n_s == 2
    calls = []
    import quon2d.factory as factory_mod

    real = factory_mod.evaluate_closed_quon

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(factory_mod, "evaluate_closed_quon", counting)
    bits = BasisAssignment.of((0,), (1,), (1,), (0,))
    value = evaluate_component_expanded(q, ledger, bits)
    assert len(calls) == 2 ** ledger.n_s
    direct = quon_to_dense_tensor(q).tensor()[0, 1, 1, 0]
    assert value == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("later", [
    Insert(0, 0, "closed_diagram"),
    Insert(1, 1, "string_hole_pair"),
    Insert(0, 0, "double_string_hole_pair"),
    Stretch(0, 0, 2),
    Switch(1, "add_dot_pair", position=0),
    Insert(4, 0, "closed_diagram"),  # after the scattering: its site stays
])
def test_transformed_sites_move_with_their_scattering(later):
    q = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("S", (1,)))))
    ledger = FactoryLedger(q)
    for move in (Switch(1, "braid_to_scattering", theta=0.7), later):
        q, ledger = apply_move(q, move, ledger)
    (site,) = ledger.transformed_scatterings
    assert q.core.elements[site] == Scattering(q.core.elements[site].j, 0.7)
    bits = BasisAssignment.of((0,), (0,), (0,), (0,))
    value = evaluate_component_expanded(q, ledger, bits)
    assert value == pytest.approx(evaluate_closed_quon(encode_basis(q, bits)), abs=1e-9)
    if later == Insert(0, 0, "closed_diagram"):
        assert value == pytest.approx(quon_to_dense_tensor(q).entries[0], abs=1e-9)
        assert value == pytest.approx(0.852 - 0.396j, abs=1e-3)


def test_component_expansion_limit():
    q = small_compiled()
    ledger = FactoryLedger(q)
    ledger.transformed_scatterings = list(range(17))
    with pytest.raises(TooManyTransformed):
        evaluate_component_expanded(q, ledger, BasisAssignment.of((0,), (0,), (0,), (0,)))


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
