import cmath
import math

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate, circuit_oracle_unitary
from quon2d.classify import (
    ClassReport,
    MatchgateGate,
    boundary_ordered,
    classify,
    clifford_matchgate_decompose,
    decompose_gab,
    matchgate_identity_residual,
    recombine,
    remove_holes_to_fixpoint,
)
from quon2d.compiler import compile_circuit, quon_to_dense_tensor
from quon2d.diagram import Cap, Cup, MajoranaDiagram, Scattering
from quon2d.errors import InvariantViolation, NoEnclosingLoop, NotMatchgate, RankTooLarge
from quon2d.ising import IsingLattice, kw_rewrite_chain
from quon2d.quon import QuonDiagram, string_genus
from quon2d.wires import WireTrace

from conftest import random_circuit

PI = math.pi


# gate pools of random_circuit that compile to matchgate and Clifford form
MATCHGATE = dict(two_qubit_rate=0.5, names1=("RZ",), names2=("XX",))
CLIFFORD = dict(two_qubit_rate=0.4, names1=("S", "H", "SINV", "X", "Z"), names2=("CNOT", "CZ"))


def test_clifford_circuits_classify_clifford(rng):
    for _ in range(5):
        c = random_circuit(2, 5, rng, **CLIFFORD)
        report = classify(compile_circuit(c))
        assert report.clifford_form
        assert report.generic_scattering_count == 0


def test_rz_breaks_clifford(rng):
    c = random_circuit(2, 4, rng, **CLIFFORD)
    doped = Circuit(2, c.gates + (Gate("RZ", (0,), 0.3),))
    report = classify(compile_circuit(doped))
    assert not report.clifford_form
    assert report.generic_scattering_count == 1


def test_matchgate_circuits_classify_matchgate(rng):
    for _ in range(5):
        c = random_circuit(3, 6, rng, **MATCHGATE)
        report = classify(compile_circuit(c))
        assert report.matchgate_form
        assert report.boundary_tracking_ok
        assert report.punctured_matchgate_form


def test_swap_breaks_matchgate(rng):
    c = Circuit(2, (Gate("RZ", (0,), 0.4), Gate("SWAP", (0, 1))))
    report = classify(compile_circuit(c))
    assert not report.matchgate_form
    assert report.hole_count == 2


def test_report_invariant():
    with pytest.raises(InvariantViolation, match="matchgate form implies punctured"):
        ClassReport(False, True, False, 0, 0, True)


def test_classify_monotone_under_removal(rng):
    from quon2d.diagram import Cap, Cup, MajoranaDiagram, Scattering
    from quon2d.quon import QuonDiagram

    core = MajoranaDiagram(0, 0, (Cap(0), Cap(1), Scattering(1, 0.7), Cup(1), Cup(0)))
    q = string_genus(QuonDiagram(core), 0, "insert", region=(2, 1))
    q = string_genus(q, 0, "insert", region=(2, 1))
    before = classify(q, cleanup=False)
    cleaned = remove_holes_to_fixpoint(q)
    after = classify(cleaned, cleanup=False)
    assert cleaned.hole_count() < q.hole_count()
    assert after.clifford_form >= before.clifford_form
    assert after.punctured_matchgate_form >= before.punctured_matchgate_form


@pytest.fixture
def trace_builds(monkeypatch):
    """The cores quon.py builds a WireTrace of, from here on."""
    import quon2d.quon as quon

    builds = []

    def counted(core):
        builds.append(core)
        return WireTrace(core)

    monkeypatch.setattr(quon, "WireTrace", counted)
    return builds


def test_hole_removal_reads_one_trace_per_pass(trace_builds):
    # two SWAPs leave 4 holes no string-genus removal takes, before a
    # string-hole pair that one removal takes: one trace finds it
    q = compile_circuit(Circuit(2, (Gate("SWAP", (0, 1)), Gate("SWAP", (0, 1)))))
    q = string_genus(q, 0, "insert", region=(0, 1))
    trace_builds.clear()
    cleaned = remove_holes_to_fixpoint(q)
    assert (q.hole_count(), cleaned.hole_count()) == (5, 4)
    assert len(trace_builds) == 1


def _removed_one_by_one(q):
    """The reference: remove the first hole that has an isolated enclosing
    loop with `string_genus`, until no hole has one."""
    while True:
        for hole_id in range(q.hole_count()):
            try:
                q = string_genus(q, hole_id, "remove")
                break
            except NoEnclosingLoop:
                pass
        else:
            return q


def _with_string_holes(q, rng, pairs):
    """q with `pairs` string-hole pairs at random slices.  Half of them are
    double: a second pair one slice later, left of the first loop (apart
    from it) or right of it (its cut then holds the first loop and blocks
    the first hole until the second is removed)."""
    for _ in range(pairs):
        widths = q.core.widths()
        t = int(rng.integers(len(widths)))
        p = 2 * int(rng.integers((widths[t] + 1) // 2)) + 1
        q = string_genus(q, 0, "insert", region=(t, p))
        if rng.random() < 0.5:
            q = string_genus(q, 0, "insert", region=(t + 1, p + 2 * int(rng.integers(2))))
    return q


def test_hole_sweep_equals_removals_one_by_one(rng):
    removed = 0
    for _ in range(40):
        c = random_circuit(int(rng.integers(1, 4)), int(rng.integers(1, 7)), rng)
        q = _with_string_holes(compile_circuit(c), rng, int(rng.integers(1, 5)))
        want = _removed_one_by_one(q)
        assert remove_holes_to_fixpoint(q) == want
        removed += q.hole_count() - want.hole_count()
    assert removed >= 80


def test_hole_sweep_takes_a_blocked_hole_once_its_blocker_is_gone():
    """Hole 1's cut holds both strands of hole 0's loop, so hole 0 has no
    isolated loop until hole 1 is removed; a single scan in index order
    would leave it."""
    core = MajoranaDiagram(0, 0, (Cap(0), Scattering(0, 0.7), Cup(0)))
    q = string_genus(QuonDiagram(core), 0, "insert", region=(1, 1))
    q = string_genus(q, 0, "insert", region=(2, 3))
    with pytest.raises(NoEnclosingLoop):
        string_genus(q, 0, "remove")
    want = string_genus(string_genus(q, 1, "remove"), 0, "remove")
    assert want.hole_count() == 0 and want.core.elements == core.elements
    assert _removed_one_by_one(q) == want
    assert remove_holes_to_fixpoint(q) == want


@pytest.mark.parametrize("size", [3, 6])
def test_hole_sweep_on_the_kramers_wannier_holes(size, trace_builds):
    """The (L - 2)^2 string holes of the KW chain go in one sweep that reads
    one WireTrace (16 holes at L = 6)."""
    steps, _ = kw_rewrite_chain(IsingLattice.square(size, size, 0.4))
    q = steps[(size - 2) ** 2]
    assert q.hole_count() == (size - 2) ** 2
    want = _removed_one_by_one(q)
    trace_builds.clear()
    got = remove_holes_to_fixpoint(q)
    assert got == want and got.hole_count() == 0
    assert len(trace_builds) == 1


# -- matchgate identity -------------------------------------------------------


def test_mgi_gab_tensors(rng):
    for _ in range(10):
        a = _random_su2(rng)
        b = _random_su2(rng)
        g = MatchgateGate(a, b)
        ordered = boundary_ordered(g.matrix().reshape(-1), 2)
        assert matchgate_identity_residual(ordered) <= 1e-12


def test_mgi_swap_is_magic():
    # in the planar boundary order the SWAP violates the identity maximally
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    assert matchgate_identity_residual(boundary_ordered(swap.reshape(-1), 2)) >= 0.5


def test_mgi_rank_one():
    assert matchgate_identity_residual(np.array([1.0, 0.0])) == 0.0


def test_mgi_rank_limit():
    with pytest.raises(RankTooLarge):
        matchgate_identity_residual(np.zeros(2 ** 9))


def test_matchgate_form_implies_mgi(rng):
    # Thm-2 soundness at desk scale: matchgate-form diagrams produce
    # matchgate tensors
    for _ in range(3):
        c = random_circuit(2, 4, rng, **MATCHGATE)
        q = compile_circuit(c)
        assert classify(q).matchgate_form
        t = quon_to_dense_tensor(q)
        assert matchgate_identity_residual(boundary_ordered(t.entries, 2)) <= 1e-9


def test_clifford_tensor_entries_property(rng):
    # nonzero entries of a compiled Clifford tensor share one magnitude and
    # have pi/4-multiple phases relative to a global phase
    for _ in range(4):
        c = random_circuit(2, 4, rng, **CLIFFORD)
        t = quon_to_dense_tensor(compile_circuit(c)).entries
        nz = t[np.abs(t) > 1e-9]
        mags = np.abs(nz)
        assert np.max(mags) - np.min(mags) <= 1e-9
        rel = nz / nz[0]
        phases = np.angle(rel) / (PI / 4)
        assert np.max(np.abs(phases - np.round(phases))) <= 1e-6


# -- G(A,B) -------------------------------------------------------------------


def _random_su2(rng):
    th, p1, p2 = rng.uniform(0, 2 * PI, 3)
    a = cmath.exp(1j * p1) * math.cos(th / 2)
    b = cmath.exp(1j * p2) * math.sin(th / 2)
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def test_matchgate_gate_requires_equal_dets():
    with pytest.raises(NotMatchgate):
        MatchgateGate(np.eye(2), np.diag([1, 2]))


def test_decompose_gab_identity():
    c, phase = decompose_gab(MatchgateGate(np.eye(2), np.eye(2)))
    assert len(c.gates) == 0 or np.max(np.abs(
        circuit_oracle_unitary(c) * phase - np.eye(4))) <= 1e-9


def test_decompose_gab_diagonal():
    phi = 0.83
    a = np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
    g = MatchgateGate(a, np.eye(2))
    c, phase = decompose_gab(g)
    got = phase * circuit_oracle_unitary(c)
    assert np.max(np.abs(got - g.matrix())) <= 1e-9
    assert all(gate.name in ("RZ", "XX") for gate in c.gates)


def test_decompose_gab_random(rng):
    """Random G(A, B) in SU(2) x SU(2), and G(H, H), whose det -1 puts a
    phase on the rescaling to SU(2)."""
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    for g in [MatchgateGate(h, h)] + [MatchgateGate(_random_su2(rng), _random_su2(rng))
                                      for _ in range(10)]:
        c, phase = decompose_gab(g)
        got = phase * circuit_oracle_unitary(c)
        assert np.max(np.abs(got - g.matrix())) <= 1e-9


# -- decomposition theorem ----------------------------------------------------


def _random_network(rng, n_cliff=2, n_match=2):
    """Chain of tagged rank-3/4 tensors contracted in a line."""
    tensors = []
    for _ in range(n_cliff):
        c = random_circuit(2, 3, rng, **CLIFFORD)
        tensors.append(("clifford", circuit_oracle_unitary(c).reshape(2, 2, 2, 2)))
    for _ in range(n_match):
        g = MatchgateGate(_random_su2(rng), _random_su2(rng))
        tensors.append(("matchgate", g.matrix().reshape(2, 2, 2, 2)))
    order = rng.permutation(len(tensors))
    plan = []
    for a, b in zip(order, order[1:]):
        plan.append(((int(a), 3), (int(b), 0)))
    open_legs = []
    for i in range(len(tensors)):
        used = {leg for pair in plan for (t, leg) in pair if t == i}
        open_legs += [(i, l) for l in range(4) if l not in used]
    return tensors, plan, open_legs


def _full_contraction(tensors, plan, open_legs):
    import string

    letters = iter(string.ascii_letters)
    names = {}
    for (a, b) in plan:
        names[a] = names[b] = next(letters)
    for leg in open_legs:
        names[leg] = next(letters)
    specs = []
    for i, (_, t) in enumerate(tensors):
        specs.append("".join(names[(i, l)] for l in range(np.asarray(t).ndim)))
    out = "".join(names[leg] for leg in open_legs)
    arrays = [np.asarray(t) for _, t in tensors]
    return np.einsum(",".join(specs) + "->" + out, *arrays)


def test_decomposition_theorem_desk_scale(rng):
    for _ in range(5):
        tensors, plan, open_legs = _random_network(rng)
        cliff, match, bridges = clifford_matchgate_decompose(tensors, plan, open_legs)
        got = recombine(cliff, match, bridges)
        want = _full_contraction(tensors, plan, open_legs)
        # recombine orders legs clifford-open then matchgate-open
        perm = [open_legs.index(l) for l in
                [l for l in open_legs if tensors[l[0]][0] == "clifford"]
                + [l for l in open_legs if tensors[l[0]][0] == "matchgate"]]
        want = np.transpose(want, perm)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_decomposition_all_clifford(rng):
    tensors, plan, open_legs = _random_network(rng, n_cliff=2, n_match=0)
    cliff, match, bridges = clifford_matchgate_decompose(tensors, plan, open_legs)
    assert bridges == 0 and match.shape == ()
    assert complex(match) == pytest.approx(1.0)


def test_decomposition_matchgate_part_is_matchgate(rng):
    # two chained G(A,B)'s form a 2-qubit matchgate circuit; the contracted
    # matchgate part passes the MGI in boundary order
    g1 = MatchgateGate(_random_su2(rng), _random_su2(rng))
    g2 = MatchgateGate(_random_su2(rng), _random_su2(rng))
    u = g2.matrix() @ g1.matrix()
    assert matchgate_identity_residual(boundary_ordered(u.reshape(-1), 2)) <= 1e-9
