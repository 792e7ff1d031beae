import itertools
import math
import time

import numpy as np
import pytest

from quon2d.classify import ClassReport, matchgate_identity_residual
from quon2d.compiler import caps_from_pairing, quon_to_dense_tensor
from quon2d.diagram import (
    BraidNeg,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    compose,
)
from quon2d.errors import (
    HasOpenIntervals,
    InvariantViolation,
    NoEnclosingLoop,
    NonPlanarInput,
    PatternMismatch,
    TooLarge,
    UnknownMode,
)
from quon2d.fock import FockState, evaluate_closed_oracle
from quon2d.gaussian import MAX_TERMS, check_terms, evaluate_closed_fast
from quon2d.ising import star_triangle_oracle
from quon2d.quon import (
    BOTTOM,
    TOP,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    encode_basis,
    encoder_ket,
    evaluate_closed_quon,
    expanded_core,
    remove_holes_to_fixpoint,
    string_genus,
    swap_hole_remove,
)
from quon2d.wires import prune_projections, redundant_projections
from quon2d.rewrite import expand_scattering

from conftest import dense_gate_matrix, random_closed_diagram

SQRT2 = math.sqrt(2.0)


def random_quon(rng, n_cuts=3, **kw):
    d = random_closed_diagram(rng, **kw)
    widths = d.widths()
    cuts = []
    for _ in range(int(rng.integers(0, n_cuts + 1))):
        t = int(rng.integers(0, len(d.elements) + 1))
        w = widths[t]
        if w < 2:
            continue
        k = 2 * int(rng.integers(1, w // 2 + 1))
        strands = tuple(sorted(rng.choice(w, size=k, replace=False).tolist()))
        cuts.append(ParityCut(t, strands))
    return QuonDiagram(d, tuple(cuts))


def test_empty_manifold_is_one():
    assert evaluate_closed_quon(QuonDiagram(MajoranaDiagram.empty())) == 1.0


def test_no_cuts_equals_core():
    d = random_closed_diagram(np.random.default_rng(1), max_width=8, max_elems=12)
    assert evaluate_closed_quon(QuonDiagram(d)) == pytest.approx(
        evaluate_closed_fast(d), abs=1e-12
    )


def test_open_intervals_rejected():
    q = QuonDiagram(MajoranaDiagram.identity(4), (),
                    (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4)))
    for use_oracle in (False, True):
        with pytest.raises(HasOpenIntervals,
                           match="close them with encode_basis, or call quon_to_dense_tensor"):
            evaluate_closed_quon(q, use_oracle)


def test_hole_expansion_bit_exact_both_orders(rng):
    # the explicit subset sum enumerated independently, forward and reversed,
    # with exactly-rounded accumulation: bit-exact against the evaluator
    import math as _math

    from quon2d.gaussian import PreparedDiagram

    for _ in range(20):
        q = random_quon(rng, max_width=10, max_elems=16)
        kept = prune_projections(q)
        if kept is None:  # a projection annihilates q: nothing is expanded
            assert evaluate_closed_quon(q) == 0j
        else:
            kept = remove_holes_to_fixpoint(kept)  # what the evaluator expands
            n = len(kept.parity_cuts)
            prepared = PreparedDiagram(kept.core,
                                       [(c.time_index, c.strands) for c in kept.parity_cuts])
            for order in (range(1 << n), reversed(range(1 << n))):
                terms = prepared.evaluate(list(order))
                total = complex(_math.fsum(t.real for t in terms),
                                _math.fsum(t.imag for t in terms)) * 0.5 ** n
                assert total == evaluate_closed_quon(q)
        # and the element-level expansion of every projection agrees numerically
        n = len(q.parity_cuts)
        explicit = sum(evaluate_closed_fast(expanded_core(q, s)) for s in range(1 << n))
        assert abs(explicit * 0.5 ** n - evaluate_closed_quon(q)) <= 1e-9


def test_hole_expansion_matches_oracle(rng):
    for _ in range(25):
        q = random_quon(rng, max_width=10, max_elems=16)
        fast = evaluate_closed_quon(q)
        slow = evaluate_closed_quon(q, use_oracle=True)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_parity_commutation(rng):
    # moving a cut across a parity-even element leaves evaluation unchanged
    for _ in range(30):
        d = random_closed_diagram(rng, max_width=8, max_elems=14, allow_dots=False)
        widths = d.widths()
        spots = [
            t for t in range(1, len(d.elements))
            if widths[t] == widths[t + 1] and widths[t] >= 2
        ]
        if not spots:
            continue
        t = int(rng.choice(spots))
        w = widths[t]
        strands = tuple(range(w))
        v1 = evaluate_closed_quon(QuonDiagram(d, (ParityCut(t, strands),)))
        v2 = evaluate_closed_quon(QuonDiagram(d, (ParityCut(t + 1, strands),)))
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_string_genus_insert_remove_inverse():
    core = MajoranaDiagram(0, 0, (Cap(0), Cap(1), Scattering(1, 0.7), Cup(1), Cup(0)))
    q0 = QuonDiagram(core)
    v0 = evaluate_closed_quon(q0)
    q1 = string_genus(q0, 0, "insert", region=(2, 1))
    assert q1.hole_count() == 1
    assert evaluate_closed_quon(q1) == pytest.approx(v0, abs=1e-9)
    q2 = string_genus(q1, 0, "remove")
    assert q2.hole_count() == 0
    assert q2.core.elements == q0.core.elements
    assert q2.core.amplitude == pytest.approx(q0.core.amplitude)


def test_string_genus_scalar_is_inverse_sqrt2():
    # removal multiplies the amplitude by exactly 1/sqrt(2)
    core = MajoranaDiagram(0, 0, (Cap(0), Cap(1), Cup(1), Cup(0)))
    q = string_genus(QuonDiagram(core), 0, "insert", region=(1, 1))
    removed = string_genus(q, 0, "remove")
    assert removed.core.amplitude == pytest.approx(q.core.amplitude / SQRT2, abs=1e-12)


def test_string_genus_no_loop_raises():
    core = MajoranaDiagram(0, 0, (Cap(0), DotPair(0, 1), Cup(0)))
    q = QuonDiagram(core, (ParityCut(1, (0, 1)),))
    with pytest.raises(NoEnclosingLoop):
        string_genus(q, 0, "remove")


@pytest.mark.parametrize("call, error, match", [
    (lambda q: string_genus(q, 0, "sideways"), UnknownMode, "'remove' or 'insert'"),
    (lambda q: expand_scattering(q.core, 1, "knots"), UnknownMode, "'dots' or 'braids'"),
    (lambda q: star_triangle_oracle((0.1, 0.2, 0.3), "square"), UnknownMode, "'star' or 'triangle'"),
    (lambda q: FockState(3, np.ones(2)), InvariantViolation, "even and non-negative"),
    (lambda q: FockState(4, np.ones(3)), InvariantViolation, "flat vector of 4 amplitudes"),
    (lambda q: caps_from_pairing(4, [(0, 1), (1, 2)]), InvariantViolation, "exactly once"),
    (lambda q: caps_from_pairing(4, [(0, 2), (1, 3)]), NonPlanarInput, "non-crossing"),
    (lambda q: matchgate_identity_residual(np.ones(3)), InvariantViolation, "2\\^n entries"),
    (lambda q: matchgate_identity_residual(np.ones(4), rank=3), InvariantViolation, "pass rank=2"),
    (lambda q: ClassReport(False, True, False, 0, 0, True), InvariantViolation, "set punctured"),
])
def test_misuse_raises_typed_errors_that_say_what_to_do(call, error, match):
    core = MajoranaDiagram(0, 0, (Cap(0), Scattering(0, 0.3), Cup(0)))
    with pytest.raises(error, match=match):
        call(QuonDiagram(core, (ParityCut(1, (0, 1)),)))


def test_string_genus_removal_in_random_contexts(rng):
    for _ in range(20):
        d = random_closed_diagram(rng, max_width=8, max_elems=12)
        widths = d.widths()
        spots = [(t, p) for t in range(len(d.elements) + 1)
                 for p in range(1, widths[t] + 1, 2)]
        if not spots:
            continue
        t, p = spots[int(rng.integers(0, len(spots)))]
        q0 = QuonDiagram(d)
        v0 = evaluate_closed_quon(q0)
        q1 = string_genus(q0, 0, "insert", region=(t, p))
        v1 = evaluate_closed_quon(q1)
        q2 = string_genus(q1, len(q1.parity_cuts) - 1, "remove")
        v2 = evaluate_closed_quon(q2)
        tol = 1e-9 * max(1.0, abs(v0))
        assert abs(v1 - v0) <= tol and abs(v2 - v0) <= tol


def test_swap_hole_remove():
    from quon2d.circuits import Circuit, Gate
    from quon2d.compiler import compile_circuit
    from quon2d.circuits import circuit_oracle_unitary

    c = Circuit(2, (Gate("SWAP", (0, 1)),))
    q = compile_circuit(c)
    assert q.hole_count() == 2
    q = swap_hole_remove(q, 0)
    q = swap_hole_remove(q, 0)
    assert q.hole_count() == 0
    assert np.max(np.abs(dense_gate_matrix(q) - circuit_oracle_unitary(c))) <= 1e-9


def test_swap_hole_remove_pattern_mismatch():
    core = MajoranaDiagram(0, 0, (Cap(0), Scattering(0, 0.3), Cup(0)))
    q = QuonDiagram(core, (ParityCut(1, (0, 1)),))
    with pytest.raises(PatternMismatch):
        swap_hole_remove(q, 0)


def test_encoders_orthonormal():
    for size in (4, 6, 8):
        p = (size - 2) // 2
        top = OpenInterval(TOP, 0, size)
        bottom = OpenInterval(BOTTOM, 0, size)
        q = QuonDiagram(MajoranaDiagram.identity(size), (), (top, bottom))
        for b in itertools.product((0, 1), repeat=p):
            for bp in itertools.product((0, 1), repeat=p):
                v = evaluate_closed_quon(encode_basis(q, BasisAssignment.of(b, bp)))
                want = 1.0 if b == bp else 0.0
                assert v == pytest.approx(want, abs=1e-9)


def test_encoder_standard_form():
    # all-zero bits: the nested cap form with weight 1/sqrt(2), no dots
    iv = OpenInterval(BOTTOM, 0, 4)
    ket0 = encoder_ket(iv, (0,))
    assert ket0.elements == (Cap(0), Cap(1))
    assert ket0.amplitude == pytest.approx(1 / SQRT2)
    ket1 = encoder_ket(iv, (1,))
    assert ket1.elements == (Cap(0), Cap(1), DotPair(2, 3))


def test_resolution_of_identity(rng):
    # gluing encoder/decoder over both bit values, weighted 1/2 per qubit,
    # reproduces the identity diagram in random closed contexts
    iv = OpenInterval(BOTTOM, 0, 4)
    for _ in range(15):
        ctx = random_closed_diagram(rng, max_width=6, max_elems=8, allow_dots=False)
        widths = ctx.widths()
        spots = [t for t, w in enumerate(widths) if w >= 4]
        if not spots:
            continue
        t = int(rng.choice(spots))
        base = evaluate_closed_oracle(ctx)
        total = 0.0 + 0.0j
        for b in (0, 1):
            ket = encoder_ket(iv, (b,))
            from quon2d.diagram import dagger

            bra = dagger(ket)
            insert = bra.elements + ket.elements
            els = ctx.elements[:t] + insert + ctx.elements[t:]
            glued = MajoranaDiagram(0, 0, els, ctx.amplitude * bra.amplitude * ket.amplitude)
            # the gluing imposes the bundle projection; realize it as a notch
            q = QuonDiagram(glued, (), (),
                            notches=(ParityCut(t, (0, 1, 2, 3)),))
            total += evaluate_closed_quon(q)
        assert abs(total - base) <= 1e-9 * max(1.0, abs(base))


def test_prune_projections_keeps_the_value(rng):
    # only projections the diagram enforces are dropped, and the value of
    # every projection expanded (the oracle route) never changes
    for _ in range(20):
        q = random_quon(rng, max_width=8, max_elems=12)
        pruned = prune_projections(q)
        v1 = evaluate_closed_quon(q, use_oracle=True)
        if pruned is None:  # a projection annihilates q
            assert abs(v1) <= 1e-9
            continue
        assert len(pruned.parity_cuts) <= len(q.parity_cuts)
        v2 = evaluate_closed_quon(pruned, use_oracle=True)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))
    # a parity across two untouched loops is not enforced: it halves the value
    two_loops = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Cup(2), Cup(0)))
    q = QuonDiagram(two_loops, (ParityCut(2, (0, 2)),))
    assert prune_projections(q) is q
    assert evaluate_closed_quon(q) == pytest.approx(1.0)


def test_count_holes_monotone():
    core = MajoranaDiagram(0, 0, (Cap(0), Cup(0)))
    q = QuonDiagram(core)
    assert q.hole_count() == 0
    q1 = string_genus(q, 0, "insert", region=(1, 1))
    assert q1.hole_count() == 1
    assert string_genus(q1, 0, "remove").hole_count() == 0


# two loops that a generic scattering mixes before and after slice 3, where
# a projection (1 + i g_0 g_1)/2 holds one strand of each scattering: no push
# removes it, nor does string-genus removal, since no loop is quiet
_MIXED = MajoranaDiagram(0, 0, (Cap(0), Cap(0), Scattering(1, 0.3), Scattering(1, 0.5),
                                Cup(0), Cup(0)))


def test_forty_projections_raise_too_large_at_once():
    """2^40 terms: TooLarge comes back before any per-term array is built,
    on the fast and the oracle route, closed or through the dense tensor of
    an open diagram.  Building the masks alone would take terabytes.  The
    projections are ones the pruning cannot remove."""
    closed = QuonDiagram(_MIXED, tuple(ParityCut(3, (0, 1)) for _ in range(40)))
    open_ = QuonDiagram(MajoranaDiagram(4, 4, _MIXED.elements[2:4]), (),
                        (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4)),
                        notches=tuple(ParityCut(1, (0, 1)) for _ in range(40)))
    assert not redundant_projections(closed) and not redundant_projections(open_)
    start = time.perf_counter()
    for use_oracle in (False, True):
        with pytest.raises(TooLarge, match="40 projections"):
            evaluate_closed_quon(closed, use_oracle=use_oracle)
        with pytest.raises(TooLarge, match="40 projections"):
            quon_to_dense_tensor(open_, use_oracle=use_oracle)
    assert time.perf_counter() - start < 1.0


def test_thirty_projections_left_after_pruning_raise_too_large():
    """Ten global parities, which the two cups enforce, are pruned; the 30
    projections left give 2^30 terms, past the budget: TooLarge, not a
    MemoryError from 2^30 masks."""
    q = QuonDiagram(_MIXED, tuple(ParityCut(3, (0, 1)) for _ in range(30))
                    + tuple(ParityCut(3, (0, 1, 2, 3)) for _ in range(10)))
    assert redundant_projections(q) == frozenset(range(30, 40))
    with pytest.raises(TooLarge, match="30 projections"):
        evaluate_closed_quon(q)


def test_term_budget_bound():
    check_terms(MAX_TERMS, "the bound")
    with pytest.raises(TooLarge, match="one evaluation holds at most"):
        check_terms(MAX_TERMS + 1, "one past the bound")


def test_interval_pairs_are_traced_once_per_pairing_diagram(monkeypatch):
    """Every compiled circuit makes new intervals; those with equal pairing
    data share one trace of it (`quon.pairing_pairs`)."""
    import quon2d.quon as quon_module
    from quon2d.wires import BOTTOM, TOP, WireTrace

    traced = []
    monkeypatch.setattr(quon_module, "WireTrace", lambda d: traced.append(d) or WireTrace(d))
    quon_module.pairing_pairs.cache_clear()
    intervals = [OpenInterval(TOP, 0, 6), OpenInterval(BOTTOM, 0, 6), OpenInterval(TOP, 6, 6),
                 OpenInterval(TOP, 0, 4)]
    assert [iv.pairs for iv in intervals] == [((0, 5), (1, 4), (2, 3))] * 3 + [((0, 3), (1, 2))]
    assert len(traced) == 2
