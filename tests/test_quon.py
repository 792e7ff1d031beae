import itertools
import math

import numpy as np
import pytest

from quon2d.diagram import (
    BraidNeg,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    compose,
)
from quon2d.errors import HasOpenIntervals, NoEnclosingLoop, PatternMismatch
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import evaluate_closed_fast
from quon2d.quon import (
    BOTTOM,
    TOP,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    count_holes,
    encode_basis,
    encoder_ket,
    evaluate_closed_quon,
    expanded_core,
    normalize_cuts,
    string_genus,
    swap_hole_remove,
)

from conftest import random_closed_diagram

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
    with pytest.raises(HasOpenIntervals):
        evaluate_closed_quon(q)


def test_hole_expansion_bit_exact_both_orders(rng):
    # the explicit subset sum enumerated independently, forward and reversed,
    # with exactly-rounded accumulation: bit-exact against the evaluator
    import math as _math

    from quon2d.gaussian import PreparedDiagram

    for _ in range(20):
        q = random_quon(rng, max_width=10, max_elems=16)
        n = len(q.parity_cuts)
        prepared = PreparedDiagram(q.core, [(c.time_index, c.strands) for c in q.parity_cuts])

        for order in (range(1 << n), reversed(range(1 << n))):
            terms = prepared.evaluate(list(order))
            total = complex(_math.fsum(t.real for t in terms),
                            _math.fsum(t.imag for t in terms)) * 0.5 ** n
            assert total == evaluate_closed_quon(q)
        # and the element-level expansion agrees numerically
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
    assert count_holes(q1) == 1
    assert evaluate_closed_quon(q1) == pytest.approx(v0, abs=1e-9)
    q2 = string_genus(q1, 0, "remove")
    assert count_holes(q2) == 0
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
    from quon2d.compiler import compile_circuit, dense_gate_matrix
    from quon2d.circuits import circuit_oracle_unitary

    c = Circuit(2, (Gate("SWAP", (0, 1)),))
    q = compile_circuit(c)
    assert count_holes(q) == 2
    q = swap_hole_remove(q, 0)
    q = swap_hole_remove(q, 0)
    assert count_holes(q) == 0
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
            from quon2d.diagram import dagger, offset_elements

            bra = dagger(ket)
            insert = offset_elements(bra.elements + ket.elements, 0)
            els = ctx.elements[:t] + insert + ctx.elements[t:]
            glued = MajoranaDiagram(0, 0, els, ctx.amplitude * bra.amplitude * ket.amplitude)
            # the gluing imposes the bundle projection; realize it as a notch
            q = QuonDiagram(glued, (), (),
                            notches=(ParityCut(t, (0, 1, 2, 3)),))
            total += evaluate_closed_quon(q)
        assert abs(total - base) <= 1e-9 * max(1.0, abs(base))


def test_normalize_cuts_conservative(rng):
    # only provably trivial cuts are dropped, and evaluation never changes
    for _ in range(20):
        q = random_quon(rng, max_width=8, max_elems=12)
        cleaned = normalize_cuts(q)
        assert len(cleaned.parity_cuts) <= len(q.parity_cuts)
        v1 = evaluate_closed_quon(q)
        v2 = evaluate_closed_quon(cleaned)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_count_holes_monotone():
    core = MajoranaDiagram(0, 0, (Cap(0), Cup(0)))
    q = QuonDiagram(core)
    assert count_holes(q) == 0
    q1 = string_genus(q, 0, "insert", region=(1, 1))
    assert count_holes(q1) == 1
    assert count_holes(string_genus(q1, 0, "remove")) == 0
