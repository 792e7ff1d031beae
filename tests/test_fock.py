import cmath
import math

import numpy as np
import pytest

from quon2d.diagram import (
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    Scattering,
    compose,
    dagger,
    tensor_product,
)
from quon2d.errors import NotClosed, OracleTooLarge
from quon2d.fock import evaluate_closed_oracle

from conftest import random_closed_diagram

SQRT2 = math.sqrt(2.0)


def test_empty_diagram_gives_amplitude():
    assert evaluate_closed_oracle(MajoranaDiagram(0, 0, (), 2 + 3j)) == 2 + 3j


def test_single_loop_is_sqrt2():
    assert evaluate_closed_oracle(MajoranaDiagram.loop()) == pytest.approx(SQRT2)


def test_loop_with_dot_pair():
    # i*g0 g1 between cap and cup acts as Z on |0>: still sqrt(2);
    # cross-checked against the hand Jordan-Wigner matrix product
    d = MajoranaDiagram(0, 0, (Cap(0), DotPair(0, 1), Cup(0)))
    cap = SQRT2 ** 0.5 * np.array([1, 0])
    z = np.diag([1, -1])
    by_hand = SQRT2 ** 0.5 * np.array([1, 0]) @ (z @ cap)
    assert evaluate_closed_oracle(d) == pytest.approx(by_hand)


def test_odd_dot_count_vanishes():
    d = MajoranaDiagram(0, 0, (Cap(0), Dot(0), Cup(0)))
    assert evaluate_closed_oracle(d) == 0


def test_time_ordered_dots():
    # g1 then g0 contracts to +i on a fresh pair
    d = MajoranaDiagram(0, 0, (Cap(0), Dot(0), Dot(1), Cup(0)))
    assert evaluate_closed_oracle(d) == pytest.approx(1j * SQRT2)
    d2 = MajoranaDiagram(0, 0, (Cap(0), Dot(1), Dot(0), Cup(0)))
    assert evaluate_closed_oracle(d2) == pytest.approx(-1j * SQRT2)


def test_not_closed_and_too_large():
    with pytest.raises(NotClosed):
        evaluate_closed_oracle(MajoranaDiagram(0, 2, (Cap(0),)))
    wide = MajoranaDiagram(0, 0, tuple([Cap(0)] * 11 + [Cup(0)] * 11))
    with pytest.raises(OracleTooLarge):
        evaluate_closed_oracle(wide)


def test_braid_is_phase_off_scattering():
    # scattering(-pi/2) = exp(-i pi/8) * positive braid, embedded in a loop
    base = (Cap(0), Cap(1))
    close = (Cup(1), Cup(0))
    v_braid = evaluate_closed_oracle(MajoranaDiagram(0, 0, base + (BraidPos(1),) + close))
    v_scat = evaluate_closed_oracle(
        MajoranaDiagram(0, 0, base + (Scattering(1, -math.pi / 2),) + close)
    )
    assert v_scat == pytest.approx(cmath.exp(-1j * math.pi / 8) * v_braid)


def test_oracle_compose_multiplicativity(rng):
    for _ in range(30):
        a = random_closed_diagram(rng, max_width=8, max_elems=10)
        b = random_closed_diagram(rng, max_width=8, max_elems=10)
        va, vb = evaluate_closed_oracle(a), evaluate_closed_oracle(b)
        glued = compose(a, b)
        assert evaluate_closed_oracle(glued) == pytest.approx(va * vb, abs=1e-12)


def test_oracle_tensor_multiplicativity(rng):
    for _ in range(30):
        a = random_closed_diagram(rng, max_width=6, max_elems=8)
        b = random_closed_diagram(rng, max_width=6, max_elems=8)
        va, vb = evaluate_closed_oracle(a), evaluate_closed_oracle(b)
        assert evaluate_closed_oracle(tensor_product(a, b)) == pytest.approx(
            va * vb, abs=1e-12 * max(1.0, abs(va * vb))
        )


def test_oracle_dagger_conjugates(rng):
    for _ in range(30):
        d = random_closed_diagram(rng, max_width=8, max_elems=12)
        assert evaluate_closed_oracle(dagger(d)) == pytest.approx(
            np.conj(evaluate_closed_oracle(d)), abs=1e-12
        )


def test_commuting_distant_elements_equal_evaluation(rng):
    # two parity-even elements on disjoint strands commute exactly
    for _ in range(40):
        d = random_closed_diagram(rng, max_width=8, max_elems=12, allow_dots=False)
        els = list(d.elements)
        swapped = None
        for i in range(len(els) - 1):
            a, b = els[i], els[i + 1]
            if isinstance(a, (BraidPos, Scattering)) and isinstance(b, (BraidPos, Scattering)):
                pa = {a.j, a.j + 1}
                pb = {b.j, b.j + 1}
                if not pa & pb:
                    swapped = els[:i] + [b, a] + els[i + 2:]
                    break
        if swapped is None:
            continue
        d2 = MajoranaDiagram(0, 0, tuple(swapped), d.amplitude)
        assert evaluate_closed_oracle(d2) == pytest.approx(
            evaluate_closed_oracle(d), abs=1e-12 * max(1, abs(evaluate_closed_oracle(d)))
        )
