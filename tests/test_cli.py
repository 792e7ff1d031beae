import pytest

from quon2d.cli import greedy_simplify
from quon2d.diagram import Cap, Cup, DotPair, MajoranaDiagram, Scattering
from quon2d.quon import ParityCut, QuonDiagram, evaluate_closed_quon

# two theta = 0 scatterings that simplify removes, before a dot pair
CORE = MajoranaDiagram(0, 0, (
    Cap(0), Cap(2), Scattering(0, 0.0), Scattering(1, 0.0), DotPair(1, 2),
    Scattering(1, 0.9), Cup(2), Cup(0),
))


def test_simplify_keeps_a_cut_before_the_dot_pair():
    q = QuonDiagram(CORE, (ParityCut(5, (0, 1)),))
    assert abs(evaluate_closed_quon(q)) <= 1e-12
    simplified = greedy_simplify(q)
    assert len(simplified.core.elements) == len(CORE.elements) - 2
    assert simplified.parity_cuts == (ParityCut(3, (0, 1)),)
    assert abs(evaluate_closed_quon(simplified)) <= 1e-12


def test_simplify_keeps_a_cut_after_the_dot_pair():
    q = QuonDiagram(CORE, (ParityCut(6, (0, 1)),))
    want = evaluate_closed_quon(q, use_oracle=True)
    got = evaluate_closed_quon(greedy_simplify(q), use_oracle=True)
    assert got == pytest.approx(want, rel=1e-12)
