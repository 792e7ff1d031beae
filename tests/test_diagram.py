import numpy as np
import pytest

from quon2d.diagram import (
    BraidPos,
    Cap,
    Cup,
    MajoranaDiagram,
    Scattering,
    compose,
    dagger,
    is_generic_angle,
    tensor_product,
)
from quon2d.errors import InvariantViolation, WidthMismatch

from conftest import random_closed_diagram


def test_width_replay_accepts_valid():
    d = MajoranaDiagram(0, 2, (Cap(0), Cap(1), Cup(0)))
    assert d.widths() == [0, 2, 4, 2]


def test_width_replay_rejects_negative_and_odd():
    with pytest.raises(InvariantViolation):
        MajoranaDiagram(0, 0, (Cup(0),))
    with pytest.raises(InvariantViolation):
        MajoranaDiagram(1, 1)
    with pytest.raises(InvariantViolation):
        MajoranaDiagram(2, 2, (BraidPos(1),))  # needs positions 1,2 in width 2
    with pytest.raises(InvariantViolation):
        MajoranaDiagram(0, 2, (Cap(0),), 1.0).with_elements((Cap(5),))


def test_width_replay_fuzz(rng):
    # every generated diagram replays cleanly by construction; mutated ones fail
    for _ in range(10_000):
        d = random_closed_diagram(rng, max_width=10, max_elems=12)
        assert d.widths()[-1] == 0


def test_compose_contract():
    cap = MajoranaDiagram(0, 2, (Cap(0),))
    cup = MajoranaDiagram(2, 0, (Cup(0),))
    loop = compose(cap, cup)
    assert loop.is_closed and len(loop.elements) == 2
    with pytest.raises(WidthMismatch):
        compose(cap, MajoranaDiagram(4, 0, (Cup(0), Cup(0))))


def test_compose_identity_is_neutral(rng):
    d = random_closed_diagram(rng, max_width=8, max_elems=10)
    ident = MajoranaDiagram.identity(0)
    assert compose(d, ident).elements == d.elements
    assert compose(d, ident).amplitude == d.amplitude


def test_tensor_product_unit():
    d = MajoranaDiagram(0, 2, (Cap(0),), 2.0)
    out = tensor_product(MajoranaDiagram.empty(), d)
    assert out.elements == d.elements and out.amplitude == d.amplitude


def test_dagger_involution_and_fields(rng):
    for _ in range(50):
        d = random_closed_diagram(rng, max_width=8, max_elems=14)
        assert dagger(dagger(d)) == d


def test_dagger_negates_real_angles():
    d = MajoranaDiagram(2, 2, (Scattering(0, 0.3),), 1 + 2j)
    dd = dagger(d)
    assert dd.elements[0].theta == pytest.approx(-0.3)
    assert dd.amplitude == 1 - 2j


def test_generic_angle_predicate():
    assert not is_generic_angle(0.0)
    assert not is_generic_angle(np.pi / 2)
    assert not is_generic_angle(-np.pi / 2 + 1e-12)
    assert is_generic_angle(0.3)
    assert is_generic_angle(np.pi / 2 + 1e-6)
    assert is_generic_angle(0.5j)
