from pathlib import Path

import numpy as np
import pytest

from quon2d.diagram import (
    HORIZONTAL,
    WIDTH_DELTA,
    BraidPos,
    Cap,
    Columns,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    compose,
    dagger,
    is_generic_angle,
    tensor_product,
)
from quon2d.errors import InvariantViolation, WidthMismatch
from quon2d.quon import QuonDiagram
from quon2d.serialize import parse_diagram, serialize_diagram

from conftest import random_closed_diagram

GOLDEN = Path(__file__).parent / "data" / "all_kinds.json"


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
        MajoranaDiagram(0, 2, (Cap(0),), 1.0).splice(0, 1, (Cap(5),), 1.0)


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


def test_columns_give_back_the_diagram_and_its_weights(rng):
    """A diagram's columns, handed to `from_columns` as arrays, give the
    diagram back (elements built by their constructors, signed zeros of a
    star's phi kept), and `Columns.weights` are each element's `weights()`,
    to the last bit or two of NumPy's exp against cmath's."""
    cases = [random_closed_diagram(rng, max_width=10, max_elems=40) for _ in range(60)]
    cases.append(MajoranaDiagram(2, 2, (ScatteringStar(0, complex(-0.0, 0.0)),
                                        ScatteringStar(0, complex(0.0, -0.0), HORIZONTAL))))
    for d in cases:
        columns = d.columns
        again = MajoranaDiagram.from_columns(d.width_in, d.width_out,
                                             *(np.array(column) for column in columns),
                                             amplitude=d.amplitude)
        assert "elements" not in vars(again) and len(again) == len(d)
        assert again.columns == columns and all(type(c) is tuple for c in again.columns)
        assert again._widths == d._widths and again.widths() == d.widths()
        assert again == d and hash(again) == hash(d) and repr(again) == repr(d)
        assert [str(el) for el in again.elements] == [str(el) for el in d.elements]
        quiet = np.flatnonzero(np.array(WIDTH_DELTA)[list(columns.kind)] == 0)
        a, b = columns.weights(quiet)
        elements = d.elements
        want = np.array([elements[t].weights() for t in quiet.tolist()], dtype=complex)
        got, want = np.stack([a, b], axis=1).reshape(-1, 2), want.reshape(-1, 2)
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_a_diagram_stores_its_columns_and_no_element_objects():
    d = MajoranaDiagram(0, 0, (Cap(0), Dot(1), DotPair(0, 1), Scattering(0, 0.3, HORIZONTAL),
                               Cup(0)), 2.0)
    assert set(vars(d)) == {"width_in", "width_out", "columns", "amplitude", "_widths"}
    assert d.columns == Columns((0, 2, 3, 6, 1), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1),
                                (0j, 0j, 0j, 0.3 + 0j, 0j), (False, False, False, True, False))
    assert d.elements == (Cap(0), Dot(1), DotPair(0, 1), Scattering(0, 0.3, HORIZONTAL), Cup(0))
    assert MajoranaDiagram(0, 0, d.columns, 2.0) == d
    assert repr(d) == ("MajoranaDiagram(width_in=0, width_out=0, columns=Columns(kind=(0, 2, 3, "
                       "6, 1), j=(0, 1, 0, 0, 0), k=(1, 1, 1, 1, 1), angle=(0j, 0j, 0j, "
                       "(0.3+0j), 0j), horizontal=(False, False, False, True, False)), "
                       "amplitude=(2+0j))")


@pytest.mark.parametrize("first, second", [
    (Scattering(0, -0.0), Scattering(0, 0.0)),
    (ScatteringStar(0, complex(-0.0, 0.0)), ScatteringStar(0, 0j)),
    (ScatteringStar(0, complex(0.0, -0.0)), ScatteringStar(0, complex(-0.0, -0.0))),
])
def test_signed_zero_angles_compare_and_hash_alike(first, second):
    one, other = (MajoranaDiagram(2, 2, (el,)) for el in (first, second))
    assert one == other and hash(one) == hash(other)
    assert len({one, other}) == 1


def test_a_scattering_is_not_its_star_twin():
    for t in (0.3, 0.0, -0.7 + 0.2j):
        vertical, star = (MajoranaDiagram(2, 2, (el,)) for el in
                          (Scattering(0, t), ScatteringStar(0, 1j * t)))
        assert vertical != star and star != vertical
        assert len({vertical, star}) == 2


def test_documents_round_trip_to_equal_diagrams_with_equal_hashes(rng):
    """What the benchmark's edit check relies on: a parsed document equals
    the diagram it was written from, and keys a dict to the same entry."""
    diagrams = [parse_diagram(GOLDEN.read_text())]
    diagrams += [QuonDiagram(random_closed_diagram(rng)) for _ in range(200)]
    for q in diagrams:
        again = parse_diagram(serialize_diagram(q))
        assert again == q and hash(again) == hash(q) and not again != q
        assert again.core == q.core and hash(again.core) == hash(q.core)
        assert {q: 1}[again] == 1


S, C, D, P = Scattering.CODE, Cap.CODE, Dot.CODE, DotPair.CODE


@pytest.mark.parametrize("width_in, width_out, columns, match", [
    (0, 0, dict(kind=[C, S, 1], j=[0.0, 0, 0], angle=[0, 0.3, 0]), "must be integers"),
    (0, 0, dict(kind=[C, 9, 1], j=[0, 0, 0]), "unknown element kind"),
    (0, 0, dict(kind=[C, -1, 1], j=[0, 0, 0]), "unknown element kind"),
    (0, 0, dict(kind=[C, S, 1], j=[0, 0, 0], angle=[0, float("nan"), 0]), "finite"),
    (0, 0, dict(kind=[C, S, 1], j=[0, 0, 0], angle=[0, complex(0, float("inf")), 0]), "finite"),
    (0, 0, dict(kind=[C, S, 1], j=[0, 0, 0], angle=["0", "0.3", "0"]), "must be numbers"),
    (0, 0, dict(kind=[C, S, 1], j=[0, 0, 0], horizontal=[0, 1, 0]), "orientations"),
    (0, 0, dict(kind=[1], j=[0]), "do not fit"),
    (0, 0, dict(kind=[C, S, 1], j=[0, 1, 0]), "do not fit"),
    (0, 0, dict(kind=[C, D, 1], j=[0, 2, 0]), "do not fit"),
    (0, 0, dict(kind=[C, P, 1], j=[0, 1, 0], k=[0, 1, 0]), "do not fit"),
    (0, 0, dict(kind=[C, P, 1], j=[0, 0, 0]), "do not fit"),
    (0, 0, dict(kind=[C, C, 1, 1], j=[0, 3, 0, 0]), "do not fit"),
    (0, 0, dict(kind=[C, S, 1], j=[0, -1, 0]), "do not fit"),
    (1, 1, dict(kind=[], j=[]), "width_in 1"),
    (-2, -2, dict(kind=[], j=[]), "width_in -2"),
    (0, 2, dict(kind=[C, 1], j=[0, 0]), "ends at width 0, declared width_out 2"),
    (0, 0, dict(kind=[C, 1], j=[0]), "one length"),
])
def test_from_columns_checks_what_the_constructors_check(width_in, width_out, columns, match):
    with pytest.raises(InvariantViolation, match=match):
        MajoranaDiagram.from_columns(width_in, width_out, **columns)
