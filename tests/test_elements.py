"""The element table: every kind's adjoint, row, shift, fit and document
form, and the checks each element runs when it is built."""

import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from quon2d.diagram import (
    HORIZONTAL,
    KINDS,
    BraidNeg,
    BraidPos,
    Cap,
    Columns,
    Cup,
    Dot,
    DotPair,
    Scattering,
    ScatteringStar,
    _replay,
)
from quon2d.errors import InvariantViolation, NumericalInstability
from quon2d.fock import FockState, apply_element, apply_gamma
from quon2d.quon import evaluate_closed_quon
from quon2d.serialize import element_from_dict, element_to_dict, parse_diagram, serialize_diagram

GOLDEN = Path(__file__).parent / "data" / "all_kinds.json"


def positions(el):
    """The element's strand positions, ascending, read off its row."""
    _, j, k, _, _ = el.row()
    return (j,) if j == k else (j, k)


SAMPLES = [
    Cap(1), Cup(1), Dot(2), DotPair(0, 3), BraidPos(1), BraidNeg(2),
    Scattering(1, 0.7), Scattering(0, 0.4 - 0.3j, HORIZONTAL),
    ScatteringStar(2, 0.25 + 0.5j), ScatteringStar(1, -0.6, HORIZONTAL),
]


def test_samples_cover_every_kind():
    assert {type(el) for el in SAMPLES} == set(KINDS.values())
    assert sorted(KINDS) == ["braid_neg", "braid_pos", "cap", "cup", "dot", "dot_pair",
                             "scattering", "scattering_star"]


@pytest.mark.parametrize("el", SAMPLES, ids=repr)
def test_element_table(el, rng):
    assert el.dagger().dagger() == el
    rows = Columns.of_elements((el,))
    assert rows.objects() == (el,)
    assert rows.dagger() == Columns.of_elements((el.dagger(),))
    shifted, = rows.shifted(2).objects()
    assert positions(shifted) == tuple(p + 2 for p in positions(el))

    # the one fit rule: a cap may open at the right edge; every other kind
    # reads live strands
    fits = el.j if el.width_delta > 0 else max(positions(el)) + 1
    assert _replay(fits, rows) == [fits, fits + el.width_delta]
    with pytest.raises(InvariantViolation):
        _replay(fits - 1, rows)
    with pytest.raises(InvariantViolation):
        _replay(fits + 10, rows.shifted(-el.j - 1))

    doc = json.loads(json.dumps(element_to_dict(el)))
    assert KINDS[doc["kind"]] is type(el)
    assert element_from_dict(doc, "element") == el

    if el.width_delta:
        return
    # the one action: a*1 + b*M, M = i^(n//2) g_{s1} ... g_{sn}, the rightmost first
    n = len(positions(el))
    qubits = (max(positions(el)) + 2) // 2
    state = FockState(2 * qubits, rng.normal(size=2 ** qubits) + 1j * rng.normal(size=2 ** qubits))
    t = state.tensor()
    m = t
    for p in reversed(positions(el)):
        m = apply_gamma(m, p)
    a, b = el.weights()
    assert np.allclose(apply_element(state, *el.row()).tensor(), a * t + b * 1j ** (n // 2) * m,
                       rtol=0, atol=1e-14)
    if n == 2 and positions(el)[1] == el.j + 1:  # i g_j g_{j+1} is Z_q, or X_q X_{q+1}
        q, odd = divmod(el.j, 2)
        if odd:
            parity = np.flip(t, (q, q + 1))
        else:
            parity = t.copy()
            parity[(slice(None),) * q + (1,)] *= -1
        assert np.array_equal(1j * m, parity)
    if el.SIGN:  # a braid is PHASE times the vertical Scattering(-SIGN pi/2)
        turn = Scattering(el.j, -el.SIGN * cmath.pi / 2).weights()
        assert np.abs(np.array(el.weights()) - el.PHASE * np.array(turn)).max() <= 1e-15


@pytest.mark.parametrize("el", [el for el in SAMPLES if hasattr(el, "angle")], ids=repr)
def test_scattering_angle_and_exponential(el):
    want = el.theta if isinstance(el, Scattering) else -1j * el.phi
    assert el.angle() == pytest.approx(want)
    assert el.exponential() == pytest.approx(cmath.exp(1j * el.angle()))
    a, b = el.weights()
    if el.orientation == HORIZONTAL:
        assert (a, b) == pytest.approx((2 ** -0.5, el.exponential() * 2 ** -0.5))
    else:
        assert a + b == pytest.approx(1.0)


@pytest.mark.parametrize("build", [
    lambda: Dot(0.5),
    lambda: DotPair(0, 1.5),
    lambda: Cap(1.0),
    lambda: Scattering(0, float("nan")),
    lambda: ScatteringStar(0, complex(0.0, float("inf"))),
    lambda: Scattering(0, 0.3, "sideways"),
    lambda: ScatteringStar(0, 0.3, "Vertical"),
])
def test_bad_elements_are_rejected_when_built(build):
    with pytest.raises(InvariantViolation):
        build()


@pytest.mark.parametrize("el", [ScatteringStar(0, 800), Scattering(1, -800j, HORIZONTAL)],
                         ids=repr)
def test_overflowing_exponential_names_the_element(el):
    with pytest.raises(NumericalInstability, match=type(el).__name__):
        el.weights()


@pytest.mark.parametrize("field, value", [
    ("theta", [float("nan"), 0.0]),
    ("orientation", "sideways"),
])
def test_bad_scattering_documents_are_rejected(field, value):
    doc = json.loads(GOLDEN.read_text())
    scattering = next(d for d in doc["elements"] if d["kind"] == "scattering")
    scattering[field] = value
    with pytest.raises(InvariantViolation):
        parse_diagram(json.dumps(doc))


def test_golden_document_reserializes_byte_identically():
    text = GOLDEN.read_text()
    q = parse_diagram(text)
    assert serialize_diagram(q) == text
    assert {type(el) for el in q.core.elements} == set(KINDS.values())
    assert any(getattr(el, "orientation", None) == HORIZONTAL for el in q.core.elements)
    assert any(isinstance(el, ScatteringStar) for el in q.core.elements)
    assert any(complex(getattr(el, "theta", 0)).imag for el in q.core.elements)
    assert evaluate_closed_quon(q) == pytest.approx(evaluate_closed_quon(q, use_oracle=True),
                                                    abs=1e-9)
