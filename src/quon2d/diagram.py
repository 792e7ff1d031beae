"""Intermediate representation for Majorana diagrams.

A diagram is an ordered sequence of strand-local elements read top to bottom
(time direction), together with a complex scalar amplitude.  Strand positions
are absolute indices into the current slice; a cap at position j inserts two
strands and shifts indices >= j up by two, a cup removes two.  All diagrams
are immutable; the algebra (compose / tensor_product / dagger) returns new
values.

Conventions fixed here and relied on everywhere else:

* Majorana normalization {g_j, g_k} = 2 delta_jk (so parity factors square
  to the identity).
* A positive braid is the theta = -pi/2 member of the scattering family up
  to the U(1) factor exp(-i pi/8); both are kept as distinct element kinds.
* Scattering angles are stored exactly as given (complex allowed, 2pi
  periodic); "generic" means further than EPS_ANGLE from every integer
  multiple of pi/2 in the complex plane.
* The simultaneous dot pair DotPair(j, k) means i * g_j g_k with the right
  dot (k) acting first; a lone Dot is strictly time ordered.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import InvariantViolation, WidthMismatch

EPS_ANGLE = 1e-9

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class Cap:
    """Pair creation of Majoranas at positions j, j+1."""

    j: int


@dataclass(frozen=True)
class Cup:
    """Pair annihilation of the strands at positions j, j+1."""

    j: int


@dataclass(frozen=True)
class Dot:
    """Majorana operator insertion g_j."""

    j: int


@dataclass(frozen=True)
class DotPair:
    """Simultaneous pair of dots, i * g_j g_k with j < k."""

    j: int
    k: int


@dataclass(frozen=True)
class BraidPos:
    j: int


@dataclass(frozen=True)
class BraidNeg:
    j: int


@dataclass(frozen=True)
class Scattering:
    """Two-strand scattering (1+e^{i theta})/2 + (1-e^{i theta})/2 * i g_j g_{j+1}.

    The horizontal orientation connects the endpoints sideways instead and
    equals (1 + e^{i theta} i g g) / sqrt(2) under the Table-pinned cup/cap
    normalization.
    """

    j: int
    theta: complex
    orientation: str = VERTICAL


@dataclass(frozen=True)
class ScatteringStar:
    """Real-exponential scattering variant; equals Scattering when phi = i*theta."""

    j: int
    phi: complex
    orientation: str = VERTICAL


Element = Union[Cap, Cup, Dot, DotPair, BraidPos, BraidNeg, Scattering, ScatteringStar]

_TWO_STRAND = (BraidPos, BraidNeg, Scattering, ScatteringStar)


def is_generic_angle(theta: complex) -> bool:
    """True iff theta is further than EPS_ANGLE from every integer multiple of pi/2."""
    theta = complex(theta)
    k = round(theta.real / (math.pi / 2))
    return abs(theta - k * (math.pi / 2)) > EPS_ANGLE


def element_width_delta(el: Element) -> int:
    if isinstance(el, Cap):
        return 2
    if isinstance(el, Cup):
        return -2
    return 0


def check_element(el: Element, width: int) -> None:
    """Validate `el` against the current slice width; raises InvariantViolation."""
    if isinstance(el, Cap):
        if not 0 <= el.j <= width:
            raise InvariantViolation(f"cap position {el.j} outside 0..{width}")
    elif isinstance(el, Cup):
        if not 0 <= el.j <= width - 2:
            raise InvariantViolation(f"cup position {el.j} outside 0..{width - 2}")
    elif isinstance(el, Dot):
        if not 0 <= el.j < width:
            raise InvariantViolation(f"dot position {el.j} outside 0..{width - 1}")
    elif isinstance(el, DotPair):
        if not 0 <= el.j < el.k < width:
            raise InvariantViolation(
                f"dot pair ({el.j}, {el.k}) not ordered inside width {width}"
            )
    elif isinstance(el, _TWO_STRAND):
        if not 0 <= el.j <= width - 2:
            raise InvariantViolation(
                f"{type(el).__name__} position {el.j} outside 0..{width - 2}"
            )
    else:
        raise InvariantViolation(f"unknown element {el!r}")


def element_positions(el: Element) -> tuple[int, ...]:
    """The strand positions `el` acts on, ascending: those it creates on the
    slice after it for a cap, those it reads on the slice before it for every
    other element."""
    if isinstance(el, Dot):
        return (el.j,)
    if isinstance(el, DotPair):
        return (el.j, el.k)
    return (el.j, el.j + 1)


def reposition(el: Element, positions) -> Element:
    """`el` moved onto `positions`, ascending and listed as element_positions
    lists them."""
    lo = positions[0]
    if isinstance(el, DotPair):
        return DotPair(lo, positions[-1])
    if isinstance(el, Scattering):
        return Scattering(lo, el.theta, el.orientation)
    if isinstance(el, ScatteringStar):
        return ScatteringStar(lo, el.phi, el.orientation)
    return type(el)(lo)


def slice_widths(width_in: int, elements: Iterable[Element]) -> list[int]:
    """Replay the element sequence; returns the width before each element plus the final width."""
    if width_in < 0 or width_in % 2:
        raise InvariantViolation(f"width_in {width_in} not an even non-negative integer")
    widths = [width_in]
    w = width_in
    for el in elements:
        check_element(el, w)
        w += element_width_delta(el)
        widths.append(w)
    return widths


@dataclass(frozen=True)
class MajoranaDiagram:
    """An ordered element sequence with a scalar amplitude.

    width_in strands enter at the top, width_out leave at the bottom.  The
    constructor replays the sequence and rejects ill-formed diagrams.
    """

    width_in: int
    width_out: int
    elements: tuple[Element, ...] = ()
    amplitude: complex = 1.0 + 0.0j
    # the width before each element plus the final width, from the replay
    _widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        widths = slice_widths(self.width_in, self.elements)
        if widths[-1] != self.width_out:
            raise InvariantViolation(
                f"element replay ends at width {widths[-1]}, declared width_out {self.width_out}"
            )
        object.__setattr__(self, "_widths", tuple(widths))

    # -- inspection ----------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.width_in == 0 and self.width_out == 0

    def widths(self) -> list[int]:
        return list(self._widths)

    def max_width(self) -> int:
        return max(self._widths)

    def dot_count(self) -> int:
        n = 0
        for el in self.elements:
            if isinstance(el, Dot):
                n += 1
            elif isinstance(el, DotPair):
                n += 2
        return n

    def is_parity_even(self) -> bool:
        """Even total dot count; required for a diagram to embed in a Quon manifold."""
        return self.dot_count() % 2 == 0

    def generic_scattering_count(self) -> int:
        n = 0
        for el in self.elements:
            if isinstance(el, Scattering) and is_generic_angle(el.theta):
                n += 1
            elif isinstance(el, ScatteringStar) and is_generic_angle(-1j * complex(el.phi)):
                n += 1
        return n

    def scaled(self, factor: complex) -> "MajoranaDiagram":
        return MajoranaDiagram(
            self.width_in, self.width_out, self.elements, self.amplitude * factor
        )

    def with_elements(self, elements: Iterable[Element]) -> "MajoranaDiagram":
        elements = tuple(elements)
        width_out = self.width_in + sum(element_width_delta(el) for el in elements)
        return MajoranaDiagram(self.width_in, width_out, elements, self.amplitude)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(width: int) -> "MajoranaDiagram":
        return MajoranaDiagram(width, width)

    @staticmethod
    def empty() -> "MajoranaDiagram":
        return MajoranaDiagram(0, 0)

    @staticmethod
    def loop() -> "MajoranaDiagram":
        """A single closed Majorana loop; evaluates to sqrt(2)."""
        return MajoranaDiagram(0, 0, (Cap(0), Cup(0)))


def compose(top: MajoranaDiagram, bottom: MajoranaDiagram) -> MajoranaDiagram:
    """Vertical gluing: `top` is applied first, then `bottom`."""
    if top.width_out != bottom.width_in:
        raise WidthMismatch(
            f"top width_out {top.width_out} != bottom width_in {bottom.width_in}"
        )
    return MajoranaDiagram(
        top.width_in,
        bottom.width_out,
        top.elements + bottom.elements,
        top.amplitude * bottom.amplitude,
    )


def offset_elements(elements: Iterable[Element], off: int) -> tuple[Element, ...]:
    return tuple(
        reposition(el, [p + off for p in element_positions(el)]) for el in elements
    )


def tensor_product(left: MajoranaDiagram, right: MajoranaDiagram) -> MajoranaDiagram:
    """Horizontal gluing; left's elements run first while right's strands idle.

    Right's positions are offset by left's final width, so at every slice the
    offset equals left's concurrent width once left has finished.
    """
    elements = left.elements + offset_elements(right.elements, left.width_out)
    return MajoranaDiagram(
        left.width_in + right.width_in,
        left.width_out + right.width_out,
        elements,
        left.amplitude * right.amplitude,
    )


def dagger_element(el: Element) -> Element:
    if isinstance(el, Cap):
        return Cup(el.j)
    if isinstance(el, Cup):
        return Cap(el.j)
    if isinstance(el, BraidPos):
        return BraidNeg(el.j)
    if isinstance(el, BraidNeg):
        return BraidPos(el.j)
    if isinstance(el, Scattering):
        # -conj(theta) so that the adjoint property holds for complex angles too;
        # reduces to the negation map for real angles.
        return Scattering(el.j, -complex(el.theta).conjugate(), el.orientation)
    if isinstance(el, ScatteringStar):
        return ScatteringStar(el.j, complex(el.phi).conjugate(), el.orientation)
    return el  # Dot and DotPair are self-adjoint


def dagger(diag: MajoranaDiagram) -> MajoranaDiagram:
    """Vertical reflection: order reversed, caps and cups swapped, angles negated,
    braid signs flipped, amplitude conjugated."""
    return MajoranaDiagram(
        diag.width_out,
        diag.width_in,
        tuple(dagger_element(el) for el in reversed(diag.elements)),
        complex(diag.amplitude).conjugate(),
    )


def scattering_weights(el: Element) -> tuple[complex, complex]:
    """Coefficients (a, b) with operator a*1 + b*U on the parallel/dot-pair basis,
    U = i g_j g_{j+1}.  Defined for every two-strand element."""
    if isinstance(el, BraidPos):
        c = cmath.exp(-1j * math.pi / 8) / math.sqrt(2)
        return c, 1j * c
    if isinstance(el, BraidNeg):
        c = cmath.exp(1j * math.pi / 8) / math.sqrt(2)
        return c, -1j * c
    if isinstance(el, Scattering):
        e = cmath.exp(1j * complex(el.theta))
        if el.orientation == VERTICAL:
            return (1 + e) / 2, (1 - e) / 2
        return 1 / math.sqrt(2), e / math.sqrt(2)
    if isinstance(el, ScatteringStar):
        e = cmath.exp(complex(el.phi))
        if el.orientation == VERTICAL:
            return (1 + e) / 2, (1 - e) / 2
        return 1 / math.sqrt(2), e / math.sqrt(2)
    raise InvariantViolation(f"{el!r} has no scattering weights")
