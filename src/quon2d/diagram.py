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
* Every element but a cap or a cup is the operator a*1 + b*M, with
  (a, b) = `weights()` and M = i^(n//2) g_{s1} ... g_{sn} over its
  `positions()` s1 < ... < sn, the rightmost acting first: g_j for a Dot
  and i g_j g_k for a DotPair(j, k) (both weigh (0, 1)), i g_j g_{j+1} for
  braids and scatterings.  The Fock oracle, the Gaussian sweep, the
  projection push and the rewrite rules all read this one statement.
* A braid is PHASE times the vertical Scattering(j, -SIGN * pi/2): SIGN = 1
  and PHASE = exp(i pi/8) for BraidPos, SIGN = -1 and PHASE = exp(-i pi/8)
  for BraidNeg (SIGN is 0 for other kinds).
* Scattering angles are stored exactly as given (complex allowed, 2pi
  periodic); "generic" means further than EPS_ANGLE from every integer
  multiple of pi/2 in the complex plane.

A diagram also holds its elements as columns (`Columns`): parallel arrays
of each element's kind code (its CODE, the index of its kind in BY_CODE),
positions, angle and orientation, derived once from the element objects
the first time they are read.  `MajoranaDiagram.from_columns` builds a
diagram from columns instead, checked once per array, and builds its
element objects, through the ordinary constructors, only when `elements`
is first read.  The trace and the Gaussian sweep read only the columns.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import InvariantViolation, NumericalInstability, WidthMismatch

EPS_ANGLE = 1e-9
I_POWERS = (1, 1j, -1, -1j)  # i^k by k % 4: M's phase is I_POWERS[n // 2 % 4]
_SQRT2 = math.sqrt(2)

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class _Element:
    """What every element kind knows about itself.  The defaults here are
    those of a self-adjoint element on the two strands j, j+1 that keeps the
    width; each kind overrides what differs."""

    KIND = ""  # the document name
    CODE = -1  # the kind code: the kind's index in BY_CODE
    width_delta = 0  # strands added to the slice
    dots = 0  # Majorana operators inserted
    SIGN = 0  # a braid's sign, +1 or -1; 0 for every other kind

    def __post_init__(self):
        try:
            for p in self.positions():
                operator.index(p)
        except TypeError:
            raise InvariantViolation(f"{self!r}: strand positions must be integers") from None

    def positions(self) -> tuple[int, ...]:
        """The strand positions the element acts on, ascending: those it
        creates on the slice after it for a cap, those it reads on the slice
        before it for every other element."""
        return (self.j, self.j + 1)

    def moved(self, positions):
        """This element on `positions`, listed as positions() lists them."""
        return type(self)(positions[0])

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        """The element of one row of `Columns`."""
        return cls(j)

    def weights(self) -> tuple[complex, complex]:
        """(a, b) of the element a*1 + b*M; kinds of fixed weights state them
        as WEIGHTS (caps and cups have none)."""
        return self.WEIGHTS

    def check(self, width: int) -> None:
        """Raise InvariantViolation unless the element fits a slice of `width`."""
        if not 0 <= self.j <= width - 2:
            raise InvariantViolation(
                f"{type(self).__name__} position {self.j} outside 0..{width - 2}"
            )

    def dagger(self):
        return self


@dataclass(frozen=True)
class Cap(_Element):
    """Pair creation of Majoranas at positions j, j+1."""

    KIND = "cap"
    CODE = 0
    width_delta = 2

    j: int

    def check(self, width: int) -> None:
        if not 0 <= self.j <= width:
            raise InvariantViolation(f"cap position {self.j} outside 0..{width}")

    def dagger(self):
        return Cup(self.j)


@dataclass(frozen=True)
class Cup(_Element):
    """Pair annihilation of the strands at positions j, j+1."""

    KIND = "cup"
    CODE = 1
    width_delta = -2

    j: int

    def dagger(self):
        return Cap(self.j)


@dataclass(frozen=True)
class Dot(_Element):
    """Majorana operator insertion g_j."""

    KIND = "dot"
    CODE = 2
    dots = 1
    WEIGHTS = (0, 1)

    j: int

    def positions(self):
        return (self.j,)

    def check(self, width: int) -> None:
        if not 0 <= self.j < width:
            raise InvariantViolation(f"dot position {self.j} outside 0..{width - 1}")


@dataclass(frozen=True)
class DotPair(_Element):
    """Simultaneous pair of dots, i * g_j g_k with j < k."""

    KIND = "dot_pair"
    CODE = 3
    dots = 2
    WEIGHTS = (0, 1)

    j: int
    k: int

    def positions(self):
        return (self.j, self.k)

    def moved(self, positions):
        return DotPair(positions[0], positions[-1])

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        return cls(j, k)

    def check(self, width: int) -> None:
        if not 0 <= self.j < self.k < width:
            raise InvariantViolation(
                f"dot pair ({self.j}, {self.k}) not ordered inside width {width}"
            )


def _braid_weights(sign: int, phase: complex) -> tuple[complex, complex]:
    """The weights of a braid, PHASE times the vertical Scattering(j,
    -SIGN * pi/2): exp(-i SIGN pi/4) / sqrt2 * (1, i SIGN)."""
    c = phase.conjugate() / _SQRT2
    return c, sign * 1j * c


@dataclass(frozen=True)
class BraidPos(_Element):
    KIND = "braid_pos"
    CODE = 4
    SIGN = 1
    PHASE = cmath.exp(1j * math.pi / 8)
    WEIGHTS = _braid_weights(SIGN, PHASE)

    j: int

    def dagger(self):
        return BraidNeg(self.j)


@dataclass(frozen=True)
class BraidNeg(_Element):
    KIND = "braid_neg"
    CODE = 5
    SIGN = -1
    PHASE = cmath.exp(-1j * math.pi / 8)
    WEIGHTS = _braid_weights(SIGN, PHASE)

    j: int

    def dagger(self):
        return BraidPos(self.j)


def scattering_weights(e, horizontal: bool):
    """The weights (a, b) of a scattering with e = exp(i * angle): (1+e)/2,
    (1-e)/2 vertically and 1/sqrt2, e/sqrt2 horizontally.  e is a number,
    or an array of the e of scatterings of one orientation (a is then the
    number 1/sqrt2 horizontally)."""
    if horizontal:
        return 1 / _SQRT2, e / _SQRT2
    return (1 + e) / 2, (1 - e) / 2


class _ScatteringKind(_Element):
    """The two scattering kinds: `scattering_weights` of e = exp(i * angle())."""

    def __post_init__(self):
        super().__post_init__()
        if self.orientation not in (VERTICAL, HORIZONTAL):
            raise InvariantViolation(
                f"{self!r}: orientation must be {VERTICAL!r} or {HORIZONTAL!r}"
            )
        try:
            finite = cmath.isfinite(self.angle())
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise InvariantViolation(f"{self!r}: the angle must be a finite number")

    def exponential(self) -> complex:
        try:
            return self._exp()
        except OverflowError:
            raise NumericalInstability(
                f"{self!r}: exp(i * angle) overflows a float; the angle's imaginary "
                f"part must stay above about -709"
            ) from None

    def weights(self) -> tuple[complex, complex]:
        return scattering_weights(self.exponential(), self.orientation == HORIZONTAL)


@dataclass(frozen=True)
class Scattering(_ScatteringKind):
    """Two-strand scattering (1+e^{i theta})/2 + (1-e^{i theta})/2 * i g_j g_{j+1}.

    The horizontal orientation connects the endpoints sideways instead and
    equals (1 + e^{i theta} i g g) / sqrt(2) under the Table-pinned cup/cap
    normalization.
    """

    KIND = "scattering"
    CODE = 6

    j: int
    theta: complex
    orientation: str = VERTICAL

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        return cls(j, angle, HORIZONTAL if horizontal else VERTICAL)

    def angle(self) -> complex:
        return complex(self.theta)

    def _exp(self) -> complex:
        return cmath.exp(1j * complex(self.theta))

    def moved(self, positions):
        return Scattering(positions[0], self.theta, self.orientation)

    def dagger(self):
        # -conj(theta) so that the adjoint property holds for complex angles too;
        # reduces to the negation map for real angles.
        return Scattering(self.j, -complex(self.theta).conjugate(), self.orientation)


@dataclass(frozen=True)
class ScatteringStar(_ScatteringKind):
    """Real-exponential scattering variant; equals Scattering when phi = i*theta."""

    KIND = "scattering_star"
    CODE = 7

    j: int
    phi: complex
    orientation: str = VERTICAL

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        # phi = i * angle, by parts, as angle() takes it apart
        return cls(j, complex(-angle.imag, angle.real), HORIZONTAL if horizontal else VERTICAL)

    def angle(self) -> complex:
        # -i phi, by parts, so that signed zeros carry over both ways
        phi = complex(self.phi)
        return complex(phi.imag, -phi.real)

    def _exp(self) -> complex:
        return cmath.exp(complex(self.phi))

    def moved(self, positions):
        return ScatteringStar(positions[0], self.phi, self.orientation)

    def dagger(self):
        return ScatteringStar(self.j, complex(self.phi).conjugate(), self.orientation)


Element = Union[Cap, Cup, Dot, DotPair, BraidPos, BraidNeg, Scattering, ScatteringStar]

KINDS = {cls.KIND: cls for cls in Element.__args__}  # document name -> kind
BY_CODE = tuple(sorted(Element.__args__, key=lambda cls: cls.CODE))  # kind code -> kind

# by kind code: the strands added, the last position less j (a dot pair's
# is its own k), whether it is a scattering, and the fixed weights (0 where
# there are none)
WIDTH_DELTA = np.array([cls.width_delta for cls in BY_CODE])
_LAST = np.array([int(cls is not Dot) for cls in BY_CODE])
_SCATTERING = np.array([issubclass(cls, _ScatteringKind) for cls in BY_CODE])
_FIXED_A, _FIXED_B = (np.array([getattr(cls, "WEIGHTS", (0, 0))[i] for cls in BY_CODE],
                               dtype=complex) for i in (0, 1))


class Columns(NamedTuple):
    """Elements as parallel arrays, element t at index t: `kind` its kind
    code, `j` its first position and `k` its last (j for a dot, k for a dot
    pair, j + 1 for every other kind), `angle` a scattering's angle() and
    `horizontal` whether a scattering is horizontal (0 and False for every
    other kind)."""

    kind: np.ndarray
    j: np.ndarray
    k: np.ndarray
    angle: np.ndarray
    horizontal: np.ndarray

    @staticmethod
    def of(elements: tuple) -> "Columns":
        """The columns of element objects: kinds and positions read off all
        of them, angles and orientations off the scatterings."""
        n = len(elements)
        kind = np.array([el.CODE for el in elements], dtype=np.intp)
        j = np.array([el.j for el in elements], dtype=np.intp)
        k = j + _LAST[kind]
        angle, horizontal = np.zeros(n, dtype=complex), np.zeros(n, dtype=bool)
        pairs = (kind == DotPair.CODE).nonzero()[0].tolist()
        if pairs:
            k[pairs] = [elements[t].k for t in pairs]
        scattering = _SCATTERING[kind].nonzero()[0].tolist()
        if scattering:
            angle[scattering] = [elements[t].angle() for t in scattering]
            horizontal[scattering] = [elements[t].orientation == HORIZONTAL for t in scattering]
        return Columns(kind, j, k, angle, horizontal)

    def elements(self) -> tuple:
        """The element objects, each built by its kind's constructor."""
        return tuple(BY_CODE[code]._of_row(j, k, angle, horizontal)
                     for code, j, k, angle, horizontal in zip(*(c.tolist() for c in self)))

    def weights(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weights (a, b) of the elements `rows`, none a cap or cup, as
        arrays: each kind's fixed weights, and `scattering_weights` of
        e = exp(i * angle) for the scatterings.  Raises NumericalInstability
        where e overflows a float, as `exponential` does."""
        kind = self.kind[rows]
        a, b = _FIXED_A[kind], _FIXED_B[kind]
        at = _SCATTERING[kind].nonzero()[0]
        if not len(at):
            return a, b
        scattering = rows[at]
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(1j * self.angle[scattering])
        if not np.isfinite(e).all():
            t = int(scattering[~np.isfinite(e)][0])
            raise NumericalInstability(
                f"{BY_CODE[self.kind[t]].__name__} at element {t}: exp(i * angle) overflows a "
                f"float; the angle's imaginary part must stay above about -709")
        a[at], b[at] = scattering_weights(e, False)
        horizontal = self.horizontal[scattering]
        if horizontal.any():
            a[at[horizontal]], b[at[horizontal]] = scattering_weights(e[horizontal], True)
        return a, b


def _checked_columns(width_in: int, width_out: int, kind, j, k, angle,
                     horizontal) -> tuple[Columns, tuple[int, ...]]:
    """The columns of `MajoranaDiagram.from_columns` and the diagram's
    widths, after each check of the element constructors and of `_replay`,
    made once per array; any failure raises InvariantViolation."""
    kind, j = np.asarray(kind), np.asarray(j)
    n = len(kind) if kind.ndim == 1 else -1
    k = j if k is None else np.asarray(k)
    angle = np.zeros(n, dtype=complex) if angle is None else np.asarray(angle)
    horizontal = np.zeros(n, dtype=bool) if horizontal is None else np.asarray(horizontal)
    if any(column.shape != (n,) for column in (j, k, angle, horizontal)):
        raise InvariantViolation("columns must be one-dimensional arrays of one length")
    if n and (j.dtype.kind not in "iu" or k.dtype.kind not in "iu"):
        raise InvariantViolation(f"strand positions must be integers, not {j.dtype} and {k.dtype}")
    if (n and kind.dtype.kind not in "iu") or not ((0 <= kind) & (kind < len(BY_CODE))).all():
        raise InvariantViolation(f"unknown element kind codes; known are 0..{len(BY_CODE) - 1}")
    kind = kind.astype(np.intp, copy=False)
    scattering = _SCATTERING[kind]
    if angle.dtype.kind not in "biufc":
        raise InvariantViolation(f"angles must be numbers, not {angle.dtype}")
    angle = np.where(scattering, angle, 0).astype(complex, copy=False)
    if not np.isfinite(angle).all():
        t = int(np.flatnonzero(~np.isfinite(angle))[0])
        raise InvariantViolation(f"element {t}: the angle must be a finite number")
    if horizontal.dtype != bool:
        raise InvariantViolation(
            f"orientations must be booleans (horizontal), not {horizontal.dtype}")
    if width_in < 0 or width_in % 2:
        raise InvariantViolation(f"width_in {width_in} not an even non-negative integer")
    delta = WIDTH_DELTA[kind]
    widths = np.empty(n + 1, dtype=np.intp)
    widths[0] = width_in
    np.cumsum(delta, out=widths[1:])
    widths[1:] += width_in
    last = np.where(kind == DotPair.CODE, k, j + _LAST[kind])
    room = widths[:-1] + np.maximum(delta, 0)  # a cap's positions lie on the slice after it
    bad = (j < 0) | (last >= room) | ((last <= j) & (kind != Dot.CODE))
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"{BY_CODE[kind[t]].__name__} at element {t}: positions {j[t]}..{last[t]} do not "
            f"fit the slice of width {widths[t]}")
    if widths[-1] != width_out:
        raise InvariantViolation(
            f"element replay ends at width {widths[-1]}, declared width_out {width_out}")
    columns = Columns(kind, j.astype(np.intp, copy=False), last.astype(np.intp, copy=False),
                      angle, horizontal & scattering)
    return columns, tuple(widths.tolist())


def is_generic_angle(theta: complex) -> bool:
    """True iff theta is further than EPS_ANGLE from every integer multiple of pi/2."""
    theta = complex(theta)
    k = round(theta.real / (math.pi / 2))
    return abs(theta - k * (math.pi / 2)) > EPS_ANGLE


def slice_widths(width_in: int, elements: Iterable[Element]) -> list[int]:
    """Replay the element sequence; returns the width before each element plus the final width."""
    if width_in < 0 or width_in % 2:
        raise InvariantViolation(f"width_in {width_in} not an even non-negative integer")
    return _replay(width_in, elements)


def _replay(w: int, elements: Iterable[Element]) -> list[int]:
    """Check each element against the width it meets, starting from w;
    returns w, then the width after each element."""
    widths = [w]
    for el in elements:
        try:
            el.check(w)
        except AttributeError:
            raise InvariantViolation(f"unknown element {el!r}") from None
        w += el.width_delta
        widths.append(w)
    return widths


@dataclass(frozen=True)
class MajoranaDiagram:
    """An ordered element sequence with a scalar amplitude.

    width_in strands enter at the top, width_out leave at the bottom.  The
    constructor replays the whole sequence, O(len(elements)): it checks that
    width_in is even and non-negative, that each element is a known kind
    that fits the width it meets, and that the replay ends at width_out,
    and it keeps the width of every slice.  `splice` edits a run of
    elements and replays only what the edit can change.
    """

    width_in: int
    width_out: int
    # no class attribute, which would slow every read of it down
    elements: tuple[Element, ...] = field(default_factory=tuple)
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

    @staticmethod
    def from_columns(width_in: int, width_out: int, kind, j, k=None, angle=None,
                     horizontal=None, amplitude: complex = 1.0) -> "MajoranaDiagram":
        """The diagram of the elements given as columns (see `Columns`):
        kind codes and first positions, with k the second position of each
        dot pair (read only there), angle each scattering's angle() and
        horizontal its orientation (both read only at scatterings).

        It equals the diagram of those element objects, and raises
        InvariantViolation where that constructor would: for positions that
        are not integers, an unknown kind, an angle that is not finite, an
        element that does not fit the width it meets, a width_in that is not
        even and non-negative, or a replay that does not end at width_out.
        Each check runs once per array; the element objects are built only
        when `elements` is first read."""
        columns, widths = _checked_columns(width_in, width_out, kind, j, k, angle, horizontal)
        diag = object.__new__(_FromColumns)
        for name, value in (("width_in", width_in), ("width_out", width_out),
                            ("amplitude", complex(amplitude)), ("_widths", widths),
                            ("columns", columns)):
            object.__setattr__(diag, name, value)
        return diag

    @functools.cached_property
    def columns(self) -> Columns:
        """The elements as columns, derived once from the element objects."""
        return Columns.of(self.elements)

    def __len__(self) -> int:
        return len(self._widths) - 1

    # -- inspection ----------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.width_in == 0 and self.width_out == 0

    def widths(self) -> list[int]:
        return list(self._widths)

    def max_width(self) -> int:
        return max(self._widths)

    def dot_count(self) -> int:
        return sum(el.dots for el in self.elements)

    def generic_scattering_count(self) -> int:
        columns = self.columns
        return sum(map(is_generic_angle, columns.angle[_SCATTERING[columns.kind]].tolist()))

    def scaled(self, factor: complex) -> "MajoranaDiagram":
        return MajoranaDiagram(
            self.width_in, self.width_out, self.elements, self.amplitude * factor
        )

    def splice(self, at: int, removed: int, replacement: Iterable[Element],
               amplitude: complex, width_in: int | None = None) -> "MajoranaDiagram":
        """This diagram with the `removed` elements from index `at` replaced
        by `replacement`, and with `amplitude`.  `width_in` is the new top
        width of a run at the top boundary (at == 0) that changes it.

        The result is the diagram the constructor would build, width_out
        being where its replay ends, and an invalid edit raises what the
        constructor would.  The checks: the run lies inside the elements, a
        new width_in comes with at == 0 and is even and non-negative, and
        each replacement element fits the width it meets, replayed from the
        width at `at`.  Where that replay ends at the old width of slice
        at + removed, the elements after the run meet the widths they met
        before: their widths are reused unchecked.  Otherwise they are
        replayed and checked too.  Cost: O(len(replacement)) element checks
        when the widths meet, O(len(elements)) otherwise, besides the tuple
        copies of the elements and widths.
        """
        n = len(self.elements)
        end = at + removed
        if not 0 <= at <= end <= n:
            raise InvariantViolation(f"run of {removed} elements from {at} outside 0..{n}")
        replacement = tuple(replacement)
        if width_in is None:
            width_in = self.width_in
        elif at:
            raise InvariantViolation(f"a new width_in needs a run at the top boundary, not at {at}")
        elif width_in < 0 or width_in % 2:
            raise InvariantViolation(f"width_in {width_in} not an even non-negative integer")
        run = _replay(self._widths[at] if at else width_in, replacement)
        if run[-1] == self._widths[end]:
            tail = self._widths[end + 1:]
        else:
            tail = tuple(_replay(run[-1], self.elements[end:])[1:])
        widths = self._widths[:at] + tuple(run) + tail
        diag = object.__new__(MajoranaDiagram)
        for name, value in (("width_in", width_in), ("width_out", widths[-1]),
                            ("elements", self.elements[:at] + replacement + self.elements[end:]),
                            ("amplitude", complex(amplitude)), ("_widths", widths)):
            object.__setattr__(diag, name, value)
        return diag

    def with_elements(self, elements: Iterable[Element]) -> "MajoranaDiagram":
        elements = tuple(elements)
        width_out = self.width_in + sum(el.width_delta for el in elements)
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


class _FromColumns(MajoranaDiagram):
    """A diagram from `MajoranaDiagram.from_columns` whose element objects
    are not built yet.  Reading them builds them and makes the diagram a
    plain MajoranaDiagram, so that comparing, hashing and printing it are
    those of the diagram of its elements, and no other diagram pays for a
    lazy attribute."""

    def _build(self) -> None:
        object.__setattr__(self, "elements", self.columns.elements())
        object.__setattr__(self, "__class__", MajoranaDiagram)

    def __getattr__(self, name):
        if name != "elements":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build()
        return self.elements

    def __eq__(self, other):
        self._build()
        return self == other

    def __hash__(self):
        self._build()
        return hash(self)

    def __repr__(self):
        self._build()
        return repr(self)


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
    return tuple(el.moved([p + off for p in el.positions()]) for el in elements)


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


def dagger(diag: MajoranaDiagram) -> MajoranaDiagram:
    """Vertical reflection: order reversed, caps and cups swapped, angles negated,
    braid signs flipped, amplitude conjugated."""
    return MajoranaDiagram(
        diag.width_out,
        diag.width_in,
        tuple(el.dagger() for el in reversed(diag.elements)),
        complex(diag.amplitude).conjugate(),
    )

