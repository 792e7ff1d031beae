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
  (a, b) = `row_weights` of its row and M = i^(n//2) g_{s1} ... g_{sn} over
  its positions s1 < ... < sn, the rightmost acting first: g_j for a Dot
  and i g_j g_k for a DotPair(j, k) (both weigh (0, 1)), i g_j g_{j+1} for
  braids and scatterings.  The Fock oracle, the Gaussian sweep, the
  projection push and the rewrite rules all read this one statement.
* A braid is PHASE times the vertical Scattering(j, -SIGN * pi/2): SIGN = 1
  and PHASE = exp(i pi/8) for BraidPos, SIGN = -1 and PHASE = exp(-i pi/8)
  for BraidNeg (SIGN is 0 for other kinds).  It is a(1 + mu g_j g_{j+1})
  with mu = -SIGN, a times sqrt2 times the unitary U with U g_j = -mu g_{j+1} U
  and U g_{j+1} = mu g_j U: a crossing of the two worldlines, each carried
  to the other's position with a sign (CROSSING holds each kind's mu).
* Scattering angles are stored exactly as given (complex allowed, 2pi
  periodic); "generic" means further than EPS_ANGLE from every integer
  multiple of pi/2 in the complex plane.

A diagram stores its elements only as columns (`Columns`): tuples of each
element's kind code (its CODE, the index of its kind in BY_CODE), first and
last position, angle and orientation.  The element classes are the per-kind
table (code, width delta, weights, dagger) and the public constructors:
objects handed to `MajoranaDiagram` or to `splice` become rows once, where
they enter, and `MajoranaDiagram.elements` builds objects back for readers
outside the package.  One fit rule (`_misfit`) checks every row, number by
number in a replay and array-wide in `MajoranaDiagram.from_columns`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Union

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
    CROSSING = 0  # a braid's mu = -SIGN, the sign of its crossing; 0 for every other kind
    TWO = 1  # 1 for two positions, 0 for a dot's one

    def __post_init__(self):
        try:
            for p in (self.j, getattr(self, "k", 0)):
                operator.index(p)
        except TypeError:
            raise InvariantViolation(f"{self!r}: strand positions must be integers") from None

    def row(self) -> tuple:
        """The element's row of `Columns`: (kind code, first position, last
        position, angle, horizontal).  Its positions, ascending, are the
        first and the last, or the first alone for a dot: those it creates
        on the slice after it for a cap, those it reads on the slice before
        it for every other element."""
        return (self.CODE, self.j, self.j + self.TWO, 0j, False)

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        """The element of one row of `Columns`."""
        return cls(j)

    def weights(self) -> tuple[complex, complex]:
        """(a, b) of the element a*1 + b*M (caps and cups have none)."""
        kind, _, _, angle, horizontal = self.row()
        return row_weights(kind, angle, horizontal)

    def dagger(self):
        """The adjoint element, from its row's adjoint (`Columns.dagger`)."""
        return Columns.of_elements((self,)).dagger().objects()[0]


@dataclass(frozen=True)
class Cap(_Element):
    """Pair creation of Majoranas at positions j, j+1."""

    KIND = "cap"
    CODE = 0
    width_delta = 2

    j: int


@dataclass(frozen=True)
class Cup(_Element):
    """Pair annihilation of the strands at positions j, j+1."""

    KIND = "cup"
    CODE = 1
    width_delta = -2

    j: int


@dataclass(frozen=True)
class Dot(_Element):
    """Majorana operator insertion g_j."""

    KIND = "dot"
    CODE = 2
    dots = 1
    TWO = 0
    WEIGHTS = (0, 1)

    j: int


@dataclass(frozen=True)
class DotPair(_Element):
    """Simultaneous pair of dots, i * g_j g_k with j < k."""

    KIND = "dot_pair"
    CODE = 3
    dots = 2
    WEIGHTS = (0, 1)

    j: int
    k: int

    def row(self):
        return (self.CODE, self.j, self.k, 0j, False)

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        return cls(j, k)


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
    CROSSING = -1
    PHASE = cmath.exp(1j * math.pi / 8)
    WEIGHTS = _braid_weights(SIGN, PHASE)

    j: int


@dataclass(frozen=True)
class BraidNeg(_Element):
    KIND = "braid_neg"
    CODE = 5
    SIGN = -1
    CROSSING = 1
    PHASE = cmath.exp(-1j * math.pi / 8)
    WEIGHTS = _braid_weights(SIGN, PHASE)

    j: int


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

    def row(self):
        return (self.CODE, self.j, self.j + 1, self.angle(), self.orientation == HORIZONTAL)

    @classmethod
    def _of_row(cls, j, k, angle, horizontal):
        return cls(j, cls._parameter(angle), HORIZONTAL if horizontal else VERTICAL)

    def exponential(self) -> complex:
        return exponential(self.CODE, self.angle())


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

    def angle(self) -> complex:
        return complex(self.theta)

    @staticmethod
    def _parameter(angle: complex) -> complex:
        return angle

    @staticmethod
    def _exp(angle: complex) -> complex:
        return cmath.exp(1j * angle)


@dataclass(frozen=True)
class ScatteringStar(_ScatteringKind):
    """Real-exponential scattering variant; equals Scattering when phi = i*theta."""

    KIND = "scattering_star"
    CODE = 7

    j: int
    phi: complex
    orientation: str = VERTICAL

    def angle(self) -> complex:
        # -i phi, by parts, so that signed zeros carry over both ways
        phi = complex(self.phi)
        return complex(phi.imag, -phi.real)

    @staticmethod
    def _parameter(angle: complex) -> complex:
        return complex(-angle.imag, angle.real)  # phi = i * angle, by parts

    @staticmethod
    def _exp(angle: complex) -> complex:
        return cmath.exp(complex(-angle.imag, angle.real))


Element = Union[Cap, Cup, Dot, DotPair, BraidPos, BraidNeg, Scattering, ScatteringStar]

KINDS = {cls.KIND: cls for cls in Element.__args__}  # document name -> kind
BY_CODE = tuple(sorted(Element.__args__, key=lambda cls: cls.CODE))  # kind code -> kind

# by kind code: the strands added, the strands a cap adds to the slice its
# positions must fit (0 for other kinds), 1 for two positions (0 for a dot),
# whether it is a scattering, the dots, the sign and the adjoint's code
WIDTH_DELTA = tuple(cls.width_delta for cls in BY_CODE)
# by kind code: a braid's mu, +-1, 0 for every kind that is no crossing.
# The worldline crossing from position j to j + 1 picks up the sign -mu, i^(1
# + mu), the one crossing from j + 1 to j the sign mu, i^(1 - mu), the same
# either way along the worldline.  `wires` and `gaussian` read crossings here.
CROSSING = tuple(cls.CROSSING for cls in BY_CODE)
GROWN = tuple(max(delta, 0) for delta in WIDTH_DELTA)
TWO = tuple(cls.TWO for cls in BY_CODE)
SCATTERING = tuple(issubclass(cls, _ScatteringKind) for cls in BY_CODE)
DOTS = tuple(cls.dots for cls in BY_CODE)
SIGN = tuple(cls.SIGN for cls in BY_CODE)
DAGGER = (Cup.CODE, Cap.CODE, Dot.CODE, DotPair.CODE, BraidNeg.CODE, BraidPos.CODE,
          Scattering.CODE, ScatteringStar.CODE)
_FIXED_A, _FIXED_B = (np.array([getattr(cls, "WEIGHTS", (0, 0))[i] for cls in BY_CODE],
                               dtype=complex) for i in (0, 1))


def exponential(kind: int, angle: complex) -> complex:
    """e = exp(i * angle) of a scattering of kind code `kind`; raises
    NumericalInstability where it overflows a float."""
    try:
        return BY_CODE[kind]._exp(angle)
    except OverflowError:
        raise NumericalInstability(
            f"{BY_CODE[kind].__name__} of angle {angle}: exp(i * angle) overflows a float; "
            f"the angle's imaginary part must stay above about -709") from None


def row_weights(kind: int, angle: complex, horizontal: bool) -> tuple[complex, complex]:
    """(a, b) of the element a*1 + b*M of one row: the kind's fixed WEIGHTS,
    or a scattering's `scattering_weights`."""
    if SCATTERING[kind]:
        return scattering_weights(exponential(kind, angle), horizontal)
    return BY_CODE[kind].WEIGHTS


def _misfit(j, last, width, grown, two):
    """Whether an element of first and last positions j, last does not fit
    the slice of `width` it meets: a position below 0 or past the slice (a
    cap's lie on the slice after it, `grown` = 2 strands wider), or a last
    position not after the first where there are `two` = 1 positions.
    Numbers, or arrays of one length (the result is then elementwise)."""
    return (j < 0) | (last >= width + grown) | (last < j + two)


class Columns(NamedTuple):
    """Elements as parallel tuples, element t at index t: `kind` its kind
    code, `j` its first position and `k` its last (j for a dot, k for a dot
    pair, j + 1 for every other kind), `angle` a scattering's angle() and
    `horizontal` whether a scattering is horizontal (0j and False for every
    other kind).  len() of a Columns is its field count; a diagram's
    len() is its element count."""

    kind: tuple[int, ...]
    j: tuple[int, ...]
    k: tuple[int, ...]
    angle: tuple[complex, ...]
    horizontal: tuple[bool, ...]

    @staticmethod
    def of_rows(rows) -> "Columns":
        """The columns of rows (kind, j, k, angle, horizontal)."""
        rows = list(rows)
        return Columns(*zip(*rows)) if rows else NO_COLUMNS

    @staticmethod
    def of_elements(elements) -> "Columns":
        """The rows of element objects."""
        try:
            return Columns.of_rows([el.row() for el in elements])
        except AttributeError:
            raise InvariantViolation(
                f"unknown element among {elements!r}; elements are {', '.join(KINDS)}") from None

    @staticmethod
    def joined(parts) -> "Columns":
        """The rows of `parts`, one after the other."""
        return Columns(*map(tuple, map(itertools.chain.from_iterable, zip(NO_COLUMNS, *parts))))

    def cut(self, start: int, stop: int) -> "Columns":
        """Rows start .. stop - 1."""
        return Columns(*(column[start:stop] for column in self))

    def shifted(self, offset: int) -> "Columns":
        """The rows with every position moved by `offset`."""
        return Columns(self.kind, tuple(p + offset for p in self.j),
                       tuple(p + offset for p in self.k), self.angle, self.horizontal)

    def dagger(self) -> "Columns":
        """The adjoint rows: order reversed, caps and cups swapped, braid
        signs flipped, each scattering angle a taken to -conj(a) by parts,
        so that the adjoint holds for complex angles too (a star's phi goes
        to conj(phi))."""
        kind = tuple(DAGGER[code] for code in reversed(self.kind))
        angle = tuple(complex(-a.real, a.imag) if SCATTERING[code] else a
                      for code, a in zip(kind, reversed(self.angle)))
        return Columns(kind, self.j[::-1], self.k[::-1], angle, self.horizontal[::-1])

    def objects(self) -> tuple:
        """The element objects, each built by its kind's constructor."""
        return tuple(BY_CODE[code]._of_row(j, k, angle, horizontal)
                     for code, j, k, angle, horizontal in zip(*self))

    def weights(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weights (a, b) of the elements `rows`, none a cap or cup, as
        arrays: each kind's fixed weights, and `scattering_weights` of
        e = exp(i * angle) for the scatterings.  Raises NumericalInstability
        where e overflows a float, as `exponential` does."""
        n = len(self.kind)
        kind = np.fromiter(self.kind, np.intp, n)[rows]
        a, b = _FIXED_A[kind], _FIXED_B[kind]
        at = np.array(SCATTERING)[kind].nonzero()[0]
        if not len(at):
            return a, b
        scattering = rows[at]
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(1j * np.fromiter(self.angle, complex, n)[scattering])
        if not np.isfinite(e).all():
            t = int(scattering[~np.isfinite(e)][0])
            raise NumericalInstability(
                f"{BY_CODE[self.kind[t]].__name__} at element {t}: exp(i * angle) overflows a "
                f"float; the angle's imaginary part must stay above about -709")
        a[at], b[at] = scattering_weights(e, False)
        horizontal = np.fromiter(self.horizontal, bool, n)[scattering]
        if horizontal.any():
            a[at[horizontal]], b[at[horizontal]] = scattering_weights(e[horizontal], True)
        return a, b


NO_COLUMNS = Columns((), (), (), (), ())


def _columns(elements) -> Columns:
    """`elements` as columns: a Columns as it is, element objects as their rows."""
    return elements if type(elements) is Columns else Columns.of_elements(elements)


def _replay(width: int, columns: Columns) -> list[int]:
    """Check each row against the width it meets (`_misfit`), starting from
    `width`; returns it, then the width after each row."""
    widths = [width]
    for kind, j, last in zip(columns.kind, columns.j, columns.k):
        if _misfit(j, last, width, GROWN[kind], TWO[kind]):
            raise InvariantViolation(
                f"{BY_CODE[kind].__name__} at positions {j}..{last} does not fit the slice of "
                f"width {width}")
        width += WIDTH_DELTA[kind]
        widths.append(width)
    return widths


def _check_width_in(width_in: int) -> None:
    if width_in < 0 or width_in % 2:
        raise InvariantViolation(f"width_in {width_in} not an even non-negative integer")


def _checked_arrays(width_in: int, width_out: int, kind, j, k, angle,
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
    scattering = np.array(SCATTERING)[kind]
    if angle.dtype.kind not in "biufc":
        raise InvariantViolation(f"angles must be numbers, not {angle.dtype}")
    angle = np.where(scattering, angle, 0).astype(complex, copy=False)
    if not np.isfinite(angle).all():
        t = int(np.flatnonzero(~np.isfinite(angle))[0])
        raise InvariantViolation(f"element {t}: the angle must be a finite number")
    if horizontal.dtype != bool:
        raise InvariantViolation(
            f"orientations must be booleans (horizontal), not {horizontal.dtype}")
    _check_width_in(width_in)
    widths = np.empty(n + 1, dtype=np.intp)
    widths[0] = width_in
    np.cumsum(np.array(WIDTH_DELTA)[kind], out=widths[1:])
    widths[1:] += width_in
    two = np.array(TWO)[kind]
    last = np.where(kind == DotPair.CODE, k, j + two)
    bad = _misfit(j, last, widths[:-1], np.array(GROWN)[kind], two)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        raise InvariantViolation(
            f"{BY_CODE[kind[t]].__name__} at element {t}: positions {j[t]}..{last[t]} do not "
            f"fit the slice of width {widths[t]}")
    if widths[-1] != width_out:
        raise InvariantViolation(
            f"element replay ends at width {widths[-1]}, declared width_out {width_out}")
    columns = Columns(tuple(kind.tolist()), tuple(j.tolist()), tuple(last.tolist()),
                      tuple(angle.tolist()), tuple((horizontal & scattering).tolist()))
    return columns, tuple(widths.tolist())


def is_generic_angle(theta: complex) -> bool:
    """True iff theta is further than EPS_ANGLE from every integer multiple of pi/2."""
    theta = complex(theta)
    k = round(theta.real / (math.pi / 2))
    return abs(theta - k * (math.pi / 2)) > EPS_ANGLE


@dataclass(frozen=True, init=False)
class MajoranaDiagram:
    """An ordered element sequence with a scalar amplitude, stored as its
    `columns`.

    width_in strands enter at the top, width_out leave at the bottom.  The
    constructor takes element objects, or a Columns of rows built by this
    module (arrays from elsewhere go through `from_columns`, which checks
    their types), and replays the whole sequence, O(len(elements)): it
    checks that width_in is even and non-negative, that each element fits
    the width it meets, and that the replay ends at width_out, and it keeps
    the width of every slice.  `splice` edits a run of elements and replays
    only what the edit can change.  Diagrams compare and hash by their
    widths, columns and amplitude.
    """

    width_in: int
    width_out: int
    columns: Columns
    amplitude: complex
    # the width before each element plus the final width, from the replay
    _widths: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, width_in: int, width_out: int, elements=(),
                 amplitude: complex = 1.0 + 0.0j):
        vars(self).update(width_in=width_in, width_out=width_out, columns=_columns(elements),
                          amplitude=complex(amplitude))
        self.__post_init__()

    def __post_init__(self):
        _check_width_in(self.width_in)
        widths = _replay(self.width_in, self.columns)
        if widths[-1] != self.width_out:
            raise InvariantViolation(
                f"element replay ends at width {widths[-1]}, declared width_out {self.width_out}"
            )
        object.__setattr__(self, "_widths", tuple(widths))

    @staticmethod
    def from_columns(width_in: int, width_out: int, kind, j, k=None, angle=None,
                     horizontal=None, amplitude: complex = 1.0) -> "MajoranaDiagram":
        """The diagram of the elements given as arrays (see `Columns`):
        kind codes and first positions, with k the second position of each
        dot pair (read only there), angle each scattering's angle() and
        horizontal its orientation (both read only at scatterings).

        It equals the diagram of those element objects, and raises
        InvariantViolation where that constructor would: for positions that
        are not integers, an unknown kind, an angle that is not finite, an
        element that does not fit the width it meets (`_misfit`, once per
        array), a width_in that is not even and non-negative, or a replay
        that does not end at width_out."""
        columns, widths = _checked_arrays(width_in, width_out, kind, j, k, angle, horizontal)
        diag = object.__new__(MajoranaDiagram)
        vars(diag).update(width_in=width_in, width_out=width_out, columns=columns,
                          amplitude=complex(amplitude), _widths=widths)
        return diag

    @property
    def elements(self) -> tuple:
        """The element objects, built from the columns on every read."""
        return self.columns.objects()

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
        return sum(map(DOTS.__getitem__, self.columns.kind))

    def generic_scattering_count(self) -> int:
        columns = self.columns
        return sum(is_generic_angle(angle) for code, angle in zip(columns.kind, columns.angle)
                   if SCATTERING[code])

    def scaled(self, factor: complex) -> "MajoranaDiagram":
        return self.splice(0, 0, NO_COLUMNS, self.amplitude * factor)

    def splice(self, at: int, removed: int, replacement, amplitude: complex,
               width_in: int | None = None) -> "MajoranaDiagram":
        """This diagram with the `removed` elements from index `at` replaced
        by `replacement` (element objects, or a Columns), and with
        `amplitude`.  `width_in` is the new top width of a run at the top
        boundary (at == 0) that changes it.

        The result is the diagram the constructor would build, width_out
        being where its replay ends, and an invalid edit raises what the
        constructor would.  The checks: the run lies inside the elements, a
        new width_in comes with at == 0 and is even and non-negative, and
        each replacement row fits the width it meets, replayed from the
        width at `at`.  Where that replay ends at the old width of slice
        at + removed, the elements after the run meet the widths they met
        before: their widths are reused unchecked.  Otherwise they are
        replayed and checked too.  Cost: O(len(replacement)) row checks
        when the widths meet, O(len(elements)) otherwise, besides the tuple
        copies of the columns and widths.
        """
        n = len(self._widths) - 1
        end = at + removed
        if not 0 <= at <= end <= n:
            raise InvariantViolation(f"run of {removed} elements from {at} outside 0..{n}")
        replacement = _columns(replacement)
        if width_in is None:
            width_in = self.width_in
        elif at:
            raise InvariantViolation(f"a new width_in needs a run at the top boundary, not at {at}")
        else:
            _check_width_in(width_in)
        run = _replay(self._widths[at] if at else width_in, replacement)
        if run[-1] == self._widths[end]:
            tail = self._widths[end + 1:]
        else:
            tail = tuple(_replay(run[-1], self.columns.cut(end, n))[1:])
        widths = self._widths[:at] + tuple(run) + tail
        kind, j, k, angle, horizontal = self.columns
        new = replacement
        columns = Columns(kind[:at] + new.kind + kind[end:], j[:at] + new.j + j[end:],
                          k[:at] + new.k + k[end:], angle[:at] + new.angle + angle[end:],
                          horizontal[:at] + new.horizontal + horizontal[end:])
        diag = object.__new__(MajoranaDiagram)
        vars(diag).update(width_in=width_in, width_out=widths[-1], columns=columns,
                          amplitude=complex(amplitude), _widths=widths)
        return diag

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
    return top.splice(len(top), 0, bottom.columns, top.amplitude * bottom.amplitude)


def tensor_product(left: MajoranaDiagram, right: MajoranaDiagram) -> MajoranaDiagram:
    """Horizontal gluing; left's elements run first while right's strands idle.

    Right's positions are offset by left's final width, so at every slice the
    offset equals left's concurrent width once left has finished.
    """
    return MajoranaDiagram(
        left.width_in + right.width_in,
        left.width_out + right.width_out,
        Columns.joined((left.columns, right.columns.shifted(left.width_out))),
        left.amplitude * right.amplitude,
    )


def dagger(diag: MajoranaDiagram) -> MajoranaDiagram:
    """Vertical reflection: order reversed, caps and cups swapped, angles negated,
    braid signs flipped, amplitude conjugated."""
    return MajoranaDiagram(diag.width_out, diag.width_in, diag.columns.dagger(),
                           complex(diag.amplitude).conjugate())
