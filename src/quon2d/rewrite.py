"""Value-preserving rewriting rules for Majorana diagrams.

Each rule rewrites a local element pattern and multiplies the amplitude by
the rule's scalar so that closed-diagram evaluation is unchanged.  The
scalars are calibrated against the Fock oracle (see RULE_SCALARS and the
calibration tests) rather than transcribed from figures:

* a dot relocates across a cap or cup arm at the cost of +-i,
* a kink (cap, braid, cup) equals 1/PHASE times the plain strand,
* switching a braid type costs a dot pair and exp(+-i pi/4),
* a dot pair equals exp(-i pi/4) times a double positive braid,
* a dot passes a scattering, theta -> pi - theta, at the cost of i e^{i theta},
* a dot pair is absorbed into a scattering, theta -> theta + pi, for free,
* the space-time duality swaps the scattering orientation; the caption
  constant A = (1+e^{i theta})/2 preserves value only together with the
  loop factor sqrt(2) (the horizontal primitive carries the cup/cap
  normalization), so the applied scalar is sqrt(2)*A.

Each rule is a RewriteRule whose one method, `rewrite`, holds both its
match and its replacement; it raises only where its pattern matches but the
move has no value-preserving result (SingularAngle, NoSolution,
NumericalInstability).  `apply_rule` checks the site, calls the rule once,
raises one PatternMismatch naming the rule, the index and the pattern it
needs, and splices the replacement into the diagram.

The Yang-Baxter solver works in the two-dimensional spinor representation
(the three-strand scatterings generate a complexified SU(2)).  There the
partner angles make one matrix diagonal and solve one quadratic, so the
solutions come in closed form: at most four candidates, each checked
against `yang_baxter_operator`.  The tests verify them as 8x8 operators
too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    BY_CODE,
    DAGGER,
    HORIZONTAL,
    SCATTERING,
    SIGN,
    TWO,
    VERTICAL,
    BraidNeg,
    BraidPos,
    Cap,
    Columns,
    Cup,
    Dot,
    DotPair,
    Element,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    exponential,
    is_generic_angle,
    row_weights,
)
from .errors import (
    NoSolution,
    NotAScattering,
    NumericalInstability,
    PatternMismatch,
    SingularAngle,
    UnknownMode,
)
from .quon import QuonDiagram

_PI = math.pi

# oracle-calibrated scalars (tests pin every entry); a kink costs 1/PHASE
RULE_SCALARS = {
    "kink_pos": BraidPos.PHASE.conjugate(),
    "kink_neg": BraidNeg.PHASE.conjugate(),
    "braid_switch_pos_to_neg": cmath.exp(1j * _PI / 4),
    "braid_switch_neg_to_pos": cmath.exp(-1j * _PI / 4),
    "pair_dots_to_braids": cmath.exp(-1j * _PI / 4),
    "scatter_to_braid_pos": BraidPos.PHASE.conjugate(),
    "scatter_to_braid_neg": BraidNeg.PHASE.conjugate(),
    "spacetime_loop_factor": math.sqrt(2.0),
}


@dataclass(frozen=True)
class RewriteSite:
    """Element indices a rule acts on (leftmost index of the pattern)."""

    indices: tuple[int, ...]

    @staticmethod
    def at(*indices: int) -> "RewriteSite":
        return RewriteSite(tuple(indices))


_CAP, _CUP, _DOT, _PAIR, _SCATTERING = Cap.CODE, Cup.CODE, Dot.CODE, DotPair.CODE, Scattering.CODE
_BRAIDS = (BraidPos.CODE, BraidNeg.CODE)
_SCATTERINGS = (Scattering.CODE, ScatteringStar.CODE)


class RewriteRule:
    """A value-preserving local move.  A site holds ARITY element indices;
    the rule replaces the SPAN elements from the site's first index, whose
    kind code must be in LEAD.  `rewrite(c, *indices)` reads the diagram's
    columns c (`diagram.Columns`), is called only where those hold, and
    returns (replacement, scalar) when the pattern (named by PATTERN) is
    there, the replacement as element objects or as columns, and None when
    it is not, so scans catch nothing and test one kind code per index."""

    ARITY = 1
    SPAN = 1
    LEAD: tuple = ()
    PATTERN = ""

    def first_match(self, c, start: int = 0) -> int | None:
        """The first index from `start` on where this one-index rule
        matches the columns c, or None.  A match at i reads rows
        i .. i + SPAN - 1 only."""
        lead = self.LEAD
        for i, code in enumerate(c.kind[start:len(c.kind) - self.SPAN + 1], start):
            if code in lead and self.rewrite(c, i) is not None:
                return i
        return None


@dataclass(frozen=True)
class DotRelocateCapCup(RewriteRule):
    """Site (dot index, cap/cup index)."""

    ARITY = 2
    LEAD = (_DOT,)
    PATTERN = "a dot on an arm of the cap just before it or of the cup just after it"

    def rewrite(self, c, di, ci):
        if c.kind[ci] == _CAP and ci == di - 1:
            sign = 1
        elif c.kind[ci] == _CUP and ci == di + 1:
            sign = -1
        else:
            return None
        dot, arm = c.j[di], c.j[ci]
        if dot == arm:  # left arm -> right arm
            return (Dot(arm + 1),), sign * 1j
        if dot == arm + 1:
            return (Dot(arm),), -sign * 1j
        return None


@dataclass(frozen=True)
class ReidemeisterI(RewriteRule):
    writhe: int = 1  # +1 removes a positive-braid kink, -1 a negative one

    SPAN = 3
    LEAD = (_CAP,)
    PATTERN = "a cap, a braid of the writhe's sign on a strand next to it, and the cup closing it"

    def rewrite(self, c, i):
        kind, j = c.kind, c.j
        sign = SIGN[kind[i + 1]]
        if not sign or sign != self.writhe or kind[i + 2] != _CUP or j[i] != j[i + 2] \
                or j[i + 1] not in (j[i] - 1, j[i] + 1):
            return None
        return (), RULE_SCALARS["kink_pos" if sign > 0 else "kink_neg"]


@dataclass(frozen=True)
class ReidemeisterII(RewriteRule):
    SPAN = 2
    LEAD = _BRAIDS
    PATTERN = "a braid followed by its inverse at the same position"

    def rewrite(self, c, i):
        if c.kind[i + 1] == DAGGER[c.kind[i]] and c.j[i + 1] == c.j[i]:
            return (), 1.0
        return None


@dataclass(frozen=True)
class ReidemeisterIII(RewriteRule):
    SPAN = 3
    LEAD = _BRAIDS
    PATTERN = "three braids of one sign at alternating positions j, j +- 1, j"

    def rewrite(self, c, i):
        kind, j = c.kind, c.j
        if not kind[i] == kind[i + 1] == kind[i + 2] or j[i] != j[i + 2] \
                or abs(j[i + 1] - j[i]) != 1:
            return None
        braid = BY_CODE[kind[i]]
        return (braid(j[i + 1]), braid(j[i]), braid(j[i + 1])), 1.0


@dataclass(frozen=True)
class DotThroughBraid(RewriteRule):
    SPAN = 2
    LEAD = (_DOT,)
    PATTERN = "a dot on one of the strands of the braid after it"

    def rewrite(self, c, i):
        code, braid = c.kind[i + 1], c.j[i + 1]
        sign = SIGN[code]
        if not sign:
            return None
        if c.j[i] == braid:
            return (BY_CODE[code](braid), Dot(braid + 1)), sign
        if c.j[i] == braid + 1:
            return (BY_CODE[code](braid), Dot(braid)), -sign
        return None


@dataclass(frozen=True)
class BraidTypeSwitch(RewriteRule):
    LEAD = _BRAIDS
    PATTERN = "a braid"

    def rewrite(self, c, i):
        code, j = c.kind[i], c.j[i]
        key = "braid_switch_pos_to_neg" if SIGN[code] > 0 else "braid_switch_neg_to_pos"
        return (BY_CODE[DAGGER[code]](j), DotPair(j, j + 1)), RULE_SCALARS[key]


@dataclass(frozen=True)
class ScatteringReduce(RewriteRule):
    LEAD = _SCATTERINGS
    PATTERN = "a scattering at a multiple of pi/2 (a horizontal one at 0)"

    def rewrite(self, c, i):
        theta, j = c.angle[i], c.j[i]
        if is_generic_angle(theta):
            return None
        k = round(theta.real / (_PI / 2)) % 4
        if c.horizontal[i]:
            return ((Cup(j), Cap(j)), 1.0) if k == 0 else None
        if k == 0:
            return (), 1.0
        if k == 2:
            return (DotPair(j, j + 1),), 1.0
        if k == 3:  # theta = -pi/2
            return (BraidPos(j),), RULE_SCALARS["scatter_to_braid_pos"]
        return (BraidNeg(j),), RULE_SCALARS["scatter_to_braid_neg"]


@dataclass(frozen=True)
class YangBaxter(RewriteRule):
    SPAN = 3
    LEAD = (_SCATTERING,) + _BRAIDS
    PATTERN = "three vertical scatterings or braids at alternating positions j, j +- 1, j"

    def rewrite(self, c, i):
        parts = [_as_vertical_scattering(c, t) for t in (i, i + 1, i + 2)]
        j = c.j
        if None in parts or j[i] != j[i + 2] or abs(j[i + 1] - j[i]) != 1:
            return None
        (t1, f1), (t2, f2), (t3, f3) = parts
        (p1, p2, p3), scalar = solve_yang_baxter_full(t1, t2, t3)
        repl = (Scattering(j[i + 1], p1), Scattering(j[i], p2), Scattering(j[i + 1], p3))
        return repl, f1 * f2 * f3 * scalar


@dataclass(frozen=True)
class SpaceTimeDual(RewriteRule):
    LEAD = _SCATTERINGS
    PATTERN = "a scattering"

    def rewrite(self, c, i):
        code, j, theta = c.kind[i], c.j[i], c.angle[i]
        a, phi = _dual(exponential(code, theta), theta)
        flipped = VERTICAL if c.horizontal[i] else HORIZONTAL
        dual = (Scattering(j, phi, flipped) if code == _SCATTERING
                else ScatteringStar(j, 1j * phi, flipped))
        return (dual,), RULE_SCALARS["spacetime_loop_factor"] * a


@dataclass(frozen=True)
class DotPassScattering(RewriteRule):
    SPAN = 2
    LEAD = (_DOT,)
    PATTERN = "a dot on one of the strands of the vertical scattering after it"

    def rewrite(self, c, i):
        if c.kind[i + 1] != _SCATTERING or c.horizontal[i + 1]:
            return None
        sc, theta = c.j[i + 1], c.angle[i + 1]
        if c.j[i] == sc:
            moved, sign = Dot(sc + 1), 1j
        elif c.j[i] == sc + 1:
            moved, sign = Dot(sc), -1j
        else:
            return None
        return (Scattering(sc, _PI - theta), moved), sign * exponential(_SCATTERING, theta)


@dataclass(frozen=True)
class DotAbsorbScattering(RewriteRule):
    SPAN = 2
    LEAD = (_PAIR,)
    PATTERN = "a dot pair on the two strands of the vertical scattering after it"

    def rewrite(self, c, i):
        sc = c.j[i + 1]
        if c.kind[i + 1] != _SCATTERING or c.horizontal[i + 1] or c.j[i] != sc \
                or c.k[i] != sc + 1:
            return None
        return (Scattering(sc, c.angle[i + 1] + _PI),), 1.0


@dataclass(frozen=True)
class CommuteDistantElements(RewriteRule):
    SPAN = 2
    # a lone dot is parity-odd and does not commute freely
    LEAD = (_CAP, _CUP, _PAIR) + _BRAIDS + _SCATTERINGS
    PATTERN = ("two adjacent elements, neither a lone dot, neither reading nor "
               "splitting the strands of the other")

    def rewrite(self, c, i):
        first, second = (tuple(column[t] for column in c) for t in (i, i + 1))
        if second[0] == _DOT:
            return None

        # `second` back through `first`, to the slice before `first`
        back = _points(second)
        if first[0] == _CAP:
            # no strand read off the cap's pair, and no cap inside the pair
            taken = (first[1] + 1,) if second[0] == _CAP else (first[1], first[1] + 1)
            if any(p in taken for p in back):
                return None
            back = [p - 2 if p >= first[1] + 2 else p for p in back]
        elif first[0] == _CUP:
            back = [p + 2 if p >= first[1] else p for p in back]
        new_second = _moved(second, back)
        # disjoint strands in the slice before `first`; a cap reads none
        if new_second is None or first[0] != _CAP and new_second[0] != _CAP \
                and set(first[1:3]) & set(new_second[1:3]):
            return None

        # `first` forward through `new_second`
        forward = _points(first)
        if new_second[0] == _CAP:
            forward = [p + 2 if p >= new_second[1] else p for p in forward]
        elif new_second[0] == _CUP:
            forward = [p - 2 if p >= new_second[1] + 2 else p for p in forward]
        new_first = _moved(first, forward)
        return None if new_first is None else (Columns.of_rows((new_second, new_first)), 1.0)


@dataclass(frozen=True)
class PairDotsToBraids(RewriteRule):
    LEAD = (_PAIR,)
    PATTERN = "a dot pair on adjacent strands"

    def rewrite(self, c, i):
        j = c.j[i]
        if c.k[i] != j + 1:
            return None
        return (BraidPos(j), BraidPos(j)), RULE_SCALARS["pair_dots_to_braids"]


# -- Table II expansions -------------------------------------------------


def expand_scattering(diag: MajoranaDiagram, site: int, mode: str = "dots"):
    """Expand the scattering (or braid) at element `site` as a weighted pair
    of diagrams.

    mode "dots" uses the parallel / dot-pair expansion (cup-cap pair for the
    horizontal orientation); mode "braids" uses the A/B braid expansion.
    The weighted evaluations sum to the original diagram's value exactly.
    """
    c = diag.columns
    code, j, angle, horizontal = c.kind[site], c.j[site], c.angle[site], c.horizontal[site]
    if not (SCATTERING[code] or SIGN[code]):
        raise NotAScattering(f"element {site} is {BY_CODE[code].__name__}")

    def rebuild(repl, weight: complex) -> tuple[complex, MajoranaDiagram]:
        return weight, diag.splice(site, 1, repl, diag.amplitude)

    if mode == "dots":
        if not horizontal:  # braids included
            w1, w2 = row_weights(code, angle, horizontal)
            return [rebuild((), w1), rebuild((DotPair(j, j + 1),), w2)]
        # horizontal: cup-then-cap, plain and with a dot on each right arm
        e = exponential(code, angle)
        k = (Cup(j), Cap(j))
        k_dotted = (Dot(j + 1), Cup(j), Cap(j), Dot(j + 1))
        return [rebuild(k, (1 + e) / 2), rebuild(k_dotted, (1 - e) / 2)]
    if mode == "braids":
        a_term, b_term = _expansion_weights(code, angle, site)
        if not horizontal:
            return [rebuild((BraidPos(j),), a_term), rebuild((BraidNeg(j),), b_term)]
        return [rebuild((BraidPos(j),), b_term), rebuild((BraidNeg(j),), a_term)]
    raise UnknownMode(f"expansion mode is 'dots' or 'braids', not {mode!r}")


def braid_expansion_weights(el: Element) -> tuple[complex, complex]:
    """(A, B) with: vertical scattering = A*BraidPos + B*BraidNeg
    (horizontal: weights swapped), the braid of sign s weighing
    (1 + s i e) / (2 PHASE), e = e^{i theta}; braids decompose trivially."""
    code, _, _, angle, _ = el.row()
    return _expansion_weights(code, angle, el)


def _expansion_weights(code: int, angle: complex, what) -> tuple[complex, complex]:
    """`braid_expansion_weights` of the row of `what`, of kind code `code`."""
    if SIGN[code]:
        return (1.0 + 0.0j, 0.0 + 0.0j) if SIGN[code] > 0 else (0.0 + 0.0j, 1.0 + 0.0j)
    if not SCATTERING[code]:
        raise NotAScattering(f"{what!r} has no exponential weight")
    e = exponential(code, angle)
    return tuple(b.PHASE.conjugate() * (1 + b.SIGN * 1j * e) / 2 for b in (BraidPos, BraidNeg))


# -- angle solvers --------------------------------------------------------


def spacetime_dual(el: Scattering | ScatteringStar) -> tuple[complex, complex]:
    """Space-time duality data (A, phi) of a scattering element with angle
    theta and e = e^{i theta} (`el.exponential()`): A = (1 + e)/2 and
    e^{i phi} = (1 - e)/(1 + e).

    Raises SingularAngle near theta = pi (A vanishes) and theta = 0 (no
    finite dual angle exists), and NumericalInstability when e overflows.
    """
    return _dual(el.exponential(), el.angle())


def _dual(e: complex, theta: complex) -> tuple[complex, complex]:
    """`spacetime_dual` of a scattering of angle theta and e = e^{i theta}."""
    if abs(1 + e) <= 1e-12:
        raise SingularAngle(f"theta={theta} has 1+e^(i theta) ~ 0")
    if abs(1 - e) <= 1e-12:
        raise SingularAngle(f"theta={theta} is degenerate: dual weight vanishes")
    a = (1 + e) / 2
    ratio = (1 - e) / (1 + e)
    phi = -1j * cmath.log(ratio)
    return a, phi


def _scattering_matrix(axis: str, theta: complex) -> np.ndarray:
    """S_z = diag(1, e) or S_x = H S_z H, with e = e^{i theta}; raises
    NumericalInstability when e overflows."""
    try:
        e = cmath.exp(1j * complex(theta))
    except OverflowError:
        raise NumericalInstability(
            f"exp(i * {theta}) overflows a float; the angle's imaginary part must "
            f"stay above about -709") from None
    if axis == "z":
        return np.array([[1, 0], [0, e]])
    return np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2


def yang_baxter_operator(thetas, first_axis: str = "z") -> np.ndarray:
    """2x2 operator of the alternating triple; thetas[0] acts first.  Raises
    NumericalInstability when an entry overflows a float."""
    axes = [first_axis, "x" if first_axis == "z" else "z", first_axis]
    m = np.eye(2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, axis in zip(thetas, axes):
            m = _scattering_matrix(axis, theta) @ m
    if not np.all(np.isfinite(m)):
        raise NumericalInstability(f"the operator of the angles {tuple(thetas)} overflows a float")
    return m


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _angle(e: complex) -> complex:
    """The principal phi with e^{i phi} = e."""
    return -1j * cmath.log(e)


def solve_yang_baxter(theta1: complex, theta2: complex, theta3: complex):
    """Angles (phi1, phi2, phi3) with S1(phi3) S0(phi2) S1(phi1) matching
    S0(theta3) S1(theta2) S0(theta1) as three-strand operators, up to the
    scalar that `solve_yang_baxter_full` reports and `apply_rule` folds into
    the amplitude (1 whenever an exact solution exists)."""
    phis, _scalar = solve_yang_baxter_full(theta1, theta2, theta3)
    return phis


def solve_yang_baxter_full(theta1: complex, theta2: complex, theta3: complex):
    """((phi1, phi2, phi3), scalar) with LHS == scalar * RHS, in closed form.

    RHS = S_x(phi3) S_z(phi2) S_x(phi1) is solved for in LHS's own basis:
    S_x(-phi) is proportional to [[1, r], [r, 1]], r = i tan(phi/2), and the
    r1, r3 that make [[1, r3], [r3, 1]] LHS [[1, r1], [r1, 1]] = D diagonal
    give phi1, phi3 and e^{i phi2} = D22 / D11.  The off-diagonal equations
    leave a r1^2 + b r1 + a = 0 over LHS's entries t (a = t21 t22 - t11 t12,
    b = t21^2 + t22^2 - t11^2 - t12^2), a candidate per root.  Ratios of
    LHS's own entries round none away against a larger one, as H LHS H did.
    Where a = b = 0 the partners form a family: H LHS H is diagonal
    (phi2 = 0) or antidiagonal (phi2 = pi).  Each candidate is checked
    against `yang_baxter_operator`, scalar 1 first and then its own: each
    entry of scalar * RHS must lie within 1e-9 of LHS's, relative to that
    entry (absolute below one).  A candidate of scalar 1 is returned if
    there is one, else the one of least |log|scalar|| + sum |Im phi|.
    Raises NoSolution when none passes, as where a partner needs what no
    float holds: (-40j, 0.3, 0.2) needs phi1 = 9.5e-20 + 4.9e-19i, and
    exp(i phi1) rounds away the factor e^(-4.9e-19) that LHS's e^40 needs.
    """
    target = yang_baxter_operator((theta1, theta2, theta3), first_axis="z")
    tol = 1e-9 * np.maximum(np.abs(target), 1.0)
    t11, t12, t21, t22 = map(complex, target.ravel())
    v11, v12, v21, v22 = map(complex, (_HADAMARD @ target @ _HADAMARD).ravel())
    # each candidate: (angles tried with scalar 1, angles for its own scalar,
    # that scalar).  A diagonal V = kappa S_x(phi1) also tries the angle of
    # v22 alone with scalar 1, which keeps v22 exact where kappa is 1
    candidates = []
    if v11 and v22:
        candidates.append(((_angle(v22), 0j, 0j), (_angle(v22 / v11), 0j, 0j), v11))
    if v12 and v21:
        phis = (_angle(v12), complex(_PI), _angle(v21))
        candidates.append((phis, phis, 1.0))
    a = t21 * t22 - t11 * t12
    b = t21 * t21 + t22 * t22 - t11 * t11 - t12 * t12
    root = cmath.sqrt(b * b - 4 * a * a)
    q = -(b + root if abs(b + root) >= abs(b - root) else b - root) / 2
    for r1 in (a / q, q / a) if a else (0j,) if q else ():  # a = 0: r1 = 0 (or infinite)
        (n, d), (n2, d2) = (t12 + t11 * r1, t22 + t21 * r1), (t21 + t22 * r1, t11 + t12 * r1)
        r3 = -(n / d if abs(d) >= abs(d2) else n2 / d2) if d or d2 else 0j
        d11 = t11 + r3 * t21 + r1 * t12 + r1 * r3 * t22
        d22 = r1 * r3 * t11 + r3 * t12 + r1 * t21 + t22
        if d11 and d22 and r1 * r1 != 1 and r3 * r3 != 1:  # r = +-1: phi infinite
            phis = (2 * cmath.atan(-1j * r1), _angle(d22 / d11), 2 * cmath.atan(-1j * r3))
            candidates.append((phis, phis, None))
    passed = []
    for exact, own, own_scalar in candidates:
        for phis, scalar in ((exact, 1.0), (own, own_scalar)):
            try:
                got = yang_baxter_operator(phis, first_axis="x")
            except NumericalInstability:  # no partner a float can hold
                continue
            if scalar is None:  # LHS over RHS at RHS's largest entry
                at = np.unravel_index(np.argmax(np.abs(got)), got.shape)
                scalar = complex(target[at] / got[at])
            if scalar and np.all(np.abs(target - scalar * got) <= tol):
                passed.append((scalar != 1.0, abs(math.log(abs(scalar)))
                               + sum(abs(phi.imag) for phi in phis), phis, complex(scalar)))
                break
    if not passed:
        raise NoSolution(f"no Yang-Baxter partner for ({theta1}, {theta2}, {theta3})")
    _, _, phis, scalar = min(passed, key=lambda c: c[:2])
    return phis, scalar


# -- rule application -----------------------------------------------------


def _as_vertical_scattering(c, t: int):
    """(theta, amplitude factor) turning element t of the columns c into
    Scattering(theta), or None when it is neither a vertical scattering nor
    a braid."""
    code = c.kind[t]
    if code == _SCATTERING and not c.horizontal[t]:
        return c.angle[t], 1.0
    if SIGN[code]:
        return -SIGN[code] * _PI / 2, BY_CODE[code].PHASE
    return None


def _points(row) -> tuple[int, ...]:
    """Where the element of a row sits on its slice: a cap's insertion
    point, or the strands any other element reads."""
    code, j, k = row[:3]
    return (j,) if code == _CAP or j == k else (j, k)


def _moved(row, points):
    """The row at `points` (as `_points` lists them), or None when the
    element cannot take them: two-strand elements whose strands were split
    apart."""
    code, j = row[0], points[0]
    new = (code, j, points[-1] if code == _PAIR else j + TWO[code]) + row[3:]
    return new if _points(new) == tuple(points) else None


def apply_rule(diag, rule: RewriteRule, site: RewriteSite):
    """Apply `rule` at `site` of a MajoranaDiagram, or of the core of a
    QuonDiagram, whose cuts, notches and anchors the splice re-times;
    returns a diagram of the same type.  Raises PatternMismatch when a site
    index is out of range or the local pattern does not match the rule's
    left-hand side; the splice raises MarkInsideRun, a PatternMismatch,
    where a cut, notch or anchor lies between the elements the rule
    replaces, as no rule may carry one across them.  Closed-diagram value
    is preserved exactly (up to the documented float tolerance)."""
    core = diag.core if isinstance(diag, QuonDiagram) else diag
    n = len(core)
    indices = site.indices
    if len(indices) != rule.ARITY or not all(0 <= k < n for k in indices):
        raise PatternMismatch(
            f"{rule!r} needs a site of {rule.ARITY} element indices in 0..{n - 1}, "
            f"got {indices}"
        )
    i = indices[0]
    found = None
    if i + rule.SPAN <= n and core.columns.kind[i] in rule.LEAD:
        found = rule.rewrite(core.columns, *indices)
    if found is None:
        raise PatternMismatch(f"{rule!r} does not match at element {i}: it needs {rule.PATTERN}")
    repl, scalar = found
    return diag.splice(i, rule.SPAN, repl, core.amplitude * scalar)
