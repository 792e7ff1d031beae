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
Hadamard-conjugated right-hand side is a 2x2 matrix whose entries are
products of the partner angles' exponentials, so the solutions come in
closed form: at most four candidates, each checked against
`yang_baxter_operator`.  The tests verify them as 8x8 operators too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    HORIZONTAL,
    VERTICAL,
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    Element,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    is_generic_angle,
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


_BRAIDS = (BraidPos, BraidNeg)
_SCATTERINGS = (Scattering, ScatteringStar)


class RewriteRule:
    """A value-preserving local move.  A site holds ARITY element indices;
    the rule replaces the SPAN elements from the site's first index, which
    must be of a LEAD kind.  `rewrite(els, *indices)` is called only where
    those hold and returns (replacement, scalar) when the pattern (named by
    PATTERN) is there, None when it is not, so scans catch nothing and test
    one element kind per index."""

    ARITY = 1
    SPAN = 1
    LEAD: tuple = ()
    PATTERN = ""

    def first_match(self, els, start: int = 0) -> int | None:
        """The first index from `start` on where this one-index rule
        matches, or None.  A match at i reads els[i:i + SPAN] only."""
        lead = self.LEAD
        for i in range(start, len(els) - self.SPAN + 1):
            if isinstance(els[i], lead) and self.rewrite(els, i) is not None:
                return i
        return None


@dataclass(frozen=True)
class DotRelocateCapCup(RewriteRule):
    """Site (dot index, cap/cup index)."""

    ARITY = 2
    LEAD = (Dot,)
    PATTERN = "a dot on an arm of the cap just before it or of the cup just after it"

    def rewrite(self, els, di, ci):
        dot, other = els[di], els[ci]
        if isinstance(other, Cap) and ci == di - 1:
            sign = 1
        elif isinstance(other, Cup) and ci == di + 1:
            sign = -1
        else:
            return None
        if dot.j == other.j:  # left arm -> right arm
            return (Dot(other.j + 1),), sign * 1j
        if dot.j == other.j + 1:
            return (Dot(other.j),), -sign * 1j
        return None


@dataclass(frozen=True)
class ReidemeisterI(RewriteRule):
    writhe: int = 1  # +1 removes a positive-braid kink, -1 a negative one

    SPAN = 3
    LEAD = (Cap,)
    PATTERN = "a cap, a braid of the writhe's sign on a strand next to it, and the cup closing it"

    def rewrite(self, els, i):
        cap, braid, cup = els[i:i + 3]
        if not (isinstance(cup, Cup) and cap.j == cup.j and braid.j in (cap.j - 1, cap.j + 1)):
            return None
        if braid.SIGN and braid.SIGN == self.writhe:
            return (), RULE_SCALARS["kink_pos" if braid.SIGN > 0 else "kink_neg"]
        return None


@dataclass(frozen=True)
class ReidemeisterII(RewriteRule):
    SPAN = 2
    LEAD = _BRAIDS
    PATTERN = "a braid followed by its inverse at the same position"

    def rewrite(self, els, i):
        if els[i + 1] == els[i].dagger():
            return (), 1.0
        return None


@dataclass(frozen=True)
class ReidemeisterIII(RewriteRule):
    SPAN = 3
    LEAD = _BRAIDS
    PATTERN = "three braids of one sign at alternating positions j, j +- 1, j"

    def rewrite(self, els, i):
        b1, b2, b3 = els[i:i + 3]
        kind = type(b1)
        if type(b2) is not kind or type(b3) is not kind or b1.j != b3.j \
                or abs(b2.j - b1.j) != 1:
            return None
        return (kind(b2.j), kind(b1.j), kind(b2.j)), 1.0


@dataclass(frozen=True)
class DotThroughBraid(RewriteRule):
    SPAN = 2
    LEAD = (Dot,)
    PATTERN = "a dot on one of the strands of the braid after it"

    def rewrite(self, els, i):
        dot, braid = els[i:i + 2]
        if not braid.SIGN:
            return None
        if dot.j == braid.j:
            return (braid, Dot(braid.j + 1)), braid.SIGN
        if dot.j == braid.j + 1:
            return (braid, Dot(braid.j)), -braid.SIGN
        return None


@dataclass(frozen=True)
class BraidTypeSwitch(RewriteRule):
    LEAD = _BRAIDS
    PATTERN = "a braid"

    def rewrite(self, els, i):
        el = els[i]
        key = "braid_switch_pos_to_neg" if el.SIGN > 0 else "braid_switch_neg_to_pos"
        return (el.dagger(), DotPair(el.j, el.j + 1)), RULE_SCALARS[key]


@dataclass(frozen=True)
class ScatteringReduce(RewriteRule):
    LEAD = _SCATTERINGS
    PATTERN = "a scattering at a multiple of pi/2 (a horizontal one at 0)"

    def rewrite(self, els, i):
        el = els[i]
        theta = el.angle()
        if is_generic_angle(theta):
            return None
        k = round(theta.real / (_PI / 2)) % 4
        if el.orientation != VERTICAL:
            return ((Cup(el.j), Cap(el.j)), 1.0) if k == 0 else None
        if k == 0:
            return (), 1.0
        if k == 2:
            return (DotPair(el.j, el.j + 1),), 1.0
        if k == 3:  # theta = -pi/2
            return (BraidPos(el.j),), RULE_SCALARS["scatter_to_braid_pos"]
        return (BraidNeg(el.j),), RULE_SCALARS["scatter_to_braid_neg"]


@dataclass(frozen=True)
class YangBaxter(RewriteRule):
    SPAN = 3
    LEAD = (Scattering,) + _BRAIDS
    PATTERN = "three vertical scatterings or braids at alternating positions j, j +- 1, j"

    def rewrite(self, els, i):
        e1, e2, e3 = els[i:i + 3]
        parts = [_as_vertical_scattering(el) for el in (e1, e2, e3)]
        if None in parts or e1.j != e3.j or abs(e2.j - e1.j) != 1:
            return None
        (t1, f1), (t2, f2), (t3, f3) = parts
        (p1, p2, p3), scalar = solve_yang_baxter_full(t1, t2, t3)
        repl = (Scattering(e2.j, p1), Scattering(e1.j, p2), Scattering(e2.j, p3))
        return repl, f1 * f2 * f3 * scalar


@dataclass(frozen=True)
class SpaceTimeDual(RewriteRule):
    LEAD = _SCATTERINGS
    PATTERN = "a scattering"

    def rewrite(self, els, i):
        el = els[i]
        a, phi = spacetime_dual(el)
        flipped = VERTICAL if el.orientation != VERTICAL else HORIZONTAL
        dual = (Scattering(el.j, phi, flipped) if isinstance(el, Scattering)
                else ScatteringStar(el.j, 1j * phi, flipped))
        return (dual,), RULE_SCALARS["spacetime_loop_factor"] * a


@dataclass(frozen=True)
class DotPassScattering(RewriteRule):
    SPAN = 2
    LEAD = (Dot,)
    PATTERN = "a dot on one of the strands of the vertical scattering after it"

    def rewrite(self, els, i):
        dot, sc = els[i:i + 2]
        if not isinstance(sc, Scattering) or sc.orientation != VERTICAL:
            return None
        if dot.j == sc.j:
            moved, sign = Dot(sc.j + 1), 1j
        elif dot.j == sc.j + 1:
            moved, sign = Dot(sc.j), -1j
        else:
            return None
        return (Scattering(sc.j, _PI - complex(sc.theta)), moved), sign * sc.exponential()


@dataclass(frozen=True)
class DotAbsorbScattering(RewriteRule):
    SPAN = 2
    LEAD = (DotPair,)
    PATTERN = "a dot pair on the two strands of the vertical scattering after it"

    def rewrite(self, els, i):
        pair, sc = els[i:i + 2]
        if not (isinstance(sc, Scattering) and sc.orientation == VERTICAL
                and pair.j == sc.j and pair.k == sc.j + 1):
            return None
        return (Scattering(sc.j, complex(sc.theta) + _PI),), 1.0


@dataclass(frozen=True)
class CommuteDistantElements(RewriteRule):
    SPAN = 2
    # a lone dot is parity-odd and does not commute freely
    LEAD = (Cap, Cup, DotPair) + _BRAIDS + _SCATTERINGS
    PATTERN = ("two adjacent elements, neither a lone dot, neither reading nor "
               "splitting the strands of the other")

    def rewrite(self, els, i):
        first, second = els[i:i + 2]
        if isinstance(second, Dot):
            return None

        # `second` back through `first`, to the slice before `first`
        back = _points(second)
        if isinstance(first, Cap):
            # no strand read off the cap's pair, and no cap inside the pair
            taken = (first.j + 1,) if isinstance(second, Cap) else (first.j, first.j + 1)
            if any(p in taken for p in back):
                return None
            back = [p - 2 if p >= first.j + 2 else p for p in back]
        elif isinstance(first, Cup):
            back = [p + 2 if p >= first.j else p for p in back]
        new_second = _moved(second, back)
        # disjoint strands in the slice before `first`; a cap reads none
        if new_second is None or not isinstance(first, Cap) and not isinstance(new_second, Cap) \
                and set(first.positions()) & set(new_second.positions()):
            return None

        # `first` forward through `new_second`
        forward = _points(first)
        if isinstance(new_second, Cap):
            forward = [p + 2 if p >= new_second.j else p for p in forward]
        elif isinstance(new_second, Cup):
            forward = [p - 2 if p >= new_second.j + 2 else p for p in forward]
        new_first = _moved(first, forward)
        return None if new_first is None else ((new_second, new_first), 1.0)


@dataclass(frozen=True)
class PairDotsToBraids(RewriteRule):
    LEAD = (DotPair,)
    PATTERN = "a dot pair on adjacent strands"

    def rewrite(self, els, i):
        el = els[i]
        if el.k != el.j + 1:
            return None
        return (BraidPos(el.j), BraidPos(el.j)), RULE_SCALARS["pair_dots_to_braids"]


# -- Table II expansions -------------------------------------------------


def expand_scattering(diag: MajoranaDiagram, site: int, mode: str = "dots"):
    """Expand the scattering at element `site` as a weighted pair of diagrams.

    mode "dots" uses the parallel / dot-pair expansion (cup-cap pair for the
    horizontal orientation); mode "braids" uses the A/B braid expansion.
    The weighted evaluations sum to the original diagram's value exactly.
    """
    el = diag.elements[site]
    if not isinstance(el, (Scattering, ScatteringStar, BraidPos, BraidNeg)):
        raise NotAScattering(f"element {site} is {type(el).__name__}")
    j = el.j
    orientation = getattr(el, "orientation", VERTICAL)

    def rebuild(repl: tuple[Element, ...], weight: complex) -> tuple[complex, MajoranaDiagram]:
        return weight, diag.splice(site, 1, repl, diag.amplitude)

    if mode == "dots":
        if orientation == VERTICAL:  # braids included
            w1, w2 = el.weights()
            return [rebuild((), w1), rebuild((DotPair(j, j + 1),), w2)]
        # horizontal: cup-then-cap, plain and with a dot on each right arm
        e = el.exponential()
        k = (Cup(j), Cap(j))
        k_dotted = (Dot(j + 1), Cup(j), Cap(j), Dot(j + 1))
        return [rebuild(k, (1 + e) / 2), rebuild(k_dotted, (1 - e) / 2)]
    if mode == "braids":
        a_term, b_term = braid_expansion_weights(el)
        if orientation == VERTICAL:
            return [rebuild((BraidPos(j),), a_term), rebuild((BraidNeg(j),), b_term)]
        return [rebuild((BraidPos(j),), b_term), rebuild((BraidNeg(j),), a_term)]
    raise UnknownMode(f"expansion mode is 'dots' or 'braids', not {mode!r}")


def braid_expansion_weights(el: Element) -> tuple[complex, complex]:
    """(A, B) with: vertical scattering = A*BraidPos + B*BraidNeg
    (horizontal: weights swapped), the braid of sign s weighing
    (1 + s i e) / (2 PHASE), e = e^{i theta}; braids decompose trivially."""
    if el.SIGN:
        return (1.0 + 0.0j, 0.0 + 0.0j) if el.SIGN > 0 else (0.0 + 0.0j, 1.0 + 0.0j)
    if not isinstance(el, _SCATTERINGS):
        raise NotAScattering(f"{el!r} has no exponential weight")
    e = el.exponential()
    return tuple(b.PHASE.conjugate() * (1 + b.SIGN * 1j * e) / 2 for b in _BRAIDS)


# -- angle solvers --------------------------------------------------------


def spacetime_dual(el: Scattering | ScatteringStar) -> tuple[complex, complex]:
    """Space-time duality data (A, phi) of a scattering element with angle
    theta and e = e^{i theta} (`el.exponential()`): A = (1 + e)/2 and
    e^{i phi} = (1 - e)/(1 + e).

    Raises SingularAngle near theta = pi (A vanishes) and theta = 0 (no
    finite dual angle exists), and NumericalInstability when e overflows.
    """
    e = el.exponential()
    theta = el.angle()
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

    Conjugating by the Hadamard H turns the right-hand side into
    S_z(phi3) S_x(phi2) S_z(phi1) = [[p, qA], [qC, pAC]], where
    p, q = (1 +- e^{i phi2})/2, A = e^{i phi1} and C = e^{i phi3}; so
    kappa V = that form, with V = H LHS H and scalar 1/kappa.  A diagonal V
    takes phi2 = 0, an antidiagonal one phi2 = pi, and a full one
    p/q = sigma = +-sqrt(v11 v22 / (v12 v21)), one candidate per sign.
    Every candidate is checked against `yang_baxter_operator`, with scalar 1
    first and then its own, entry by entry: each entry of scalar * RHS must
    lie within 1e-9 of LHS's, relative to that entry's size (absolute below
    one), so a huge entry of LHS leaves its small ones no slack.  An exact
    candidate (scalar 1) is returned if there is one, otherwise the one with
    the smallest sum |Im phi|.  Raises NoSolution when no candidate passes.
    """
    target = yang_baxter_operator((theta1, theta2, theta3), first_axis="z")
    tol = 1e-9 * np.maximum(np.abs(target), 1.0)
    v11, v12, v21, v22 = map(complex, (_HADAMARD @ target @ _HADAMARD).ravel())
    # each candidate: (angles tried with scalar 1, angles for its own scalar
    # 1/kappa, 1/kappa).  With scalar 1 the form's p = kappa v11 misses v11
    # whatever the angles; scaling the off-diagonals by sqrt(kappa) instead
    # of kappa keeps v22 exact and halves their error, so scalar 1 still
    # passes where kappa is within the tolerance of 1
    candidates = []
    if v11 and v22:
        candidates.append(((_angle(v22), 0j, 0j), (_angle(v22 / v11), 0j, 0j), v11))
    if v12 and v21:
        phis = (_angle(v12), complex(_PI), _angle(v21))
        candidates.append((phis, phis, 1.0))
    if v11 and v12 and v21 and v22:
        root = cmath.sqrt(v11 / v12 * (v22 / v21))
        for sigma in (root, -root):
            if sigma * sigma == 1:  # p + q or p - q vanishes: no finite angle
                continue
            p, q = sigma / (1 + sigma), 1 / (1 + sigma)
            kappa = p / v11
            exact, own = ((_angle(k * v12 / q), _angle(p - q), _angle(k * v21 / q))
                          for k in (cmath.sqrt(kappa), kappa))
            candidates.append((exact, own, 1 / kappa))
    passed = []
    for exact, own, own_scalar in candidates:
        for phis, scalar in ((exact, 1.0), (own, own_scalar)):
            try:
                got = yang_baxter_operator(phis, first_axis="x")
            except NumericalInstability:  # no partner a float can hold
                continue
            if np.all(np.abs(target - scalar * got) <= tol):
                passed.append((scalar != 1.0, sum(abs(phi.imag) for phi in phis),
                               phis, complex(scalar)))
                break
    if not passed:
        raise NoSolution(f"no Yang-Baxter partner for ({theta1}, {theta2}, {theta3})")
    _, _, phis, scalar = min(passed, key=lambda c: c[:2])
    return phis, scalar


# -- rule application -----------------------------------------------------


def _as_vertical_scattering(el: Element):
    """(theta, amplitude factor) turning the element into Scattering(theta),
    or None when it is neither a vertical scattering nor a braid."""
    if isinstance(el, Scattering) and el.orientation == VERTICAL:
        return complex(el.theta), 1.0
    if el.SIGN:
        return -el.SIGN * _PI / 2, el.PHASE
    return None


def _points(el: Element) -> tuple[int, ...]:
    """Where an element sits on its slice: a cap's insertion point, or the
    strands any other element reads."""
    return (el.j,) if isinstance(el, Cap) else el.positions()


def _moved(el: Element, points) -> Element | None:
    """`el` at `points` (as `_points` lists them), or None when the element
    cannot take them: two-strand elements whose strands were split apart."""
    new = el.moved(points)
    return new if _points(new) == tuple(points) else None


def apply_rule(diag, rule: RewriteRule, site: RewriteSite):
    """Apply `rule` at `site` of a MajoranaDiagram, or of the core of a
    QuonDiagram, whose cuts, notches and anchors the splice re-times;
    returns a diagram of the same type.  Raises PatternMismatch when a site
    index is out of range or the local pattern does not match the rule's
    left-hand side.  Closed-diagram value is preserved exactly (up to the
    documented float tolerance)."""
    core = diag.core if isinstance(diag, QuonDiagram) else diag
    els = core.elements
    indices = site.indices
    if len(indices) != rule.ARITY or not all(0 <= k < len(els) for k in indices):
        raise PatternMismatch(
            f"{rule!r} needs a site of {rule.ARITY} element indices in 0..{len(els) - 1}, "
            f"got {indices}"
        )
    i = indices[0]
    found = None
    if i + rule.SPAN <= len(els) and isinstance(els[i], rule.LEAD):
        found = rule.rewrite(els, *indices)
    if found is None:
        raise PatternMismatch(f"{rule!r} does not match at element {i}: it needs {rule.PATTERN}")
    repl, scalar = found
    return diag.splice(i, rule.SPAN, repl, core.amplitude * scalar)
