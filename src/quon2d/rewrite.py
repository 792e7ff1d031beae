"""Value-preserving rewriting rules for Majorana diagrams.

Each rule rewrites a local element pattern and multiplies the amplitude by
the rule's scalar so that closed-diagram evaluation is unchanged.  The
scalars are calibrated against the Fock oracle (see RULE_SCALARS and the
calibration tests) rather than transcribed from figures:

* a dot relocates across a cap or cup arm at the cost of +-i,
* a kink (cap, braid, cup) equals exp(-i pi/8 * sign) times the plain strand,
* switching a braid type costs a dot pair and exp(+-i pi/4),
* a dot pair equals exp(-i pi/4) times a double positive braid,
* a dot passes a scattering, theta -> pi - theta, at the cost of i e^{i theta},
* a dot pair is absorbed into a scattering, theta -> theta + pi, for free,
* the space-time duality swaps the scattering orientation; the caption
  constant A = (1+e^{i theta})/2 preserves value only together with the
  loop factor sqrt(2) (the horizontal primitive carries the cup/cap
  normalization), so the applied scalar is sqrt(2)*A.

The Yang-Baxter solver works in the two-dimensional spinor representation
(the three-strand scatterings generate a complexified SU(2)); solutions are
verified as 8x8 operators by the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

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
from .errors import NoSolution, NotAScattering, PatternMismatch, SingularAngle

_PI = math.pi

# oracle-calibrated scalars (tests pin every entry)
RULE_SCALARS = {
    "kink_pos": cmath.exp(-1j * _PI / 8),
    "kink_neg": cmath.exp(1j * _PI / 8),
    "braid_switch_pos_to_neg": cmath.exp(1j * _PI / 4),
    "braid_switch_neg_to_pos": cmath.exp(-1j * _PI / 4),
    "pair_dots_to_braids": cmath.exp(-1j * _PI / 4),
    "scatter_to_braid_pos": cmath.exp(-1j * _PI / 8),
    "scatter_to_braid_neg": cmath.exp(1j * _PI / 8),
    "spacetime_loop_factor": math.sqrt(2.0),
}


@dataclass(frozen=True)
class RewriteSite:
    """Element indices a rule acts on (leftmost index of the pattern)."""

    indices: tuple[int, ...]

    @staticmethod
    def at(*indices: int) -> "RewriteSite":
        return RewriteSite(tuple(indices))


@dataclass(frozen=True)
class DotRelocateCapCup:
    pass


@dataclass(frozen=True)
class ReidemeisterI:
    writhe: int = 1  # +1 removes a positive-braid kink, -1 a negative one


@dataclass(frozen=True)
class ReidemeisterII:
    pass


@dataclass(frozen=True)
class ReidemeisterIII:
    pass


@dataclass(frozen=True)
class DotThroughBraid:
    pass


@dataclass(frozen=True)
class BraidTypeSwitch:
    pass


@dataclass(frozen=True)
class ScatteringReduce:
    pass


@dataclass(frozen=True)
class YangBaxter:
    phis: Optional[tuple[complex, complex, complex]] = None  # solved if omitted


@dataclass(frozen=True)
class SpaceTimeDual:
    pass


@dataclass(frozen=True)
class DotPassScattering:
    pass


@dataclass(frozen=True)
class DotAbsorbScattering:
    pass


@dataclass(frozen=True)
class CommuteDistantElements:
    pass


@dataclass(frozen=True)
class PairDotsToBraids:
    pass


RewriteRule = (
    DotRelocateCapCup
    | ReidemeisterI
    | ReidemeisterII
    | ReidemeisterIII
    | DotThroughBraid
    | BraidTypeSwitch
    | ScatteringReduce
    | YangBaxter
    | SpaceTimeDual
    | DotPassScattering
    | DotAbsorbScattering
    | CommuteDistantElements
    | PairDotsToBraids
)


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
        els = diag.elements[:site] + repl + diag.elements[site + 1:]
        return weight, MajoranaDiagram(diag.width_in, diag.width_out, els, diag.amplitude)

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
    raise ValueError(f"unknown expansion mode {mode!r}")


def braid_expansion_weights(el: Element) -> tuple[complex, complex]:
    """(A, B) with: vertical scattering = A*BraidPos + B*BraidNeg
    (horizontal: weights swapped); braids decompose trivially."""
    if isinstance(el, BraidPos):
        return 1.0 + 0.0j, 0.0 + 0.0j
    if isinstance(el, BraidNeg):
        return 0.0 + 0.0j, 1.0 + 0.0j
    if not isinstance(el, (Scattering, ScatteringStar)):
        raise NotAScattering(f"{el!r} has no exponential weight")
    e = el.exponential()
    a_term = cmath.exp(-1j * _PI / 8) * (1 + 1j * e) / 2
    b_term = cmath.exp(1j * _PI / 8) * (1 - 1j * e) / 2
    return a_term, b_term


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


def _su2_rotation(axis: str, angle: complex) -> np.ndarray:
    half = complex(angle) / 2
    c, s = cmath.cos(half), cmath.sin(half)
    if axis == "z":
        return np.array([[cmath.exp(-1j * half), 0], [0, cmath.exp(1j * half)]])
    return np.array([[c, -1j * s], [-1j * s, c]])


def _scattering_matrix(axis: str, theta: complex) -> np.ndarray:
    return cmath.exp(1j * complex(theta) / 2) * _su2_rotation(axis, theta)


def yang_baxter_operator(thetas, first_axis: str = "z") -> np.ndarray:
    """2x2 operator of the alternating triple; thetas[0] acts first."""
    axes = [first_axis, "x" if first_axis == "z" else "z", first_axis]
    m = np.eye(2, dtype=complex)
    for theta, axis in zip(thetas, axes):
        m = _scattering_matrix(axis, theta) @ m
    return m


def solve_yang_baxter(theta1: complex, theta2: complex, theta3: complex):
    """Angles (phi1, phi2, phi3) with S1(phi3) S0(phi2) S1(phi1) matching
    S0(theta3) S1(theta2) S0(theta1) as three-strand operators.

    The match is exact whenever an exact solution exists (all braid-doped
    configurations); generic complex triples admit only a projective
    solution, whose unit scalar `solve_yang_baxter_full` reports and
    `apply_rule` folds into the amplitude.  Raises NoSolution on the
    degenerate set where even the projective problem has no solution.
    """
    phis, _scalar = solve_yang_baxter_full(theta1, theta2, theta3)
    return phis


def solve_yang_baxter_full(theta1: complex, theta2: complex, theta3: complex):
    """((phi1, phi2, phi3), scalar) with LHS == scalar * RHS exactly;
    scalar == 1 whenever an exact solution exists."""
    target = yang_baxter_operator((theta1, theta2, theta3), first_axis="z")
    scale = max(1.0, float(np.max(np.abs(target))))
    # conjugate by the basis swap so the unknown side is a z-x-z Euler problem
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    v = h @ target @ h
    sum_theta = theta1 + theta2 + theta3

    # the SL2 part of any solution is +-W = +-e^{-i sum/2} v; enumerate the
    # sign sheets and sqrt branches, preferring an exact (scalar 1) match
    candidates = []
    for sheet in (1.0, -1.0):
        for branch in (0, 1):
            sol = _euler_zxz(sheet * v, sum_theta, branch)
            if sol is None:
                continue
            got = yang_baxter_operator(sol, first_axis="x")
            if np.max(np.abs(got - target)) <= 1e-9 * scale:
                return sol, 1.0 + 0.0j
            candidates.append((sol, got))
    for sol, got in candidates:
        scalar = _aligned_scalar(target, got)
        if scalar is not None:
            return sol, scalar
    sol = _yang_baxter_numeric(target, (theta1, theta2, theta3))
    if sol is not None:
        got = yang_baxter_operator(sol, first_axis="x")
        scalar = _aligned_scalar(target, got)
        if scalar is not None:
            return sol, scalar
    raise NoSolution(f"no Yang-Baxter partner for ({theta1}, {theta2}, {theta3})")


def _aligned_scalar(target: np.ndarray, got: np.ndarray):
    """c with target == c * got within 1e-9, or None."""
    norm = np.vdot(got, got)
    if abs(norm) < 1e-300:
        return None
    c = np.vdot(got, target) / norm
    if np.max(np.abs(target - c * got)) <= 1e-9 * max(1.0, float(np.max(np.abs(target)))):
        return complex(c)
    return None


def _euler_zxz(v: np.ndarray, sum_theta: complex, branch: int):
    """Solve v = e^{i(a+b+c)/2} Rz(c) Rx(b) Rz(a) with a+b+c branch-matched
    to sum_theta; returns (a, b, c) ordered first-to-last or None."""
    w = cmath.exp(-1j * complex(sum_theta) / 2) * v
    # w = Rz(c) Rx(b) Rz(a)
    cosb2_sq = w[0, 0] * w[1, 1]
    sinb2_sq = -w[0, 1] * w[1, 0]
    cb = cmath.sqrt(cosb2_sq)
    sb = cmath.sqrt(sinb2_sq)
    if branch:
        sb = -sb
    if abs(cb) < 1e-12 or abs(sb) < 1e-12:
        # braid-like degenerate axes: fall back to the numeric solver
        return None
    b = 2 * cmath.atan(sb / cb)
    cb, sb = cmath.cos(b / 2), cmath.sin(b / 2)
    if abs(cb) < 1e-12 or abs(sb) < 1e-12:
        return None
    e_sum = w[1, 1] / cb      # e^{i(a+c)/2}
    e_diff = w[1, 0] / (-1j * sb)  # e^{-i(a-c)/2}
    apc = -2j * cmath.log(e_sum)
    amc = 2j * cmath.log(e_diff)
    a = (apc + amc) / 2
    c = (apc - amc) / 2
    return (a, b, c)


def _yang_baxter_numeric(target: np.ndarray, seed_thetas):
    from scipy.optimize import least_squares

    def resid(x):
        x = np.clip(x, -20.0, 20.0)
        phis = (x[0] + 1j * x[1], x[2] + 1j * x[3], x[4] + 1j * x[5])
        m = yang_baxter_operator(phis, first_axis="x")
        norm = np.vdot(m, m)
        c = np.vdot(m, target) / norm if abs(norm) > 1e-300 else 0.0
        d = (c * m - target).ravel()
        return np.concatenate([d.real, d.imag])

    t1, t2, t3 = seed_thetas
    seeds = [
        (t3, t2, t1),
        (t1, t2, t3),
        (t2, t1, t2),
        (-_PI / 2, -_PI / 2, -_PI / 2),
        (0.3, 0.3, 0.3),
    ]
    rng = np.random.default_rng(0)
    seeds += [tuple(rng.normal(scale=1.5, size=3) + 1j * rng.normal(scale=0.3, size=3))
              for _ in range(8)]
    scale = max(1.0, float(np.max(np.abs(target))))
    for seed in seeds:
        x0 = []
        for s in seed:
            s = complex(s)
            x0 += [s.real, s.imag]
        try:
            res = least_squares(resid, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        except (OverflowError, FloatingPointError):
            continue
        if np.max(np.abs(res.fun)) <= 1e-10 * scale:
            x = np.clip(res.x, -20.0, 20.0)
            return (x[0] + 1j * x[1], x[2] + 1j * x[3], x[4] + 1j * x[5])
    return None


# -- rule application -----------------------------------------------------


def _replace(diag: MajoranaDiagram, start: int, count: int,
             repl: tuple[Element, ...], scalar: complex) -> MajoranaDiagram:
    els = diag.elements[:start] + repl + diag.elements[start + count:]
    return MajoranaDiagram(diag.width_in, diag.width_out, els,
                           diag.amplitude * scalar)


def _as_vertical_scattering(el: Element) -> tuple[complex, complex]:
    """(theta, amplitude factor) turning the element into Scattering(theta)."""
    if isinstance(el, Scattering) and el.orientation == VERTICAL:
        return complex(el.theta), 1.0
    if isinstance(el, BraidPos):
        return -_PI / 2, cmath.exp(1j * _PI / 8)
    if isinstance(el, BraidNeg):
        return _PI / 2, cmath.exp(-1j * _PI / 8)
    raise PatternMismatch(f"{el!r} is not a vertical scattering")


def apply_rule(diag: MajoranaDiagram, rule: RewriteRule, site: RewriteSite) -> MajoranaDiagram:
    """Apply `rule` at `site`; raises PatternMismatch when the local pattern
    does not match the rule's left-hand side.  Closed-diagram value is
    preserved exactly (up to the documented float tolerance)."""
    els = diag.elements
    i = site.indices[0]
    if not 0 <= i < len(els):
        raise PatternMismatch(f"element index {i} out of range")

    if isinstance(rule, DotRelocateCapCup):
        if len(site.indices) != 2:
            raise PatternMismatch("site needs (dot index, cap/cup index)")
        di, ci = site.indices
        if abs(di - ci) != 1 or not isinstance(els[di], Dot):
            raise PatternMismatch("dot must be adjacent to its cap/cup")
        dot: Dot = els[di]
        other = els[ci]
        if isinstance(other, Cap) and ci == di - 1:
            if dot.j == other.j:  # left arm -> right arm
                return _replace(diag, di, 1, (Dot(other.j + 1),), 1j)
            if dot.j == other.j + 1:
                return _replace(diag, di, 1, (Dot(other.j),), -1j)
        if isinstance(other, Cup) and ci == di + 1:
            if dot.j == other.j:  # left arm -> right arm
                return _replace(diag, di, 1, (Dot(other.j + 1),), -1j)
            if dot.j == other.j + 1:
                return _replace(diag, di, 1, (Dot(other.j),), 1j)
        raise PatternMismatch("dot is not on an arm of the adjacent cap/cup")

    if isinstance(rule, ReidemeisterI):
        try:
            cap, braid, cup = els[i], els[i + 1], els[i + 2]
        except IndexError:
            raise PatternMismatch("kink needs three elements") from None
        if not (isinstance(cap, Cap) and isinstance(cup, Cup) and cap.j == cup.j):
            raise PatternMismatch("kink needs a matching cap/cup pair")
        if isinstance(braid, BraidPos) and rule.writhe == 1:
            scalar = RULE_SCALARS["kink_pos"]
        elif isinstance(braid, BraidNeg) and rule.writhe == -1:
            scalar = RULE_SCALARS["kink_neg"]
        else:
            raise PatternMismatch("braid sign does not match the writhe")
        if braid.j not in (cap.j - 1, cap.j + 1):
            raise PatternMismatch("braid does not touch the kink strand")
        return _replace(diag, i, 3, (), scalar)

    if isinstance(rule, ReidemeisterII):
        try:
            b1, b2 = els[i], els[i + 1]
        except IndexError:
            raise PatternMismatch("needs two braids") from None
        if not (isinstance(b1, (BraidPos, BraidNeg)) and b2 == b1.dagger()):
            raise PatternMismatch("needs opposite braids at one position")
        return _replace(diag, i, 2, (), 1.0)

    if isinstance(rule, ReidemeisterIII):
        try:
            b1, b2, b3 = els[i], els[i + 1], els[i + 2]
        except IndexError:
            raise PatternMismatch("needs three braids") from None
        kinds = {type(b1), type(b2), type(b3)}
        if len(kinds) != 1 or not kinds <= {BraidPos, BraidNeg}:
            raise PatternMismatch("needs three braids of one sign")
        if not (b1.j == b3.j and abs(b2.j - b1.j) == 1):
            raise PatternMismatch("needs alternating positions j, j', j")
        kind = type(b1)
        return _replace(diag, i, 3, (kind(b2.j), kind(b1.j), kind(b2.j)), 1.0)

    if isinstance(rule, DotThroughBraid):
        try:
            dot, braid = els[i], els[i + 1]
        except IndexError:
            raise PatternMismatch("needs dot then braid") from None
        if not isinstance(dot, Dot) or not isinstance(braid, (BraidPos, BraidNeg)):
            raise PatternMismatch("needs dot then braid")
        j = braid.j
        if dot.j == j:
            new_pos, sign = j + 1, 1 if isinstance(braid, BraidPos) else -1
        elif dot.j == j + 1:
            new_pos, sign = j, -1 if isinstance(braid, BraidPos) else 1
        else:
            raise PatternMismatch("dot not on the braid strands")
        return _replace(diag, i, 2, (braid, Dot(new_pos)), sign)

    if isinstance(rule, BraidTypeSwitch):
        el = els[i]
        if not isinstance(el, (BraidPos, BraidNeg)):
            raise PatternMismatch(f"element {i} is not a braid")
        scalar = RULE_SCALARS["braid_switch_pos_to_neg" if isinstance(el, BraidPos)
                              else "braid_switch_neg_to_pos"]
        return _replace(diag, i, 1, (el.dagger(), DotPair(el.j, el.j + 1)), scalar)

    if isinstance(rule, ScatteringReduce):
        el = els[i]
        if not isinstance(el, (Scattering, ScatteringStar)):
            raise PatternMismatch(f"element {i} is not a scattering")
        theta = el.angle()
        if is_generic_angle(theta):
            raise PatternMismatch(f"scattering angle {theta} is generic")
        k = round(theta.real / (_PI / 2)) % 4
        if el.orientation != VERTICAL:
            if k == 0:
                return _replace(diag, i, 1, (Cup(el.j), Cap(el.j)), 1.0)
            raise PatternMismatch("only the theta=0 horizontal reduction is supported")
        if k == 0:
            return _replace(diag, i, 1, (), 1.0)
        if k == 2:
            return _replace(diag, i, 1, (DotPair(el.j, el.j + 1),), 1.0)
        if k == 3:  # theta = -pi/2
            return _replace(diag, i, 1, (BraidPos(el.j),), RULE_SCALARS["scatter_to_braid_pos"])
        return _replace(diag, i, 1, (BraidNeg(el.j),), RULE_SCALARS["scatter_to_braid_neg"])

    if isinstance(rule, YangBaxter):
        try:
            e1, e2, e3 = els[i], els[i + 1], els[i + 2]
        except IndexError:
            raise PatternMismatch("needs three scatterings") from None
        t1, f1 = _as_vertical_scattering(e1)
        t2, f2 = _as_vertical_scattering(e2)
        t3, f3 = _as_vertical_scattering(e3)
        if not (e1.j == e3.j and abs(e2.j - e1.j) == 1):
            raise PatternMismatch("needs alternating positions j, j', j")
        if rule.phis is not None:
            phis, scalar = rule.phis, 1.0 + 0.0j
        else:
            phis, scalar = solve_yang_baxter_full(t1, t2, t3)
        p1, p2, p3 = phis
        repl = (
            Scattering(e2.j, p1),
            Scattering(e1.j, p2),
            Scattering(e2.j, p3),
        )
        return _replace(diag, i, 3, repl, f1 * f2 * f3 * scalar)

    if isinstance(rule, SpaceTimeDual):
        el = els[i]
        if not isinstance(el, (Scattering, ScatteringStar)):
            raise PatternMismatch(f"element {i} is not a scattering")
        a, phi = spacetime_dual(el)
        flipped = VERTICAL if el.orientation != VERTICAL else HORIZONTAL
        dual = (Scattering(el.j, phi, flipped) if isinstance(el, Scattering)
                else ScatteringStar(el.j, 1j * phi, flipped))
        return _replace(diag, i, 1, (dual,), RULE_SCALARS["spacetime_loop_factor"] * a)

    if isinstance(rule, DotPassScattering):
        try:
            dot, sc = els[i], els[i + 1]
        except IndexError:
            raise PatternMismatch("needs dot then scattering") from None
        if not isinstance(dot, Dot) or not isinstance(sc, Scattering) \
                or sc.orientation != VERTICAL:
            raise PatternMismatch("needs dot then vertical scattering")
        theta = complex(sc.theta)
        new_theta = _PI - theta
        if dot.j == sc.j:
            repl = (Scattering(sc.j, new_theta), Dot(sc.j + 1))
            scalar = 1j * cmath.exp(1j * theta)
        elif dot.j == sc.j + 1:
            repl = (Scattering(sc.j, new_theta), Dot(sc.j))
            scalar = -1j * cmath.exp(1j * theta)
        else:
            raise PatternMismatch("dot not on the scattering strands")
        return _replace(diag, i, 2, repl, scalar)

    if isinstance(rule, DotAbsorbScattering):
        try:
            pair, sc = els[i], els[i + 1]
        except IndexError:
            raise PatternMismatch("needs dot pair then scattering") from None
        if not (isinstance(pair, DotPair) and isinstance(sc, Scattering)
                and sc.orientation == VERTICAL
                and pair.j == sc.j and pair.k == sc.j + 1):
            raise PatternMismatch("needs an adjacent dot pair on the scattering strands")
        return _replace(diag, i, 2, (Scattering(sc.j, complex(sc.theta) + _PI),), 1.0)

    if isinstance(rule, CommuteDistantElements):
        return _commute_adjacent(diag, i)

    if isinstance(rule, PairDotsToBraids):
        el = els[i]
        if not (isinstance(el, DotPair) and el.k == el.j + 1):
            raise PatternMismatch("needs an adjacent dot pair")
        repl = (BraidPos(el.j), BraidPos(el.j))
        return _replace(diag, i, 1, repl, RULE_SCALARS["pair_dots_to_braids"])

    raise TypeError(f"unknown rule {rule!r}")


def _commute_adjacent(diag: MajoranaDiagram, i: int) -> MajoranaDiagram:
    els = diag.elements
    if i + 1 >= len(els):
        raise PatternMismatch("needs two adjacent elements")
    first, second = els[i], els[i + 1]
    for el in (first, second):
        if isinstance(el, Dot):
            raise PatternMismatch("a lone dot is parity-odd and does not commute freely")

    # map `second`'s positions back through `first` (to the pre-first frame)
    def back_through_first(p: int, pivot_ok: bool) -> int:
        if isinstance(first, Cap):
            if p in (first.j, first.j + 1) and not pivot_ok:
                raise PatternMismatch("elements share a strand")
            if p == first.j + 1 and pivot_ok:
                raise PatternMismatch("insertion splits the cap pair")
            return p - 2 if p >= first.j + 2 else p
        if isinstance(first, Cup):
            return p + 2 if p >= first.j else p
        return p

    if isinstance(second, Cap):
        new_second = Cap(back_through_first(second.j, pivot_ok=True))
    else:
        new_second = second.moved([back_through_first(p, pivot_ok=False)
                                   for p in second.positions()])
    # check disjointness in the common (pre-first) frame; a cap reads no strand
    first_strands = set() if isinstance(first, Cap) else set(first.positions())
    second_strands = set() if isinstance(new_second, Cap) else set(new_second.positions())
    if first_strands & second_strands:
        raise PatternMismatch("elements share a strand")

    # map `first`'s positions forward through `new_second`
    def fwd_through_second(p: int) -> int:
        if isinstance(new_second, Cap):
            return p + 2 if p >= new_second.j else p
        if isinstance(new_second, Cup):
            return p - 2 if p >= new_second.j + 2 else p
        return p

    new_first = first.moved([fwd_through_second(p) for p in first.positions()])
    new_els = els[:i] + (new_second, new_first) + els[i + 2:]
    try:
        return MajoranaDiagram(diag.width_in, diag.width_out, new_els, diag.amplitude)
    except Exception as exc:  # ill-formed after swap means the move was invalid
        raise PatternMismatch(f"swap produces an ill-formed diagram: {exc}") from exc
