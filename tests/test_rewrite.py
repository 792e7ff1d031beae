import cmath
import math

import numpy as np
import pytest

from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
)
from quon2d.errors import (
    NoSolution,
    NotAScattering,
    NumericalInstability,
    PatternMismatch,
    Quon2dError,
    SingularAngle,
)
from quon2d.fock import diagram_operator, evaluate_closed_oracle
from quon2d.rewrite import (
    RULE_SCALARS,
    BraidTypeSwitch,
    CommuteDistantElements,
    DotAbsorbScattering,
    DotPassScattering,
    DotRelocateCapCup,
    DotThroughBraid,
    PairDotsToBraids,
    ReidemeisterI,
    ReidemeisterII,
    ReidemeisterIII,
    RewriteSite,
    ScatteringReduce,
    SpaceTimeDual,
    YangBaxter,
    apply_rule,
    braid_expansion_weights,
    expand_scattering,
    solve_yang_baxter,
    solve_yang_baxter_full,
    spacetime_dual,
    yang_baxter_operator,
)

from conftest import embed_pattern, random_closed_diagram

PI = math.pi


def _preserved(rng, pattern, width, rule, site_fn, trials=40):
    for _ in range(trials):
        d, t, off = embed_pattern(rng, pattern, width)
        d2 = apply_rule(d, rule, site_fn(t, off))
        v1 = evaluate_closed_oracle(d)
        v2 = evaluate_closed_oracle(d2)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_dot_relocate_cap_cup(rng):
    _preserved(rng, (Cap(0), Dot(0), Cup(2)), 2, DotRelocateCapCup(),
               lambda t, o: RewriteSite.at(t + 1, t))
    _preserved(rng, (Cap(0), Dot(1), Cup(2)), 2, DotRelocateCapCup(),
               lambda t, o: RewriteSite.at(t + 1, t))
    _preserved(rng, (Cap(2), Dot(0), Cup(0)), 2, DotRelocateCapCup(),
               lambda t, o: RewriteSite.at(t + 1, t + 2))
    _preserved(rng, (Cap(2), Dot(1), Cup(0)), 2, DotRelocateCapCup(),
               lambda t, o: RewriteSite.at(t + 1, t + 2))


def test_dot_relocate_factor_is_i():
    # the left-dot diagram equals i times the right-dot diagram, so the
    # relocated-dot replacement carries amplitude x i
    left = MajoranaDiagram(0, 0, (Cap(0), Dot(0), Dot(1), Cup(0)))
    moved = apply_rule(left, DotRelocateCapCup(), RewriteSite.at(1, 0))
    assert moved.elements[1] == Dot(1)
    assert moved.amplitude == pytest.approx(1j * left.amplitude)


def test_reidemeister_one_both_chiralities(rng):
    _preserved(rng, (Cap(1), BraidPos(0), Cup(1)), 2, ReidemeisterI(1),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (Cap(0), BraidPos(1), Cup(0)), 2, ReidemeisterI(1),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (Cap(1), BraidNeg(0), Cup(1)), 2, ReidemeisterI(-1),
               lambda t, o: RewriteSite.at(t))


def test_reidemeister_one_calibrated_scalar():
    # the kink equals exp(-/+ i pi/8) times the plain strand (oracle pin)
    kink = MajoranaDiagram(0, 0, (Cap(0), Cap(1), BraidPos(0), Cup(1), Cup(0)))
    plain = MajoranaDiagram.loop()
    ratio = evaluate_closed_oracle(kink) / evaluate_closed_oracle(plain)
    assert ratio == pytest.approx(RULE_SCALARS["kink_pos"])
    assert RULE_SCALARS["kink_pos"] == pytest.approx(cmath.exp(-1j * PI / 8))


def test_reidemeister_two_and_three(rng):
    _preserved(rng, (BraidPos(0), BraidNeg(0)), 2, ReidemeisterII(),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (BraidPos(0), BraidPos(1), BraidPos(0)), 3, ReidemeisterIII(),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (BraidNeg(1), BraidNeg(0), BraidNeg(1)), 3, ReidemeisterIII(),
               lambda t, o: RewriteSite.at(t))


def test_dot_through_braid(rng):
    for pattern in ((Dot(0), BraidPos(0)), (Dot(1), BraidPos(0)),
                    (Dot(0), BraidNeg(0)), (Dot(1), BraidNeg(0))):
        _preserved(rng, pattern, 2, DotThroughBraid(), lambda t, o: RewriteSite.at(t),
                   trials=25)


def test_braid_type_switch(rng):
    _preserved(rng, (BraidPos(0),), 2, BraidTypeSwitch(), lambda t, o: RewriteSite.at(t))
    _preserved(rng, (BraidNeg(0),), 2, BraidTypeSwitch(), lambda t, o: RewriteSite.at(t))
    d = MajoranaDiagram(2, 2, (BraidPos(0),))
    out = apply_rule(d, BraidTypeSwitch(), RewriteSite.at(0))
    assert out.elements == (BraidNeg(0), DotPair(0, 1))


def test_scattering_reduce_all_special_angles(rng):
    for theta in (0.0, PI, -PI / 2, PI / 2, 2 * PI, 3 * PI / 2):
        _preserved(rng, (Scattering(0, theta),), 2, ScatteringReduce(),
                   lambda t, o: RewriteSite.at(t), trials=20)
    with pytest.raises(PatternMismatch):
        apply_rule(MajoranaDiagram(2, 2, (Scattering(0, 0.3),)),
                   ScatteringReduce(), RewriteSite.at(0))


def test_expand_scattering_sum_rule(rng):
    # sum of weighted evaluations equals the original, both modes
    for _ in range(25):
        theta = complex(rng.normal(), 0.4 * rng.normal())
        for orientation in ("vertical", "horizontal"):
            d, t, off = embed_pattern(rng, (Scattering(0, theta, orientation),), 2)
            v = evaluate_closed_oracle(d)
            for mode in ("dots", "braids"):
                terms = expand_scattering(d, t, mode=mode)
                total = sum(w * evaluate_closed_oracle(term) for w, term in terms)
                assert abs(total - v) <= 1e-12 * max(1.0, abs(v))


def test_expand_scattering_weights_sum_to_one():
    terms = expand_scattering(MajoranaDiagram(2, 2, (Scattering(0, 0.37),)), 0)
    assert terms[0][0] + terms[1][0] == pytest.approx(1.0)
    # theta = 0: pure identity; theta = pi: pure dot pair
    t0 = expand_scattering(MajoranaDiagram(2, 2, (Scattering(0, 0.0),)), 0)
    assert t0[0][0] == pytest.approx(1.0) and t0[1][0] == pytest.approx(0.0)
    tpi = expand_scattering(MajoranaDiagram(2, 2, (Scattering(0, PI),)), 0)
    assert tpi[0][0] == pytest.approx(0.0) and tpi[1][0] == pytest.approx(1.0)


def test_braid_expansion_reproduces_operator(rng):
    # A_theta * BraidPos + B_theta * BraidNeg equals the scattering on
    # 4-Majorana dense matrices, including complex angles
    for _ in range(25):
        theta = complex(rng.normal(), 0.5 * rng.normal())
        scat = MajoranaDiagram(4, 4, (Scattering(1, theta),))
        a_w, b_w = braid_expansion_weights(scat.elements[0])
        lhs = diagram_operator(scat)
        rhs = a_w * diagram_operator(MajoranaDiagram(4, 4, (BraidPos(1),))) + \
            b_w * diagram_operator(MajoranaDiagram(4, 4, (BraidNeg(1),)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # braid limit: theta = -pi/2 leaves only the positive braid term
    a_w, b_w = braid_expansion_weights(Scattering(0, -PI / 2))
    assert b_w == pytest.approx(0.0, abs=1e-12)
    assert a_w == pytest.approx(cmath.exp(-1j * PI / 8))


def test_expand_rejects_non_scattering():
    with pytest.raises(NotAScattering):
        expand_scattering(MajoranaDiagram(0, 2, (Cap(0),)), 0)


def test_spacetime_dual_values():
    a, phi = spacetime_dual(Scattering(0, PI / 2))
    assert a == pytest.approx((1 + 1j) / 2)
    assert cmath.exp(1j * phi) == pytest.approx(-1j)
    with pytest.raises(SingularAngle):
        spacetime_dual(Scattering(0, 0.0))
    with pytest.raises(SingularAngle):
        spacetime_dual(Scattering(0, PI))


def test_spacetime_dual_overflow_is_typed():
    d = MajoranaDiagram(0, 0, (Cap(0), ScatteringStar(0, 800), Cup(0)))
    with pytest.raises(NumericalInstability, match="overflows a float"):
        apply_rule(d, SpaceTimeDual(), RewriteSite.at(1))


def test_yang_baxter_overflow_is_typed():
    d = MajoranaDiagram(4, 4, (Scattering(0, -1500j), Scattering(1, 0.3), Scattering(0, 0.2)))
    with pytest.raises(NumericalInstability, match="overflows a float"):
        apply_rule(d, YangBaxter(), RewriteSite.at(0))
    with pytest.raises(NumericalInstability, match="overflows a float"):
        solve_yang_baxter_full(-400j, -400j, 0)


def test_dot_pass_overflow_is_typed():
    with pytest.raises(NumericalInstability, match="overflows a float"):
        apply_rule(MajoranaDiagram(2, 2, (Dot(0), Scattering(0, -800j))),
                   DotPassScattering(), RewriteSite.at(0))


def test_spacetime_dual_rule_preserves_value(rng):
    _preserved(rng, (Scattering(0, 0.7 + 0.2j),), 2, SpaceTimeDual(),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (Scattering(0, 1.1, "horizontal"),), 2, SpaceTimeDual(),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (Scattering(0, 0.9 - 0.1j, "horizontal"),), 2, SpaceTimeDual(),
               lambda t, o: RewriteSite.at(t))
    _preserved(rng, (ScatteringStar(0, 0.8),), 2, SpaceTimeDual(),
               lambda t, o: RewriteSite.at(t), trials=20)


def test_dot_pass_scattering_angle_is_pi_minus_theta(rng):
    d = MajoranaDiagram(2, 2, (Dot(0), Scattering(0, 0.83)))
    out = apply_rule(d, DotPassScattering(), RewriteSite.at(0))
    assert out.elements[0].theta == pytest.approx(PI - 0.83)
    assert out.elements[1] == Dot(1)
    _preserved(rng, (Dot(0), Scattering(0, 0.83)), 2, DotPassScattering(),
               lambda t, o: RewriteSite.at(t), trials=25)
    _preserved(rng, (Dot(1), Scattering(0, -1.2 + 0.3j)), 2, DotPassScattering(),
               lambda t, o: RewriteSite.at(t), trials=25)


def test_dot_absorb_scattering(rng):
    d = MajoranaDiagram(2, 2, (DotPair(0, 1), Scattering(0, 0.45)))
    out = apply_rule(d, DotAbsorbScattering(), RewriteSite.at(0))
    assert out.elements[0].theta == pytest.approx(PI + 0.45)
    _preserved(rng, (DotPair(0, 1), Scattering(0, 0.45)), 2, DotAbsorbScattering(),
               lambda t, o: RewriteSite.at(t), trials=25)


def test_commute_distant_elements(rng):
    _preserved(rng, (BraidPos(0), Scattering(2, 0.5)), 4, CommuteDistantElements(),
               lambda t, o: RewriteSite.at(t), trials=25)
    _preserved(rng, (Cap(0), Cup(2)), 2, CommuteDistantElements(),
               lambda t, o: RewriteSite.at(t), trials=25)
    with pytest.raises(PatternMismatch):
        apply_rule(MajoranaDiagram(2, 2, (Dot(0), Dot(1))),
                   CommuteDistantElements(), RewriteSite.at(0))
    with pytest.raises(PatternMismatch):
        apply_rule(MajoranaDiagram(4, 4, (BraidPos(0), BraidPos(1))),
                   CommuteDistantElements(), RewriteSite.at(0))


def test_commute_refuses_a_cap_that_splits_a_braid():
    # the braid's strands would land on j and j + 3, around the cap's pair
    with pytest.raises(PatternMismatch):
        apply_rule(MajoranaDiagram(2, 4, (BraidNeg(0), Cap(1))),
                   CommuteDistantElements(), RewriteSite.at(0))
    closed = MajoranaDiagram(0, 0, (Cap(0), Dot(0), BraidNeg(0), Cap(1), Dot(1), Cup(1), Cup(0)))
    with pytest.raises(PatternMismatch):
        apply_rule(closed, CommuteDistantElements(), RewriteSite.at(2))


def test_every_site_index_is_range_checked():
    d = MajoranaDiagram(2, 4, (Dot(0), Cap(0)))
    # (0, -1) would wrap around to the cap after the dot
    for indices in ((0, -1), (0, 2), (0,), (1, 0, 1)):
        with pytest.raises(PatternMismatch):
            apply_rule(d, DotRelocateCapCup(), RewriteSite.at(*indices))
    for indices in ((-1,), (2,), (0, 1)):
        with pytest.raises(PatternMismatch):
            apply_rule(d, CommuteDistantElements(), RewriteSite.at(*indices))


RULES = (
    DotRelocateCapCup(), ReidemeisterI(1), ReidemeisterI(-1), ReidemeisterII(),
    ReidemeisterIII(), DotThroughBraid(), BraidTypeSwitch(), ScatteringReduce(),
    YangBaxter(), SpaceTimeDual(), DotPassScattering(), DotAbsorbScattering(),
    CommuteDistantElements(), PairDotsToBraids(),
)


# patterns that random diagrams seldom contain, with their widths
SELDOM = (
    ((Cap(1), BraidPos(0), Cup(1)), 2), ((Cap(0), BraidNeg(1), Cup(0)), 2),
    ((BraidNeg(0), BraidNeg(1), BraidNeg(0)), 3),
    ((Scattering(0, 0.3), BraidPos(1), Scattering(0, 1.1)), 3),
    ((ScatteringStar(0, 0.5j * PI),), 2), ((Scattering(0, 0.0, "horizontal"),), 2),
)


def test_every_rule_at_every_site_keeps_the_value_or_raises_typed():
    rng = np.random.default_rng(88)
    corpus = [random_closed_diagram(rng, max_width=8, max_elems=14) for _ in range(150)]
    corpus += [embed_pattern(rng, pattern, width)[0] for pattern, width in SELDOM
               for _ in range(4)]
    applied = set()
    for d in corpus:
        value = evaluate_closed_oracle(d)
        n = len(d.elements)
        for rule in RULES:
            if isinstance(rule, DotRelocateCapCup):
                sites = [RewriteSite.at(i, k) for i in range(n) for k in (i - 1, i + 1, -1, n)]
            else:
                sites = [RewriteSite.at(i) for i in range(n)]
            for site in sites:
                try:
                    out = apply_rule(d, rule, site)
                except Quon2dError:
                    continue
                applied.add(rule)
                got = evaluate_closed_oracle(out)
                assert abs(got - value) <= 1e-9 * max(1.0, abs(value)), (rule, site, d)
    assert applied == set(RULES)


def test_pair_dots_to_braids(rng):
    d = MajoranaDiagram(2, 2, (DotPair(0, 1),))
    out = apply_rule(d, PairDotsToBraids(), RewriteSite.at(0))
    assert out.elements == (BraidPos(0), BraidPos(0))
    assert out.amplitude == pytest.approx(cmath.exp(-1j * PI / 4))
    _preserved(rng, (DotPair(0, 1),), 2, PairDotsToBraids(),
               lambda t, o: RewriteSite.at(t), trials=25)


# -- Yang-Baxter -------------------------------------------------------------


def test_yang_baxter_braid_limit():
    sol = solve_yang_baxter(-PI / 2, -PI / 2, -PI / 2)
    for phi in sol:
        assert complex(phi) == pytest.approx(-PI / 2, abs=1e-9)


def test_yang_baxter_two_braids_carries_theta():
    theta = 0.77
    sol = solve_yang_baxter(theta, -PI / 2, -PI / 2)
    assert complex(sol[0]) == pytest.approx(-PI / 2, abs=1e-8)
    assert complex(sol[1]) == pytest.approx(-PI / 2, abs=1e-8)
    assert complex(sol[2]) == pytest.approx(theta, abs=1e-8)


def test_yang_baxter_generic_triple_operator_equality():
    phis, scalar = solve_yang_baxter_full(0.3, 0.7, 1.1)
    lhs = yang_baxter_operator((0.3, 0.7, 1.1), first_axis="z")
    rhs = yang_baxter_operator(phis, first_axis="x")
    assert np.max(np.abs(lhs - scalar * rhs)) <= 1e-9
    assert abs(scalar) == pytest.approx(1.0, abs=1e-9)


def test_yang_baxter_rule_in_context(rng):
    _preserved(rng, (Scattering(0, 0.3), Scattering(1, 0.7), Scattering(0, 1.1)),
               3, YangBaxter(), lambda t, o: RewriteSite.at(t), trials=15)


def test_yang_baxter_eight_by_eight_via_fock():
    # 4-strand padding with one idle strand
    thetas = (0.3, 0.7, 1.1)
    phis, scalar = solve_yang_baxter_full(*thetas)
    lhs = diagram_operator(MajoranaDiagram(
        8, 8, (Scattering(0, thetas[0]), Scattering(1, thetas[1]), Scattering(0, thetas[2]))))
    rhs = diagram_operator(MajoranaDiagram(
        8, 8, (Scattering(1, phis[0]), Scattering(0, phis[1]), Scattering(1, phis[2]))))
    assert np.max(np.abs(lhs - scalar * rhs)) <= 1e-9


def _yang_baxter_error(thetas, phis, scalar):
    """max|LHS - scalar * RHS| relative to max(1, max|LHS|)."""
    lhs = yang_baxter_operator(thetas, first_axis="z")
    rhs = yang_baxter_operator(phis, first_axis="x")
    return np.max(np.abs(lhs - scalar * rhs)) / max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("thetas, exact", [
    ((0, 0.7, 0), True),  # diagonal after the Hadamard: phi2 = 0
    ((0.4, PI, 0.4), False),  # diagonal, but only e^{0.4i} times a solution
    ((0, PI, 0), True),  # diagonal
    ((PI, 0.7, 0), True),  # antidiagonal: phi2 = pi
])
def test_yang_baxter_degenerate_triples(thetas, exact):
    """The off-diagonal (or diagonal) entries are round-off, so the full
    form's angles would be noise: real angles come from the degenerate form."""
    phis, scalar = solve_yang_baxter_full(*thetas)
    assert _yang_baxter_error(thetas, phis, scalar) <= 1e-9
    assert (scalar == 1) == exact
    assert max(abs(complex(phi).imag) for phi in phis) <= 1e-9


def test_yang_baxter_keeps_scalar_one_near_the_tolerance():
    """kappa is 1 + 1e-9j: with the off-diagonals scaled by kappa scalar 1
    misses by 1.0000001e-9, by sqrt(kappa) it misses by 5e-10."""
    thetas = (3 * PI / 2 - 1e-6, 2 * PI - 1e-9, -PI - 1e-6)
    phis, scalar = solve_yang_baxter_full(*thetas)
    assert scalar == 1
    assert _yang_baxter_error(thetas, phis, 1.0) <= 1e-9


@pytest.mark.parametrize("thetas", [(0.3, 30j, 0.2), (-40j, 0.3, 0.2), (2 - 36j, 0.3, 0.2)])
def test_yang_baxter_large_imaginary_angles_are_verified_or_refused(thetas):
    """LHS mixes entries of e^{36} and of one; a partner is checked entry
    by entry, relative to each entry, so a returned one matches every entry
    of LHS to 1e-9 (also as an 8 x 8 Fock operator), and otherwise the
    solver raises NoSolution.  Checked against 1e-9 * max|LHS| only,
    (2 - 36j, 0.3, 0.2) came back with its small entries 55% off."""
    try:
        phis, scalar = solve_yang_baxter_full(*thetas)
    except NoSolution:
        return
    lhs = yang_baxter_operator(thetas, first_axis="z")
    rhs = yang_baxter_operator(phis, first_axis="x")
    assert np.all(np.abs(lhs - scalar * rhs) <= 1e-9 * np.maximum(np.abs(lhs), 1.0))
    lhs8 = diagram_operator(MajoranaDiagram(8, 8, tuple(
        Scattering(j, theta) for j, theta in zip((0, 1, 0), thetas))))
    rhs8 = diagram_operator(MajoranaDiagram(8, 8, tuple(
        Scattering(j, phi) for j, phi in zip((1, 0, 1), phis))))
    assert np.all(np.abs(lhs8 - scalar * rhs8) <= 1e-9 * np.maximum(np.abs(lhs8), 1.0))


@pytest.mark.parametrize("thetas, scalar", [
    ((300j, 0.3, 0.2), 1.0289102525 + 0.0073819994j),
    ((0.3, 30j, 0.2), 1.9064928144 + 0.4868075380j),
])
def test_yang_baxter_partners_at_large_imaginary_angles(thetas, scalar):
    """Solved in LHS's own basis, these get partners that match every entry
    of LHS to 1e-9 of its size: (300j, 0.3, 0.2) was refused when the
    candidates came from H LHS H, and (0.3, 30j, 0.2) came back with the
    scalar -3.0e-12 - 7.8e-13i, whose partner (of equal sum |Im phi|) only
    makes RHS e^26 times too large."""
    phis, got = solve_yang_baxter_full(*thetas)
    lhs = yang_baxter_operator(thetas, first_axis="z")
    rhs = yang_baxter_operator(phis, first_axis="x")
    assert np.all(np.abs(lhs - got * rhs) <= 1e-9 * np.maximum(np.abs(lhs), 1.0))
    assert got == pytest.approx(scalar, rel=1e-9)


def test_yang_baxter_refuses_a_partner_that_no_float_holds():
    """(-40j, 0.3, 0.2) has a partner in exact arithmetic, listed here to
    the last bit with its scalar: phi1 = 9.5e-20 + 4.9e-19i.  exp(i phi1)
    rounds to 1 + 9.5e-20i, dropping the factor e^(-4.9e-19), and LHS's
    entries of e^40 scale that factor up to its entries of one: RHS misses
    them by 6%.  So no partner passes the check, and the solver says so."""
    thetas = (-40j, 0.3, 0.2)
    with pytest.raises(NoSolution):
        solve_yang_baxter_full(*thetas)
    phis = (9.500697839666006e-20 + 4.905958727916238e-19j,
            0.1912884677151682 - 39.99827354365842j, 0.29436261749860093 - 0.05877839944678103j)
    assert cmath.exp(1j * phis[0]) == 1 + 9.500697839666006e-20j
    lhs = yang_baxter_operator(thetas, first_axis="z")
    rhs = yang_baxter_operator(phis, first_axis="x")
    miss = np.abs(lhs - (0.9718520401341789 + 0.0069726306884641855j) * rhs) / np.abs(lhs)
    assert miss[:, 1].max() < 1e-14 and miss[:, 0].max() > 0.05  # the entries of one


def test_yang_baxter_fuzz(rng):
    """Random complex triples, and multiples of pi/2 moved by 0 or 1e-12 to
    1e-3: every triple is solved, with scalar 1 wherever scalar 1 passes."""
    triples = [tuple(rng.normal(scale=1.5, size=3) + 1j * rng.normal(scale=0.5, size=3))
               for _ in range(300)]
    offsets = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
    for _ in range(600):
        triples.append(tuple(k * PI / 2 + rng.choice((-1, 1)) * rng.choice(offsets)
                             for k in rng.integers(-4, 5, size=3)))
    for thetas in triples:
        phis, scalar = solve_yang_baxter_full(*thetas)
        assert _yang_baxter_error(thetas, phis, scalar) <= 1e-9, thetas
        if scalar != 1:
            assert _yang_baxter_error(thetas, phis, 1.0) > 1e-9, thetas
