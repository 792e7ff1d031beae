import math

import numpy as np
import pytest

from quon2d import diagram as dg
from quon2d.classify import classify
from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    MajoranaDiagram,
    ScatteringStar,
    VERTICAL,
)
from quon2d.errors import (
    InvariantViolation,
    NonPlanarInput,
    NumericalInstability,
    Singular,
    TooManySites,
)
from quon2d.ising import (
    IsingLattice,
    build_ising_quon,
    kw_dual_coupling,
    kw_rewrite_chain,
    kw_self_dual_point,
    loop_angle,
    partition_oracle,
    star_triangle_oracle,
    star_triangle_solve,
)
from quon2d.gaussian import PreparedDiagram, assemble_frontier
from quon2d.quon import QuonDiagram, all_projections, evaluate_closed_quon
from quon2d.rewrite import spacetime_dual
from quon2d.serialize import serialize_diagram
from quon2d.wires import WireTrace

from conftest import run_fresh


def test_partition_oracle_basics():
    single = IsingLattice(1, ())
    assert partition_oracle(single) == pytest.approx(2.0)
    edge = IsingLattice(2, ((0, 1, 1.0),))
    assert partition_oracle(edge) == pytest.approx(2 * math.e + 2 / math.e)
    with pytest.raises(TooManySites):
        partition_oracle(IsingLattice(25, ()))


def test_nonplanar_rejected():
    edges = [(a, b, 0.1) for a in range(5) for b in range(a + 1, 5)]
    with pytest.raises(NonPlanarInput):
        IsingLattice(5, tuple(edges))  # K5


@pytest.mark.parametrize("rows, cols", [(0, 2), (3, 0), (-1, 2)])
def test_lattice_without_sites_is_rejected(rows, cols):
    with pytest.raises(InvariantViolation, match=f"{rows} x {cols} lattice has no sites"):
        IsingLattice.square(rows, cols, 0.3)
    with pytest.raises(InvariantViolation, match="no sites"):
        IsingLattice(0, ())


@pytest.mark.parametrize("rows, cols", [(-1, -1), (-2, -3), (-3, -2)])
def test_lattice_of_two_negative_sides_has_no_sites(rows, cols):
    """rows * cols is positive, but the shape still has no sites: the error
    says so, with overrides or without, and for a lattice given its shape."""
    message = f"{rows} x {cols} lattice has no sites"
    with pytest.raises(InvariantViolation, match=message):
        IsingLattice.square(rows, cols, 0.3)
    with pytest.raises(InvariantViolation, match=message):
        IsingLattice.square(rows, cols, 0.3, {(0, 1): 0.5})
    with pytest.raises(InvariantViolation, match=message):
        IsingLattice(rows * cols, (), (rows, cols))


@pytest.mark.parametrize("n_sites, bonds, shape, message", [
    (4, [(0, 3)], (2, 2), r"bond \(0, 3\) is not a bond of the 2 x 2 grid"),
    (4, [(0, 1), (2, 3), (0, 2), (1, 3)], (1, 4), r"bond \(0, 2\) is not a bond of the 1 x 4"),
    (4, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3)], (2, 2), r"bond \(1, 0\) appears twice"),
    (4, [(0, 1), (0, 2), (1, 3)], (2, 2), r"bond \(2, 3\) of the 2 x 2 grid is missing"),
    (5, [(0, 1), (0, 2), (1, 3), (2, 3)], (2, 2), "the 2 x 2 grid has 4 sites, not 5"),
])
def test_shaped_lattice_must_be_its_grid(n_sites, bonds, shape, message):
    """The square builder reads bonds by grid position: a shaped lattice
    that is not exactly its grid is refused, not failed with a KeyError."""
    with pytest.raises(InvariantViolation, match=message):
        IsingLattice(n_sites, tuple((a, b, 0.3) for a, b in bonds), shape)


def test_shaped_lattice_takes_bonds_either_way_round():
    square = IsingLattice.square(2, 3, 0.3, overrides={(4, 5): 0.6})
    flipped = IsingLattice(6, tuple((b, a, k) for a, b, k in reversed(square.edges)), (2, 3))
    z = evaluate_closed_quon(build_ising_quon(flipped)).real
    assert z == pytest.approx(partition_oracle(square), rel=1e-10)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("coupling", [0.2, 0.4407, 1.0])
def test_square_lattice_partition(shape, coupling):
    lattice = IsingLattice.square(*shape, coupling)
    z = evaluate_closed_quon(build_ising_quon(lattice)).real
    want = partition_oracle(lattice)
    assert abs(z - want) / want <= 1e-8


def test_single_edge_closed_form():
    lattice = IsingLattice(2, ((0, 1, 1.0),))
    z = evaluate_closed_quon(build_ising_quon(lattice)).real
    assert z == pytest.approx(2 * math.e + 2 / math.e)


def test_zero_coupling_counts_spins():
    lattice = IsingLattice.square(2, 2, 1e-14)
    z = evaluate_closed_quon(build_ising_quon(lattice)).real
    assert z == pytest.approx(2 ** 4)


def test_generic_planar_graphs():
    triangle = IsingLattice(3, ((0, 1, 0.3), (1, 2, 0.3), (0, 2, 0.3)))
    z = evaluate_closed_quon(build_ising_quon(triangle)).real
    assert z == pytest.approx(partition_oracle(triangle), rel=1e-10)
    pentagon = IsingLattice(
        5,
        ((0, 1, 0.25), (1, 2, 0.4), (2, 3, 0.3), (3, 4, 0.2), (0, 4, 0.35),
         (1, 3, 0.15)),
    )
    z = evaluate_closed_quon(build_ising_quon(pentagon)).real
    assert z == pytest.approx(partition_oracle(pentagon), rel=1e-10)


def test_per_edge_overrides():
    lattice = IsingLattice.square(2, 2, 0.3, overrides={(0, 1): 0.7})
    z = evaluate_closed_quon(build_ising_quon(lattice)).real
    assert z == pytest.approx(partition_oracle(lattice), rel=1e-10)


def test_ising_diagram_is_matchgate_form():
    lattice = IsingLattice.square(2, 2, 0.4)
    report = classify(build_ising_quon(lattice))
    assert report.matchgate_form
    assert not report.clifford_form  # real scattering-star angles are generic


def test_kw_chain_per_step_preservation():
    lattice = IsingLattice.square(3, 3, 0.4)
    steps, dual = kw_rewrite_chain(lattice)
    values = [evaluate_closed_quon(s) for s in steps]
    for a, b in zip(values, values[1:]):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
    assert dual.shape == (2, 2)
    assert dual.edges[0][2] == pytest.approx(kw_dual_coupling(0.4))


def test_kw_chain_matches_oracle_on_4x4():
    lattice = IsingLattice.square(4, 4, 0.4)
    want = partition_oracle(lattice)
    steps, _ = kw_rewrite_chain(lattice)
    for step in steps:
        assert abs(evaluate_closed_quon(step) - want) <= 1e-9 * want


def test_kw_chain_5x5_keeps_its_value():
    steps, _ = kw_rewrite_chain(IsingLattice.square(5, 5, 0.4))
    first = evaluate_closed_quon(steps[0])
    for step in steps[1:]:
        assert abs(evaluate_closed_quon(step) - first) <= 1e-9 * abs(first)


def test_string_hole_terms_vanish_exactly():
    """Each string-hole cut of a 9-cut step puts one point on its fresh loop,
    whose Schur row is exactly zero: every term selecting one comes out 0."""
    steps, _ = kw_rewrite_chain(IsingLattice.square(5, 5, 0.4))
    q = steps[9]
    cuts = all_projections(q)
    assert len(cuts) == 9
    prepared = PreparedDiagram(q.core, [(c.time_index, c.strands) for c in cuts])
    terms = prepared.evaluate(range(512))
    assert np.count_nonzero(terms == 0) == 511 and terms[0] != 0


def test_kw_chain_final_angles_are_dual():
    coupling = 0.4
    steps, _ = kw_rewrite_chain(IsingLattice.square(3, 3, coupling))
    final = steps[-1]
    stars = [el for el in final.core.elements if isinstance(el, ScatteringStar)]
    assert stars and all(el.orientation != VERTICAL for el in stars)
    dual_angle = -2 * kw_dual_coupling(coupling)
    for el in stars:
        assert complex(el.phi).real == pytest.approx(dual_angle, abs=1e-9)
        assert abs(complex(el.phi).imag) <= 1e-9


@pytest.mark.parametrize("lattice, match", [
    (IsingLattice.square(3, 3, 0.4, {(0, 1): 0.7}), "one coupling on every edge"),
    (IsingLattice.square(3, 3, -0.2), "needs K > 0"),
    (IsingLattice.square(3, 3, 0.0), "needs K > 0"),
])
def test_kw_chain_rejects_a_lattice_without_one_positive_coupling(lattice, match, monkeypatch):
    """Checked before any step is built: the dual of a non-uniform lattice
    has no single K*, and K <= 0 has none at all."""
    import quon2d.ising

    def no_steps(lattice):
        raise AssertionError("a step was built")

    monkeypatch.setattr(quon2d.ising, "build_ising_quon", no_steps)
    with pytest.raises(InvariantViolation, match=match):
        kw_rewrite_chain(lattice)


def test_kw_dual_coupling_needs_a_positive_coupling():
    for coupling in (-0.2, 0.0, float("nan")):
        with pytest.raises(InvariantViolation, match="needs K > 0"):
            kw_dual_coupling(coupling)


def test_kw_dual_fixed_point():
    kc = kw_self_dual_point()
    assert kc == pytest.approx(0.5 * math.log(1 + math.sqrt(2)))
    assert kw_dual_coupling(kc) == pytest.approx(kc, abs=1e-9)
    # the loop-angle duality map has the same fixed point: the loop angle
    # dual to -2Kc is i times the angle `spacetime_dual` gives
    assert 1j * spacetime_dual(ScatteringStar(0, -2 * kc))[1] == pytest.approx(-2 * kc, abs=1e-9)


def test_kw_monotone_limit():
    ks = [0.5, 1.0, 2.0, 4.0]
    duals = [kw_dual_coupling(k) for k in ks]
    assert all(a > b for a, b in zip(duals, duals[1:]))
    assert duals[-1] < 1e-3


# -- star-triangle ------------------------------------------------------------


def test_star_triangle_solves_random(rng):
    worst = 0.0
    for _ in range(30):
        u = tuple(rng.uniform(0.05, 0.95, 3))
        sol = star_triangle_solve(*u)
        worst = max(worst, sol.residual(u))
    assert worst <= 1e-9


@pytest.mark.parametrize("draw", [
    lambda rng: rng.normal(size=3) + 1j * rng.normal(size=3),
    lambda rng: rng.normal(scale=3.0, size=3),
], ids=["complex", "real_normal_3"])
def test_star_triangle_solves_wide_couplings(rng, draw):
    for _ in range(300):
        u = tuple(draw(rng))
        assert star_triangle_solve(*u).residual(u) <= 1e-9, u


def test_solvers_leave_scipy_unloaded():
    """Both closed-form solvers run on numpy alone."""
    run_fresh("from quon2d.ising import star_triangle_solve\n"
              "from quon2d.rewrite import solve_yang_baxter_full\n"
              "star_triangle_solve(0.3, 0.5, 0.7)\n"
              "solve_yang_baxter_full(0, 0.7, 0)\n", "scipy")


def test_ising_evaluation_leaves_scipy_unloaded():
    """A 4 x 4 lattice keeps block pivots, which invert with numpy.linalg
    alone."""
    run_fresh("from quon2d import elimination\n"
              "from quon2d.ising import IsingLattice, build_ising_quon\n"
              "from quon2d.quon import evaluate_closed_quon\n"
              "kept, block = [], elimination._block\n"
              "elimination._block = lambda *args: kept.append(block(*args)) or kept[-1]\n"
              "evaluate_closed_quon(build_ising_quon(IsingLattice.square(4, 4, 0.3)))\n"
              "assert kept and all(above is not None for above in kept)\n", "scipy")


def test_star_triangle_symmetric():
    sol = star_triangle_solve(0.31, 0.31, 0.31)
    assert sol.v1 == pytest.approx(sol.v2, abs=1e-9)
    assert sol.v2 == pytest.approx(sol.v3, abs=1e-9)


def test_star_triangle_parity():
    star = star_triangle_oracle((0.3, 0.5, 0.7), "star")
    tri = star_triangle_oracle((0.2, 0.4, 0.6), "triangle")
    for x in range(2):
        for y in range(2):
            for z in range(2):
                if (x + y + z) % 2:
                    assert star[x, y, z] == 0
                    assert tri[x, y, z] == 0


def test_star_triangle_zero_couplings():
    star = star_triangle_oracle((0.0, 0.0, 0.0), "star")
    p3 = np.zeros((2, 2, 2))
    for i in range(8):
        x, y, z = i >> 2 & 1, i >> 1 & 1, i & 1
        p3[x, y, z] = 1.0 if (x + y + z) % 2 == 0 else 0.0
    assert np.allclose(star, p3)
    sol = star_triangle_solve(0.0, 0.0, 0.0)
    assert (sol.v1, sol.v2, sol.v3) == (0, 0, 0)
    assert sol.r == pytest.approx(0.5, abs=1e-15)


def test_star_triangle_singular_detected():
    # u = (1, 1, -1) collapses the star tensor entirely: no solution exists
    with pytest.raises(Singular):
        star_triangle_solve(1.0, 1.0, -1.0)


def test_kw_chain_small_lattice_trivial():
    steps, dual = kw_rewrite_chain(IsingLattice.square(2, 2, 0.4))
    values = [evaluate_closed_quon(s) for s in steps]
    for a, b in zip(values, values[1:]):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def transfer_log_z(rows: int, cols: int, coupling: float) -> float:
    """log Z of the open rows x cols lattice by its 2^cols-state row
    transfer matrix, renormalised row by row."""
    spins = 1 - 2 * ((np.arange(1 << cols)[:, None] >> np.arange(cols)) & 1)
    row = np.exp(coupling * (spins[:, :-1] * spins[:, 1:]).sum(axis=1))
    step = np.exp(coupling * spins @ spins.T)
    vector, log_z = row.copy(), 0.0
    for _ in range(rows - 1):
        vector = (step @ vector) * row
        log_z += math.log(vector.max())
        vector /= vector.max()
    return log_z + math.log(vector.sum())


def test_a_strip_whose_pfaffian_passes_the_float_range():
    """120 x 4 at K = 0.4: the Pfaffian of W passes 1.8e308 and the
    amplitude is tiny, yet Z, near e^407, is a float; it matches the
    transfer matrix.  At 80 x 4 and K = 0.1 the product of element weights
    alone underflows a float, and at 200 x 4 and K = 0.4 the lattice's
    prefactor sqrt(2)^sites e^(K edges) passes it; both still match."""
    for rows, coupling, log_z in ((120, 0.4, 407.48), (80, 0.1, 224.61), (200, 0.4, 679.41)):
        z = evaluate_closed_quon(build_ising_quon(IsingLattice.square(rows, 4, coupling)))
        assert abs(z.imag) <= 1e-9 * abs(z.real)
        want = transfer_log_z(rows, 4, coupling)
        assert want == pytest.approx(log_z, abs=0.01)
        assert abs(math.log(z.real) - want) <= 1e-9 * want


def test_transfer_matrix_matches_spin_enumeration():
    for rows, cols, coupling in ((3, 4, 0.4), (5, 2, -0.7), (4, 3, 1.1)):
        lattice = IsingLattice.square(rows, cols, coupling)
        assert transfer_log_z(rows, cols, coupling) == pytest.approx(
            math.log(partition_oracle(lattice)), rel=1e-12)


def test_a_coupling_past_the_exponential_range():
    """e^K of a coupling past 512 is folded into the amplitude's power of
    two, so math.exp never overflows: the two-site Z = 4 cosh K is a float
    at K = 709 and matches, and at K = 710 the value passes the float range
    and raises NumericalInstability, as a 2 x 2 lattice at K = 710 does
    before any loop is drawn."""
    z = evaluate_closed_quon(build_ising_quon(IsingLattice.square(1, 2, 709.0)))
    assert abs(z - 4 * math.cosh(709.0)) <= 1e-12 * 4 * math.cosh(709.0)
    with pytest.raises(NumericalInstability, match="non-finite value"):
        evaluate_closed_quon(build_ising_quon(IsingLattice.square(1, 2, 710.0)))
    with pytest.raises(NumericalInstability, match="Z passes the float range"):
        build_ising_quon(IsingLattice.square(2, 2, 710.0))


@pytest.mark.parametrize("overrides, match", [
    ({(0, 3): 5.0}, r"override \(0, 3\) is not a bond of the 2 x 2 grid"),
    ({(1, 2): 0.5}, r"override \(1, 2\) is not a bond"),
    ({(0, 0): 0.5}, "is not a bond"),
    ({(0, 9): 0.5}, "is not a bond"),
    ({5: 0.5}, "pairs of integers"),
    ({(0.0, 1.0): 0.5}, "pairs of integers"),
])
def test_square_rejects_an_override_that_is_no_bond(overrides, match):
    with pytest.raises(InvariantViolation, match=match):
        IsingLattice.square(2, 2, 0.3, overrides)


def test_square_rejects_a_bond_overridden_in_both_orders():
    with pytest.raises(InvariantViolation, match=r"bond \(0, 2\) is overridden twice"):
        IsingLattice.square(2, 2, 0.3, {(0, 2): 0.5, (2, 0): 0.7})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", None, 0.5j])
def test_square_rejects_a_coupling_that_is_no_finite_real(value):
    with pytest.raises(InvariantViolation, match="override couplings must be"):
        IsingLattice.square(2, 2, 0.3, {(0, 1): 0.5, (1, 3): value})
    with pytest.raises(InvariantViolation, match="the coupling must be"):
        IsingLattice.square(2, 2, value)


def object_built_core(lattice: IsingLattice, amplitude: complex) -> MajoranaDiagram:
    """The element objects the Ising builders emit as columns, built one by
    one: the brickwork sweep of a square lattice, or the site loops and
    braid detours of a generic one."""
    kk = {(a, b): k for a, b, k in lattice.edges} | {(b, a): k for a, b, k in lattice.edges}
    if lattice.shape is None:
        n = lattice.n_sites
        els = [Cap(2 * s) for s in range(n)]
        for a, b, k in lattice.edges:
            a, b = min(a, b), max(a, b)
            out = range(2 * a + 1, 2 * b - 1)
            els += ([BraidPos(j) for j in out] + [ScatteringStar(2 * b - 1, loop_angle(k))]
                    + [BraidNeg(j) for j in reversed(out)])
        return MajoranaDiagram(0, 0, tuple(els + [Cup(0)] * n), amplitude)
    rows, cols = lattice.shape
    els = [Cap(2 * c) for c in range(cols)]
    for r in range(rows):
        for c in range(cols - 1):
            els.append(ScatteringStar(2 * c + 1, loop_angle(kk[(r * cols + c, r * cols + c + 1)])))
        if r < rows - 1:
            for c in range(cols):
                k = kk[(r * cols + c, (r + 1) * cols + c)]
                els += [Cap(2 * c + 2), ScatteringStar(2 * c + 1, loop_angle(k)), Cup(2 * c)]
        else:
            els += [Cup(0)] * cols
    return MajoranaDiagram(0, 0, tuple(els), amplitude)


def _random_couplings(rng, lattice: IsingLattice) -> IsingLattice:
    return IsingLattice(lattice.n_sites, tuple((a, b, float(rng.uniform(-0.8, 0.8)))
                                               for a, b, _ in lattice.edges), lattice.shape)


@pytest.mark.parametrize("lattice", [
    IsingLattice.square(1, 1, 0.3), IsingLattice.square(1, 5, 0.3), IsingLattice.square(5, 1, 0.3),
    IsingLattice.square(14, 14, 0.3),
    IsingLattice(6, ((0, 1, 0.3), (1, 2, 0.3), (0, 3, 0.3), (2, 5, 0.3), (3, 4, 0.3), (4, 5, 0.3),
                     (1, 4, 0.3), (0, 4, 0.3))),
], ids=["1x1", "1x5", "5x1", "14x14", "generic"])
def test_the_column_built_diagram_is_the_object_built_one(lattice, rng):
    """The builders emit columns; the diagram they make traces, sweeps and
    evaluates as the diagram of the element objects does, and its elements,
    built when read, are those objects, serialized alike."""
    lattice = _random_couplings(rng, lattice)
    built = build_ising_quon(lattice)
    ref = QuonDiagram(object_built_core(lattice, built.core.amplitude))
    traces = WireTrace(built.core), WireTrace(ref.core)
    for name in ("birth", "death", "touches", "turn_elem", "turn_cap", "turn_left",
                 "turn_right", "slices", "walk"):
        assert getattr(traces[0], name) == getattr(traces[1], name), name
    (amp, x), *points, mus, _ = assemble_frontier(built.core)
    (ref_amp, ref_x), *ref_points, ref_mus, _ = assemble_frontier(ref.core)
    for got, want in zip(points, ref_points):
        assert np.array_equal(got, want)
    assert abs(amp * 2.0 ** (x - ref_x) - ref_amp) <= 1e-14 * abs(ref_amp)
    assert np.allclose(mus, ref_mus, rtol=1e-14, atol=0)
    value = evaluate_closed_quon(built)
    assert abs(value - evaluate_closed_quon(ref)) <= 1e-14 * abs(value)
    assert built.core.elements == ref.core.elements and built == ref
    assert serialize_diagram(built) == serialize_diagram(ref)


def test_an_ising_value_builds_no_element_object(monkeypatch):
    """The 14 x 14 lattice is built, traced, swept and evaluated from
    columns: no element constructor runs."""
    built = []
    check = dg._Element.__post_init__
    monkeypatch.setattr(dg._Element, "__post_init__", lambda el: built.append(el) or check(el))
    q = build_ising_quon(IsingLattice.square(14, 14, 0.3, {(0, 1): 0.5}))
    z = evaluate_closed_quon(q)
    assert z.real > 0 and not built and "elements" not in vars(q.core)
    assert len(q.core.elements) == len(q.core) == 14 + 13 * 14 * 3 + 14 * 13 + 14 and built
