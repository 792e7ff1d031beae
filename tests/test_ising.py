import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quon2d
from quon2d.classify import classify
from quon2d.diagram import ScatteringStar, VERTICAL
from quon2d.errors import (
    InvariantViolation,
    NonPlanarInput,
    Singular,
    TooManySites,
)
from quon2d.ising import (
    IsingLattice,
    build_ising_quon,
    kw_dual_angle,
    kw_dual_coupling,
    kw_rewrite_chain,
    kw_self_dual_point,
    partition_oracle,
    star_triangle_oracle,
    star_triangle_solve,
)
from quon2d.gaussian import PreparedDiagram
from quon2d.quon import all_projections, evaluate_closed_quon


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
    # the loop-angle duality map has the same fixed point
    assert kw_dual_angle(-2 * kc) == pytest.approx(-2 * kc, abs=1e-9)


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
    code = ("import sys\n"
            "from quon2d.ising import star_triangle_solve\n"
            "from quon2d.rewrite import solve_yang_baxter_full\n"
            "star_triangle_solve(0.3, 0.5, 0.7)\n"
            "solve_yang_baxter_full(0, 0.7, 0)\n"
            "assert 'scipy' not in sys.modules\n")
    src = str(Path(quon2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
