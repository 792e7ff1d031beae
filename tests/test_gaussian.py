import time

import numpy as np
import pytest

from quon2d.diagram import Cap, Cup, Dot, DotPair, MajoranaDiagram, Scattering
from quon2d.errors import NotClosed, NumericalInstability
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import PANEL, PreparedDiagram, evaluate_closed_fast, pfaffian
from quon2d.ising import IsingLattice, build_ising_quon, partition_oracle
from quon2d.quon import evaluate_closed_quon

from conftest import random_closed_diagram


def pfaffian_recursive(a):
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    if n == 2:
        return a[0, 1]
    total = 0.0
    for j in range(1, n):
        rest = [k for k in range(1, n) if k != j]
        sub = a[np.ix_(rest, rest)]
        total += (-1) ** (j - 1) * a[0, j] * pfaffian_recursive(sub)
    return total


def random_antisymmetric(rng, n):
    """Complex antisymmetric n x n matrix with entries of size about 1/sqrt(n)."""
    m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2 * n)
    return m - m.T


def test_pfaffian_small_cases(rng):
    assert pfaffian(np.zeros((0, 0))) == 1.0
    for n in (2, 4, 6, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m - m.T
        assert pfaffian(a) == pytest.approx(pfaffian_recursive(a), rel=1e-10)
        a[0, 1] = a[1, 0] = 0.0  # the first step has to swap rows
        assert pfaffian(a) == pytest.approx(pfaffian_recursive(a), rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 2 * PANEL + 1, 2 * PANEL + 2])
def test_pfaffian_zero_and_odd(rng, n):
    assert pfaffian(np.zeros((n, n))) == 0.0
    if n % 2:
        assert pfaffian(random_antisymmetric(rng, n)) == 0.0


def test_pfaffian_squares_to_determinant(rng):
    for n in (4, 6, 10, 2 * PANEL - 2, 2 * PANEL, 2 * PANEL + 2, 3 * PANEL, 300):
        a = random_antisymmetric(rng, n)
        sign, logdet = np.linalg.slogdet(a)
        pf = pfaffian(a)
        assert 2 * np.log(abs(pf)) == pytest.approx(logdet, abs=1e-9)
        assert (pf / abs(pf)) ** 2 == pytest.approx(sign, abs=1e-9)


@pytest.mark.parametrize("n", [8, 2 * PANEL + 6])
def test_pfaffian_congruence(rng, n):
    """Pf(B A B^T) = det(B) Pf(A)."""
    a = random_antisymmetric(rng, n)
    b = np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    assert pfaffian(b @ a @ b.T) == pytest.approx(np.linalg.det(b) * pfaffian(a), rel=1e-9)


def test_pfaffian_pivots_across_panels(rng):
    """Symmetric row/column permutations change the Pfaffian by the
    permutation's sign.  The permuted direct sum of 2 x 2 blocks has zero
    leading entries, so every step swaps rows, most of them with a row
    outside the current panel."""
    n = 3 * PANEL + 6
    x = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
    blocks = np.zeros((n, n), dtype=complex)
    blocks[np.arange(0, n, 2), np.arange(1, n, 2)] = x
    blocks -= blocks.T
    dense = random_antisymmetric(rng, n)
    perm = rng.permutation(n)
    sign = np.linalg.det(np.eye(n)[perm])
    assert pfaffian(blocks[np.ix_(perm, perm)]) == pytest.approx(sign * np.prod(x), rel=1e-12)
    assert pfaffian(dense[np.ix_(perm, perm)]) == pytest.approx(sign * pfaffian(dense), rel=1e-9)
    blocks[n - 2, n - 1] = blocks[n - 1, n - 2] = 0.0  # singular in the last panel
    assert pfaffian(blocks[np.ix_(perm, perm)]) == 0.0


def test_fast_matches_oracle_loop_and_empty():
    assert evaluate_closed_fast(MajoranaDiagram.loop()) == pytest.approx(2 ** 0.5)
    assert evaluate_closed_fast(MajoranaDiagram(0, 0, (), 3 - 1j)) == 3 - 1j


def test_fast_rejects_open():
    with pytest.raises(NotClosed):
        evaluate_closed_fast(MajoranaDiagram(0, 2, (Cap(0),)))


def test_fast_matches_oracle_randomized(rng):
    for corpus, trials in ((rng, 250), (np.random.default_rng(7), 400)):
        for _ in range(trials):
            d = random_closed_diagram(corpus, max_width=16, max_elems=50)
            ref = evaluate_closed_oracle(d)
            got = evaluate_closed_fast(d)
            assert abs(ref - got) <= 1e-9 * max(1.0, abs(ref))


def test_unmatchable_dots_vanish(rng):
    # odd dot count on a connected subdiagram forces zero
    d = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Dot(0), Dot(2), Cup(2), Cup(0)))
    assert abs(evaluate_closed_fast(d)) <= 1e-9
    assert abs(evaluate_closed_oracle(d)) <= 1e-12


def test_prepared_diagram_matches_expansion(rng):
    for _ in range(60):
        d = random_closed_diagram(rng, max_width=10, max_elems=20)
        widths = d.widths()
        t = int(rng.integers(0, len(d.elements) + 1))
        w = widths[t]
        if w < 2:
            continue
        k = 2 * int(rng.integers(1, w // 2 + 1))
        strands = tuple(sorted(rng.choice(w, size=k, replace=False).tolist()))
        prep = PreparedDiagram(d).evaluate([(t, strands)])
        from quon2d.quon import ParityCut, QuonDiagram, expanded_core

        ref = evaluate_closed_oracle(
            expanded_core(QuonDiagram(d, (ParityCut(t, strands),)), 1)
        )
        assert abs(prep - ref) <= 1e-9 * max(1.0, abs(ref))


def test_scaling_smoke():
    # informational only per the contract: report, do not assert
    rng = np.random.default_rng(0)
    times = {}
    for length in (50, 100, 200):
        ds = [random_closed_diagram(np.random.default_rng(i), max_width=10,
                                    max_elems=length) for i in range(10)]
        t0 = time.time()
        for d in ds:
            evaluate_closed_fast(d)
        times[length] = time.time() - t0
    print(f"scaling smoke (10 diagrams each): {times}")


def test_ising_across_panels():
    """A 4 x 6 lattice with per-edge couplings: one 76-point Pfaffian, more
    than one panel."""
    rng = np.random.default_rng(46)
    edges = IsingLattice.square(4, 6, 0.3).edges
    overrides = {(a, b): float(k) for (a, b, _), k in zip(edges, rng.uniform(0.1, 0.6, len(edges)))}
    lattice = IsingLattice.square(4, 6, 0.3, overrides)
    assert 2 * len(lattice.edges) > 2 * PANEL
    z = evaluate_closed_quon(build_ising_quon(lattice))
    want = partition_oracle(lattice)
    assert abs(z - want) <= 1e-10 * want


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_value_reports_the_pfaffian():
    d = MajoranaDiagram(0, 0, (Cap(0), DotPair(0, 1), Cup(0)), 1.5e308)
    with pytest.raises(NumericalInstability, match=r"2 x 2 Pfaffian with largest \|entry\| 1"):
        evaluate_closed_fast(d)
