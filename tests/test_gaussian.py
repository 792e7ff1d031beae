import itertools
import time

import numpy as np
import pytest

from quon2d.compiler import compile_circuit
from quon2d.diagram import Cap, Cup, Dot, DotPair, MajoranaDiagram, Scattering
from quon2d.errors import NotClosed, NumericalInstability, TooLarge
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import (
    DEFER_TOL,
    MAX_GROUPS,
    PANEL,
    PreparedDiagram,
    _eliminate,
    evaluate_closed_fast,
    pfaffian,
)
from quon2d.ising import IsingLattice, build_ising_quon, partition_oracle
from quon2d.quon import (
    BasisAssignment,
    ParityCut,
    QuonDiagram,
    all_projections,
    encode_basis,
    evaluate_closed_quon,
    expanded_core,
)

from conftest import random_circuit, random_closed_diagram


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
        prep = PreparedDiagram(d, [(t, strands)]).evaluate([1])[0]
        ref = evaluate_closed_oracle(
            expanded_core(QuonDiagram(d, (ParityCut(t, strands),)), 1)
        )
        assert abs(prep - ref) <= 1e-9 * max(1.0, abs(ref))


def test_singular_core_rows_are_deferred(rng):
    """Core rows 1 and 4 have no entry among the core rows, so no pivot:
    they are deferred behind the core and join every small matrix.  Each
    principal sub-Pfaffian over the core and a subset S of the other rows is
    pf * Pf(Schur[deferred + S])."""
    core, n = 6, 10
    a = random_antisymmetric(rng, n)
    a[np.ix_([1, 4], range(core))] = 0.0
    a[np.ix_(range(core), [1, 4])] = 0.0
    eliminated = a.copy()
    pf, e = _eliminate(eliminated, core, DEFER_TOL)
    assert e == core - 2
    schur = eliminated[e:, e:]
    for size in (0, 2, 4):
        for subset in itertools.combinations(range(core, n), size):
            rows = list(range(core)) + list(subset)
            small = list(range(core - e)) + [r - e for r in subset]
            want = pfaffian_recursive(a[np.ix_(rows, rows)])
            assert pf * pfaffian(schur[np.ix_(small, small)]) == pytest.approx(want, abs=1e-12)


def test_prepared_diagram_with_singular_core():
    """One dot on each of two loops: their contraction vanishes, so the core
    has no pivot.  A parity string across both loops pairs each dot with a
    dot of its own loop."""
    d = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Dot(1), Dot(2), Cup(2), Cup(0)), 0.7 - 0.2j)
    for t, strands in ((2, (0, 3)), (3, (0, 2)), (4, (1, 2))):
        prepared = PreparedDiagram(d, [(t, strands)])
        expanded = QuonDiagram(d, (ParityCut(t, strands),))
        for subset, got in enumerate(prepared.evaluate([0, 1])):
            want = evaluate_closed_oracle(expanded_core(expanded, subset))
            assert abs(got - want) <= 1e-12
        assert abs(evaluate_closed_oracle(expanded_core(expanded, 1))) > 0.1


def random_groups(rng, d, count):
    """Point groups in time order: parity strings and single encoder-like
    dots, so that terms select odd as well as even numbers of points."""
    widths = d.widths()
    groups = []
    for _ in range(count):
        t = int(rng.integers(0, len(d.elements) + 1))
        if widths[t] == 0:
            continue
        size = 1 if rng.random() < 0.4 else 2 * int(rng.integers(1, widths[t] // 2 + 1))
        strands = tuple(sorted(rng.choice(widths[t], size=min(size, widths[t]),
                                          replace=False).tolist()))
        groups.append((t, strands))
    return sorted(groups)


def per_term(prepared, mask):
    """One term as its own principal sub-Pfaffian of the Schur complement."""
    d = prepared._deferred
    chosen = [g for g in range(len(prepared._groups)) if mask >> g & 1]
    rows = list(range(d)) + [d + x for g in chosen for x in prepared._groups[g]]
    points = len(rows) - d
    flips = sum(int(prepared._flips[g]) for g in chosen)
    phase = (1, 1j, -1, -1j)[points // 2 % 4] * (-1) ** flips
    return prepared.amplitude * phase * prepared._pf * pfaffian(prepared._schur[np.ix_(rows, rows)])


def clifford_cores(rng, count):
    """Closed cores of Clifford circuits with their projections: exactly
    singular, so core rows are deferred."""
    while count:
        c = random_circuit(int(rng.integers(2, 4)), 6, rng, two_qubit_rate=0.4,
                           names1=("H", "S", "X", "Z"), names2=("CZ", "CNOT"))
        q = compile_circuit(c)
        zeros = BasisAssignment(tuple((0,) * iv.qubit_count for iv in q.open_intervals))
        closed = encode_basis(q, zeros)
        cuts = all_projections(closed)
        if len(cuts) <= 6:
            count -= 1
            yield closed.core, [(cut.time_index, cut.strands) for cut in cuts]


def raw_bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def test_batched_terms_equal_per_term_pfaffians(rng):
    """Every mask, mask 0 and odd selections included: the batched value is
    the term's own sub-Pfaffian, and bit for bit the same whatever masks it
    is evaluated with and in whatever order."""
    cases = [(d, random_groups(rng, d, int(rng.integers(1, 7))))
             for d in (random_closed_diagram(rng, max_width=10, max_elems=30) for _ in range(40))]
    cases += list(clifford_cores(rng, 8))
    deferred = 0
    for d, groups in cases:
        prepared = PreparedDiagram(d, groups)
        deferred += prepared._deferred > 0
        masks = list(range(1 << len(groups)))
        values = prepared.evaluate(masks)
        for mask, got in zip(masks, values):
            want = per_term(prepared, mask)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert np.array_equal(raw_bits(prepared.evaluate(masks[::-1])[::-1]), raw_bits(values))
        for mask in masks:
            assert np.array_equal(raw_bits(prepared.evaluate([mask])), raw_bits(values[[mask]]))
        subset = rng.permutation(masks)[:max(1, len(masks) // 3)]
        assert np.array_equal(raw_bits(prepared.evaluate(subset)), raw_bits(values[subset]))
    assert deferred >= 8


def test_groups_beyond_a_mask_are_refused():
    loop, group = MajoranaDiagram.loop(), (1, (0, 1))
    assert PreparedDiagram(loop, [group] * MAX_GROUPS).evaluate([0]) == pytest.approx(2 ** 0.5)
    with pytest.raises(TooLarge, match="at most 63"):
        PreparedDiagram(loop, [group] * (MAX_GROUPS + 1))


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


@pytest.mark.filterwarnings("error")
def test_non_finite_term_in_a_batch_reports_the_first():
    """Only the terms that overflow are non-finite; the error names the first
    of them in mask order, and no NumPy warning escapes."""
    d = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Scattering(1, 0.3), Cup(2), Cup(0)), 1e308)
    prepared = PreparedDiagram(d, [(3, (1, 2)), (3, (0, 3))])  # |terms| 1.98, 0.30, 0.30, 1.98
    assert np.all(np.isfinite(prepared.evaluate([1, 2])))
    facts = r"with largest \|entry\| {} and amplitude [0-9.e+]+, after eliminating 2 of 6 points"
    with pytest.raises(NumericalInstability, match=r"a 4 x 4 Pfaffian " + facts.format(r"[0-9.]+")):
        prepared.evaluate([1, 2, 3, 0])
    with pytest.raises(NumericalInstability, match=r"a 0 x 0 Pfaffian " + facts.format("0")):
        prepared.evaluate([1, 0, 3])
