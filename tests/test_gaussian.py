import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from quon2d import gaussian
from quon2d.compiler import compile_circuit
from quon2d.diagram import Cap, Cup, Dot, DotPair, MajoranaDiagram, Scattering
from quon2d.elimination import PANEL, SINGULAR_TOL, _eliminate, _pfaffians, _Rows
from quon2d.errors import InvariantViolation, NotClosed, NumericalInstability, TooLarge
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import (
    DEFER_TOL,
    MAX_GROUPS,
    PreparedDiagram,
    assemble_frontier,
    contraction_matrix,
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
from quon2d.wires import LEFT, WireTrace

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


def dense_eliminate(a, core):
    """`_eliminate` with DEFER_TOL of the nonzeros of a dense matrix: the
    Pfaffian of the eliminated part, the number of eliminated rows and the
    Schur complement."""
    pf, x, e, schur, _ = _eliminate(_Rows.of(a), core, DEFER_TOL)
    return complex(gaussian._ldexp(pf, x)), e, schur


def dense(w):
    """The matrix of a `_Rows`."""
    n = len(w.starts) - 1
    rows = np.repeat(np.arange(n), np.diff(w.starts))
    a = np.zeros((n, n), dtype=complex)
    a[rows, w.cols] = w.lower
    a[w.cols, rows] = w.upper
    return a


def dense_reach(mag):
    """One past the last nonzero column of each row, from a full scan of |a|."""
    nonzero = mag != 0
    n = len(mag)
    return np.where(nonzero.any(axis=1), n - np.argmax(nonzero[:, ::-1], axis=1), 0).tolist()


def reference_eliminate(a, core, singular_tol, reach, scale):
    """`_eliminate` on a dense matrix, in place: the same steps, with every
    row held in `a`, the reaches and scale given.  Returns (pf, x, e) and
    leaves the Schur complement in a[e:, e:]."""
    n = a.shape[0]
    orig = list(range(n))
    hi = 0
    pf, x = 1.0 + 0.0j, 0
    k = 0
    while k + 1 < core:
        k0 = k
        p = np.zeros((n - k0, min(2 * PANEL, core - k0)), dtype=complex)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            hi = max(hi, k + 2, reach[orig[k]])
            row = a[k, k + 1:hi] + q[j + 1:hi - k0, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:min(hi, core) - k - 1])))
            if abs(row[i]) <= singular_tol * scale:
                if core == n:
                    return 0.0 + 0.0j, 0, n
                core -= 1
                hi = n
                if core != k:
                    a[[k, core], k:] = a[[core, k], k:]
                    a[k:, [k, core]] = a[k:, [core, k]]
                    p[[j, core - k0]] = p[[core - k0, j]]
                    q[[j, core - k0]] = q[[core - k0, j]]
                    orig[k], orig[core] = orig[core], orig[k]
                    pf = -pf
                continue
            kp = k + 1 + i
            reached = hi
            hi = max(hi, reach[orig[k + 1]], reach[orig[kp]])
            if i:
                a[[k + 1, kp], k + 1:hi] = a[[kp, k + 1], k + 1:hi]
                a[k + 1:hi, [k + 1, kp]] = a[k + 1:hi, [kp, k + 1]]
                p[[j + 1, j + 1 + i]] = p[[j + 1 + i, j + 1]]
                q[[j + 1, j + 1 + i]] = q[[j + 1 + i, j + 1]]
                orig[k + 1], orig[kp] = orig[kp], orig[k + 1]
                row[[0, i]] = row[[i, 0]]
                pf = -pf
            pivot = row[0]
            pf, x = gaussian._renormalised(pf * pivot, x)
            if k + 2 < hi:
                tau = row[1:] / pivot
                col = -(a[k + 1, k + 2:hi] + q[j + 2:hi - k0, :j] @ p[j + 1, :j])
                p[j + 2:reached - k0, j] = tau
                p[j + 2:hi - k0, j + 1] = col
                q[j + 2:hi - k0, j] = col
                q[j + 2:reached - k0, j + 1] = -tau
            k += 2
        if k < hi:
            a[k:hi, k:hi] += p[k - k0:hi - k0] @ q[k - k0:hi - k0].T
    return pf, x, k


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


def random_banded(rng, n, width):
    """Complex n x n matrix with entries only within `width` of the
    diagonal, a random share of them zero, so that the rows reach unevenly
    far."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    i, j = np.indices((n, n))
    return m * ((np.abs(i - j) <= width) & (rng.random((n, n)) < rng.uniform(0.3, 1.0)))


def banded_cases(rng, count):
    """Antisymmetric band matrices of every bandwidth from 1 to n, n odd and
    even up to 150, some symmetrically permuted (at random, or only locally),
    some with zero rows and columns or an odd-sized direct summand, which
    make them exactly singular.  Yields (matrix, exactly singular)."""
    for _ in range(count):
        n = int(rng.integers(1, 151)) if rng.random() < 0.5 else int(rng.integers(1, 11))
        m = random_banded(rng, n, int(rng.integers(1, n + 1)))
        a = m - m.T
        singular = n % 2 == 1
        if rng.random() < 0.3:
            rows = rng.choice(n, size=int(rng.integers(1, 3)))
            a[rows], a[:, rows] = 0.0, 0.0
            singular = True
        elif n > 2 and rng.random() < 0.2:
            cut = 2 * int(rng.integers(0, n // 2)) + 1  # an odd leading block
            a[:cut, cut:], a[cut:, :cut] = 0.0, 0.0
            singular = True
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                perm = rng.permutation(n)
            else:  # a local shuffle keeps the band narrow
                perm = np.argsort(np.arange(n) + rng.integers(0, 6, size=n), kind="stable")
            a = a[np.ix_(perm, perm)]
        yield a, singular


def test_banded_pfaffian_matches_unblocked_and_recursive(rng):
    """The banded elimination agrees with the unblocked kernel, which keeps
    no window, and for n <= 10 with the expansion by minors; an exactly
    singular matrix gives exactly 0."""
    singular = 0
    for a, exactly_singular in banded_cases(rng, 300):
        got = pfaffian(a)
        want = _pfaffians(a[None].copy())[0]
        assert abs(got - want) <= 1e-10 * abs(want)
        if len(a) <= 10:
            assert abs(got - pfaffian_recursive(a)) <= 1e-10 * abs(want)
        if exactly_singular:
            assert got == 0.0
            singular += 1
    assert singular > 50


def test_window_takes_the_reach_of_the_swapped_out_row():
    """Row 0 reaches column 2 only, and its pivot is there, so rows 1 and 2
    swap.  Row 1 reaches the last column: the swap must carry that column's
    entry, though neither row 0 nor the pivot row reaches it."""
    n = 6
    a = np.zeros((n, n), dtype=complex)
    a[0, 1], a[0, 2] = 0.5, 2.0
    a[1, 5], a[2, 3], a[3, 4], a[4, 5] = 1.5 - 1j, 0.7, 1.3j, 0.9
    a -= a.T
    assert pfaffian(a) == pytest.approx(pfaffian_recursive(a), rel=1e-12)


def test_window_takes_the_reach_of_an_unswapped_pivot_row():
    """Row 0's pivot is already in column 1, so nothing swaps; row 1 reaches
    the last column, and the update of step 0 must reach it too."""
    n = 6
    a = np.zeros((n, n), dtype=complex)
    a[0, 1], a[0, 2] = 2.0, 0.5
    a[1, 5], a[2, 3], a[3, 4], a[4, 5], a[2, 5] = 1.5 - 1j, 0.7, 1.3j, 0.9, 0.4
    a -= a.T
    assert pfaffian(a) == pytest.approx(pfaffian_recursive(a), rel=1e-12)


def test_banded_core_schur_identity(rng):
    """A banded core followed by dense extra rows that reach a random run of
    the core rows, some core rows without any entry among the core rows:
    every sub-Pfaffian over the core and a set S of extras is pf times the
    Schur complement's on the deferred rows and S."""
    deferred = 0
    for _ in range(60):
        core = int(rng.integers(2, 80))
        extra = int(rng.integers(1, 5))
        n = core + extra
        a = np.zeros((n, n), dtype=complex)
        a[:core, :core] = random_banded(rng, core, int(rng.integers(1, core + 1)))
        first, last = np.sort(rng.integers(0, core + 1, size=2))
        a[first:last, core:] = rng.normal(size=(last - first, extra))
        a[core:, core:] = rng.normal(size=(extra, extra))
        a -= a.T
        if rng.random() < 0.5:
            perm = np.concatenate([rng.permutation(core), np.arange(core, n)])
            a = a[np.ix_(perm, perm)]
        if rng.random() < 0.4:
            rows = rng.choice(core, size=int(rng.integers(1, 3)))
            a[np.ix_(rows, range(core))], a[np.ix_(range(core), rows)] = 0.0, 0.0
        pf, e, schur = dense_eliminate(a, core)
        deferred += e < core
        for size in range(extra + 1):
            for subset in itertools.combinations(range(core, n), size):
                rows = list(range(core)) + list(subset)
                small = list(range(core - e)) + [r - e for r in subset]
                want = _pfaffians(a[np.ix_(rows, rows)][None].copy())[0]
                got = pf * pfaffian(schur[np.ix_(small, small)])
                assert abs(got - want) <= 1e-10 * abs(want)
    assert deferred > 10


def test_deferred_rows_keep_their_pending_updates(rng):
    """Rows 0..3 form a rank-2 block, so step 0 leaves two of them with
    round-off only, cancelled by pending updates; the last core row is zero.
    The three are deferred behind the core, one of them to a position beyond
    every row the chain of 2 x 2 blocks in between reaches.  Their Schur
    complement vanishes, and with it every sub-Pfaffian over the core."""
    core, n = 21, 23
    a = np.zeros((n, n), dtype=complex)
    x, y = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    a[:4, :4] = np.outer(x, y)
    a[np.arange(4, core - 1, 2), np.arange(5, core - 1, 2)] = 1.0 + rng.random(8)
    a[4:6, core:] = rng.normal(size=(2, 2))
    a[core, core + 1] = 0.8
    a -= a.T
    pf, e, schur = dense_eliminate(a, core)
    assert e == core - 3
    assert np.max(np.abs(schur[:core - e])) <= 1e-12
    for subset in ((core,), (core + 1,)):
        small = [0, 1, 2] + [r - e for r in subset]
        assert abs(pf * pfaffian(schur[np.ix_(small, small)])) <= 1e-12


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


def test_contraction_entries_are_two_dot_ratios(rng):
    """A Dot at slot (t1, p1) and one at (t2, p2), t1 <= t2, multiply a
    caps/cups-only wiring's value by the contraction entry of the two
    points.  Every ordered pair of slots is tried: one slot twice (one
    segment), the two arms of a cap in either order (a walk that wraps round
    the loop and one that does not), and slots on different loops (0)."""
    cases = 0
    for _ in range(3):
        while True:  # the caps and cups of a random diagram are a closed wiring
            d = random_closed_diagram(rng, max_width=6, max_elems=30)
            d = MajoranaDiagram(0, 0, tuple(el for el in d.elements if el.width_delta))
            loops = WireTrace(d).worldlines()
            if len(loops) >= 2 and max(map(len, loops)) >= 6:
                break
        base = evaluate_closed_oracle(d)
        widths = d.widths()
        slots = [(t, p) for t in range(len(d.elements) + 1) for p in range(widths[t])]
        zeros = ones = 0
        for (t1, p1), (t2, p2) in itertools.product(slots, repeat=2):
            if t1 > t2:
                continue
            els = d.elements
            dotted = MajoranaDiagram(0, 0, els[:t1] + (Dot(p1),) + els[t1:t2] + (Dot(p2),)
                                     + els[t2:])
            _, points, _, trace = assemble_frontier(dotted)
            entry = dense(contraction_matrix(trace, points))[0, 1]
            assert abs(evaluate_closed_oracle(dotted) / base - entry) <= 1e-12
            zeros += entry == 0
            ones += (t1, p1) == (t2, p2) and entry == 1
            cases += 1
        assert zeros and ones
    assert cases > 1000


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
    pf, e, schur = dense_eliminate(a, core)
    assert e == core - 2
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
    pf = complex(gaussian._ldexp(prepared._pf, prepared._exp))
    return prepared.amplitude * phase * pf * pfaffian(prepared._schur[np.ix_(rows, rows)])


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_value_reports_the_matrix_before_elimination(monkeypatch):
    """Without groups W is eliminated in place when the diagram is prepared;
    the error still names W's size and largest |entry| from before."""
    seen = []
    real = gaussian._eliminate

    def eliminate(w, *args):
        seen.append(float(np.max(np.abs(dense(w)))))
        return real(w, *args)

    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    loops = (Cap(0), Cup(0)) * 2  # sqrt(2) each: the amplitude passes the float range
    d = MajoranaDiagram(0, 0, (Cap(0), Cap(2), Scattering(1, 1.4), DotPair(0, 3), Cup(2), Cup(0))
                        + loops, 1e308)
    prepared = PreparedDiagram(d)
    assert prepared._points == 4
    message = (rf"a 4 x 4 Pfaffian with largest \|entry\| {seen[0]:.3g} and amplitude "
               r"[0-9.]+ x 2\^[0-9]+ \(")
    with pytest.raises(NumericalInstability, match=message):
        prepared.evaluate([0])


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


@pytest.mark.parametrize("mat, message", [
    (np.zeros((2, 3)), r"square 2-D matrix; got shape \(2, 3\)"),
    (np.zeros(4), r"square 2-D matrix; got shape \(4,\)"),
    ([[0, 1], [1, 0]], r"antisymmetric matrix; max\|a \+ a\^T\| is 2 .*\(pass \(a - a.T\) / 2"),
    ([[0, np.nan], [-np.nan, 0]], "finite entries"),
    ([[0, np.inf], [-np.inf, 0]], "finite entries"),
], ids=["not square", "one-dimensional", "symmetric", "nan", "inf"])
def test_pfaffian_takes_only_finite_antisymmetric_matrices(mat, message):
    with pytest.raises(InvariantViolation, match=message):
        pfaffian(mat)


def test_evaluation_is_repeatable_and_pfaffian_keeps_its_argument(rng):
    """A diagram is factorised once, when it is prepared: evaluating it again,
    with or without groups, gives the same bits.  `pfaffian` eliminates a
    copy."""
    ising = build_ising_quon(IsingLattice.square(4, 6, 0.3)).core
    d = random_closed_diagram(rng, max_width=10, max_elems=30)
    cases = [(ising, []), (d, []), (d, random_groups(rng, d, 3))] + list(clifford_cores(rng, 2))
    for diagram, groups in cases:
        prepared = PreparedDiagram(diagram, groups)
        masks = list(range(1 << len(groups)))
        first = raw_bits(prepared.evaluate(masks))
        assert np.array_equal(raw_bits(prepared.evaluate(masks)), first)
    a = random_antisymmetric(rng, 2 * PANEL + 6)
    kept = a.copy()
    assert pfaffian(a) != 0
    assert np.array_equal(raw_bits(a), raw_bits(kept))


def contraction_matrix_by_mask(trace, order):
    """The contraction matrix from every ordered pair of points: an N x N
    mask of the pairs on one loop with t_x < t_y (the formula that the
    per-loop pair lists replace)."""
    if not order:
        return np.zeros((0, 0), dtype=complex)
    loops = trace.worldlines()
    walk, e_walk, exit_walk, totals = [], [], [], []
    for group in loops:
        sid, e = group[0], 0
        tid = trace.segments[sid].birth_turn
        for _ in group:
            turn = trace.turns[tid]
            walk.append(sid)
            e_walk.append(e)
            exit_walk.append(turn.elem_index + (0.25 if turn.kind == "cap" else -0.25))
            e += 1 if (turn.side_of(sid) == LEFT) == (turn.kind == "cap") else 3
            sid = turn.other(sid)
            seg = trace.segments[sid]
            tid = seg.death_turn if seg.birth_turn == tid else seg.birth_turn
        totals.append(e)
    lengths = np.array([len(group) for group in loops], dtype=int)
    first = np.cumsum(lengths) - lengths
    loop_w = np.repeat(np.arange(len(loops)), lengths)
    k_w = np.arange(len(walk)) - first[loop_w]
    exits = np.array(exit_walk)
    prev = np.arange(len(walk)) - 1
    prev[first] += lengths
    lo = np.full((len(loops), lengths.max()), np.inf)
    hi = -lo
    lo[loop_w, k_w] = np.minimum(exits[prev], exits)
    hi[loop_w, k_w] = np.maximum(exits[prev], exits)
    at = np.argsort(walk)[[p.seg for p in order]]
    t = np.array([p.time for p in order])
    loop, k, e = loop_w[at], k_w[at], np.array(e_walk)[at]
    prefix = np.zeros((len(order), lo.shape[1] + 1), dtype=int)
    np.cumsum((lo[loop] < t[:, None]) & (t[:, None] < hi[loop]), axis=1, out=prefix[:, 1:])
    x, y = np.nonzero((loop[:, None] == loop[None, :]) & (t[:, None] < t[None, :]))
    between = prefix[y, k[y]] - prefix[y, k[x] + 1]
    exit_x = exits[at[x]]
    partial = (np.minimum(t[x], exit_x) < t[y]) & (t[y] < np.maximum(t[x], exit_x))
    power = e[y] - e[x] + (k[x] > k[y]) * np.array(totals)[loop[y]] + 2 * (between + partial)
    w = np.zeros((len(order), len(order)), dtype=complex)
    w[x, y] = np.where(at[x] == at[y], 1.0, np.array([1, 1j, -1, -1j])[power % 4])
    w[y, x] = 0.0 - w[x, y]
    return w


def prepared_cases(rng, monkeypatch):
    """Prepare random closed diagrams with 0 to 4 point groups, Clifford cores
    with their projections and a small Ising lattice.  Yields, for each, the
    trace, the points and the `_Rows` of `contraction_matrix`, and the
    `_Rows` that `_eliminate` was given."""
    built, eliminated = [], []
    real_build, real_eliminate = gaussian.contraction_matrix, gaussian._eliminate

    def build(trace, order):
        w = real_build(trace, order)
        built.append((trace, order, w))
        return w

    def eliminate(w, core, singular_tol):
        eliminated.append(w)
        return real_eliminate(w, core, singular_tol)

    monkeypatch.setattr(gaussian, "contraction_matrix", build)
    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    cases = [(d, random_groups(rng, d, int(rng.integers(0, 5))))
             for d in (random_closed_diagram(rng, max_width=12, max_elems=40) for _ in range(80))]
    cases += list(clifford_cores(rng, 4))
    cases.append((build_ising_quon(IsingLattice.square(4, 5, 0.3)).core, []))
    for d, groups in cases:
        PreparedDiagram(d, groups)
        yield built.pop() + (eliminated.pop(),)


def test_pair_lists_give_the_mask_formulas_matrix(rng, monkeypatch):
    """W from the pairs of each loop equals W from the N x N mask of all
    pairs, entry for entry and bit for bit, and the pairs, each once, are its
    nonzeros.  Blocks of 7 pairs: some rows are longer than a block, and
    some blocks hold several rows."""
    monkeypatch.setattr(gaussian, "PAIRS", 7)
    points = 0
    for trace, order, w, _ in prepared_cases(rng, monkeypatch):
        a = dense(w)
        assert np.array_equal(raw_bits(a), raw_bits(contraction_matrix_by_mask(trace, order)))
        rows = np.repeat(np.arange(len(order)), np.diff(w.starts))
        pairs = sorted(zip(w.cols.tolist(), rows.tolist()))
        assert pairs == [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(a)))]
        points += len(order)
    assert points > 1000


def test_reaches_cover_every_entry_eliminated(rng, monkeypatch):
    """Every nonzero of the matrix `_eliminate` is given, the 1/mu entries
    of the optional pairs and the group rows included, lies before the reach
    it finds for its row, and the largest |entry| it finds is the matrix's.
    The 1/mu entries widen some reaches beyond those of the contractions."""
    widened = 0
    for *_, contractions, w in prepared_cases(rng, monkeypatch):
        a = dense(w)
        reach = np.array(w.reach())
        rows, cols = np.nonzero(a)
        assert np.all(cols < reach[rows])
        assert w.largest() == float(np.max(np.abs(a), initial=0.0))
        widened += np.count_nonzero(reach > dense_reach(np.abs(dense(contractions))))
    assert widened > 20


def test_ising_evaluation_holds_little_beyond_its_matrix():
    """20 x 20 at K = 0.4 (N = 1520 points) holds W by its nonzeros and a
    window of the elimination: traced allocations stay below 16 MB, where a
    dense W alone is 37 MB."""
    lattice = IsingLattice.square(20, 20, 0.4)
    evaluate_closed_quon(build_ising_quon(lattice))  # warm-up
    tracemalloc.start()
    try:
        evaluate_closed_quon(build_ising_quon(lattice))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


def test_elimination_keeps_its_product_in_float_range():
    """200 pivots of 1e8, Pf = 1e1600: `_eliminate` returns it as a mantissa
    times a power of two, where a plain product would overflow, and
    `pfaffian` gives inf.  Thirty of them, 1e240, come back from `pfaffian`
    bit for bit as the plain product."""
    a = np.zeros((400, 400), dtype=complex)
    a[np.arange(0, 400, 2), np.arange(1, 400, 2)] = 1e8
    a -= a.T
    pf, x, e, *_ = _eliminate(_Rows.of(a), 400, SINGULAR_TOL)
    assert e == 400 and math.isfinite(abs(pf))
    assert math.log2(abs(pf)) + x == pytest.approx(1600 * math.log2(10), rel=1e-14)
    assert pfaffian(a) == complex(math.inf, 0)
    product = 1.0
    for _ in range(30):
        product *= 1e8
    assert pfaffian(a[:60, :60]) == product


@pytest.mark.filterwarnings("error")
def test_pivots_past_the_float_range_within_one_panel():
    """26 pivots of 1e12 and then 6 of 1e-3 in one panel: the product passes
    1e308 after 26 steps, so it is renormalised within the panel, and the
    Pfaffian, 1e294, comes back with no warning."""
    a = np.zeros((64, 64), dtype=complex)
    a[np.arange(0, 64, 2), np.arange(1, 64, 2)] = [1e12] * 26 + [1e-3] * 6
    a -= a.T
    assert 2 * PANEL == 64
    assert abs(pfaffian(a) - 1e294) <= 1e-12 * 1e294


def test_window_kernel_matches_the_dense_kernel_bit_for_bit(rng, monkeypatch):
    """`_eliminate`, which holds only a window of the matrix, gives the same
    Pfaffian, power of two, row count and Schur complement, bit for bit, as
    `reference_eliminate` on the whole matrix: random closed diagrams with
    groups, Clifford cores with deferrals, Ising lattices, and random dense
    and banded `pfaffian` inputs."""
    calls = []
    real = gaussian._eliminate

    def eliminate(w, core, singular_tol):
        result = real(w, core, singular_tol)
        calls.append((w, core, singular_tol, result))
        return result

    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    for _ in range(60):
        d = random_closed_diagram(rng, max_width=12, max_elems=40)
        PreparedDiagram(d, random_groups(rng, d, int(rng.integers(0, 5))))
    for d, groups in clifford_cores(rng, 6):
        PreparedDiagram(d, groups)
    edges = IsingLattice.square(9, 7, 0.3).edges
    overrides = {(a, b): float(k) for (a, b, _), k in zip(edges, rng.uniform(0.1, 0.6, len(edges)))}
    for lattice in (IsingLattice.square(9, 7, 0.3, overrides), IsingLattice.square(12, 12, 0.4)):
        evaluate_closed_quon(build_ising_quon(lattice))
    for n in (4, 2 * PANEL + 6, 150):
        pfaffian(random_antisymmetric(rng, n))
        pfaffian(np.triu(np.tril(random_antisymmetric(rng, n), 3), -3))
    deferred = windowed = 0
    for w, core, singular_tol, (pf, x, e, schur, largest) in calls:
        a = dense(w)
        mag = np.abs(a)
        want = reference_eliminate(a, core, singular_tol, dense_reach(mag),
                                   max(float(mag.max(initial=0.0)), 1.0))
        assert (raw_bits(pf).tolist(), x, e) == (raw_bits(want[0]).tolist(), want[1], want[2])
        assert np.array_equal(raw_bits(schur), raw_bits(a[e:, e:]))
        assert largest == float(mag.max(initial=0.0))
        deferred += e < core
        windowed += len(a) > 4 * PANEL
    assert deferred >= 5 and windowed >= 3
