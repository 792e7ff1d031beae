import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from quon2d import elimination, gaussian
from quon2d.circuits import Circuit, Gate, circuit_oracle_unitary
from quon2d.compiler import circuit_amplitude, compile_circuit
from quon2d.diagram import Cap, Cup, Dot, DotPair, MajoranaDiagram, Scattering
from quon2d.elimination import BLOCK, DEFER_TOL, PANEL, _eliminate, _pfaffians, _Rows
from quon2d.errors import InvariantViolation, NotClosed, NumericalInstability, TooLarge
from quon2d.fock import evaluate_closed_oracle
from quon2d.gaussian import (
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
from quon2d.wires import WireTrace, prune_projections

from conftest import random_circuit, random_closed_diagram, run_fresh


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
    """`_eliminate` of the nonzeros of a dense matrix: the Pfaffian of the
    eliminated part, the number of eliminated rows and the Schur
    complement."""
    pf, x, e, schur, _ = _eliminate(_Rows.of(a), core)
    return complex(gaussian._ldexp(pf, x)), e, schur


def dense(w):
    """The matrix of a `_Rows`, of its dtype."""
    n = len(w.starts) - 1
    rows = np.repeat(np.arange(n), np.diff(w.starts))
    a = np.zeros((n, n), dtype=w.lower.dtype)
    a[rows, w.cols] = w.lower
    a[w.cols, rows] = w.upper
    return a


def dense_reach(mag):
    """One past the last nonzero column of each row, from a full scan of |a|."""
    nonzero = mag != 0
    n = len(mag)
    return np.where(nonzero.any(axis=1), n - np.argmax(nonzero[:, ::-1], axis=1), 0).tolist()


def reference_eliminate(a, core, reach, scale):
    """`_eliminate` on a dense matrix, in place: the same blocks and steps,
    with every row held in `a`, the reaches and scale given.  Returns
    (pf, x, e, kept, refused), kept and refused counting the blocks tried,
    and leaves the Schur complement in a[e:, e:]."""
    n = a.shape[0]
    size = elimination.BLOCK
    orig = list(range(n))
    hi = 0
    negated = False
    factors, blocks = [], []  # step pivots, and None for each kept block
    upper = np.triu_indices(size, 1)
    refused = 0
    banded = max(reach[:size], default=0) < n
    width = size if banded and core >= size else 2 * PANEL  # columns of a panel of steps
    k = 0
    while k + 1 < core:
        k0 = k
        hi = max(hi, k + 2, reach[orig[k]])
        to = max(hi, k + size, *(reach[r] for r in orig[k:k + size])) if k + size <= core else n
        if banded and to < n:  # a block whose rows reach the last row is not tried
            a11, a12 = a[k:k + size, k:k + size], a[k:k + size, k + size:to]
            try:
                inv = np.linalg.inv(a11)
            except np.linalg.LinAlgError:
                inv = None
            if inv is not None and np.abs(inv).max() * np.abs(a11).max() <= 1.0 / DEFER_TOL:
                x = inv @ a12
                if np.abs(x).max(initial=0.0) <= elimination.MULTIPLIER_MAX:
                    blocks.append(a11[upper])
                    factors.append(None)
                    a[k + size:to, k + size:to] += a12.T @ x
                    hi, k = to, k + size
                    continue
            refused += 1
        p = np.zeros((n - k0, min(width, core - k0)), dtype=a.dtype)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            hi = max(hi, k + 2, reach[orig[k]])
            row = a[k, k + 1:hi] + q[j + 1:hi - k0, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:min(hi, core) - k - 1])))
            if abs(row[i]) <= DEFER_TOL * scale:
                core -= 1
                hi = n
                if core != k:
                    a[[k, core], k:] = a[[core, k], k:]
                    a[k:, [k, core]] = a[k:, [core, k]]
                    p[[j, core - k0]] = p[[core - k0, j]]
                    q[[j, core - k0]] = q[[core - k0, j]]
                    orig[k], orig[core] = orig[core], orig[k]
                    negated = not negated
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
                negated = not negated
            pivot = row[0]
            factors.append(pivot)
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
    # the blocks' pivots, all in one stack rebuilt from the entries above the
    # diagonal, in pivot order among the steps'
    above = np.array(blocks).reshape(-1, len(upper[0]))
    stack = np.zeros((len(above), size, size), dtype=a.dtype)
    stack[:, upper[0], upper[1]] = above
    stack[:, upper[1], upper[0]] = -above
    steps = [np.where(zero, 0.0, pivot) for pivot, zero in elimination._pivots(stack, 0.0)]
    stacked = iter(np.array(steps).T.tolist() if blocks else ())
    pf, x = 1.0 + 0.0j, 0
    for factor in factors:
        for pivot in next(stacked) if factor is None else (factor,):
            pf, x = gaussian._renormalised(pf * pivot, x)
    return -pf if negated else pf, x, k, len(blocks), refused


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
        a[0] *= 1e-6  # row 0 has no pivot above DEFER_TOL: it is deferred
        a[:, 0] *= 1e-6
        assert _eliminate(_Rows.of(a), n)[2] < n
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


def test_fast_matches_oracle_randomized(rng, monkeypatch):
    """Random closed diagrams, and the cores of Clifford circuits with the
    parity strings of every subset of their projections: every point is in
    the core, exactly singular rows are deferred into the Schur complement,
    and `_pfaffians` of that complement finishes the Pfaffian."""
    diagrams = [random_closed_diagram(corpus, max_width=16, max_elems=50)
                for corpus, trials in ((rng, 250), (np.random.default_rng(7), 400))
                for _ in range(trials)]
    fuzzed = len(diagrams)
    for d, groups in clifford_cores(rng, 8):
        q = QuonDiagram(d, tuple(ParityCut(t, strands) for t, strands in groups))
        diagrams += [expanded_core(q, subset) for subset in range(1 << len(groups))]
    deferred = []
    real = gaussian._eliminate

    def eliminate(w, core):
        result = real(w, core)
        deferred.append(result[2] < core)
        return result

    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    for d in diagrams:
        ref = evaluate_closed_oracle(d)
        got = evaluate_closed_fast(d)
        assert abs(ref - got) <= 1e-9 * max(1.0, abs(ref))
    assert sum(deferred[fuzzed:]) >= 40


def test_fast_matches_oracle_near_multiples_of_half_pi():
    """600 random diagrams (vertical scatterings, no stars) with every
    scattering moved to k pi/2 +- offset, 150 per offset: a weight near 0
    makes its points mandatory or its 1/mu huge, and both branches of the
    sweep must keep the 1e-9 contract."""
    rng = np.random.default_rng(5)
    for offset in (1e-6, 1e-8, 1e-10, 1e-12):
        for _ in range(150):
            d = random_closed_diagram(rng, allow_horizontal=False, allow_star=False)
            d = MajoranaDiagram(0, 0, [
                Scattering(el.j, int(rng.integers(4)) * math.pi / 2 + rng.choice((-1, 1)) * offset)
                if isinstance(el, Scattering) else el for el in d.elements], d.amplitude)
            ref = evaluate_closed_oracle(d)
            assert abs(evaluate_closed_fast(d) - ref) <= 1e-9 * max(1.0, abs(ref))


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
            _, seg, t, _, _, trace = assemble_frontier(dotted)
            e = walk_phases(trace, seg)  # W is gauged by i^(e_x + e_y)
            entry = dense(contraction_matrix(trace, seg, t))[0, 1] * (1, -1j, -1, 1j)[sum(e) % 4]
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
    gauge = prepared._core_gauge + sum(int(prepared._gauge[g]) for g in chosen)
    phase = (1, 1j, -1, -1j)[(points // 2 - gauge) % 4] * (-1) ** flips
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


def test_grouped_evaluation_leaves_numpy_ma_unloaded():
    """Terms are gathered by size without `np.unique`, which imports
    numpy.ma (about 1 MB) on its first call."""
    run_fresh("import quon2d\n"
              "from quon2d.diagram import MajoranaDiagram\n"
              "from quon2d.gaussian import PreparedDiagram\n"
              "groups = [(1, (0, 1)), (1, (0,)), (1, (1,))]\n"
              "PreparedDiagram(MajoranaDiagram.loop(), groups).evaluate(range(8))\n", "numpy.ma")


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
    """Without groups both points are eliminated: the term's Pfaffian is the
    empty one, and the message names W's largest |entry| too."""
    d = MajoranaDiagram(0, 0, (Cap(0), DotPair(0, 1), Cup(0)), 1.5e308)
    message = (r"0 x 0 Pfaffian with largest \|entry\| 0 and amplitude .*, after eliminating "
               r"2 of 2 points of a W with largest \|entry\| 1 \(their Pfaffian 1\)")
    with pytest.raises(NumericalInstability, match=message):
        evaluate_closed_fast(d)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_value_reports_the_matrix_before_elimination(monkeypatch):
    """Without groups W is eliminated in place when the diagram is prepared;
    the error still names W's point count and largest |entry| from before."""
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
    message = (r"amplitude [0-9.]+ x 2\^[0-9]+, after eliminating 4 of 4 points of a W with "
               rf"largest \|entry\| {seen[0]:.3g} \(")
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


def walk_phases(trace, seg):
    """The exponent e of the walk phase of each point's segment."""
    e = np.zeros(len(trace.walk.order), dtype=int)
    e[trace.walk.order] = trace.walk.phase
    return e[seg]


def contraction_matrix_by_mask(trace, seg, t):
    """The contraction matrix from every ordered pair of points, read from
    the trace's walk: an N x N mask of the pairs on one loop with t_x < t_y
    (the formula that the per-loop pair lists replace), each contraction
    times the gauge i^(e_x + e_y), which leaves it real."""
    if not len(seg):
        return np.zeros((0, 0))
    walk = trace.walk
    lengths, exits = np.array(walk.lengths), np.array(walk.exits)
    first = np.cumsum(lengths) - lengths
    loop_w = np.repeat(np.arange(len(lengths)), lengths)
    k_w = np.arange(len(exits)) - first[loop_w]
    entered = exits[first[loop_w] + (k_w - 1) % lengths[loop_w]]  # the previous exit
    lo = np.full((len(lengths), lengths.max()), np.inf)
    hi = -lo
    lo[loop_w, k_w] = np.minimum(entered, exits)
    hi[loop_w, k_w] = np.maximum(entered, exits)
    at = np.argsort(walk.order)[seg]
    loop, k, e = loop_w[at], k_w[at], np.array(walk.phase)[at]
    prefix = np.zeros((len(seg), lo.shape[1] + 1), dtype=int)
    np.cumsum((lo[loop] < t[:, None]) & (t[:, None] < hi[loop]), axis=1, out=prefix[:, 1:])
    x, y = np.nonzero((loop[:, None] == loop[None, :]) & (t[:, None] < t[None, :]))
    between = prefix[y, k[y]] - prefix[y, k[x] + 1]
    exit_x = exits[at[x]]
    partial = (np.minimum(t[x], exit_x) < t[y]) & (t[y] < np.maximum(t[x], exit_x))
    power = e[y] - e[x] + (k[x] > k[y]) * np.array(walk.totals)[loop[y]] + 2 * (between + partial)
    phases = np.array([1, 1j, -1, -1j])
    w = np.zeros((len(seg), len(seg)))
    w[x, y] = (np.where(at[x] == at[y], 1.0, phases[power % 4]) * phases[(e[x] + e[y]) % 4]).real
    w[y, x] = 0.0 - w[x, y]
    return w


def prepared_cases(rng, monkeypatch):
    """Prepare random closed diagrams with 0 to 4 point groups, Clifford cores
    with their projections and a small Ising lattice.  Yields, for each, the
    trace, the points' segments and times and the `_Rows` of
    `contraction_matrix`, and the `_Rows` that `_eliminate` was given."""
    built, eliminated = [], []
    real_build, real_eliminate = gaussian.contraction_matrix, gaussian._eliminate

    def build(trace, seg, t):
        w = real_build(trace, seg, t)
        built.append((trace, seg, t, w))
        return w

    def eliminate(w, core):
        eliminated.append(w)
        return real_eliminate(w, core)

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
    for trace, seg, t, w, _ in prepared_cases(rng, monkeypatch):
        a = dense(w)
        assert np.array_equal(raw_bits(a), raw_bits(contraction_matrix_by_mask(trace, seg, t)))
        rows = np.repeat(np.arange(len(seg)), np.diff(w.starts))
        pairs = sorted(zip(w.cols.tolist(), rows.tolist()))
        assert pairs == [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(a)))]
        points += len(seg)
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
    pf, x, e, *_ = _eliminate(_Rows.of(a), 400)
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
    and banded `pfaffian` inputs, at the kernel's block size and at blocks
    of 4 rows, where small diagrams keep and refuse blocks too.  Ising
    lattices keep blocks and refuse none; at the kernel's block size
    Clifford cores, whose W is dense, try none, and no block whose rows
    reach the last row is tried."""
    calls = []
    kind = ["random"]
    real = gaussian._eliminate

    def eliminate(w, core):
        result = real(w, core)
        calls.append((kind[0], elimination.BLOCK, w, core, result))
        return result

    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    for block in (BLOCK, 4):
        monkeypatch.setattr(elimination, "BLOCK", block)
        kind[0] = "random"
        for _ in range(120):  # enough that blocks of 4 rows are refused 40 times (59 here)
            d = random_closed_diagram(rng, max_width=12, max_elems=40)
            PreparedDiagram(d, random_groups(rng, d, int(rng.integers(0, 5))))
        kind[0] = "clifford"
        for d, groups in clifford_cores(rng, 6):
            PreparedDiagram(d, groups)
        kind[0] = "ising"
        edges = IsingLattice.square(9, 7, 0.3).edges
        overrides = {(a, b): float(k)
                     for (a, b, _), k in zip(edges, rng.uniform(0.1, 0.6, len(edges)))}
        for lattice in (IsingLattice.square(9, 7, 0.3, overrides),
                        IsingLattice.square(12, 12, 0.4)):
            evaluate_closed_quon(build_ising_quon(lattice))
        kind[0] = "matrix"
        for n in (4, 2 * PANEL + 6, 150):
            pfaffian(random_antisymmetric(rng, n))
            pfaffian(np.triu(np.tril(random_antisymmetric(rng, n), 3), -3))
    deferred = windowed = 0
    kept, refused = {}, {}
    for what, block, w, core, (pf, x, e, schur, largest) in calls:
        monkeypatch.setattr(elimination, "BLOCK", block)
        a = dense(w)
        mag = np.abs(a)
        want = reference_eliminate(a, core, dense_reach(mag),
                                   max(float(mag.max(initial=0.0)), 1.0))
        assert (raw_bits(pf).tolist(), x, e) == (raw_bits(want[0]).tolist(), want[1], want[2])
        assert np.array_equal(raw_bits(schur), raw_bits(a[e:, e:]))
        assert largest == float(mag.max(initial=0.0))
        deferred += e < core
        windowed += len(a) > 4 * PANEL
        if what == "ising":
            assert want[3] > 0 and want[4] == 0
        if what == "clifford" and block == BLOCK:
            assert want[3] == want[4] == 0
        kept[what, block] = kept.get((what, block), 0) + want[3]
        refused[what, block] = refused.get((what, block), 0) + want[4]
    assert deferred >= 10 and windowed >= 6
    assert kept["random", 4] >= 40 and refused["random", 4] >= 40
    assert kept["ising", BLOCK] >= 30 and refused["matrix", BLOCK] >= 5


def counting_blocks(monkeypatch):
    """Record, in order, whether each block `_eliminate` tries is kept."""
    kept = []
    real = elimination._block

    def block(a, upper):
        above = real(a, upper)
        kept.append(above is not None)
        return above

    monkeypatch.setattr(elimination, "_block", block)
    return kept


def test_blocks_match_the_fock_oracle_on_random_diagrams(rng, monkeypatch):
    """Long, narrow random closed diagrams have a banded W; with blocks of
    2, 4 and 6 rows hundreds of blocks are kept and refused, and every value
    matches the Fock oracle within 1e-9."""
    kept = counting_blocks(monkeypatch)
    for block in (2, 4, 6):
        monkeypatch.setattr(elimination, "BLOCK", block)
        for _ in range(40):
            d = random_closed_diagram(rng, max_width=8, max_elems=120)
            ref = evaluate_closed_oracle(d)
            got = evaluate_closed_fast(d)
            assert abs(ref - got) <= 1e-9 * max(1.0, abs(ref))
    assert sum(kept) >= 300 and kept.count(False) >= 100


def test_a_refused_block_midway_then_kept_blocks(rng, monkeypatch):
    """Blocks of 2 rows on a banded matrix of 2 x 2 pivots of 2 and small
    couplings: the blocks at rows 0 and 2 are kept; at row 4 the pivot 0.5
    is its row's largest entry, but row 5's entry 1 in column 6 would give
    a multiplier of 2, so that block is refused and runs as a step; the
    block after it is kept again, and the last two, whose rows reach the
    last row, are not tried.  The Pfaffian is the expansion by minors'."""
    monkeypatch.setattr(elimination, "BLOCK", 2)
    kept = counting_blocks(monkeypatch)
    n = 12
    a = np.triu(np.tril(0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))), 3), 1)
    a[np.arange(0, n, 2), np.arange(1, n, 2)] = 2.0
    a[4, 5], a[5, 6] = 0.5, 1.0
    a -= a.T
    got = pfaffian(a)
    assert kept == [True, True, False, True]
    assert abs(got - pfaffian_recursive(a)) <= 1e-12 * abs(got)


def h_cz_layers(k: int) -> Circuit:
    """k layers on 3 qubits: H on qubit i mod 3, then CZ on (i mod 2, i mod 2 + 1)."""
    return Circuit(3, tuple(g for i in range(k)
                            for g in (Gate("H", (i % 3,)), Gate("CZ", (i % 2, i % 2 + 1)))))


@pytest.mark.parametrize("k", [14, 18])
def test_deep_circuit_cores_take_no_block_that_reaches_the_last_row(k):
    """The closed core of a deep circuit has a W whose first rows are local
    (the encoder loops) and whose later rows reach its last row, with unit
    multipliers: blocks there lost up to 1.9e-5 against the Fock oracle.
    Five expanded cores of the pruned, all-zero-encoded H CZ layers match
    it within 1e-9."""
    q = prune_projections(compile_circuit(h_cz_layers(k)))
    closed = encode_basis(q, BasisAssignment(tuple((0,) for _ in q.open_intervals)))
    rng = np.random.default_rng(1)
    for subset in rng.integers(0, 1 << len(all_projections(closed)), 5):
        d = expanded_core(closed, int(subset))
        want = evaluate_closed_oracle(d)
        assert abs(evaluate_closed_fast(d) - want) <= 1e-9 * max(1.0, abs(want))


def test_prepared_diagram_keeps_core_blocks_under_its_groups(monkeypatch):
    """An Ising core with parity strings and single dots late in time: its W
    stays banded, core blocks are kept, and every term is the principal
    sub-Pfaffian, by the unblocked `_pfaffians`, of the dense W over the
    core and the term's points."""
    seen = []
    real = gaussian._eliminate

    def eliminate(w, core):
        seen.append(dense(w))
        return real(w, core)

    monkeypatch.setattr(gaussian, "_eliminate", eliminate)
    kept = counting_blocks(monkeypatch)
    d = build_ising_quon(IsingLattice.square(5, 6, 0.3)).core
    t = len(d.elements)
    groups = [(t - 10, (0, 1, 2, 3)), (t - 6, (5,)), (t - 6, (1, 2)), (t - 3, (0,))]
    prepared = PreparedDiagram(d, groups)
    assert sum(kept) >= 4 and prepared._deferred == 0
    w, core = seen[0], prepared._points - sum(len(g) for g in prepared._groups)
    masks = list(range(1 << len(groups)))
    values = prepared.evaluate(masks)
    top = float(np.max(np.abs(values)))
    for mask, got in zip(masks, values):
        chosen = [g for g in range(len(groups)) if mask >> g & 1]
        rows = list(range(core)) + [core + i for g in chosen for i in prepared._groups[g]]
        points = len(rows) - core
        gauge = prepared._core_gauge + sum(int(prepared._gauge[g]) for g in chosen)
        phase = (1, 1j, -1, -1j)[(points // 2 - gauge) % 4] * (-1) ** sum(int(prepared._flips[g])
                                                                           for g in chosen)
        pf = _pfaffians(w[np.ix_(rows, rows)][None].copy())[0]
        want = prepared.amplitude * phase * complex(gaussian._ldexp(pf, prepared._amp_exp))
        assert abs(got - want) <= 1e-10 * top
    assert top > 0


def test_ising_blocks_match_spin_enumeration(rng, monkeypatch):
    """A 4 x 6 lattice (76 points, past one panel) with per-edge couplings
    up to 1.2: Z from kept blocks matches spin enumeration within 1e-10."""
    kept = counting_blocks(monkeypatch)
    edges = IsingLattice.square(4, 6, 0.3).edges
    overrides = {(a, b): float(k) for (a, b, _), k in zip(edges, rng.uniform(0.1, 1.2, len(edges)))}
    lattice = IsingLattice.square(4, 6, 0.3, overrides)
    assert 2 * len(lattice.edges) > 2 * PANEL
    z = evaluate_closed_quon(build_ising_quon(lattice))
    assert sum(kept) >= 3 and all(kept)
    want = partition_oracle(lattice)
    assert abs(z - want) <= 1e-10 * want


def recording(monkeypatch, owner, name):
    """Record the first argument of every call of owner.name, in order."""
    seen = []
    real = getattr(owner, name)

    def call(first, *args):
        seen.append(first)
        return real(first, *args)

    monkeypatch.setattr(owner, name, call)
    return seen


def test_gauge_leaves_every_contraction_a_sign(rng, monkeypatch):
    """Every entry of `contraction_matrix`, the contractions gauged by
    i^(e_x + e_y), is exactly +-1 in float64, and every loop total E is
    2 (mod 4): random closed diagrams with point groups, Clifford cores with
    their projections, a small Ising lattice and the closed cores of random
    compiled circuits with generic angles."""
    cases = [case[:4] for case in prepared_cases(rng, monkeypatch)]
    for _ in range(12):
        q = compile_circuit(random_circuit(int(rng.integers(1, 4)), 8, rng))
        zeros = BasisAssignment(tuple((0,) * iv.qubit_count for iv in q.open_intervals))
        _, seg, t, _, _, trace = assemble_frontier(encode_basis(q, zeros).core)
        cases.append((trace, seg, t, contraction_matrix(trace, seg, t)))
    entries = loops = 0
    for trace, seg, t, w in cases:
        assert w.lower.dtype == w.upper.dtype == np.float64
        assert np.all(np.abs(w.lower) == 1.0) and np.array_equal(w.upper, -w.lower)
        assert all(total % 4 == 2 for total in trace.walk.totals)
        entries += len(w.lower)
        loops += len(trace.walk.totals)
    assert entries > 20000 and loops > 300


def test_w_is_real_where_every_gauged_entry_is(rng, monkeypatch):
    """The dtype of W follows its entries.  A square Ising lattice's W is
    float64 for couplings of either sign: its scatterings' 1/mu, gauged, are
    real, and Z matches spin enumeration within 1e-9.  So is a generic
    lattice without braids (a path).  The generic triangle's braids have
    mu = +-1 with both points on one loop, where i^(e_x + e_(x+1)) is +-i,
    so its W stays complex128; so does a compiled circuit's, whose
    amplitudes match the unitary."""
    dtypes = recording(monkeypatch, gaussian, "_eliminate")
    for _ in range(3):
        edges = IsingLattice.square(4, 4, 0.3).edges
        overrides = {(a, b): float(k)
                     for (a, b, _), k in zip(edges, rng.uniform(-3, 3, len(edges)))}
        lattice = IsingLattice.square(4, 4, 0.3, overrides)
        z = evaluate_closed_quon(build_ising_quon(lattice))
        assert dtypes.pop().lower.dtype == np.float64
        want = partition_oracle(lattice)
        assert abs(z - want) <= 1e-9 * want
    path = IsingLattice(4, ((0, 1, 0.7), (1, 2, -2.5), (2, 3, 1.1)))
    for lattice, dtype in [(path, np.float64)] + [
            (IsingLattice(3, ((0, 1, k), (1, 2, k), (0, 2, k))), np.complex128)
            for k in (-3.0, -1.0, 0.5, 3.0)]:
        z = evaluate_closed_quon(build_ising_quon(lattice))
        assert dtypes.pop().lower.dtype == dtype
        want = partition_oracle(lattice)
        assert abs(z - want) <= 1e-9 * want
    for _ in range(4):
        c = random_circuit(2, 6, rng)
        u = circuit_oracle_unitary(c)
        for col, row in np.ndindex(4, 4):
            got = circuit_amplitude(c, divmod(col, 2), divmod(row, 2))
            assert abs(got - u[row, col]) <= 1e-9
        assert dtypes and all(w.lower.dtype == np.complex128 for w in dtypes)
        dtypes.clear()


def test_real_groups_give_real_stacks_and_the_oracle_route(monkeypatch):
    """The Ising core of `test_prepared_diagram_keeps_core_blocks_under_its_groups`
    with its parity strings and single dots: W, the Schur complement and
    every stack of term matrices are float64, and every term is the Fock
    oracle of the core with the term's points inserted as dots, times
    i^(|S|/2)."""
    stacks = recording(monkeypatch, gaussian, "_pfaffians")
    d = build_ising_quon(IsingLattice.square(5, 6, 0.3)).core
    elements = d.elements  # built from the columns on every read
    t = len(elements)
    groups = [(t - 10, (0, 1, 2, 3)), (t - 6, (5,)), (t - 6, (1, 2)), (t - 3, (0,))]
    prepared = PreparedDiagram(d, groups)
    assert prepared._schur.dtype == np.float64
    masks = list(range(1 << len(groups)))
    values = prepared.evaluate(masks)
    assert stacks and all(stack.dtype == np.float64 for stack in stacks)
    for mask, got in zip(masks, values):
        chosen = [groups[g] for g in range(len(groups)) if mask >> g & 1]
        inserts = {}
        for time_index, strands in chosen:
            inserts.setdefault(time_index, []).extend(map(Dot, sorted(strands, reverse=True)))
        dotted = MajoranaDiagram(0, 0, [el for i in range(t + 1) for el in inserts.get(i, [])
                                        + list(elements[i:i + 1])], d.amplitude)
        points = sum(len(strands) for _, strands in chosen)
        want = 1j ** (points // 2) * evaluate_closed_oracle(dotted)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert np.count_nonzero(values) >= 8


def test_pfaffian_of_a_real_matrix_runs_real(rng, monkeypatch):
    """A real matrix is eliminated in float64: its Pfaffian agrees with the
    complex elimination of the same matrix within 1e-13, bit for bit with
    `reference_eliminate` in float64, leaves its argument unchanged, and is
    an exact 0 for odd and singular matrices."""
    seen = recording(monkeypatch, gaussian, "_eliminate")
    for n in (2, 8, 2 * PANEL + 6, 150):
        for a in (random_antisymmetric(rng, n).real,
                  np.triu(np.tril(random_antisymmetric(rng, n).real, 3), -3)):
            kept = a.copy()
            got = pfaffian(a)
            w = seen[-1]
            assert w.lower.dtype == np.float64
            assert np.array_equal(raw_bits(a), raw_bits(kept))
            want = pfaffian(a.astype(complex))
            assert seen[-1].lower.dtype == np.complex128
            assert abs(got - want) <= 1e-13 * abs(want)
            m = dense(w)
            mag = np.abs(m)
            pf, x, *_ = reference_eliminate(m, n, dense_reach(mag),
                                            max(float(mag.max(initial=0.0)), 1.0))
            assert got == complex(gaussian._ldexp(pf, x))
    assert pfaffian([[0, 2], [-2, 0]]) == 2.0
    assert pfaffian(random_antisymmetric(rng, 2 * PANEL + 1).real) == 0.0
    singular = random_antisymmetric(rng, 2 * PANEL + 6).real
    singular[:, 5] = singular[5] = 0.0
    assert pfaffian(singular) == 0.0
    pairs = np.zeros((12, 12))
    pairs[np.arange(0, 10, 2), np.arange(1, 10, 2)] = rng.uniform(1, 2, 5)
    pairs -= pairs.T  # the last two rows are zero
    perm = rng.permutation(12)
    assert pfaffian(pairs[np.ix_(perm, perm)]) == 0.0
