"""Polynomial-time evaluator for closed Majorana diagrams.

Every two-strand element is a scalar alpha times (1 + mu * g_j g_{j+1}) with
mu = i*beta/alpha, so a closed diagram is a free (caps/cups only) wiring
decorated with weighted pair insertions and dots.  The wiring decomposes into
loops worth sqrt(2) each; insertions contract pairwise by Wick's theorem, and
the weighted sum over insertion subsets collapses into a single Pfaffian:

    value = amplitude * sqrt(2)^loops * prod(alpha_t * mu_t)
            * prod(mandatory scalars) * Pf(G + pair-couplings(1/mu))

A contraction G(x, y) moves the dot x along its loop onto y's strand by
exact moves, until g^2 = 1 is left: sliding in time along a strand (-1
whenever it passes y on another strand) and hopping across a turn (a dot on
the left arm of a cap, or the right arm of a cup, is i times the dot on the
other arm).  `contraction_matrix` walks each loop once, leaving its first
segment through the birth turn and each segment through the turn it did not
enter by.  Segment k of the walk records its exit boundary (the turn's slice
+ 1/4 for a cap, - 1/4 for a cup), its span from entry to exit boundary, and
the exponent e of the phase collected before its exit: a turn adds 1 from
the left arm of a cap or the right arm of a cup, 3 otherwise.  E is the
loop's total.  For x before y in time on segments a != b of one loop

    G(x, y) = i^(e_b - e_a) * (i^E if k_a > k_b) * (-1)^c,

where c counts the spans strictly between a and b, going forward, that hold
t_y strictly inside, plus one if t_y lies strictly between t_x and a's exit.
G is 1 within a segment and 0 across loops.  The moves walk x out through
a's birth turn, for some segments the other way round, to the same entry:
backward turns give inverse factors, so the phases differ by i^E = -1 (on
every loop), and the counts c by an odd number, the strands of the loop at
time t_y other than y's own.

One factorisation per diagram.  A parity projection (1 + P)/2 of a hole or
notch, and a bit-dependent dot of a basis encoder, add an optional group of
points to the diagram; a term of a hole expansion or a basis component
selects some of these groups.  A contraction entry depends only on its own
two points, so every term is a principal sub-Pfaffian of one matrix W over
the core points followed by every group's points.  `PreparedDiagram`
eliminates the core rows of W once and evaluates each term as

    sign * Pf(eliminated) * Pf(Schur[deferred + selected])

where Schur is the complement left on the rows after the eliminated ones.
A core row with no usable pivot among the core rows is deferred: swapped
behind the core, so that it joins every small matrix.  That is a reordering,
exact in exact arithmetic, and it is what makes the singular cores of
Clifford circuits work.  The sign is the interleave parity: moving each
selected point from its place in time to behind the core passes the core
points later than it.  This follows the few-non-Gaussian-element methods of
Dias & Koenig (arXiv:2307.12912) and Reardon-Smith, Oszmaniec & Korzekwa
(arXiv:2307.12702).

The elimination is a blocked, banded Parlett-Reid (LTL^T) with partial
pivoting, after Wimmer, "Efficient numerical computation of the Pfaffian for
dense and banded skew-symmetric matrices" (ACM TOMS 38, 2012,
arXiv:1102.3440): panels of 2 * PANEL columns are eliminated with their
trailing updates held back, then applied as one matrix product.  Every step
works in a window of rows [k, hi): the rows from hi on are original rows,
untouched, because no row eliminated or swapped so far reaches them (see
`_eliminate`).  The window follows the actual nonzeros and fill, so nothing
is assumed about the matrix.  With a window of width w the elimination costs
O(N w^2).  W of an L x L Ising lattice in time order has bandwidth about 4L,
and the window stays within it: at L = 14 (N = 728, bandwidth 55) it spans
at most 56 rows.  A dense W, such as a compiled circuit's, opens the whole
matrix at step 0 and costs O(N^3).  `pfaffian` is the same elimination with
every row in the core and nothing kept; it evaluates the one matrix of a
diagram without groups.  The terms of a diagram with groups are many small
matrices, where NumPy's per-call overhead, not arithmetic, would dominate a
per-term elimination.  `PreparedDiagram.evaluate` gathers them into stacks
of equal size (at most STACK entries each) and `_pfaffians` eliminates a
whole stack in one unblocked Parlett-Reid pass, one rank-2 update of the
stack per step.  Everything here is validated against the Fock oracle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .diagram import MajoranaDiagram
from .errors import NotClosed, NumericalInstability, TooLarge
from .wires import LEFT, WireTrace

MU_MIN = 1e-13
PANEL = 32  # pivot steps whose trailing updates are applied together
STACK = 1 << 17  # matrix entries (2 MB) in one stack of small term matrices
MAX_GROUPS = 63  # point groups a term mask, a non-negative int64, can select
SINGULAR_TOL = 1e-16  # relative size of a pivot taken as zero
# A core pivot at or below DEFER_TOL times the scale is deferred behind the
# core.  A kept pivot p gives multipliers up to 1/p on the group rows and a
# term's Pfaffian multiplies two of them, so its round-off grows like
# eps / p^2: O(1) for p near sqrt(eps), which circuits with angles at
# k*pi/2 + 1e-8 reach.  With 1e-3 near-Clifford amplitudes stay within 1e-10
# of the unitary; with 1e-4 an offset of 2e-4 still missed by 3e-9.
DEFER_TOL = 1e-3

_SQRT2 = math.sqrt(2.0)
_SUB = 1e-4  # sub-slot offset for multiple insertions of one element


def _eliminate(a: np.ndarray, core: int, singular_tol: float) -> tuple[complex, int]:
    """Blocked, banded Parlett-Reid elimination of the first `core` rows of
    the antisymmetric matrix `a`, in place.

    Returns (pf, e): the Pfaffian of the eliminated part, swap signs
    included, and the number e of eliminated rows.  a[e:, e:] is then the
    Schur complement on the deferred core rows (positions e .. core - 1)
    followed by the rows after the core, so that for every set S of rows
    after the core

        Pf(a[core + S]) = pf * Pf(a[e:, e:] on deferred + S).

    Step k pivots the largest |entry| of row k among the remaining core
    columns into column k + 1 and eliminates with the rank-2 update
    tau col^T - col tau^T of the trailing block.  When that entry is at or
    below singular_tol times max(max|entry|, 1), row k is deferred instead:
    swapped behind the remaining core rows (with no rows after the core, it
    has nothing left to pair with, and the elimination stops with pf = 0).
    A kept pivot bounds the multipliers of the columns after the core by
    1 / singular_tol; a term's Pfaffian over those columns multiplies two
    of them, so its round-off grows like eps / singular_tol^2, which is why
    `PreparedDiagram` passes DEFER_TOL and not a tolerance near sqrt(eps).
    Within a panel of 2 * PANEL columns the updates stay
    pending in p and q (the current matrix is the stored one plus p q^T);
    each step reads rows k and k + 1 with one matrix-vector product each,
    and the panel's updates reach the trailing block as one matrix product.

    Window: every row at a position >= hi is an original row of `a`, at its
    own position and untouched by any update.  The reach of an original row
    is one past its last nonzero column.  Step k raises hi to the reach of
    row k before its pivot search, and to the reaches of rows k + 1 and kp
    once the pivot kp is chosen, before they swap.  Then rows k and k + 1
    vanish beyond hi, so the step's update, and every swapped row and
    column, lies in [k, hi): the pivot search, the matrix-vector products,
    the swaps and the panel's product touch that window only.  A deferral
    sets hi = n.  With a window of width w the elimination costs O(N w^2);
    a dense matrix reaches hi = n at step 0 and costs O(N^3).
    """
    if core < 2:  # no pair of core rows to eliminate
        return 1.0 + 0.0j, 0
    n = a.shape[0]
    mag = np.abs(a)
    scale = max(float(mag.max(initial=0.0)), 1.0)
    nonzero = mag != 0
    del mag
    # the reach of each original row: one past its last nonzero column
    last = np.where(nonzero.any(axis=1), n - np.argmax(nonzero[:, ::-1], axis=1), 0).tolist()
    orig = list(range(n))  # the original row at each position
    hi = 0
    pf = 1.0 + 0.0j
    k = 0
    while k + 1 < core:
        k0 = k
        # pending updates of rows k0.. (row i of the matrix is row i - k0)
        p = np.zeros((n - k0, min(2 * PANEL, core - k0)), dtype=complex)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            hi = max(hi, k + 2, last[orig[k]])
            row = a[k, k + 1:hi] + q[j + 1:hi - k0, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:min(hi, core) - k - 1])))
            if abs(row[i]) <= singular_tol * scale:
                if core == n:  # nothing kept: row k pairs with no row at all
                    return 0.0 + 0.0j, k
                core -= 1  # defer row k behind the remaining core rows
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
            reached = hi  # row k vanishes from column reached on
            hi = max(hi, last[orig[k + 1]], last[orig[kp]])
            if i:
                a[[k + 1, kp], k + 1:hi] = a[[kp, k + 1], k + 1:hi]
                a[k + 1:hi, [k + 1, kp]] = a[k + 1:hi, [kp, k + 1]]
                p[[j + 1, j + 1 + i]] = p[[j + 1 + i, j + 1]]
                q[[j + 1, j + 1 + i]] = q[[j + 1 + i, j + 1]]
                orig[k + 1], orig[kp] = orig[kp], orig[k + 1]
                row[[0, i]] = row[[i, 0]]
                pf = -pf
            pivot = row[0]
            pf *= pivot
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
    return pf, k


def pfaffian(mat: np.ndarray) -> complex:
    """Pfaffian of a complex antisymmetric matrix: `_eliminate` with every
    row in the core.  A deferred row leaves only entries at or below
    SINGULAR_TOL times max(max|entry|, 1) to pair it with, and makes the
    Pfaffian zero."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    pf, eliminated = _eliminate(a, n, SINGULAR_TOL)
    return pf if eliminated == n else 0.0 + 0.0j


def _pfaffians(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack a[t] of antisymmetric matrices, overwriting a.

    One unblocked Parlett-Reid pass over the whole stack: at step k each
    matrix pivots the largest |entry| of its row k into column k + 1 with
    its own swaps, and the stack takes one rank-2 update.  A row whose
    largest |entry| is at or below SINGULAR_TOL times max(max|entry|, 1) of
    its matrix makes that Pfaffian exactly 0 (as in `pfaffian`); the matrix
    goes on with a unit pivot.  Every operation acts on each matrix alone,
    so a Pfaffian does not depend on the other matrices in the stack.
    """
    count, n = a.shape[:2]
    if n % 2:
        return np.zeros(count, dtype=complex)
    pf = np.ones(count, dtype=complex)
    tol = SINGULAR_TOL * np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0), 1.0)
    zero = np.zeros(count, dtype=bool)
    at = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n, 2):
            s = a[:, k:, k:]  # the trailing blocks; s[:, 0] is row k
            p = 1 + np.argmax(np.abs(s[:, 0, 1:]), axis=1)
            row = s[at, p]
            s[at, p] = s[:, 1]
            s[:, 1] = row
            col = s[at, :, p]
            s[at, :, p] = s[:, :, 1]
            s[:, :, 1] = col
            pf = np.where(p > 1, -pf, pf)
            pivot = s[:, 0, 1]
            unusable = np.abs(pivot) <= tol
            zero |= unusable
            pivot = np.where(unusable, 1.0, pivot)
            # out of place: NumPy rounds an in-place product of a one-element
            # array differently from that of a longer one
            pf = pf * pivot
            if k + 2 < n:
                tau = s[:, 0, 2:] / pivot[:, None]
                u = s[:, 1, 2:, None] * tau[:, None, :]
                s[:, 2:, 2:] += u - u.transpose(0, 2, 1)
    pf[zero] = 0.0
    return pf


@dataclass
class _Point:
    seg: int
    time: float
    pair: int | None = None  # optional-pair id, None for mandatory insertions


def contraction_matrix(trace: WireTrace, order: list[_Point]) -> np.ndarray:
    """Antisymmetric matrix of the contractions G(x, y) of the points, from
    one walk around each loop of `trace` (see the module docstring)."""
    if not order:  # bare loops have nothing to contract
        return np.zeros((0, 0), dtype=complex)
    loops = trace.worldlines()
    walk, e_walk, exit_walk, totals = [], [], [], []  # loop after loop
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
    first = np.cumsum(lengths) - lengths  # walk index of each loop's first segment
    loop_w = np.repeat(np.arange(len(loops)), lengths)
    k_w = np.arange(len(walk)) - first[loop_w]
    exits = np.array(exit_walk)
    prev = np.arange(len(walk)) - 1
    prev[first] += lengths  # a loop's first segment is entered from its last
    lo = np.full((len(loops), lengths.max()), np.inf)  # spans, padded
    hi = -lo
    lo[loop_w, k_w] = np.minimum(exits[prev], exits)
    hi[loop_w, k_w] = np.maximum(exits[prev], exits)

    # each point's segment, as a walk index (the walks cover every segment once)
    at = np.argsort(walk)[[p.seg for p in order]]
    t = np.array([p.time for p in order])
    loop, k, e = loop_w[at], k_w[at], np.array(e_walk)[at]
    # prefix[y, j]: spans among the first j of y's loop that hold t_y strictly inside
    prefix = np.zeros((len(order), lo.shape[1] + 1), dtype=int)
    np.cumsum((lo[loop] < t[:, None]) & (t[:, None] < hi[loop]), axis=1, out=prefix[:, 1:])
    x, y = np.nonzero((loop[:, None] == loop[None, :]) & (t[:, None] < t[None, :]))
    # a wrap (k[x] > k[y]) also passes all the loop's strands at t_y: an even number
    between = prefix[y, k[y]] - prefix[y, k[x] + 1]
    exit_x = exits[at[x]]
    partial = (np.minimum(t[x], exit_x) < t[y]) & (t[y] < np.maximum(t[x], exit_x))
    power = e[y] - e[x] + (k[x] > k[y]) * np.array(totals)[loop[y]] + 2 * (between + partial)
    w = np.zeros((len(order), len(order)), dtype=complex)
    w[x, y] = np.where(at[x] == at[y], 1.0, np.array([1, 1j, -1, -1j])[power % 4])
    w[y, x] = 0.0 - w[x, y]
    return w


def assemble_frontier(diag: MajoranaDiagram):
    """Sweep a closed diagram into (amplitude, points, pair weights, trace)."""
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")

    trace = WireTrace(diag)
    amplitude = complex(diag.amplitude)
    points: list[_Point] = []
    mus: list[complex] = []

    for t, el in enumerate(diag.elements):
        if el.width_delta:  # caps and cups are the bare wiring
            continue
        slice_now = trace.slices[t]
        if el.dots:
            # a dot pair is i * g_j g_k with g_k acting first
            if el.dots == 2:
                amplitude *= 1j
            for n, p in enumerate(reversed(el.positions())):
                points.append(_Point(slice_now[p], t + n * _SUB))
            continue
        a_w, b_w = el.weights()
        if abs(b_w) <= MU_MIN * abs(a_w):
            amplitude *= a_w
            continue
        if abs(a_w) <= MU_MIN * abs(b_w):
            # pure dot-pair insertion: (i*b) g_j g_{j+1}
            amplitude *= 1j * b_w
            pair_id = None
        else:
            mu = 1j * b_w / a_w
            amplitude *= a_w * mu
            pair_id = len(mus)
            mus.append(mu)
        points.append(_Point(slice_now[el.j + 1], t + 0.0, pair_id))
        points.append(_Point(slice_now[el.j], t + _SUB, pair_id))

    # in a closed diagram every worldline is a loop
    amplitude *= _SQRT2 ** len(trace.worldlines())
    return amplitude, points, mus, trace


class PreparedDiagram:
    """A closed diagram and its optional point groups, factorised once.

    `groups` lists (time_index, strands) pairs.  A group's points are dots on
    those strands at that slice, in descending strand order: the parity
    string of a projection (simultaneous dot pairs), or one candidate dot of
    a basis encoder.  Groups with an odd number of points must come in time
    order; a group with an even number may come anywhere in the list.

    `evaluate(masks)` gives, for each mask, the value of the diagram
    decorated with the groups whose bits are set in it.  For the selected
    points S (each pair carrying a factor i) it is

        amplitude * i^(|S|/2) * sign * Pf(eliminated) * Pf(Schur[deferred + S])

    Pf(eliminated) and Schur come from one `_eliminate` of the core rows of
    the contraction matrix over all points, built in [core, groups] order.
    The sign is the parity of the number of core points later in time than
    a selected point, summed over S.  The terms' matrices Schur[deferred + S]
    are gathered into stacks by size, and each stack is one `_pfaffians`
    pass; an odd size is 0.  Without groups there is one term and nothing is
    eliminated ahead: its Pfaffian is the whole matrix, by `pfaffian`.  At
    most MAX_GROUPS groups (TooLarge): a mask is an int64.
    """

    def __init__(self, diag: MajoranaDiagram, groups=()):
        if len(groups) > MAX_GROUPS:
            raise TooLarge(f"{len(groups)} point groups; a term mask holds at most {MAX_GROUPS}")
        self.amplitude, points, mus, trace = assemble_frontier(diag)
        core = sorted(points, key=lambda p: p.time)
        extras: list[_Point] = []
        self._groups: list[range] = []
        for time_index, strands in groups:
            first = len(extras)
            for pos in sorted(strands, reverse=True):
                # strictly inside the slice: turn boundaries sit at t -/+ 0.25
                time = time_index - 0.5 + 1e-6 * (len(extras) + 1)
                extras.append(_Point(trace.slices[time_index][pos], time))
            self._groups.append(range(first, len(extras)))

        w = contraction_matrix(trace, core + extras)
        pair_rows: dict[int, list[int]] = {}
        for i, p in enumerate(core):
            if p.pair is not None:
                pair_rows.setdefault(p.pair, []).append(i)
        for pair_id, (i, j) in pair_rows.items():
            if j - i != 1:
                raise NumericalInstability("optional pair separated in the point order")
            w[i, j] += 1.0 / mus[pair_id]
            w[j, i] -= 1.0 / mus[pair_id]

        core_times = [p.time for p in core]
        later = [len(core) - bisect.bisect(core_times, p.time) for p in extras]
        self._flips = np.array([sum(later[x] for x in group) for group in self._groups], dtype=int)
        self._group_of = np.array([g for g, group in enumerate(self._groups) for _ in group],
                                  dtype=int)
        self._points = len(core) + len(extras)
        if extras:
            self._pf, self._eliminated = _eliminate(w, len(core), DEFER_TOL)
            w = w[self._eliminated:, self._eliminated:].copy()
        else:
            self._pf, self._eliminated = 1.0 + 0.0j, 0
        self._schur = w
        self._deferred = len(core) - self._eliminated

    def evaluate(self, masks) -> np.ndarray:
        """The values of the terms whose groups the masks select (bit g of
        a mask selects group g), as a complex array in mask order.  A value
        depends only on its own mask, bit for bit, whatever masks come with
        it; a non-finite one raises NumericalInstability."""
        masks = np.asarray(masks, dtype=np.int64)
        d = self._deferred
        with np.errstate(over="ignore", invalid="ignore"):
            if self._groups:
                values = self.amplitude * self._terms(masks)
            else:  # the one term is the whole matrix: the blocked kernel
                values = np.full(len(masks), self.amplitude * (self._pf * pfaffian(self._schur)))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            points = np.flatnonzero(masks[bad[0]] >> self._group_of & 1)
            rows = np.concatenate([np.arange(d), d + points])
            sub = self._schur[np.ix_(rows, rows)]
            raise NumericalInstability(
                f"non-finite value from a {len(sub)} x {len(sub)} Pfaffian with largest "
                f"|entry| {float(np.max(np.abs(sub), initial=0.0)):.3g} and amplitude "
                f"{abs(self.amplitude):.3g}, after eliminating {self._eliminated} of "
                f"{self._points} points (their Pfaffian {abs(self._pf):.3g})"
            )
        return values

    def _terms(self, masks: np.ndarray) -> np.ndarray:
        """phase * Pf(eliminated) * Pf(Schur[deferred + S]) of each mask, the
        small Pfaffians gathered into stacks by size."""
        bits = (masks[:, None] >> np.arange(len(self._groups)) & 1).astype(bool)
        chosen = bits[:, self._group_of]  # each term's selected points, in group order
        points = chosen.sum(axis=1)
        phase = np.array([1, 1j, -1, -1j])[points // 2 % 4] * (-1) ** (bits @ self._flips % 2)
        d = self._deferred
        sizes = d + points
        pfs = np.zeros(len(masks), dtype=complex)  # odd sizes stay 0
        for size in np.unique(sizes[sizes % 2 == 0]):
            terms = np.flatnonzero(sizes == size)
            rows = np.empty((len(terms), size), dtype=int)
            rows[:, :d] = np.arange(d)
            rows[:, d:] = d + np.nonzero(chosen[terms])[1].reshape(len(terms), size - d)
            step = max(1, STACK // max(size, 1) ** 2)
            for first in range(0, len(terms), step):
                r = rows[first:first + step]
                pfs[terms[first:first + step]] = _pfaffians(
                    self._schur[r[:, :, None], r[:, None, :]])
        return phase * (self._pf * pfs)


def evaluate_closed_fast(diag: MajoranaDiagram) -> complex:
    """Evaluate a closed diagram in polynomial time; matches the Fock oracle
    within 1e-9 (relative, or absolute below magnitude one).

    Raises NotClosed for open diagrams and NumericalInstability when the
    assembled Pfaffian degenerates (callers may fall back to the oracle).
    """
    return complex(PreparedDiagram(diag).evaluate([0])[0])
