"""Polynomial-time evaluator for closed Majorana diagrams.

Every two-strand element is a scalar alpha times (1 + mu * g_j g_{j+1}) with
mu = i*beta/alpha, so a closed diagram is a free (caps/cups only) wiring
decorated with weighted pair insertions and dots.  The wiring decomposes into
loops worth sqrt(2) each; insertions contract pairwise by Wick's theorem, and
the weighted sum over insertion subsets collapses into a single Pfaffian:

    value = amplitude * sqrt(2)^loops * prod(alpha_t * mu_t)
            * prod(mandatory scalars) * Pf(G + pair-couplings(1/mu))

A pair contraction G(x, y) is computed by walking one dot along its loop to
the other using three exact moves: sliding a dot in time along its strand
(-1 whenever it passes the partner sitting on a different strand), hopping
across a cap (a dot on the left arm equals i times the dot on the right arm),
and hopping across a cup (a dot on the right arm equals i times the dot on
the left arm).  Once the two dots share a strand the leftover operator is
g^2 = 1.  Cross-loop contractions vanish.

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

The elimination is a blocked Parlett-Reid (LTL^T) with partial pivoting,
after Wimmer, "Efficient numerical computation of the Pfaffian for dense and
banded skew-symmetric matrices" (ACM TOMS 38, 2012, arXiv:1102.3440): panels
of 2 * PANEL columns are eliminated with their trailing updates held back,
then applied as one matrix product.  `pfaffian` is the same elimination with
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
DEFER_TOL = 1e-8  # about sqrt(eps): a core pivot this small is deferred behind the core

_SQRT2 = math.sqrt(2.0)
_SUB = 1e-4  # sub-slot offset for multiple insertions of one element


def _eliminate(a: np.ndarray, core: int, singular_tol: float) -> tuple[complex, int]:
    """Blocked Parlett-Reid elimination of the first `core` rows of the
    antisymmetric matrix `a`, in place.

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
    1 / singular_tol.  Within a panel of 2 * PANEL columns the updates stay
    pending in p and q (the current matrix is the stored one plus p q^T);
    each step reads rows k and k + 1 with one matrix-vector product each,
    and the panel's updates reach the trailing block as one matrix product.
    """
    n = a.shape[0]
    scale = max(float(np.max(np.abs(a), initial=0.0)), 1.0)
    pf = 1.0 + 0.0j
    k = 0
    while k + 1 < core:
        k0 = k
        # pending updates of rows k0.. (row i of the matrix is row i - k0)
        p = np.zeros((n - k0, min(2 * PANEL, core - k0)), dtype=complex)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            row = a[k, k + 1:] + q[j + 1:, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:core - k - 1])))
            if abs(row[i]) <= singular_tol * scale:
                if core == n:  # nothing kept: row k pairs with no row at all
                    return 0.0 + 0.0j, k
                core -= 1  # defer row k behind the remaining core rows
                if core != k:
                    a[[k, core], k:] = a[[core, k], k:]
                    a[k:, [k, core]] = a[k:, [core, k]]
                    p[[j, core - k0]] = p[[core - k0, j]]
                    q[[j, core - k0]] = q[[core - k0, j]]
                    pf = -pf
                continue
            if i:
                kp = k + 1 + i
                a[[k + 1, kp], k + 1:] = a[[kp, k + 1], k + 1:]
                a[k + 1:, [k + 1, kp]] = a[k + 1:, [kp, k + 1]]
                p[[j + 1, j + 1 + i]] = p[[j + 1 + i, j + 1]]
                q[[j + 1, j + 1 + i]] = q[[j + 1 + i, j + 1]]
                row[[0, i]] = row[[i, 0]]
                pf = -pf
            pivot = row[0]
            pf *= pivot
            if k + 2 < n:
                tau = row[1:] / pivot
                col = -(a[k + 1, k + 2:] + q[j + 2:, :j] @ p[j + 1, :j])
                p[j + 2:, j] = tau
                p[j + 2:, j + 1] = col
                q[j + 2:, j] = col
                q[j + 2:, j + 1] = -tau
            k += 2
        if k < n:
            a[k:, k:] += p[k - k0:] @ q[k - k0:].T
    return pf, k


def pfaffian(mat: np.ndarray, singular_tol: float = SINGULAR_TOL) -> complex:
    """Pfaffian of a complex antisymmetric matrix: `_eliminate` with every
    row in the core.  A deferred row leaves only entries at or below
    singular_tol times max(max|entry|, 1) to pair it with, and makes the
    Pfaffian zero.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    pf, eliminated = _eliminate(a, n, singular_tol)
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
    loop: int = -1
    pair: int | None = None  # optional-pair id, None for mandatory insertions


class _LoopGeometry:
    """Per-loop adjacency used by the pair walker, with memoized hop chains."""

    def __init__(self, trace: WireTrace):
        self.trace = trace
        self.turns = trace.turns
        self.segments = trace.segments
        self._chains: dict[tuple[int, int], tuple] = {}

    def other_turn(self, sid: int, tid: int) -> int:
        seg = self.segments[sid]
        return seg.death_turn if seg.birth_turn == tid else seg.birth_turn

    def chain(self, seg_a: int, seg_b: int):
        """Walk data from seg_a to seg_b along the loop (fixed orientation):
        (factor, first boundary, fixed crossing intervals).  Only the first
        slide's interval depends on the moving dot's time; the rest are the
        fixed inter-boundary spans."""
        key = (seg_a, seg_b)
        cached = self._chains.get(key)
        if cached is not None:
            return cached
        acc = 1.0 + 0.0j
        seg = seg_a
        tid = self.segments[seg].birth_turn
        boundaries = []
        for _ in range(2 * len(self.segments) + 4):
            turn = self.turns[tid]
            boundary = turn.elem_index + (0.25 if turn.kind == "cap" else -0.25)
            boundaries.append(boundary)
            side = turn.side_of(seg)
            if turn.kind == "cap":
                acc *= 1j if side == LEFT else -1j
            else:
                acc *= 1j if side != LEFT else -1j
            seg = turn.other(seg)
            if seg == seg_b:
                spans = tuple(
                    (min(boundaries[k], boundaries[k + 1]),
                     max(boundaries[k], boundaries[k + 1]))
                    for k in range(len(boundaries) - 1)
                )
                out = (acc, boundaries[0], spans)
                self._chains[key] = out
                return out
            tid = self.other_turn(seg, tid)
        raise NumericalInstability("pair walk failed to close its loop")


def contraction_matrix(geom: _LoopGeometry, order: list[_Point]) -> np.ndarray:
    """Antisymmetric matrix of pairwise contractions, grouped by segment pair."""
    n = len(order)
    w = np.zeros((n, n), dtype=complex)
    by_seg: dict[int, list[int]] = {}
    for i, p in enumerate(order):
        by_seg.setdefault(p.seg, []).append(i)
    seg_ids = sorted(by_seg)
    times = np.array([p.time for p in order])
    for sa in seg_ids:
        ia = np.array(by_seg[sa])
        for sb in seg_ids:
            if sa == sb:
                continue
            p0 = order[by_seg[sa][0]]
            q0 = order[by_seg[sb][0]]
            if p0.loop != q0.loop:
                continue
            ib = np.array(by_seg[sb])
            factor, first, spans = geom.chain(sa, sb)
            tb = times[ib]
            fixed = np.zeros(len(ib), dtype=int)
            for s_lo, s_hi in spans:
                fixed += (s_lo < tb) & (tb < s_hi)
            ta = times[ia][:, None]
            lo = np.minimum(ta, first)
            hi = np.maximum(ta, first)
            crossings = fixed[None, :] + ((lo < tb[None, :]) & (tb[None, :] < hi))
            vals = factor * np.where(crossings % 2, -1.0, 1.0)
            w[np.ix_(ia, ib)] = np.where(ta < tb[None, :], vals, 0.0)
    for sa in seg_ids:
        ia = np.array(by_seg[sa])
        ta = times[ia]
        block = np.where(ta[:, None] < ta[None, :], 1.0 + 0.0j, 0.0)
        w[np.ix_(ia, ia)] = block
    w = w - w.T  # keep only time-ordered upper entries, antisymmetrize
    return w


def assemble_frontier(diag: MajoranaDiagram):
    """Sweep a closed diagram into (amplitude, points, pair weights, geometry)."""
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")

    trace = WireTrace(diag)
    amplitude = complex(diag.amplitude)
    points: list[_Point] = []
    mus: list[complex] = []

    def add_point(seg: int, time: float, pair: int | None) -> None:
        points.append(_Point(seg, time, pair=pair))

    for t, el in enumerate(diag.elements):
        if el.width_delta:  # caps and cups are the bare wiring
            continue
        slice_now = trace.slices[t]
        if el.dots:
            # a dot pair is i * g_j g_k with g_k acting first
            if el.dots == 2:
                amplitude *= 1j
            for n, p in enumerate(reversed(el.positions())):
                add_point(slice_now[p], t + n * _SUB, None)
            continue
        a_w, b_w = el.weights()
        if abs(b_w) <= MU_MIN * abs(a_w):
            amplitude *= a_w
            continue
        if abs(a_w) <= MU_MIN * abs(b_w):
            # pure dot-pair insertion: (i*b) g_j g_{j+1}
            amplitude *= 1j * b_w
            add_point(slice_now[el.j + 1], t + 0.0, None)
            add_point(slice_now[el.j], t + _SUB, None)
            continue
        mu = 1j * b_w / a_w
        amplitude *= a_w * mu
        pair_id = len(mus)
        mus.append(mu)
        add_point(slice_now[el.j + 1], t + 0.0, pair_id)
        add_point(slice_now[el.j], t + _SUB, pair_id)

    # in a closed diagram every worldline is a loop
    amplitude *= _SQRT2 ** len(trace.worldlines())
    labels = trace.worldline_labels()
    for p in points:
        p.loop = labels[p.seg]
    return amplitude, points, mus, _LoopGeometry(trace)


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
        self.amplitude, points, mus, geom = assemble_frontier(diag)
        labels = geom.trace.worldline_labels() if groups else []
        core = sorted(points, key=lambda p: p.time)
        extras: list[_Point] = []
        self._groups: list[range] = []
        for time_index, strands in groups:
            slice_now = geom.trace.slices[time_index]
            first = len(extras)
            for pos in sorted(strands, reverse=True):
                seg = slice_now[pos]
                # strictly inside the slice: turn boundaries sit at t -/+ 0.25
                time = time_index - 0.5 + 1e-6 * (len(extras) + 1)
                extras.append(_Point(seg, time, loop=labels[seg]))
            self._groups.append(range(first, len(extras)))

        w = contraction_matrix(geom, core + extras)
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
