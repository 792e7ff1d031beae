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
g^2 = 1.  Cross-loop contractions vanish.  The Pfaffian is a blocked
Parlett-Reid (LTL^T) with partial pivoting, after Wimmer, "Efficient
numerical computation of the Pfaffian for dense and banded skew-symmetric
matrices" (ACM TOMS 38, 2012, arXiv:1102.3440): panels of 2 * PANEL columns
are eliminated with their trailing updates held back, then applied as one
matrix product.  Everything here is validated against the Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagram import MajoranaDiagram
from .errors import NotClosed, NumericalInstability
from .wires import LEFT, WireTrace

MU_MIN = 1e-13
PANEL = 32  # pivot steps whose trailing updates are applied together

_SQRT2 = math.sqrt(2.0)
_SUB = 1e-4  # sub-slot offset for multiple insertions of one element


def pfaffian(mat: np.ndarray, singular_tol: float = 1e-16) -> complex:
    """Pfaffian of a complex antisymmetric matrix: blocked Parlett-Reid
    (LTL^T) with partial pivoting, after Wimmer (ACM TOMS 38, 2012,
    arXiv:1102.3440).

    Step k pivots the largest |entry| of column k into row k + 1 and
    eliminates with the rank-2 update tau col^T - col tau^T of the trailing
    block.  Within a panel of 2 * PANEL columns those updates stay pending
    in p and q (the current matrix is the stored one plus p q^T); each step
    reads rows k and k + 1 with one matrix-vector product each, and the
    panel's updates reach the trailing block as one matrix product.  A pivot below
    singular_tol times max(max|entry|, 1) makes the Pfaffian zero.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    scale = max(float(np.max(np.abs(a))), 1.0)
    pf = 1.0 + 0.0j
    for k0 in range(0, n, 2 * PANEL):
        kend = min(k0 + 2 * PANEL, n)
        # pending updates of rows k0.. (row i of the matrix is row i - k0)
        p = np.zeros((n - k0, kend - k0), dtype=complex)
        q = np.zeros_like(p)
        for k in range(k0, kend, 2):
            j = k - k0
            row = a[k, k + 1:] + q[j + 1:, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row)))
            if abs(row[i]) <= singular_tol * scale:
                return 0.0 + 0.0j
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
        if kend < n:
            a[kend:, kend:] += p[kend - k0:] @ q[kend - k0:].T
    return pf


@dataclass
class _Point:
    pid: int
    seg: int
    time: float
    loop: int = -1
    pair: int | None = None  # optional-pair id, None for mandatory insertions


@dataclass
class GaussianFrontier:
    """Assembled Gaussian data of a closed-diagram sweep.

    pairing is the antisymmetric contraction matrix over insertion points;
    amplitude is the collected scalar.
    """

    amplitude: complex = 1.0 + 0.0j
    pairing: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))

    def check(self, tol: float = 1e-12) -> None:
        if self.pairing.size and np.max(np.abs(self.pairing + self.pairing.T)) > tol:
            raise NumericalInstability("pairing matrix lost antisymmetry")


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
    """Sweep a closed diagram into (frontier, points, pair weights, geometry)."""
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")

    trace = WireTrace(diag)
    frontier = GaussianFrontier(amplitude=complex(diag.amplitude))
    points: list[_Point] = []
    mus: list[complex] = []

    def add_point(seg: int, time: float, pair: int | None) -> None:
        points.append(_Point(len(points), seg, time, pair=pair))

    for t, el in enumerate(diag.elements):
        if el.width_delta:  # caps and cups are the bare wiring
            continue
        slice_now = trace.slices[t]
        if el.dots:
            # a dot pair is i * g_j g_k with g_k acting first
            if el.dots == 2:
                frontier.amplitude *= 1j
            for n, p in enumerate(reversed(el.positions())):
                add_point(slice_now[p], t + n * _SUB, None)
            continue
        a_w, b_w = el.weights()
        if abs(b_w) <= MU_MIN * abs(a_w):
            frontier.amplitude *= a_w
            continue
        if abs(a_w) <= MU_MIN * abs(b_w):
            # pure dot-pair insertion: (i*b) g_j g_{j+1}
            frontier.amplitude *= 1j * b_w
            add_point(slice_now[el.j + 1], t + 0.0, None)
            add_point(slice_now[el.j], t + _SUB, None)
            continue
        mu = 1j * b_w / a_w
        frontier.amplitude *= a_w * mu
        pair_id = len(mus)
        mus.append(mu)
        add_point(slice_now[el.j + 1], t + 0.0, pair_id)
        add_point(slice_now[el.j], t + _SUB, pair_id)

    # in a closed diagram every worldline is a loop
    frontier.amplitude *= _SQRT2 ** len(trace.worldlines())
    labels = trace.worldline_labels()
    for p in points:
        p.loop = labels[p.seg]
    return frontier, points, mus, _LoopGeometry(trace)


def _finish(frontier: GaussianFrontier, points: list[_Point], mus, geom) -> complex:
    order = sorted(points, key=lambda p: p.time)
    n = len(order)
    if n % 2:
        return 0.0 + 0.0j
    w = contraction_matrix(geom, order)
    index = {p.pid: i for i, p in enumerate(order)}
    by_pair: dict[int, list[_Point]] = {}
    for p in points:
        if p.pair is not None:
            by_pair.setdefault(p.pair, []).append(p)
    for pair_id, pair_points in by_pair.items():
        p, q = sorted(pair_points, key=lambda x: x.time)
        i, j = index[p.pid], index[q.pid]
        if j - i != 1:
            raise NumericalInstability("optional pair separated in the point order")
        w[i, j] += 1.0 / mus[pair_id]
        w[j, i] -= 1.0 / mus[pair_id]
    frontier.pairing = w
    frontier.check()
    value = frontier.amplitude * pfaffian(w)
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise NumericalInstability(
            f"non-finite value from a {n} x {n} Pfaffian with largest |entry| "
            f"{float(np.max(np.abs(w), initial=0.0)):.3g} and amplitude "
            f"{abs(frontier.amplitude):.3g}"
        )
    return complex(value)


def evaluate_closed_fast(diag: MajoranaDiagram) -> complex:
    """Evaluate a closed diagram in polynomial time; matches the Fock oracle
    within 1e-9 (relative, or absolute below magnitude one).

    Raises NotClosed for open diagrams and NumericalInstability when the
    assembled Pfaffian degenerates (callers may fall back to the oracle).
    """
    frontier, points, mus, geom = assemble_frontier(diag)
    return _finish(frontier, points, mus, geom)


class PreparedDiagram:
    """A closed diagram assembled once, re-evaluable with extra dot strings.

    `evaluate(extra)` takes [(time_index, strand_positions)] parity strings
    (simultaneous dots paired left to right, an i factor per pair) and
    evaluates the decorated diagram without re-tracing the wiring.
    """

    def __init__(self, diag: MajoranaDiagram):
        self.frontier, self.points, self.mus, self.geom = assemble_frontier(diag)
        self.trace = self.geom.trace
        self._label = self.trace.worldline_labels()

    def evaluate(self, extra=()) -> complex:
        points = list(self.points)
        amplitude = self.frontier.amplitude
        counter = 1  # strictly inside the slice: turn boundaries sit at t -/+ 0.5
        for time_index, strands in extra:
            ordered = sorted(strands)
            slice_now = self.trace.slices[time_index]
            for a, b in zip(ordered[::2], ordered[1::2]):
                amplitude *= 1j
                for pos in (b, a):
                    seg = slice_now[pos]
                    p = _Point(
                        -counter, seg,
                        time_index - 0.5 + 1e-6 * counter,
                        loop=self._label[seg],
                    )
                    points.append(p)
                    counter += 1
        frontier = GaussianFrontier(amplitude)
        return _finish(frontier, points, self.mus, self.geom)
