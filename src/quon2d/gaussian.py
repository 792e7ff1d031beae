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

The matrix W is kept as its nonzeros, row by row (`_Rows`, built by
`contraction_matrix` with no sort of the pairs), never as an N x N array,
and eliminated by the windowed, blocked Parlett-Reid of `elimination.py`,
which holds only the rows its window has reached: a banded W, such as an
Ising lattice's, costs O(nnz + w^2) memory and O(N w^2) time for a window
of width w, a dense W, such as a compiled circuit's, O(N^3).  A diagram
without groups is the same elimination with every row in the core, run
when it is prepared; `pfaffian` runs it on the nonzeros of a copy of any
matrix.  The terms of a diagram with groups are many small matrices, where
NumPy's per-call overhead, not arithmetic, would dominate a per-term
elimination.  `PreparedDiagram.evaluate` gathers them into stacks of equal
size (at most STACK entries each) and `_pfaffians` (also in
`elimination.py`) eliminates a whole stack in one unblocked Parlett-Reid
pass, one rank-2 update of the stack per step.  Everything here is
validated against the Fock oracle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .diagram import MajoranaDiagram
from .elimination import (
    _HIGH,
    _LOW,
    SINGULAR_TOL,
    _eliminate,
    _ldexp,
    _pfaffians,
    _renormalised,
    _Rows,
    _split,
)
from .errors import InvariantViolation, NotClosed, NumericalInstability, TooLarge
from .wires import LEFT, WireTrace

MU_MIN = 1e-13
STACK = 1 << 17  # matrix entries (2 MB) in one stack of small term matrices
PAIRS = 1 << 16  # point pairs whose contractions are computed together
MAX_GROUPS = 63  # point groups a term mask, a non-negative int64, can select
MAX_TERMS = 1 << 20  # terms one evaluation holds: 2^18 of them peaked near 100 MB
ANTISYMMETRY_TOL = 1e-10  # relative size of a + a^T that `pfaffian` accepts
# A core pivot at or below DEFER_TOL times the scale is deferred behind the
# core.  A kept pivot p gives multipliers up to 1/p on the group rows and a
# term's Pfaffian multiplies two of them, so its round-off grows like
# eps / p^2: O(1) for p near sqrt(eps), which circuits with angles at
# k*pi/2 + 1e-8 reach.  With 1e-3 near-Clifford amplitudes stay within 1e-10
# of the unitary; with 1e-4 an offset of 2e-4 still missed by 3e-9.
DEFER_TOL = 1e-3

_SQRT2 = math.sqrt(2.0)
_SUB = 1e-4  # sub-slot offset for multiple insertions of one element


def check_terms(count: int, what: str) -> None:
    """Raise TooLarge when an evaluation would hold more than MAX_TERMS
    terms; callers check before they build any per-term array."""
    if count > MAX_TERMS:
        raise TooLarge(f"{what} give {count} terms; one evaluation holds at most {MAX_TERMS}")


def _scaled_text(m: complex, x: int) -> str:
    """|m * 2^x| for a message: as a float when it is one, else as |m| x 2^x."""
    value = abs(complex(_ldexp(m, x)))
    if math.isfinite(value) and (value or not m):
        return f"{value:.3g}"
    return f"{abs(m):.3g} x 2^{x}"


def pfaffian(mat: np.ndarray) -> complex:
    """Pfaffian of a complex antisymmetric matrix, which is left unchanged:
    `_eliminate` of the nonzeros of a copy, with every row in the core.  A
    deferred row leaves only entries at or below SINGULAR_TOL times
    max(max|entry|, 1) to pair it with, and makes the Pfaffian zero.
    Anything but a finite square matrix whose max|a + a^T| is within
    ANTISYMMETRY_TOL of that scale raises InvariantViolation."""
    try:
        a = np.array(mat, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"pfaffian takes a numeric matrix: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantViolation(f"pfaffian takes a square 2-D matrix; got shape {a.shape}")
    mag = np.abs(a)
    if not np.isfinite(mag).all():
        raise InvariantViolation("pfaffian takes finite entries; got inf or nan")
    scale = max(float(mag.max(initial=0.0)), 1.0)
    skew = float(np.abs(a + a.T).max(initial=0.0))
    if skew > ANTISYMMETRY_TOL * scale:
        raise InvariantViolation(
            f"pfaffian takes an antisymmetric matrix; max|a + a^T| is {skew:.3g} against "
            f"max(max|a|, 1) {scale:.3g} (pass (a - a.T) / 2 for its antisymmetric part)")
    n = len(a)
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    pf, x, *_ = _eliminate(_Rows.of(a), n, SINGULAR_TOL)
    return complex(_ldexp(pf, x))


@dataclass
class _Point:
    seg: int
    time: float
    pair: int | None = None  # optional-pair id, None for mandatory insertions


def contraction_matrix(trace: WireTrace, order: list[_Point]) -> _Rows:
    """The antisymmetric matrix W of the contractions G(x, y) of the points,
    from one walk around each loop of `trace` (see the module docstring), as
    its nonzeros (`_Rows`): the pairs of points on one loop, each once.  Row
    r lists the points of its loop before it in `order`, in order, so the
    pairs are enumerated row by row with no sort of them, and the cost is
    the sum over loops of points^2, not N^2.  They are computed in blocks of
    rows of about PAIRS entries, so no array but the result's is as long as
    the list of pairs."""
    if not order:  # bare loops have nothing to contract
        return _Rows(np.zeros(1, dtype=int), np.zeros(0, dtype=int),
                     np.zeros(0, dtype=complex), np.zeros(0, dtype=complex))
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
    n = len(order)
    at = np.argsort(walk)[[p.seg for p in order]]
    t = np.array([p.time for p in order])
    loop, k, e = loop_w[at], k_w[at], np.array(e_walk)[at]
    # prefix[y, j]: spans among the first j of y's loop that hold t_y strictly inside
    prefix = np.zeros((n, lo.shape[1] + 1), dtype=int)
    np.cumsum((lo[loop] < t[:, None]) & (t[:, None] < hi[loop]), axis=1, out=prefix[:, 1:])
    # row r: the points of r's loop before it, which open r's run in the
    # points sorted by (loop, index)
    s = np.argsort(loop, kind="stable")
    rank = np.empty(n, dtype=int)  # each point's place in its loop's run
    rank[s] = np.arange(n) - np.searchsorted(loop[s], loop[s])
    starts = np.zeros(n + 1, dtype=int)
    np.cumsum(rank, out=starts[1:])
    shift = np.empty(n, dtype=int)  # s index of a row's first entry, less the entry's index
    shift[s] = np.arange(n) - rank[s]
    shift -= starts[:-1]
    w = _Rows(starts, np.empty(starts[-1], dtype=int), np.empty(starts[-1], dtype=complex),
              np.empty(starts[-1], dtype=complex))
    phases = np.array([1, 1j, -1, -1j])
    r0 = 0
    while r0 < n:  # rows in blocks of about PAIRS entries, the only pair-sized arrays
        r1 = max(r0 + 1, int(np.searchsorted(starts, starts[r0] + PAIRS, side="right")) - 1)
        block = slice(starts[r0], starts[r1])
        rows = np.repeat(np.arange(r0, r1), rank[r0:r1])
        cols = s[np.arange(block.start, block.stop) + shift[rows]]
        w.cols[block] = cols
        first = t[rows] < t[cols]  # x before y in time
        x, y = np.where(first, rows, cols), np.where(first, cols, rows)
        # a wrap (k[x] > k[y]) also passes all the loop's strands at t_y: an even number
        between = prefix[y, k[y]] - prefix[y, k[x] + 1]
        exit_x = exits[at[x]]
        partial = (np.minimum(t[x], exit_x) < t[y]) & (t[y] < np.maximum(t[x], exit_x))
        power = e[y] - e[x] + (k[x] > k[y]) * np.array(totals)[loop[y]] + 2 * (between + partial)
        g = np.where(at[x] == at[y], 1.0, phases[power % 4])
        negated = 0.0 - g  # W[y, x], as W[x, y] = g
        w.lower[block] = np.where(first, g, negated)
        w.upper[block] = np.where(first, negated, g)
        r0 = r1
    return w


def assemble_frontier(diag: MajoranaDiagram):
    """Sweep a closed diagram into ((amplitude, x), points, pair weights,
    trace): the diagram's amplitude times its element weights and sqrt(2)
    per loop is amplitude * 2^x, renormalised after each factor as in
    `_eliminate`, so it neither overflows nor underflows, and it is the
    plain product wherever that is in float range."""
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")

    trace = WireTrace(diag)
    amplitude, x = _renormalised(complex(diag.amplitude), 0)
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
        else:
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
        if not _LOW <= abs(amplitude) < _HIGH:
            amplitude, x = _renormalised(amplitude, x)

    # in a closed diagram every worldline is a loop; sqrt(2)^2046 = 2^1023
    # is the largest power that is a float, and a mantissa below 1 times it
    # is finite
    loops = len(trace.worldlines())
    while loops:
        step = min(loops, 2046)
        if abs(amplitude) >= 1.0:
            m, s = _split(amplitude)
            amplitude, x = m, x + s
        amplitude, x = _renormalised(amplitude * _SQRT2 ** step, x)
        loops -= step
    return (amplitude, x), points, mus, trace


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
    the contraction matrix W over all points, in [core, groups] order, when
    the diagram is prepared.  W is held as its nonzeros only: the point
    pairs of `contraction_matrix` plus the 1/mu entries of the optional
    pairs (`_Rows.plus_pairs`).  The sign is the parity of the number of core
    points later in time than a selected point, summed over S.  The terms'
    matrices Schur[deferred + S] are gathered into stacks by size, and each
    stack is one `_pfaffians` pass; an odd size is 0.  Without groups every
    point is core: W is eliminated whole, with the zero test SINGULAR_TOL,
    and the one term is Pf(eliminated), or 0 when a row is left over.  Only
    the Schur block is kept.  The amplitude (see `assemble_frontier`) and
    Pf(eliminated) (see `_eliminate`) are each kept as a mantissa and a
    power of two: each value is the amplitude's mantissa times Pf's times
    the term's Pfaffian, scaled by both powers of two last, with ldexp, so a
    value in float range comes back even where the amplitude or
    Pf(eliminated) alone is not, and bit for bit as the plain product
    wherever that is in range.  At most MAX_GROUPS groups (TooLarge): a mask
    is an int64.
    """

    def __init__(self, diag: MajoranaDiagram, groups=()):
        if len(groups) > MAX_GROUPS:
            raise TooLarge(f"{len(groups)} point groups; a term mask holds at most {MAX_GROUPS}")
        (self.amplitude, self._amp_exp), points, mus, trace = assemble_frontier(diag)
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

        pair_rows: dict[int, list[int]] = {}
        for i, p in enumerate(core):
            if p.pair is not None:
                pair_rows.setdefault(p.pair, []).append(i)
        for i, j in pair_rows.values():
            if j - i != 1:
                raise NumericalInstability("optional pair separated in the point order")

        core_times = [p.time for p in core]
        later = [len(core) - bisect.bisect(core_times, p.time) for p in extras]
        self._flips = np.array([sum(later[i] for i in group) for group in self._groups], dtype=int)
        self._group_of = np.array([g for g, group in enumerate(self._groups) for _ in group],
                                  dtype=int)
        self._points = len(core) + len(extras)
        # without groups the elimination is the whole Pfaffian and a deferral
        # ends it, so the zero test decides; an update past the float range
        # reaches `evaluate` as a non-finite value.  W is built in the call,
        # so that `_eliminate` holds the only reference to its nonzeros.
        with np.errstate(over="ignore", invalid="ignore"):
            self._pf, pf_exp, self._eliminated, self._schur, self._largest = _eliminate(
                contraction_matrix(trace, core + extras).plus_pairs(
                    np.array([i for i, _ in pair_rows.values()], dtype=int),
                    np.array([1.0 / mus[pair_id] for pair_id in pair_rows], dtype=complex)),
                len(core), DEFER_TOL if extras else SINGULAR_TOL)
        self._exp = self._amp_exp + pf_exp  # applied last, to amplitude * term
        self._deferred = len(core) - self._eliminated

    def evaluate(self, masks) -> np.ndarray:
        """The values of the terms whose groups the masks select (bit g of
        a mask selects group g), as a complex array in mask order.  A value
        depends only on its own mask, bit for bit, whatever masks come with
        it; a non-finite one raises NumericalInstability."""
        masks = np.asarray(masks, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _ldexp(self.amplitude * self._terms(masks), self._exp)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            if self._groups:
                d = self._deferred
                points = np.flatnonzero(masks[bad[0]] >> self._group_of & 1)
                rows = np.concatenate([np.arange(d), d + points])
                sub = self._schur[np.ix_(rows, rows)]
                size, largest = len(sub), float(np.max(np.abs(sub), initial=0.0))
                after = (f", after eliminating {self._eliminated} of {self._points} points "
                         f"(their Pfaffian {self._pf_text()})")
            else:  # the whole matrix, eliminated when prepared: its entries from before
                size, largest = self._points, self._largest
                after = f" (the Pfaffian {self._pf_text()})"
            raise NumericalInstability(
                f"non-finite value from a {size} x {size} Pfaffian with largest |entry| "
                f"{largest:.3g} and amplitude {_scaled_text(self.amplitude, self._amp_exp)}"
                f"{after}"
            )
        return values

    def _pf_text(self) -> str:
        """|Pf(eliminated)| (see `_scaled_text`)."""
        return _scaled_text(self._pf, self._exp - self._amp_exp)

    def _terms(self, masks: np.ndarray) -> np.ndarray:
        """phase * Pf(eliminated) * Pf(Schur[deferred + S]) of each mask, the
        small Pfaffians gathered into stacks by size."""
        if not self._groups:  # S is empty; at most one row, an odd one, is left
            return np.full(len(masks), self._pf * (0.0 if self._deferred else 1.0))
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
