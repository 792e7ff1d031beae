"""Worldline tracing for Majorana diagrams.

Strand positions are ephemeral (caps and cups shift them); most structural
reasoning needs the worldline a position belongs to.  Braids and scatterings
are treated as position-preserving here: a segment counts the elements that
touch it, which is all the quietness predicates (boundary tracking,
string-genus loops) ever ask.  A trace is read from the diagram's columns
(`diagram.Columns`, the one form a diagram stores), one step per element,
and held as flat per-segment and per-turn lists; its worldlines are walked
once (`Walk`): the walk gives the worldline groups and, on a closed loop,
the phases and exit boundaries from which `gaussian.contraction_matrix`
reads its contractions.

`projection_eigenvalues` follows the Majorana monomial of a projection
through the same columns, row by row, with its exact phase, to find the
projections a diagram already enforces (+1) or annihilates (-1); at an open
boundary it crosses the all-zero encoders as `quon.encoder_closure` builds
them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .diagram import WIDTH_DELTA, Columns, MajoranaDiagram, row_weights

TOP = "top"  # the sides of an open interval
BOTTOM = "bottom"


class Walk(NamedTuple):
    """Every worldline of a trace walked once, in order of its smallest
    segment id: a closed loop from that segment out through its birth turn,
    an open worldline from one of its ends; each segment is left through the
    turn it did not enter by.  Per walk place: `order` the segment, `phase`
    the exponent e of the phase collected before its exit (a turn adds 1
    from the left arm of a cap or the right arm of a cup, 3 otherwise) and
    `exits` its exit boundary (the turn's slice + 1/4 for a cap, - 1/4 for a
    cup; nan at an open end).  Per worldline: `lengths` its segments and
    `totals` E, its e summed over all of them.  All are lists."""

    order: list[int]
    phase: list[int]
    exits: list[float]
    lengths: list[int]
    totals: list[int]


class WireTrace:
    """Segments, turns, and per-slice position maps of a diagram, as flat
    lists, read from the diagram's columns (`diagram.Columns`) row by row.
    Segment sid has a `birth` turn (-1 when it enters at the top, where
    segment p is the strand at position p), a `death` turn (-1 when it
    leaves at the bottom) and `touches`, the count of dots, braids and
    scatterings on it.  Turn tid is element `turn_elem[tid]`, a cap when
    `turn_cap[tid]`, else a cup, and has the arms `turn_left[tid]`,
    `turn_right[tid]`.  slices[t] is the tuple of segment ids at the slice
    before element t; a slice no turn changes is the same tuple as the one
    before it.  The other elements are `quiet` (their indices, an array),
    with `first` and `last` the segments at their first and last positions
    (`Columns.j`, `Columns.k`)."""

    def __init__(self, diag: MajoranaDiagram):
        self.diagram = diag
        columns = diag.columns
        cur = list(range(diag.width_in))
        birth, death = [-1] * len(cur), [-1] * len(cur)
        self.turn_elem, self.turn_cap, left, right = [], [], [], []
        quiet, first, last = [], [], []
        state = tuple(cur)
        slices = [state]
        for t, (code, j, k) in enumerate(zip(columns.kind, columns.j, columns.k)):
            grown = WIDTH_DELTA[code]
            if not grown:  # the segments at its first and last positions
                quiet.append(t)
                first.append(state[j])
                last.append(state[k])
                slices.append(state)
                continue
            tid = len(left)
            if grown > 0:  # a cap opens the segments a, b; a cup closes the two at j
                a = len(birth)
                b = a + 1
                birth += (tid, tid)
                death += (-1, -1)
                cur[j:j] = (a, b)
            else:
                a, b = cur[j], cur[j + 1]
                death[a] = death[b] = tid
                del cur[j:j + 2]
            self.turn_elem.append(t)
            self.turn_cap.append(grown > 0)
            left.append(a)
            right.append(b)
            state = tuple(cur)
            slices.append(state)
        self.birth, self.death, self.turn_left, self.turn_right = birth, death, left, right
        self.slices: list[tuple[int, ...]] = slices
        self.quiet, self.first, self.last = np.array(quiet, dtype=int), first, last
        touches = [0] * len(birth)
        for sid in first:
            touches[sid] += 1
        for sid, other in zip(last, first):
            if sid != other:
                touches[sid] += 1
        self.touches = touches

    # -- worldlines ------------------------------------------------------

    @functools.cached_property
    def walk(self) -> Walk:
        """The one walk of every worldline (see `Walk`)."""
        birth, death, cap = self.birth, self.death, self.turn_cap
        left, right, elem = self.turn_left, self.turn_right, self.turn_elem
        starts, reached = {}, set()  # an open worldline's smallest id -> its first end
        for end in (*range(self.diagram.width_in), *self.slices[-1]):
            if end in reached:
                continue
            sid = low = end
            tid = birth[sid] if birth[sid] >= 0 else death[sid]
            while tid >= 0:
                sid = right[tid] if left[tid] == sid else left[tid]
                low = min(low, sid)
                tid = death[sid] if birth[sid] == tid else birth[sid]
            reached.add(sid)  # the other end
            starts[low] = end
        seen = [False] * len(birth)
        order, phase, exits, lengths, totals = [], [], [], [], []
        for low in range(len(birth)):
            if seen[low]:
                continue
            sid = start = starts.get(low, low)
            e, first = 0, len(order)
            tid = birth[sid] if birth[sid] >= 0 else death[sid]
            while True:
                seen[sid] = True
                order.append(sid)
                phase.append(e)
                if tid < 0:  # an open end
                    exits.append(math.nan)
                    break
                exits.append(elem[tid] + (0.25 if cap[tid] else -0.25))
                e += 1 if (left[tid] == sid) == cap[tid] else 3
                sid = right[tid] if left[tid] == sid else left[tid]
                if sid == start:
                    break
                tid = death[sid] if birth[sid] == tid else birth[sid]
            lengths.append(len(order) - first)
            totals.append(e)
        return Walk(order, phase, exits, lengths, totals)

    def worldlines(self) -> list[list[int]]:
        """The segment ids of each worldline, in walk order, the worldlines
        in order of their smallest ids."""
        order, stops = self.walk.order, list(itertools.accumulate(self.walk.lengths))
        return [order[a:b] for a, b in zip([0, *stops], stops)]

    def worldline_labels(self) -> list[int]:
        """labels[sid] is the index in worldlines() of segment sid's worldline."""
        labels = [0] * len(self.birth)
        for li, group in enumerate(self.worldlines()):
            for sid in group:
                labels[sid] = li
        return labels

    def closed_quiet_loops(self) -> list[list[int]]:
        """The closed worldlines that no dot, braid or scattering touches."""
        birth, death, touches = self.birth, self.death, self.touches
        return [g for g in self.worldlines()
                if all(birth[s] >= 0 and death[s] >= 0 and not touches[s] for s in g)]


# -- redundant projections ----------------------------------------------------


def _across(c: Columns, e: int, strands: set, forward: bool):
    """The monomial i^k g_S (S = `strands`, ascending) moved across element
    e of the columns c: (S', dk) with g_S el = i^dk el g_S' when pushed
    backward (g_S after el), el g_S = i^dk g_S' el when pushed forward;
    None when el maps it to no monomial.  A cap pushed backward or a cup
    pushed forward meets the monomial with both arms: their pair leaves it
    as the scalar -i, since the turn is a +1 eigenvector of i g_j g_{j+1}.
    Any other element is a + b*M (`diagram`'s convention); g_S (|S| even)
    commutes with M when S holds an even number of M's strands and
    anticommutes otherwise."""
    kind, j, k = c.kind[e], c.j[e], c.k[e]
    grown = WIDTH_DELTA[kind]
    if grown:
        if (grown > 0) == forward:  # the turn opens two strands in the push's direction
            return {p + 2 if p >= j else p for p in strands}, 0
        arms = (j in strands) + (j + 1 in strands)
        if arms == 1:
            return None
        return {p - 2 if p > j + 1 else p for p in strands if p - j not in (0, 1)}, 3 if arms else 0
    positions = (j,) if j == k else (j, k)
    if len(strands.intersection(positions)) % 2 == 0:  # g_S commutes with M
        return strands, 0
    a, b = row_weights(kind, c.angle[e], c.horizontal[e])
    if b == 0:
        return strands, 0
    if a == 0:  # g_S anticommutes with b*M
        return strands, 2
    if b not in (1j * a, -1j * a):
        return None
    # a braid, a (1 -+ g_j g_{j+1}) for b = +-i a, maps g_j to +-g_{j+1}
    # forward and g_{j+1} to -+g_j; backward the signs swap
    sign = (b == 1j * a) == ((j in strands) == forward)
    return strands ^ set(positions), 0 if sign else 2


def _eigenvalue(q, index: int, cut, at: dict, forward: bool, closure) -> int | None:
    """The eigenvalue, +1 or -1, that the push of `cut`, projection `index`
    of q (holes, then notches), in one direction shows P to take, as i^k g_S
    with S empty; None where the push stops first; closure(side) gives the
    rows of that side's all-zero encoders.  Every step keeps
    P D = i^k D g_S (backward) or D P = i^k g_S D (forward) for the part D
    of the diagram it crossed; other projections are crossed when they
    commute with g_S (an even overlap)."""
    strands, k = set(cut.strands), len(cut.strands) // 2  # P = i^(|S|/2) g_S
    c = q.core.columns
    t = cut.time_index
    steps = range(t, len(q.core)) if forward else range(t - 1, -1, -1)
    for other, others in at.get(t, ()):
        if other != index and len(strands.intersection(others)) % 2:
            return None
    for e in steps:
        moved = _across(c, e, strands, forward)
        if moved is None:
            return None
        strands, dk = moved
        k += dk
        if not strands:  # k is even: |S|/2, plus 3 at each of |S|/2 turns, plus signs
            return 1 - k % 4  # i^k
        for _, others in at.get(e + 1 if forward else e, ()):
            if len(strands.intersection(others)) % 2:
                return None
    # an open boundary: g_S is then a product of whole intervals' parities,
    # which every basis encoder fixes (its dots are even on each interval),
    # or it is not fixed; the all-zero encoders give the eigenvalue
    side = BOTTOM if forward else TOP
    for iv in q.open_intervals:
        if iv.side == side and len(strands.intersection(iv.strands)) not in (0, iv.size):
            return None
    rows = closure(side)
    n = len(rows.kind)
    for e in range(n) if forward else range(n - 1, -1, -1):
        moved = _across(rows, e, strands, forward)
        if moved is None:
            return None
        strands, dk = moved
        k += dk
    return None if strands else 1 - k % 4


def projection_eigenvalues(q) -> dict[int, int]:
    """The eigenvalue, +1 or -1, that the Quon diagram q fixes for the
    parity string P = i^(n/2) g_{s1} ... g_{sn} of a projection on n
    strands, by index into its holes, then its notches; an unfixed P has
    none.  P is pushed backward to the top or forward to the bottom element
    by element (Heisenberg picture, in Majorana form: Bravyi & Kitaev,
    quant-ph/0003137) until it is a scalar: it empties at turns whose both
    arms it holds, or reaches an open boundary as a product of whole
    intervals' parities, whose eigenvalue is the same on every basis
    encoder.  It passes each element as `_across` says and the other
    projections it commutes with, crossed but never used, so each eigenvalue
    holds without them."""
    projections = q.parity_cuts + q.notches
    at: dict[int, list] = {}  # slice -> (index, strands) of its projections
    for index, cut in enumerate(projections):
        at.setdefault(cut.time_index, []).append((index, cut.strands))
    from .quon import encoder_closure  # quon imports this module

    zeros = [(0,) * iv.qubit_count for iv in q.open_intervals]
    closure = functools.cache(lambda side: encoder_closure(q.open_intervals, zeros, side)[0])
    ahead = len(q.core) / 2  # push the shorter way first
    found = {index: _eigenvalue(q, index, cut, at, cut.time_index > ahead, closure)
             or _eigenvalue(q, index, cut, at, cut.time_index <= ahead, closure)
             for index, cut in enumerate(projections)}
    return {index: value for index, value in found.items() if value}


def redundant_projections(q) -> frozenset[int]:
    """The projections whose P q fixes to +1 (`projection_eigenvalues`): q
    keeps its value, or every basis component, without them, or any of them."""
    return frozenset(index for index, value in projection_eigenvalues(q).items() if value == 1)


def prune_projections(q):
    """q without `redundant_projections(q)`, q itself when there are none,
    and None when q fixes a P to -1: its projection (1 + P)/2 is then 0,
    and so is the value, or every basis component, of q."""
    values = projection_eigenvalues(q)
    if -1 in values.values():
        return None
    if not values:
        return q
    holes = len(q.parity_cuts)
    return replace(q, parity_cuts=tuple(c for k, c in enumerate(q.parity_cuts) if k not in values),
                   notches=tuple(c for k, c in enumerate(q.notches, holes) if k not in values))
