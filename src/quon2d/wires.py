"""Worldline tracing for Majorana diagrams.

Strand positions are ephemeral (caps and cups shift them); most structural
reasoning needs the worldline a position belongs to.  Braids and scatterings
are treated as position-preserving here: any worldline they touch is recorded
as "touched", which is all the quietness predicates (boundary tracking,
string-genus loops) ever ask.

`projection_eigenvalues` follows the Majorana monomial of a projection
through the elements instead, with its exact phase, to find the projections
a diagram already enforces (+1) or annihilates (-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagram import Element, MajoranaDiagram, offset_elements

LEFT = 0
RIGHT = 1

TOP = "top"  # the sides of an open interval
BOTTOM = "bottom"


@dataclass
class Turn:
    kind: str  # "cap" | "cup"
    elem_index: int
    arms: tuple[int, int]  # (left segment, right segment)

    def other(self, sid: int) -> int:
        a, b = self.arms
        return b if sid == a else a

    def side_of(self, sid: int) -> int:
        return LEFT if self.arms[0] == sid else RIGHT


@dataclass
class Segment:
    sid: int
    birth_turn: int | None = None  # turn id, None when entering at the top
    death_turn: int | None = None  # turn id, None when leaving at the bottom
    top_position: int | None = None
    bottom_position: int | None = None
    touches: list[tuple[int, Element]] = field(default_factory=list)


class WireTrace:
    """Segments, turns, and per-slice position maps of a diagram."""

    def __init__(self, diag: MajoranaDiagram):
        self.diagram = diag
        self.segments: list[Segment] = []
        self.turns: list[Turn] = []
        # slices[t] = tuple of segment ids at the slice before element t
        self.slices: list[tuple[int, ...]] = []
        self._worldlines: list[list[int]] | None = None

        cur: list[int] = []
        for pos in range(diag.width_in):
            cur.append(self._new_segment(top_position=pos))
        self.slices.append(tuple(cur))

        for t, el in enumerate(diag.elements):
            grown = el.width_delta
            if grown > 0:  # a cap
                a = self._new_segment()
                b = self._new_segment()
                tid = len(self.turns)
                self.turns.append(Turn("cap", t, (a, b)))
                self.segments[a].birth_turn = tid
                self.segments[b].birth_turn = tid
                cur[el.j:el.j] = [a, b]
            elif grown < 0:  # a cup
                a, b = cur[el.j], cur[el.j + 1]
                tid = len(self.turns)
                self.turns.append(Turn("cup", t, (a, b)))
                for sid in (a, b):
                    self.segments[sid].death_turn = tid
                del cur[el.j:el.j + 2]
            else:
                for p in el.positions():
                    self.segments[cur[p]].touches.append((t, el))
            self.slices.append(tuple(cur))

        for pos, sid in enumerate(cur):
            self.segments[sid].bottom_position = pos

    def _new_segment(self, top_position: int | None = None) -> int:
        sid = len(self.segments)
        self.segments.append(Segment(sid, top_position=top_position))
        return sid

    # -- worldlines ------------------------------------------------------

    def worldlines(self) -> list[list[int]]:
        """Connected components of segments linked through turns."""
        if self._worldlines is None:
            self._worldlines = self._components()
        return self._worldlines

    def worldline_labels(self) -> list[int]:
        """labels[sid] is the index in worldlines() of segment sid's worldline."""
        labels = [0] * len(self.segments)
        for li, group in enumerate(self.worldlines()):
            for sid in group:
                labels[sid] = li
        return labels

    def _components(self) -> list[list[int]]:
        parent = list(range(len(self.segments)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for turn in self.turns:
            a, b = (find(s) for s in turn.arms)
            if a != b:
                parent[a] = b
        groups: dict[int, list[int]] = {}
        for s in range(len(self.segments)):
            groups.setdefault(find(s), []).append(s)
        return list(groups.values())

    def is_closed_worldline(self, group: list[int]) -> bool:
        return all(
            self.segments[s].top_position is None
            and self.segments[s].bottom_position is None
            for s in group
        )

    def is_quiet(self, group: list[int]) -> bool:
        """No dots, braids, or scatterings touch any segment of the worldline."""
        return all(not self.segments[s].touches for s in group)

    def closed_quiet_loops(self) -> list[list[int]]:
        return [
            g
            for g in self.worldlines()
            if self.is_closed_worldline(g) and self.is_quiet(g)
        ]


# -- redundant projections ----------------------------------------------------


def _across(el, strands: set, forward: bool):
    """The monomial i^k g_S (S = `strands`, ascending) moved across `el`:
    (S', dk) with g_S el = i^dk el g_S' when pushed backward (g_S after el),
    el g_S = i^dk g_S' el when pushed forward; None when el maps it to no
    monomial.  A cap pushed backward or a cup pushed forward meets the
    monomial with both arms: their pair leaves it as the scalar -i, since
    the turn is a +1 eigenvector of i g_j g_{j+1}.  Any other element is
    a + b*M (`diagram`'s convention); g_S (|S| even) commutes with M when S
    holds an even number of M's strands and anticommutes otherwise."""
    grown = el.width_delta
    if grown:
        j = el.j
        if (grown > 0) == forward:  # the turn opens two strands in the push's direction
            return {p + 2 if p >= j else p for p in strands}, 0
        arms = (j in strands) + (j + 1 in strands)
        if arms == 1:
            return None
        return {p - 2 if p > j + 1 else p for p in strands if p - j not in (0, 1)}, 3 if arms else 0
    positions = el.positions()
    if len(strands.intersection(positions)) % 2 == 0:  # g_S commutes with M
        return strands, 0
    a, b = el.weights()
    if b == 0:
        return strands, 0
    if a == 0:  # g_S anticommutes with b*M
        return strands, 2
    if b not in (1j * a, -1j * a):
        return None
    # a braid, a (1 -+ g_j g_{j+1}) for b = +-i a, maps g_j to +-g_{j+1}
    # forward and g_{j+1} to -+g_j; backward the signs swap
    sign = (b == 1j * a) == ((positions[0] in strands) == forward)
    return strands ^ set(positions), 0 if sign else 2


def _closure(intervals, side: str):
    """The elements of the all-zero basis encoders of the intervals on
    `side`, as `quon.encode_basis` places them: kets above the top, left
    interval first, and bras below the bottom, left interval first."""
    ordered = sorted((iv for iv in intervals if iv.side == side), key=lambda iv: iv.start)
    if side == TOP:
        return tuple(el for iv in ordered
                     for el in offset_elements(iv.pairing_data.elements, iv.start))
    return tuple(el.dagger() for iv in ordered for el in reversed(iv.pairing_data.elements))


def _eigenvalue(q, index: int, cut, at: dict, forward: bool) -> int | None:
    """The eigenvalue, +1 or -1, that the push of `cut`, projection `index`
    of q (holes, then notches), in one direction shows P to take, as i^k g_S
    with S empty; None where the push stops first.  Every step keeps
    P D = i^k D g_S (backward) or D P = i^k g_S D (forward) for the part D
    of the diagram it crossed; other projections are crossed when they
    commute with g_S (an even overlap)."""
    strands, k = set(cut.strands), len(cut.strands) // 2  # P = i^(|S|/2) g_S
    els = q.core.elements
    t = cut.time_index
    steps = range(t, len(els)) if forward else range(t - 1, -1, -1)
    for other, others in at.get(t, ()):
        if other != index and len(strands.intersection(others)) % 2:
            return None
    for e in steps:
        moved = _across(els[e], strands, forward)
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
    closure = _closure(q.open_intervals, side)
    for el in closure if forward else reversed(closure):
        moved = _across(el, strands, forward)
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
    ahead = len(q.core.elements) / 2  # push the shorter way first
    found = {index: _eigenvalue(q, index, cut, at, cut.time_index > ahead)
             or _eigenvalue(q, index, cut, at, cut.time_index <= ahead)
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
