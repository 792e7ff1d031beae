"""Worldline tracing for Majorana diagrams.

Strand positions are ephemeral (caps and cups shift them); most structural
reasoning needs the worldline a position belongs to.  Braids and scatterings
are treated as position-preserving here: any worldline they touch is recorded
as "touched", which is all the quietness predicates (boundary tracking,
string-genus loops) ever ask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Element, MajoranaDiagram

LEFT = 0
RIGHT = 1


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
