"""Quon diagrams: Majorana diagrams embedded in a background manifold.

The manifold is kept abstract: a list of parity cuts (one per hole, each a
fermion-parity-even projection (1 + P)/2 on a strand subset at a time slice)
plus open boundary intervals where strands terminate, carrying the pairing
data of Appendix-style basis encoders.  Closed-Quon evaluation expands the
2^{n_h} cut subsets into plain Majorana diagrams; the string-genus and
SWAP-hole relations edit the manifold syntactically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import diagram as dg
from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    dagger,
    offset_elements,
)
from .errors import (
    BitLengthMismatch,
    HasOpenIntervals,
    InvalidRegion,
    InvariantViolation,
    NoEnclosingLoop,
    PatternMismatch,
    WidthMismatch,
)
from .fock import evaluate_closed_oracle
from .gaussian import evaluate_closed_fast
from .wires import WireTrace

TOP = "top"
BOTTOM = "bottom"

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ParityCut:
    """A hole: the projection (1 + P)/2 on `strands` at slice `time_index`."""

    time_index: int
    strands: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "strands", tuple(sorted(self.strands)))
        if len(self.strands) % 2:
            raise InvariantViolation(f"parity cut needs an even strand set, got {self.strands}")


def nested_pairing(size: int) -> MajoranaDiagram:
    """Default pairing data: nested caps pairing strands (0, size-1), (1, size-2), ..."""
    if size < 2 or size % 2:
        raise InvariantViolation(f"interval size must be even and >= 2, got {size}")
    return MajoranaDiagram(0, size, tuple(Cap(k) for k in range(size // 2)))


@dataclass(frozen=True)
class OpenInterval:
    """A boundary group of 2 + 2p strands where the diagram stays open.

    `pairing_data` is a dot-free ket-form diagram (width 0 -> size) recording
    how the interval's strands pair; encoders close the interval with its
    dagger plus bit-dependent dots.
    """

    side: str
    start: int
    size: int
    pairing_data: MajoranaDiagram | None = None

    def __post_init__(self):
        if self.side not in (TOP, BOTTOM):
            raise InvariantViolation(f"interval side {self.side!r}")
        if self.size < 2 or self.size % 2:
            raise InvariantViolation(f"interval size {self.size} not an even integer >= 2")
        if self.pairing_data is None:
            object.__setattr__(self, "pairing_data", nested_pairing(self.size))
        pd = self.pairing_data
        if pd.width_in != 0 or pd.width_out != self.size:
            raise InvariantViolation("pairing data must map width 0 to the interval size")
        if pd.dot_count():
            raise InvariantViolation("pairing data must be dot-free")

    @property
    def qubit_count(self) -> int:
        return (self.size - 2) // 2

    @property
    def strands(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.size))

    def pairs(self) -> list[tuple[int, int]]:
        """Strand pairs (local indices) read off the pairing data, ordered by
        leftmost member."""
        trace = WireTrace(self.pairing_data)
        label = {}
        for li, group in enumerate(trace.worldlines()):
            for sid in group:
                label[sid] = li
        groups: dict[int, list[int]] = {}
        for pos, sid in enumerate(trace.slices[-1]):
            groups.setdefault(label[sid], []).append(pos)
        pairs = []
        for members in groups.values():
            if len(members) != 2:
                raise InvariantViolation("pairing data does not close strands pairwise")
            pairs.append((min(members), max(members)))
        return sorted(pairs)


@dataclass(frozen=True)
class BasisAssignment:
    """Per-interval bit vectors, in the interval order used by QuonDiagram."""

    bits: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(*bit_groups) -> "BasisAssignment":
        return BasisAssignment(tuple(tuple(int(b) for b in g) for g in bit_groups))


@dataclass(frozen=True)
class QuonDiagram:
    """Majorana core + manifold data.

    parity_cuts are the genuine holes (they set count_holes and the
    classification); notches are the automatically imposed boundary
    projections from gate/mouth gluings - same (1+P)/2 semantics in the
    evaluator, but not holes of the manifold.
    """

    core: MajoranaDiagram
    parity_cuts: tuple[ParityCut, ...] = ()
    open_intervals: tuple[OpenInterval, ...] = ()
    boundary_tracking: frozenset = frozenset()  # anchors (slice, position)
    notches: tuple[ParityCut, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parity_cuts", tuple(self.parity_cuts))
        object.__setattr__(self, "notches", tuple(self.notches))
        object.__setattr__(self, "open_intervals", tuple(self.open_intervals))
        object.__setattr__(self, "boundary_tracking", frozenset(self.boundary_tracking))
        widths = self.core.widths()
        for cut in self.parity_cuts + self.notches:
            if not 0 <= cut.time_index <= len(self.core.elements):
                raise InvariantViolation(f"cut time {cut.time_index} out of range")
            w = widths[cut.time_index]
            if any(not 0 <= s < w for s in cut.strands):
                raise InvariantViolation(
                    f"cut strands {cut.strands} not alive at slice {cut.time_index} (width {w})"
                )
        for side, width in ((TOP, self.core.width_in), (BOTTOM, self.core.width_out)):
            ivs = sorted(
                (iv for iv in self.open_intervals if iv.side == side),
                key=lambda iv: iv.start,
            )
            covered = []
            for iv in ivs:
                covered.extend(iv.strands)
            if covered != list(range(width)):
                raise InvariantViolation(
                    f"{side} intervals {covered} do not partition strands 0..{width - 1}"
                )

    @property
    def is_closed(self) -> bool:
        return not self.open_intervals

    def hole_count(self) -> int:
        return len(self.parity_cuts)

    def scaled(self, factor: complex) -> "QuonDiagram":
        return replace(self, core=self.core.scaled(factor))

    @staticmethod
    def closed(core: MajoranaDiagram, cuts=()) -> "QuonDiagram":
        return QuonDiagram(core, tuple(cuts))


def count_holes(q: QuonDiagram) -> int:
    return q.hole_count()


# -- hole expansion evaluation --------------------------------------------


def parity_string_elements(strands: tuple[int, ...]):
    """The global-parity dot string on `strands`: simultaneous dots paired
    left to right."""
    out = []
    ordered = sorted(strands)
    for a, b in zip(ordered[::2], ordered[1::2]):
        out.append(DotPair(a, b))
    return tuple(out)


def all_projections(q: QuonDiagram) -> tuple[ParityCut, ...]:
    return q.parity_cuts + q.notches


def expanded_core(q: QuonDiagram, subset: int) -> MajoranaDiagram:
    """The core with parity strings inserted at the projections selected by
    `subset` (holes first, then notches)."""
    inserts: dict[int, list] = {}
    for bit, cut in enumerate(all_projections(q)):
        if subset >> bit & 1:
            inserts.setdefault(cut.time_index, []).extend(parity_string_elements(cut.strands))
    if not inserts:
        return q.core
    els = []
    for t in range(len(q.core.elements) + 1):
        els.extend(inserts.get(t, ()))
        if t < len(q.core.elements):
            els.append(q.core.elements[t])
    return q.core.with_elements(els)


def evaluate_closed_quon(q: QuonDiagram, use_oracle: bool = False) -> complex:
    """(1/2)^{n_h} sum over cut subsets of the expanded Majorana diagrams.

    Each term is evaluated by the Gaussian evaluator (assembled once, the
    parity strings re-inserted per subset); `use_oracle` switches every term
    to the Fock oracle instead.
    """
    if q.open_intervals:
        raise HasOpenIntervals(f"{len(q.open_intervals)} open intervals remain")
    cuts = all_projections(q)
    n = len(cuts)
    if use_oracle:
        terms = [evaluate_closed_oracle(expanded_core(q, s)) for s in range(1 << n)]
    else:
        from .gaussian import PreparedDiagram

        prepared = PreparedDiagram(q.core)
        terms = [
            prepared.evaluate(
                [
                    (cut.time_index, cut.strands)
                    for bit, cut in enumerate(cuts)
                    if subset >> bit & 1
                ]
            )
            for subset in range(1 << n)
        ]
    # exactly-rounded summation: the result is independent of term order
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total * (0.5 ** n)


# -- basis encoders --------------------------------------------------------


def encoder_ket(interval: OpenInterval, bits) -> MajoranaDiagram:
    """Ket-form encoder |b> for one interval: pairing data, bit-dependent
    simultaneous dots on the rightmost member of each inner pair (plus the
    outer pair when the bit total is odd), normalized so <b|b'> = delta.

    The normalization 2^{-(p+1)/4} makes the p+1 pairing loops of <b|b>
    evaluate to one (1/sqrt2 in the one-qubit case).
    """
    bits = tuple(int(b) for b in bits)
    if len(bits) != interval.qubit_count:
        raise BitLengthMismatch(
            f"{len(bits)} bits for a {interval.qubit_count}-qubit interval"
        )
    pairs = interval.pairs()
    elements = list(interval.pairing_data.elements)
    dot_strands = []
    b_tot = sum(bits)
    for i, b in enumerate(bits):
        if b:
            dot_strands.append(pairs[i + 1][1])
    if b_tot % 2:
        dot_strands.append(pairs[0][1])
    if dot_strands:
        elements.extend(parity_string_elements(tuple(sorted(dot_strands))))
    amp = interval.pairing_data.amplitude * 2.0 ** (-(interval.qubit_count + 1) / 4)
    return MajoranaDiagram(0, interval.size, tuple(elements), amp)


def encode_basis(q: QuonDiagram, assignment: BasisAssignment) -> QuonDiagram:
    """Close every open interval with its basis encoder; returns a closed Quon
    diagram.  A top interval is fed the ket encoder |b> from above; a bottom
    interval is capped by the bra <b| (the encoder's dagger), so components
    read <bits_bottom| D |bits_top>.

    Intervals are processed left to right, top before bottom.
    """
    if len(assignment.bits) != len(q.open_intervals):
        raise BitLengthMismatch(
            f"{len(assignment.bits)} bit groups for {len(q.open_intervals)} intervals"
        )
    order = sorted(
        range(len(q.open_intervals)),
        key=lambda i: (q.open_intervals[i].side != TOP, q.open_intervals[i].start),
    )
    top = [i for i in order if q.open_intervals[i].side == TOP]
    bottom = [i for i in order if q.open_intervals[i].side == BOTTOM]

    top_closure = MajoranaDiagram.empty()
    for i in top:
        ket = encoder_ket(q.open_intervals[i], assignment.bits[i])
        top_closure = dg.tensor_product(top_closure, ket)
    bottom_closure = MajoranaDiagram.empty()
    for i in bottom:
        bra = dagger(encoder_ket(q.open_intervals[i], assignment.bits[i]))
        bottom_closure = dg.tensor_product(bottom_closure, bra)

    if top_closure.width_out != q.core.width_in:
        raise WidthMismatch("top encoders do not cover the top boundary")
    if bottom_closure.width_in != q.core.width_out:
        raise WidthMismatch("bottom encoders do not cover the bottom boundary")
    core = dg.compose(dg.compose(top_closure, q.core), bottom_closure)
    shift = len(top_closure.elements)
    cuts = tuple(
        ParityCut(c.time_index + shift, c.strands) for c in q.parity_cuts
    )
    notches = tuple(
        ParityCut(c.time_index + shift, c.strands) for c in q.notches
    )
    return QuonDiagram(core, cuts, notches=notches)


# -- manifold rewrites -----------------------------------------------------


def _quiet_loop_of_cut(q: QuonDiagram, cut: ParityCut):
    """Find a closed quiet worldline enclosing the cut: exactly one of the
    cut's strands lies on the loop at the cut's slice and the rest sit on one
    side of it.  Returns (loop segment ids, its elements' indices)."""
    trace = WireTrace(q.core)
    slice_now = trace.slices[cut.time_index]
    cut_segs = [slice_now[s] for s in cut.strands]
    other_cut_strands = set()
    for c in q.parity_cuts + q.notches:
        if c is not cut:
            other_cut_strands.update(
                trace.slices[c.time_index][s] for s in c.strands
            )
    for group in trace.closed_quiet_loops():
        group_set = set(group)
        if group_set & other_cut_strands:
            continue
        on_loop = [s for s in cut.strands if slice_now[s] in group_set]
        if len(on_loop) != 1:
            continue
        loop_positions = [p for p, sid in enumerate(slice_now) if sid in group_set]
        rest = [s for s in cut.strands if s != on_loop[0]]
        lo, hi = min(loop_positions), max(loop_positions)
        if all(s < lo for s in rest) or all(s > hi for s in rest):
            elem_indices = sorted(
                {trace.turns[trace.segments[sid].birth_turn].elem_index for sid in group}
                | {trace.turns[trace.segments[sid].death_turn].elem_index for sid in group}
            )
            return group, elem_indices
    return None


def _delete_worldline(core: MajoranaDiagram, trace: WireTrace, group: list[int],
                      elem_indices: set[int], cuts: tuple[ParityCut, ...]):
    """Remove a quiet worldline (its caps/cups) from the diagram, re-indexing
    every kept element's positions and the cut data."""
    removed = set(group)
    for i in elem_indices:
        if not isinstance(core.elements[i], (Cap, Cup)):
            raise PatternMismatch("only caps and cups can be deleted with a loop")

    def new_position(t: int, p: int) -> int:
        return sum(1 for sid in trace.slices[t][:p] if sid not in removed)

    new_els = []
    for t, el in enumerate(core.elements):
        if t in elem_indices:
            continue
        if isinstance(el, Cap):
            new_els.append(Cap(new_position(t + 1, el.j)))
        elif isinstance(el, Cup):
            new_els.append(Cup(new_position(t, el.j)))
        else:
            positions = sorted(new_position(t, p) for p in _element_positions(el))
            new_els.append(_reposition(el, positions))
    out_cuts = []
    for cut in cuts:
        kept = [s for s in cut.strands if trace.slices[cut.time_index][s] not in removed]
        new_strands = tuple(new_position(cut.time_index, s) for s in kept)
        new_time = sum(1 for i in range(cut.time_index) if i not in elem_indices)
        out_cuts.append(ParityCut(new_time, new_strands))
    new_core = MajoranaDiagram(core.width_in, core.width_out, tuple(new_els),
                               core.amplitude)
    return new_core, tuple(out_cuts)


def _element_positions(el) -> list[int]:
    if isinstance(el, Dot):
        return [el.j]
    if isinstance(el, DotPair):
        return [el.j, el.k]
    return [el.j, el.j + 1]


def _reposition(el, positions):
    lo = positions[0]
    if isinstance(el, Dot):
        return Dot(lo)
    if isinstance(el, DotPair):
        return DotPair(lo, positions[1])
    return dg._offset_element(el, lo - el.j)


def string_genus(q: QuonDiagram, hole_id: int, direction: str = "remove",
                 region: tuple[int, int] | None = None) -> QuonDiagram:
    """Remove a hole with its enclosing isolated loop (amplitude x 1/sqrt2),
    or insert a fresh string-hole pair (amplitude x sqrt2).

    For `insert`, `region` is (time_index, position): a fresh loop is created
    at that slice and the new cut takes the strands left of it plus the
    loop's left strand; `position` must leave an even cut.
    """
    if direction == "remove":
        if not 0 <= hole_id < len(q.parity_cuts):
            raise NoEnclosingLoop(f"no hole {hole_id}")
        cut = q.parity_cuts[hole_id]
        found = _quiet_loop_of_cut(q, cut)
        if found is None:
            raise NoEnclosingLoop(f"hole {hole_id} has no isolated enclosing loop")
        group, elem_indices = found
        cuts = tuple(c for k, c in enumerate(q.parity_cuts) if k != hole_id)
        n_holes = len(cuts)
        new_core, new_all = _delete_worldline(
            q.core, WireTrace(q.core), group, set(elem_indices), cuts + q.notches
        )
        new_core = new_core.scaled(1 / _SQRT2)
        return replace(q, core=new_core, parity_cuts=new_all[:n_holes],
                       notches=new_all[n_holes:])

    if direction != "insert":
        raise ValueError(f"direction {direction!r}")
    if region is None:
        raise InvalidRegion("insert needs a (time_index, position) region")
    t, p = region
    widths = q.core.widths()
    if not 0 <= t <= len(q.core.elements) or not 0 <= p <= widths[t]:
        raise InvalidRegion(f"region {region} outside the diagram")
    if (p + 1) % 2:
        raise InvalidRegion("position must leave an even cut (odd strand count left of the loop)")
    els = (
        q.core.elements[:t]
        + (Cap(p), Cup(p))
        + q.core.elements[t:]
    )
    core = q.core.with_elements(els).scaled(_SQRT2)

    def shifted(cut):
        # the inserted loop has closed again before any later slice
        if cut.time_index <= t:
            return cut
        return ParityCut(cut.time_index + 2, cut.strands)

    new_cuts = tuple(shifted(c) for c in q.parity_cuts)
    new_notches = tuple(shifted(c) for c in q.notches)
    inserted = ParityCut(t + 1, tuple(range(p)) + (p,))
    return replace(q, core=core, parity_cuts=new_cuts + (inserted,),
                   notches=new_notches)


def swap_hole_remove(q: QuonDiagram, hole_id: int) -> QuonDiagram:
    """Delete a cut adjacent to a SWAP crossing (two strand bundles fully
    crossing through braids); the amplitude is unchanged."""
    if not 0 <= hole_id < len(q.parity_cuts):
        raise PatternMismatch(f"no hole {hole_id}")
    cut = q.parity_cuts[hole_id]
    if not _touches_swap_pattern(q.core, cut):
        raise PatternMismatch(f"hole {hole_id} is not adjacent to a SWAP crossing")
    cuts = tuple(c for k, c in enumerate(q.parity_cuts) if k != hole_id)
    return replace(q, parity_cuts=cuts)


def _touches_swap_pattern(core: MajoranaDiagram, cut: ParityCut) -> bool:
    """A maximal braid block starting or ending at the cut's slice whose
    braids realize a full crossing of two bundles covering the cut strands."""
    for start, step in ((cut.time_index, +1), (cut.time_index - 1, -1)):
        positions = []
        t = start
        while 0 <= t < len(core.elements) and isinstance(
            core.elements[t], (BraidPos, BraidNeg)
        ):
            positions.append(core.elements[t].j)
            t += step
        if not positions:
            continue
        touched = set()
        for j in positions:
            touched.update((j, j + 1))
        n_m = len(touched)
        if n_m < 4 or n_m % 2:
            continue
        lo = min(touched)
        if touched != set(range(lo, lo + n_m)):
            continue
        # a full crossing of an n-bundle over an m-bundle uses n*m braids
        sizes = [(n, n_m - n) for n in range(2, n_m - 1, 2)]
        if not any(len(positions) == n * m for n, m in sizes):
            continue
        cut_set = set(cut.strands)
        if cut_set and cut_set <= touched:
            return True
        if not cut_set:
            return True
    return False


# -- cut normalization ------------------------------------------------------


def normalize_cuts(q: QuonDiagram) -> QuonDiagram:
    """Drop cuts whose projection is trivially satisfied.

    Conservative: deletes only cuts with an empty strand set, and cuts whose
    strands lie on worldlines never touched by dots or parity-odd insertions
    anywhere in the diagram (so the parity on them is identically even).
    """
    trace = WireTrace(q.core)
    dotted_lines = set()
    lines = trace.worldlines()
    label = {}
    for li, group in enumerate(lines):
        for sid in group:
            label[sid] = li
    for li, group in enumerate(lines):
        for sid in group:
            for _, el in trace.segments[sid].touches:
                if isinstance(el, (Dot, DotPair)):
                    dotted_lines.add(li)
                elif not isinstance(el, (Cap, Cup)):
                    dotted_lines.add(li)  # scatterings/braids can carry parity across
    keep = []
    for cut in q.parity_cuts:
        if not cut.strands:
            continue
        slice_now = trace.slices[cut.time_index]
        if all(label[slice_now[s]] not in dotted_lines for s in cut.strands):
            continue
        keep.append(cut)
    return replace(q, parity_cuts=tuple(keep))


# -- gluing -----------------------------------------------------------------


def quon_tensor(left: QuonDiagram, right: QuonDiagram) -> QuonDiagram:
    """Horizontal stacking of Quon diagrams (amplitudes multiply)."""
    core = dg.tensor_product(left.core, right.core)
    shift_t = len(left.core.elements)
    l_widths = left.core.widths()
    cuts = list(left.parity_cuts)
    for c in right.parity_cuts:
        cuts.append(
            ParityCut(c.time_index + shift_t,
                      tuple(s + left.core.width_out for s in c.strands))
        )
    notches = list(left.notches)
    for c in right.notches:
        notches.append(
            ParityCut(c.time_index + shift_t,
                      tuple(s + left.core.width_out for s in c.strands))
        )
    intervals = list(left.open_intervals)
    for iv in right.open_intervals:
        off = left.core.width_in if iv.side == TOP else left.core.width_out
        intervals.append(replace(iv, start=iv.start + off))
    return QuonDiagram(core, tuple(cuts), tuple(intervals),
                       left.boundary_tracking | {
                           (t + shift_t, p) for (t, p) in right.boundary_tracking},
                       notches=tuple(notches))


def quon_compose(top: QuonDiagram, bottom: QuonDiagram) -> QuonDiagram:
    """Vertical gluing; top's bottom intervals fuse with bottom's top
    intervals (they must align)."""
    tops = sorted((iv for iv in top.open_intervals if iv.side == BOTTOM),
                  key=lambda iv: iv.start)
    bots = sorted((iv for iv in bottom.open_intervals if iv.side == TOP),
                  key=lambda iv: iv.start)
    if [(iv.start, iv.size) for iv in tops] != [(iv.start, iv.size) for iv in bots]:
        raise WidthMismatch("glued boundary intervals do not align")
    core = dg.compose(top.core, bottom.core)
    shift = len(top.core.elements)
    cuts = list(top.parity_cuts) + [
        ParityCut(c.time_index + shift, c.strands) for c in bottom.parity_cuts
    ]
    notches = list(top.notches) + [
        ParityCut(c.time_index + shift, c.strands) for c in bottom.notches
    ]
    intervals = [iv for iv in top.open_intervals if iv.side == TOP] + [
        iv for iv in bottom.open_intervals if iv.side == BOTTOM
    ]
    marks = top.boundary_tracking | {(t + shift, p) for (t, p) in bottom.boundary_tracking}
    return QuonDiagram(core, tuple(cuts), tuple(intervals), marks, tuple(notches))
