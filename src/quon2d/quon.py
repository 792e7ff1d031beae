"""Quon diagrams: Majorana diagrams embedded in a background manifold.

The manifold is kept abstract: a list of parity cuts (one per hole, each a
fermion-parity-even projection (1 + P)/2 on a strand subset at a time slice)
plus open boundary intervals where strands terminate, carrying the pairing
data of Appendix-style basis encoders.  Closed-Quon evaluation sums over the
2^{n_h} cut subsets, every term a small Pfaffian of one factorisation of the
core (gaussian.PreparedDiagram); the oracle path expands each subset into a
plain Majorana diagram instead.  The string-genus and SWAP-hole relations
edit the manifold syntactically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import diagram as dg
from . import gaussian
from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    dagger,
)
from .errors import (
    BitLengthMismatch,
    HasOpenIntervals,
    InvalidBit,
    InvalidRegion,
    InvariantViolation,
    NoEnclosingLoop,
    PatternMismatch,
    WidthMismatch,
)
from .fock import evaluate_closed_oracle
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
        labels = trace.worldline_labels()
        groups: dict[int, list[int]] = {}
        for pos, sid in enumerate(trace.slices[-1]):
            groups.setdefault(labels[sid], []).append(pos)
        pairs = []
        for members in groups.values():
            if len(members) != 2:
                raise InvariantViolation("pairing data does not close strands pairwise")
            pairs.append((min(members), max(members)))
        return sorted(pairs)


def basis_bits(bits) -> tuple[int, ...]:
    """bits as a tuple of the ints 0 and 1.  Anything else (2, -1, 0.5, "1",
    or bits that are not a sequence) raises InvalidBit instead of being
    truncated or parsed."""
    try:
        bits = tuple(bits)
    except TypeError:
        raise InvalidBit(f"bits must be a sequence of 0s and 1s, got {bits!r}") from None
    for b in bits:
        if not (isinstance(b, (numbers.Real, np.bool_)) and b in (0, 1)):
            raise InvalidBit(f"bits must be 0 or 1, got {b!r}")
    return tuple(int(b) for b in bits)


@dataclass(frozen=True)
class BasisAssignment:
    """Per-interval bit vectors, in the interval order used by QuonDiagram;
    each bit must be 0 or 1 (InvalidBit)."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(basis_bits(g) for g in self.bits))

    @staticmethod
    def of(*bit_groups) -> "BasisAssignment":
        return BasisAssignment(bit_groups)


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
        widths = self.core._widths
        for cut in self.parity_cuts + self.notches:
            if not 0 <= cut.time_index < len(widths):
                raise InvariantViolation(f"cut time {cut.time_index} out of range")
            w = widths[cut.time_index]
            if any(not 0 <= s < w for s in cut.strands):
                raise InvariantViolation(
                    f"cut strands {cut.strands} not alive at slice {cut.time_index} (width {w})"
                )
        for t, pos in self.boundary_tracking:
            if not 0 <= t < len(widths) or not 0 <= pos < widths[t]:
                raise InvariantViolation(
                    f"boundary-tracking anchor ({t}, {pos}) is not on a strand: its slice "
                    f"must lie in 0..{len(widths) - 1} and its position below that "
                    f"slice's width"
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

    def splice(self, at: int, removed: int, core: MajoranaDiagram,
               open_intervals=None) -> "QuonDiagram":
        """This diagram with `core` in place of its own, where `core` has the
        `removed` elements from index `at` replaced.

        Every parity cut, notch and boundary-tracking anchor is re-timed by
        one rule: a slice at or after at + removed moves by the change in
        length, a slice strictly inside the replaced run moves to `at`, and
        every other slice stays.  So a pure insertion (removed == 0) moves a
        cut at slice `at` past the inserted block.  `open_intervals` replaces
        the intervals when `core` changes a boundary.
        """
        end = at + removed
        delta = len(core.elements) - len(self.core.elements)

        def retimed(t: int) -> int:
            if t >= end:
                return t + delta
            return at if t > at else t

        def cuts(projections):
            return tuple(ParityCut(retimed(c.time_index), c.strands) for c in projections)

        return QuonDiagram(
            core,
            cuts(self.parity_cuts),
            self.open_intervals if open_intervals is None else open_intervals,
            frozenset((retimed(t), pos) for t, pos in self.boundary_tracking),
            cuts(self.notches),
        )


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


def projection_sum(terms, count: int) -> complex:
    """(1/2)^count times the sum of the terms, exactly rounded: the result
    does not depend on the term order."""
    terms = list(terms)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total * (0.5 ** count)


def evaluate_closed_quon(q: QuonDiagram, use_oracle: bool = False) -> complex:
    """(1/2)^{n_h} sum over cut subsets of the expanded Majorana diagrams.

    The terms are those of one `PreparedDiagram` whose point groups are the
    projections' parity strings; `use_oracle` switches every term to the
    Fock oracle on the expanded core instead.
    """
    if q.open_intervals:
        raise HasOpenIntervals(f"{len(q.open_intervals)} open intervals remain")
    cuts = all_projections(q)
    n = len(cuts)
    if use_oracle:
        return projection_sum(
            (evaluate_closed_oracle(expanded_core(q, s)) for s in range(1 << n)), n)
    prepared = gaussian.PreparedDiagram(q.core, [(c.time_index, c.strands) for c in cuts])
    return projection_sum(prepared.evaluate(range(1 << n)), n)


# -- basis encoders --------------------------------------------------------


def encoder_slots(interval: OpenInterval) -> tuple[int, ...]:
    """Local strands of an interval's bit-dependent encoder dots: the
    rightmost member of each inner pair (one per qubit), then that of the
    outer pair, which takes a dot when the bit total is odd."""
    pairs = interval.pairs()
    return tuple(pair[1] for pair in pairs[1:]) + (pairs[0][1],)


def encoder_ket(interval: OpenInterval, bits) -> MajoranaDiagram:
    """Ket-form encoder |b> for one interval: pairing data plus simultaneous
    dots on the `encoder_slots` its bits select, normalized so
    <b|b'> = delta.

    The normalization 2^{-(p+1)/4} makes the p+1 pairing loops of <b|b>
    evaluate to one (1/sqrt2 in the one-qubit case).
    """
    bits = basis_bits(bits)
    if len(bits) != interval.qubit_count:
        raise BitLengthMismatch(
            f"{len(bits)} bits for a {interval.qubit_count}-qubit interval"
        )
    slots = encoder_slots(interval)
    dot_strands = [slots[k] for k, b in enumerate(bits) if b]
    if sum(bits) % 2:
        dot_strands.append(slots[-1])
    elements = list(interval.pairing_data.elements)
    if dot_strands:
        elements.extend(parity_string_elements(tuple(dot_strands)))
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
    # the bottom closure is appended, so nothing needs re-timing for it
    bottom_closed = QuonDiagram(
        dg.compose(q.core, bottom_closure), q.parity_cuts,
        [q.open_intervals[i] for i in top], q.boundary_tracking, q.notches,
    )
    return bottom_closed.splice(0, 0, dg.compose(top_closure, bottom_closed.core), ())


# -- manifold rewrites -----------------------------------------------------


def _quiet_loop_of_cut(q: QuonDiagram, cut: ParityCut):
    """Find a closed quiet worldline enclosing the cut: exactly one of the
    cut's strands lies on the loop at the cut's slice and the rest sit on one
    side of it.  Returns (trace, loop segment ids, its elements' indices)."""
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
            return trace, group, elem_indices
    return None


def _delete_worldline(q: QuonDiagram, trace: WireTrace, group: list[int],
                      elem_indices: set[int], hole_id: int) -> QuonDiagram:
    """q without hole `hole_id` and the quiet worldline `group` (its caps and
    cups at `elem_indices`), amplitude x 1/sqrt2.  Every kept element, cut,
    notch and anchor moves through one map of slices and positions; the
    anchors on the deleted loop are dropped."""
    removed = set(group)
    if not all(q.core.elements[i].width_delta for i in elem_indices):
        raise PatternMismatch("only caps and cups can be deleted with a loop")
    first, last = min(elem_indices), max(elem_indices)

    def new_time(t: int) -> int:
        return t - sum(1 for i in elem_indices if i < t)

    def new_position(t: int, p: int) -> int:
        if t <= first or t > last:  # the loop is not alive at this slice
            return p
        return sum(1 for sid in trace.slices[t][:p] if sid not in removed)

    def kept(t: int, p: int) -> bool:
        return trace.slices[t][p] not in removed

    new_els = []
    for t, el in enumerate(q.core.elements):
        if t in elem_indices:
            continue
        slice_of = t + 1 if el.width_delta > 0 else t  # a cap's strands are born after it
        new_els.append(el.moved([new_position(slice_of, p) for p in el.positions()]))

    def moved(cuts):
        return tuple(
            ParityCut(new_time(c.time_index),
                      tuple(new_position(c.time_index, s) for s in c.strands
                            if kept(c.time_index, s)))
            for c in cuts
        )

    core = MajoranaDiagram(q.core.width_in, q.core.width_out, tuple(new_els),
                           q.core.amplitude / _SQRT2)
    return QuonDiagram(
        core,
        moved(c for k, c in enumerate(q.parity_cuts) if k != hole_id),
        q.open_intervals,
        frozenset((new_time(t), new_position(t, p))
                  for t, p in q.boundary_tracking if kept(t, p)),
        moved(q.notches),
    )


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
        trace, group, elem_indices = found
        return _delete_worldline(q, trace, group, set(elem_indices), hole_id)

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
    els = q.core.elements[:t] + (Cap(p), Cup(p)) + q.core.elements[t:]
    core = MajoranaDiagram(q.core.width_in, q.core.width_out, els,
                           q.core.amplitude * _SQRT2)
    spliced = q.splice(t, 0, core)
    inserted = ParityCut(t + 1, tuple(range(p)) + (p,))
    return replace(spliced, parity_cuts=spliced.parity_cuts + (inserted,))


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
    strands lie on worldlines no element touches anywhere in the diagram (so
    the parity on them is identically even).  Caps and cups never touch a
    segment; dots, braids and scatterings can all carry parity across.
    """
    trace = WireTrace(q.core)
    labels = trace.worldline_labels()
    touched = {labels[seg.sid] for seg in trace.segments if seg.touches}
    keep = []
    for cut in q.parity_cuts:
        if not cut.strands:
            continue
        slice_now = trace.slices[cut.time_index]
        if all(labels[slice_now[s]] not in touched for s in cut.strands):
            continue
        keep.append(cut)
    return replace(q, parity_cuts=tuple(keep))


# -- gluing -----------------------------------------------------------------


def quon_compose(top: QuonDiagram, bottom: QuonDiagram) -> QuonDiagram:
    """Vertical gluing; top's bottom intervals fuse with bottom's top
    intervals (they must align)."""
    tops = sorted((iv for iv in top.open_intervals if iv.side == BOTTOM),
                  key=lambda iv: iv.start)
    bots = sorted((iv for iv in bottom.open_intervals if iv.side == TOP),
                  key=lambda iv: iv.start)
    if [(iv.start, iv.size) for iv in tops] != [(iv.start, iv.size) for iv in bots]:
        raise WidthMismatch("glued boundary intervals do not align")
    intervals = [iv for iv in top.open_intervals if iv.side == TOP] + [
        iv for iv in bottom.open_intervals if iv.side == BOTTOM
    ]
    below = bottom.splice(0, 0, dg.compose(top.core, bottom.core), intervals)
    return QuonDiagram(below.core, top.parity_cuts + below.parity_cuts, intervals,
                       top.boundary_tracking | below.boundary_tracking,
                       top.notches + below.notches)
