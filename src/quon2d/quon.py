"""Quon diagrams: Majorana diagrams embedded in a background manifold.

The manifold is kept abstract: a list of parity cuts (one per hole, each a
fermion-parity-even projection (1 + P)/2 on a strand subset at a time slice)
plus open boundary intervals where strands terminate, carrying the pairing
data of Appendix-style basis encoders.  One route, `_components`, turns a
diagram into its basis components (a closed diagram's value is its one
component): the fast route drops the projections the diagram enforces
(`wires.prune_projections`) and the holes string-genus removal takes, and
sums over the subsets of the projections left, every term a small Pfaffian
of one factorisation (gaussian.PreparedDiagram); the oracle route expands
each subset of all the projections and propagates Fock states.

`QuonDiagram.splice` is the one edit of an existing diagram's core: it
moves the cuts, notches and anchors by one rule and refuses one that the
edit would cross.  `encoder_closure` is the one builder of a boundary's
closure, which `encode_basis` splices on, the oracle route propagates and
the projection push (`wires`) crosses.  The string-genus and SWAP-hole
relations edit the manifold syntactically.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian
from .diagram import (
    SIGN,
    WIDTH_DELTA,
    Cap,
    Columns,
    Cup,
    DotPair,
    MajoranaDiagram,
)
from .errors import (
    BitLengthMismatch,
    HasOpenIntervals,
    InvalidBit,
    InvalidRegion,
    InvariantViolation,
    MarkInsideRun,
    NoEnclosingLoop,
    PatternMismatch,
    UnknownMode,
)
from .fock import FockState, propagate
from .wires import BOTTOM, TOP, WireTrace, prune_projections

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

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Strand pairs (local indices) read off the pairing data, ordered by
        leftmost member (`pairing_pairs`)."""
        return pairing_pairs(self.pairing_data)


@functools.lru_cache(maxsize=256)
def pairing_pairs(pairing_data: MajoranaDiagram) -> tuple[tuple[int, int], ...]:
    """The strand pairs of a pairing diagram, ordered by leftmost member,
    traced once per distinct (frozen) diagram: every compiled circuit makes
    new intervals, most of them with equal pairing data."""
    trace = WireTrace(pairing_data)
    labels = trace.worldline_labels()
    groups: dict[int, list[int]] = {}
    for pos, sid in enumerate(trace.slices[-1]):
        groups.setdefault(labels[sid], []).append(pos)
    pairs = []
    for members in groups.values():
        if len(members) != 2:
            raise InvariantViolation("pairing data does not close strands pairwise")
        pairs.append((min(members), max(members)))
    return tuple(sorted(pairs))


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

    parity_cuts are the genuine holes (they set hole_count and the
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
        _check_marks(self.core._widths, self.parity_cuts + self.notches, self.boundary_tracking)
        _check_intervals(self.core, self.open_intervals)

    @property
    def is_closed(self) -> bool:
        return not self.open_intervals

    def hole_count(self) -> int:
        return len(self.parity_cuts)

    def scaled(self, factor: complex) -> "QuonDiagram":
        return replace(self, core=self.core.scaled(factor))

    def splice(self, at: int, removed: int, replacement, amplitude: complex,
               width_in: int | None = None, open_intervals=None, parity_cuts=(),
               notches=(), boundary_tracking=()) -> "QuonDiagram":
        """This diagram with the `removed` core elements from index `at`
        replaced by `replacement` and the core amplitude set to `amplitude`:
        the one edit of an existing diagram's core.  `width_in` is the new
        top width of a run at the top boundary (see MajoranaDiagram.splice),
        and `open_intervals` replaces the intervals when the edit changes a
        boundary.  `parity_cuts`, `notches` and `boundary_tracking` are new
        ones, on the result's slices, added after the re-timed ones.

        One rule re-times each parity cut, notch and boundary-tracking
        anchor (a mark) on slice t, end = at + removed: at or after `end` it
        moves by the change in length (past the block of a pure insertion),
        unless the edit appends at the bottom (at == len(core), no
        `width_in`); before the run it stays; strictly inside it, it is
        refused with a MarkInsideRun (an InvariantViolation) naming it, as
        the elements it sat between are gone.

        The result equals what the constructors would build, and an invalid
        edit raises what they would.  The core replays only the replacement
        when the widths meet at the run's end (MajoranaDiagram.splice), and
        then only the cuts, notches and anchors re-timed from slices `at` to
        at + removed are checked, because every other one keeps its strands
        and the width of its slice.  When the widths after the run change,
        all of them are checked.  The new ones are always checked, and the
        intervals' partition of the boundaries is checked when the intervals
        or a boundary width change.  Cost: O(len(replacement)) element
        checks plus O(cuts + notches + anchors) re-timing when the widths
        meet; O(len(elements)) more when they do not.
        """
        old = self.core
        core = old.splice(at, removed, replacement, amplitude, width_in)
        end = at + removed
        if removed > 1:  # a mark strictly inside the run has no slice left: refuse it
            inside = [f"parity cut {c}" for c in self.parity_cuts if at < c.time_index < end]
            inside += [f"notch {c}" for c in self.notches if at < c.time_index < end]
            inside += [f"boundary-tracking anchor {a}"
                       for a in sorted(a for a in self.boundary_tracking if at < a[0] < end)]
            if inside:
                raise MarkInsideRun(f"{inside[0]} lies inside the replaced run {at}..{end - 1}")
        delta = len(core._widths) - len(old._widths)
        # the old slices whose widths the edit may have changed: at .. last
        last = end if core._widths[end + delta] == old._widths[end] else len(old._widths) - 1
        appended = at == len(old) and width_in is None

        def retimed(t: int) -> int:
            return t + delta if t >= end and not appended else t

        def moved(projections):  # a slice before `at` keeps its index
            return tuple(c if c.time_index < at or retimed(c.time_index) == c.time_index
                         else ParityCut(retimed(c.time_index), c.strands) for c in projections)

        cuts, notched = moved(self.parity_cuts), moved(self.notches)
        later = [(t, pos) for t, pos in self.boundary_tracking if t >= at]
        anchors = [(t, (retimed(t), pos)) for t, pos in later]
        _check_marks(
            core._widths,
            [c for was, c in zip(self.parity_cuts + self.notches, cuts + notched)
             if at <= was.time_index <= last] + [*parity_cuts, *notches],
            [anchor for t, anchor in anchors if t <= last] + [*boundary_tracking])
        intervals = self.open_intervals if open_intervals is None else tuple(open_intervals)
        if open_intervals is not None or (core.width_in, core.width_out) != (
                old.width_in, old.width_out):
            _check_intervals(core, intervals)
        q = object.__new__(QuonDiagram)
        vars(q).update(core=core, parity_cuts=cuts + tuple(parity_cuts), open_intervals=intervals,
                       boundary_tracking=self.boundary_tracking.difference(later).union(
                           [a for _, a in anchors], boundary_tracking),
                       notches=notched + tuple(notches))
        return q


def _check_marks(widths, projections, anchors) -> None:
    """Raise InvariantViolation unless each cut or notch in `projections`
    and each anchor lies on live strands of a slice whose widths are
    `widths`."""
    for cut in projections:
        if not 0 <= cut.time_index < len(widths):
            raise InvariantViolation(f"cut time {cut.time_index} out of range")
        w = widths[cut.time_index]
        if any(not 0 <= s < w for s in cut.strands):
            raise InvariantViolation(
                f"cut strands {cut.strands} not alive at slice {cut.time_index} (width {w})"
            )
    for t, pos in anchors:
        if not 0 <= t < len(widths) or not 0 <= pos < widths[t]:
            raise InvariantViolation(
                f"boundary-tracking anchor ({t}, {pos}) is not on a strand: its slice "
                f"must lie in 0..{len(widths) - 1} and its position below that "
                f"slice's width"
            )


_LISTED = 12  # strands a partition error lists


def _check_intervals(core: MajoranaDiagram, intervals) -> None:
    """Raise InvariantViolation unless the intervals of each side partition
    that boundary's strands."""
    for side, width in ((TOP, core.width_in), (BOTTOM, core.width_out)):
        ivs = sorted((iv for iv in intervals if iv.side == side), key=lambda iv: iv.start)
        covered = []
        for iv in ivs:
            covered.extend(iv.strands)
        if covered != list(range(width)):
            listed = ", ".join(map(str, covered[:_LISTED]))
            if len(covered) > _LISTED:
                listed += f", ... ({len(covered)} strands)"
            raise InvariantViolation(
                f"{side} intervals [{listed}] do not partition strands 0..{width - 1}"
            )


# -- hole expansion evaluation --------------------------------------------


def parity_string_elements(strands: tuple[int, ...]) -> Columns:
    """The global-parity dot string on `strands`: simultaneous dots paired
    left to right, as columns."""
    ordered = sorted(strands)
    return Columns.of_elements(DotPair(a, b) for a, b in zip(ordered[::2], ordered[1::2]))


def all_projections(q: QuonDiagram) -> tuple[ParityCut, ...]:
    return q.parity_cuts + q.notches


def expanded_core(q: QuonDiagram, subset: int) -> MajoranaDiagram:
    """The core with parity strings inserted at the projections selected by
    `subset` (holes first, then notches)."""
    core = q.core  # spliced latest slice first, so the other slices keep their indices
    for bit, cut in sorted(enumerate(all_projections(q)), key=lambda b: (b[1].time_index, b[0]),
                           reverse=True):
        if subset >> bit & 1:
            core = core.splice(cut.time_index, 0, parity_string_elements(cut.strands),
                               core.amplitude)
    return core


def projection_sum(terms, count: int) -> complex:
    """(1/2)^count times the sum of the terms, exactly rounded: the result
    does not depend on the term order."""
    terms = list(terms)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total * (0.5 ** count)


def evaluate_closed_quon(q: QuonDiagram, use_oracle: bool = False) -> complex:
    """The value of a closed Quon diagram: its one basis component, from
    `_components` on the fast route or, with `use_oracle`, the oracle route."""
    if q.open_intervals:
        raise HasOpenIntervals(
            f"{len(q.open_intervals)} open intervals remain: close them with encode_basis, "
            f"or call quon_to_dense_tensor to get every component")
    return _components(q, [()], use_oracle)[0]


def _components(q: QuonDiagram, assignments, use_oracle: bool = False) -> list[complex]:
    """The basis components of q, one per assignment of per-interval bits
    (in q.open_intervals order; a closed q has the one assignment ()).

    The fast route drops the projections q enforces for every basis state
    (`prune_projections`; one it annihilates makes every component 0j) and
    the holes string-genus removal takes (a closed quiet loop holds no
    boundary strand, so every encoder leaves it quiet), closes q by its
    all-zero encoders and evaluates every term in one `PreparedDiagram`
    call.  Its point groups are each top candidate encoder dot
    (`encoder_slots`) after all top caps, the projections' parity strings,
    and each bottom one before the bottom cups, each side in descending
    strand order; a component's terms have the dots its bits put down.  The
    oracle route keeps every projection: it propagates each top closure
    through each expanded core once with the Fock oracle, then each of its
    assignments' bottom closures.  A component is (1/2)^n times the sum of
    its terms over the 2^n subsets of n projections; more than
    gaussian.MAX_TERMS terms raise TooLarge before any is built: in all
    (fast) or per component (oracle).
    """
    if use_oracle:
        n = len(all_projections(q))
        gaussian.check_terms(1 << n, f"{n} projections")
        by_top: dict[Columns, list] = {}  # top closure -> (k, amplitude, bottom)
        for k, bits in enumerate(assignments):
            top, top_amplitude = encoder_closure(q.open_intervals, bits, TOP)
            bottom, bottom_amplitude = encoder_closure(q.open_intervals, bits, BOTTOM)
            amplitude = top_amplitude * (q.core.amplitude * bottom_amplitude)
            by_top.setdefault(top, []).append(
                (k, amplitude, MajoranaDiagram(q.core.width_out, 0, bottom)))
        values = [0j] * len(assignments)
        for top, group in by_top.items():
            start = propagate(FockState.scalar(1.0), MajoranaDiagram(0, q.core.width_in, top))
            terms = [[] for _ in group]
            for s in range(1 << n):
                state = propagate(start, expanded_core(q, s))
                for row, (_, amplitude, bottom) in zip(terms, group):
                    row.append(amplitude * complex(propagate(state, bottom).amplitudes[0]))
            for (k, _, _), row in zip(group, terms):
                values[k] = projection_sum(row, n)
        return values

    q = prune_projections(q)
    if q is None:
        return [0j] * len(assignments)
    q = remove_holes_to_fixpoint(q)
    intervals = q.open_intervals
    closed = encode_basis(q, BasisAssignment(tuple((0,) * iv.qubit_count for iv in intervals)))
    top_end = sum(len(iv.pairing_data) for iv in intervals if iv.side == TOP)
    # (strand at the boundary, interval, slot) of every candidate dot, per side
    slots = {
        side: sorted(((iv.start + s, i, k) for i, iv in enumerate(intervals) if iv.side == side
                      for k, s in enumerate(encoder_slots(iv))), reverse=True)
        for side in (TOP, BOTTOM)
    }
    cuts = all_projections(closed)
    gaussian.check_terms(len(assignments) << len(cuts),
                         f"{len(cuts)} projections over {len(assignments)} basis assignments")
    groups = (
        [(top_end, (strand,)) for strand, _, _ in slots[TOP]]
        + [(c.time_index, c.strands) for c in cuts]
        + [(top_end + len(q.core), (strand,)) for strand, _, _ in slots[BOTTOM]]
    )
    group_of = {(i, k): g for g, (_, i, k) in enumerate(slots[TOP])}
    group_of.update({(i, k): g for g, (_, i, k) in
                     enumerate(slots[BOTTOM], len(slots[TOP]) + len(cuts))})
    masks = []
    for bit_groups in assignments:
        selected = 0
        for i, bits in enumerate(bit_groups):
            for k in encoder_dots(bits):
                selected |= 1 << group_of[(i, k)]
        masks.extend(selected | s << len(slots[TOP]) for s in range(1 << len(cuts)))
    terms = gaussian.PreparedDiagram(closed.core, groups).evaluate(masks)
    return [projection_sum(row, len(cuts)) for row in terms.reshape(len(assignments), -1)]


# -- basis encoders --------------------------------------------------------


def encoder_slots(interval: OpenInterval) -> tuple[int, ...]:
    """Local strands of an interval's bit-dependent encoder dots: the
    rightmost member of each inner pair (one per qubit), then that of the
    outer pair, which takes a dot when the bit total is odd."""
    pairs = interval.pairs
    return tuple(pair[1] for pair in pairs[1:]) + (pairs[0][1],)


def encoder_dots(bits) -> list[int]:
    """The encoder's dot rule, as indices into `encoder_slots`: one dot per
    set bit, plus the outer pair's (index len(bits)) when the total is odd."""
    return [k for k, b in enumerate(bits) if b] + ([len(bits)] if sum(bits) % 2 else [])


def encoder_ket(interval: OpenInterval, bits) -> MajoranaDiagram:
    """Ket-form encoder |b> for one interval: pairing data plus simultaneous
    dots on the `encoder_slots` its bits select (`encoder_dots`), normalized
    so <b|b'> = delta.

    The normalization 2^{-(p+1)/4} makes the p+1 pairing loops of <b|b>
    evaluate to one (1/sqrt2 in the one-qubit case).
    """
    bits = basis_bits(bits)
    if len(bits) != interval.qubit_count:
        raise BitLengthMismatch(
            f"{len(bits)} bits for a {interval.qubit_count}-qubit interval"
        )
    slots = encoder_slots(interval)
    columns = Columns.joined((interval.pairing_data.columns,
                              parity_string_elements(tuple(slots[k] for k in encoder_dots(bits)))))
    amp = interval.pairing_data.amplitude * 2.0 ** (-(interval.qubit_count + 1) / 4)
    return MajoranaDiagram(0, interval.size, columns, amp)


def encoder_closure(intervals, bits, side: str) -> tuple[Columns, complex]:
    """The rows and amplitude closing the `intervals` on `side` for the
    per-interval `bits`, read by `encode_basis`, the oracle route and the
    push (`wires`): on the top the kets (`encoder_ket`) left to right, each
    on its strands; on the bottom their daggers, the bras, left to right,
    each from strand 0, as the bras before it closed the strands to its left."""
    if len(bits) != len(intervals):
        raise BitLengthMismatch(f"{len(bits)} bit groups for {len(intervals)} intervals")
    parts, amplitude = [], 1 + 0j
    for iv, b in sorted(zip(intervals, bits), key=lambda p: p[0].start):
        if iv.side == side:
            ket = encoder_ket(iv, b)
            parts.append(ket.columns.shifted(iv.start) if side == TOP else ket.columns.dagger())
            amplitude *= ket.amplitude if side == TOP else ket.amplitude.conjugate()
    return Columns.joined(parts), amplitude


def encode_basis(q: QuonDiagram, assignment: BasisAssignment) -> QuonDiagram:
    """Close every open interval with its basis encoder; returns a closed Quon
    diagram, q itself when it has no open interval.  A top interval is fed
    the ket encoder |b> from above; a bottom interval is capped by the bra
    <b| (the encoder's dagger), so components read <bits_bottom| D |bits_top>.
    Two splices: the bras appended at the bottom, then the kets at the top.
    """
    top, top_amplitude = encoder_closure(q.open_intervals, assignment.bits, TOP)
    bottom, bottom_amplitude = encoder_closure(q.open_intervals, assignment.bits, BOTTOM)
    if not q.open_intervals:
        return q
    q = q.splice(len(q.core), 0, bottom, q.core.amplitude * bottom_amplitude,
                 open_intervals=[iv for iv in q.open_intervals if iv.side == TOP])
    return q.splice(0, 0, top, top_amplitude * q.core.amplitude, width_in=0, open_intervals=())


# -- manifold rewrites -----------------------------------------------------


def _removals(q: QuonDiagram, trace: WireTrace, holes) -> tuple[list[int], list[list[int]]]:
    """The holes among `holes` that string-genus removal takes from q, with
    their loops (segment ids in `trace`, q.core's trace), in the order that
    repeated single removals take them.

    A hole's loop is a closed quiet worldline with exactly one of the hole's
    strands on it at the hole's slice and the rest on one side of it, and no
    strand of another live cut or notch.  Each step takes the first live hole
    in index order that has one, with its first loop in trace order; a
    removed hole stops blocking.  A deletion keeps the other loops and the
    order of the strands at every slice, so one trace serves every step."""
    loops = trace.closed_quiet_loops()
    loop_of = {sid: li for li, group in enumerate(loops) for sid in group}
    touched_by = [set() for _ in loops]  # ids of the cuts with a strand on each loop
    enclosing = []  # per cut, the loops that enclose it, in trace order
    for k, cut in enumerate(all_projections(q)):
        slice_now = trace.slices[cut.time_index]
        on_loop: dict[int, list[int]] = {}
        for s in cut.strands:
            if slice_now[s] in loop_of:
                on_loop.setdefault(loop_of[slice_now[s]], []).append(s)
                touched_by[loop_of[slice_now[s]]].add(k)
        enclosing.append([])
        for li in sorted(li for li, on in on_loop.items() if len(on) == 1):
            span = [p for p, sid in enumerate(slice_now) if loop_of.get(sid) == li]
            rest = [s for s in cut.strands if s != on_loop[li][0]]
            if all(s < span[0] for s in rest) or all(s > span[-1] for s in rest):
                enclosing[k].append(li)

    taken: dict[int, int] = {}  # hole id -> its loop, in removal order
    while (pick := next(((h, li) for h in holes if h not in taken for li in enclosing[h]
                         if li not in taken.values() and touched_by[li] <= {h, *taken}),
                        None)) is not None:
        taken[pick[0]] = pick[1]
    return list(taken), [loops[li] for li in taken.values()]


def _delete_worldlines(q: QuonDiagram, trace: WireTrace, holes: list[int],
                       loops: list[list[int]]) -> QuonDiagram:
    """q without the holes `holes` and the quiet worldlines `loops` (segment
    ids in `trace`, q.core's trace), in one rebuild, the amplitude divided by
    sqrt2 once per loop.  Every kept element, cut, notch and anchor moves
    through one map of slices and positions; the anchors on the deleted
    loops are dropped."""
    removed = {sid for group in loops for sid in group}
    gone = sorted({trace.turn_elem[tid] for sid in removed
                   for tid in (trace.birth[sid], trace.death[sid])})

    def new_time(t: int) -> int:
        return t - bisect_left(gone, t)

    @functools.cache
    def kept_before(t: int) -> list[int] | None:
        """The kept strands before each position of slice t, or None when
        every strand there is kept."""
        strands = trace.slices[t]
        if removed.isdisjoint(strands):
            return None
        return list(itertools.accumulate((sid not in removed for sid in strands), initial=0))

    def moved(t: int, positions) -> list[int]:
        """The kept ones of `positions` at slice t, moved."""
        shift = kept_before(t)
        if shift is None:
            return list(positions)
        return [shift[p] for p in positions if trace.slices[t][p] not in removed]

    deleted = set(gone)
    rows = []
    for t, row in enumerate(zip(*q.core.columns)):
        if t not in deleted:
            at = t + 1 if WIDTH_DELTA[row[0]] > 0 else t  # a cap's strands are born after it
            if kept_before(at) is not None:  # its strands all kept, as the loops are quiet
                row = (row[0], *moved(at, row[1:3])) + row[3:]
            rows.append(row)
    # one division per loop, as one removal at a time divides
    amplitude = functools.reduce(lambda amp, _: amp / _SQRT2, loops, q.core.amplitude)

    def cuts(projections):
        return tuple(ParityCut(new_time(c.time_index), moved(c.time_index, c.strands))
                     for c in projections)

    return QuonDiagram(
        MajoranaDiagram(q.core.width_in, q.core.width_out, Columns.of_rows(rows), amplitude),
        cuts(c for k, c in enumerate(q.parity_cuts) if k not in holes),
        q.open_intervals,
        frozenset((new_time(t), p) for t, anchor in q.boundary_tracking
                  for p in moved(t, [anchor])),  # none when the anchor was on a loop
        cuts(q.notches),
    )


def string_genus(q: QuonDiagram, hole_id: int, direction: str = "remove",
                 region: tuple[int, int] | None = None) -> QuonDiagram:
    """Remove a hole with its enclosing isolated loop (amplitude x 1/sqrt2),
    or insert a fresh string-hole pair (amplitude x sqrt2).  A removal reads
    one WireTrace and rebuilds the diagram once, with the deletion that
    `remove_holes_to_fixpoint` applies to all its holes at once.

    For `insert`, `region` is (time_index, position): a fresh loop is created
    at that slice and the new cut takes the strands left of it plus the
    loop's left strand; `position` must leave an even cut.
    """
    if direction == "remove":
        if not 0 <= hole_id < len(q.parity_cuts):
            raise NoEnclosingLoop(f"no hole {hole_id}")
        trace = WireTrace(q.core)
        holes, loops = _removals(q, trace, [hole_id])
        if not holes:
            raise NoEnclosingLoop(f"hole {hole_id} has no isolated enclosing loop")
        return _delete_worldlines(q, trace, holes, loops)

    if direction != "insert":
        raise UnknownMode(f"string_genus direction is 'remove' or 'insert', not {direction!r}")
    if region is None:
        raise InvalidRegion("insert needs a (time_index, position) region")
    t, p = region
    widths = q.core.widths()
    if not 0 <= t <= len(q.core) or not 0 <= p <= widths[t]:
        raise InvalidRegion(f"region {region} outside the diagram")
    if (p + 1) % 2:
        raise InvalidRegion("position must leave an even cut (odd strand count left of the loop)")
    return q.splice(t, 0, (Cap(p), Cup(p)), q.core.amplitude * _SQRT2,
                    parity_cuts=(ParityCut(t + 1, tuple(range(p + 1))),))


def remove_holes_to_fixpoint(q: QuonDiagram) -> QuonDiagram:
    """Apply string-genus removals until no hole has an isolated enclosing
    loop, taking each time the first such hole in index order, as repeated
    `string_genus(q, h, "remove")` calls would.  One WireTrace finds every
    removal and one rebuild deletes them all, whatever the number of holes."""
    if not q.parity_cuts:
        return q
    trace = WireTrace(q.core)
    holes, loops = _removals(q, trace, range(len(q.parity_cuts)))
    return _delete_worldlines(q, trace, holes, loops) if holes else q


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
        while 0 <= t < len(core) and SIGN[core.columns.kind[t]]:  # a braid
            positions.append(core.columns.j[t])
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
