"""Tractability-controlled network generation: stretch, insert, switch.

Moves are pure QuonDiagram -> QuonDiagram functions; the ledger logs every
move and counts n_S, the net number of generic scatterings the switches made
(a switch adds its change in genericity at the switched site: -1, 0 or +1).
n_S is reported, not paid for: a generic scattering is Gaussian like a
braid, so a component of the grown diagram is one `evaluate_closed_quon` of
its basis encoding, whose cost is set by its projections, not by n_S.  A
move checks its fields when it is built and raises InvariantViolation for an
index that is not an integer, an unknown target, payload or change, or a
missing or non-finite angle; an Insert evaluates a closed payload then,
which raises InvalidRegion where it cannot be normalized.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Literal, Optional, get_args

from . import diagram as dg
from .diagram import (
    BY_CODE,
    SIGN,
    BraidNeg,
    BraidPos,
    Cap,
    Columns,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    is_generic_angle,
)
from .errors import (
    InvalidRegion,
    InvariantViolation,
    InvalidSegment,
    ParityMismatch,
    ParseError,
    PathCrossesHole,
    PatternMismatch,
    RegionOccupied,
)
from .gaussian import evaluate_closed_fast
from .quon import (
    BOTTOM,
    OpenInterval,
    ParityCut,
    QuonDiagram,
)


StretchTarget = Literal["bulk", "existing_encoder", "new_encoder"]
Payload = Literal["closed_diagram", "string_hole_pair", "double_string_hole_pair"]
Change = Literal["flip_braid", "braid_to_scattering", "set_angle", "add_dot_pair"]


def _check_fields(move, indices, optional, kind_field, kinds) -> None:
    """Make the `indices` (and the `optional` ones that are set) ints and
    check that `kind_field` names one of the Literal `kinds`; raises
    InvariantViolation naming the move and the field."""
    name = type(move).__name__
    for attr in indices + optional:
        value = getattr(move, attr)
        if value is None and attr in optional:
            continue
        try:
            object.__setattr__(move, attr, operator.index(value))
        except TypeError:
            raise InvariantViolation(f"{name} {attr} must be an integer, got {value!r}") from None
    kind = getattr(move, kind_field)
    if kind not in get_args(kinds):
        raise InvariantViolation(f"{name}: unknown {kind_field} {kind!r}; use one of "
                                 f"{', '.join(get_args(kinds))}")


@dataclass(frozen=True)
class Stretch:
    """Poke a strand finger sideways at a slice; bulk fingers return in place
    (value-preserving), encoder targets terminate on an interval.  An
    encoder finger is built at the bottom slice, whatever the time index
    (which must still lie in range): its strand and the holes are checked
    there."""

    time_index: int
    position: int  # strand to stretch
    reach: int  # how many strands to cross (to the right)
    target: StretchTarget = "bulk"
    interval: Optional[int] = None  # for existing_encoder

    def __post_init__(self):
        _check_fields(self, ("time_index", "position", "reach"), ("interval",),
                      "target", StretchTarget)


_LOOP = MajoranaDiagram.loop()
_LOOP_VALUE = evaluate_closed_fast(_LOOP)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Insert:
    """A closed payload (by default a bare loop) or a string-hole pair set
    in at a slice.  A closed_diagram payload is checked and evaluated when
    the move is built: one that is not closed, or that evaluates to zero
    and so cannot be normalized, raises InvalidRegion."""

    time_index: int
    position: int
    payload: Payload = "closed_diagram"
    diagram: Optional[MajoranaDiagram] = None  # for closed_diagram
    # the closed payload and its value, which normalizes it away
    _closed: Optional[MajoranaDiagram] = field(init=False, repr=False, compare=False)
    _value: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fields(self, ("time_index", "position"), (), "payload", Payload)
        if self.diagram is not None and not isinstance(self.diagram, MajoranaDiagram):
            raise InvariantViolation(f"Insert diagram must be a MajoranaDiagram, "
                                     f"got {type(self.diagram).__name__}")
        closed, value = None, 0j
        if self.payload == "closed_diagram":
            closed, value = _LOOP, _LOOP_VALUE
            if self.diagram is not None:
                closed = self.diagram
                if not closed.is_closed:
                    raise InvalidRegion("payload must be a closed diagram")
                value = evaluate_closed_fast(closed)
            if abs(value) < 1e-12:
                raise InvalidRegion("payload evaluates to zero; cannot normalize")
        object.__setattr__(self, "_closed", closed)
        object.__setattr__(self, "_value", value)


@dataclass(frozen=True)
class Switch:
    site: int  # element index
    change: Change
    theta: Optional[complex] = None  # for braid_to_scattering and set_angle
    position: Optional[int] = None  # for add_dot_pair (inserted before `site`)

    def __post_init__(self):
        _check_fields(self, ("site",), ("position",), "change", Change)
        if self.change not in ("braid_to_scattering", "set_angle"):
            if self.theta is not None:
                raise InvariantViolation(f"Switch {self.change} takes no angle")
            return
        theta = self.theta
        if isinstance(theta, bool) or not isinstance(theta, numbers.Number) \
                or not cmath.isfinite(theta):
            raise InvariantViolation(f"Switch {self.change} needs a finite angle, got {theta!r}")
        object.__setattr__(self, "theta", complex(theta))


Move = Stretch | Insert | Switch


@dataclass
class FactoryLedger:
    """Ordered move log plus n_S, the net number of generic scatterings the
    switches made."""

    seed: QuonDiagram
    moves: list[Move] = field(default_factory=list)
    n_s: int = 0

    def replay(self) -> QuonDiagram:
        """Re-apply the logged moves to the seed."""
        q = self.seed
        ledger = FactoryLedger(self.seed)
        for move in self.moves:
            q, ledger = apply_move(q, move, ledger)
        return q


def apply_move(q: QuonDiagram, move: Move, ledger: FactoryLedger):
    """Apply one move of any kind; returns (diagram, ledger with the move)."""
    if isinstance(move, Stretch):
        return stretch(q, move, ledger)
    if isinstance(move, Insert):
        return insert_move(q, move, ledger)
    return switch_move(q, move, ledger)


def stretch(q: QuonDiagram, move: Stretch, ledger: FactoryLedger):
    """Insert the stretch braids; a bulk stretch leaves every component
    unchanged (outbound positive-over crossings cancel the inbound ones)."""
    widths = q.core.widths()
    t, p, reach = move.time_index, move.position, move.reach
    if not 0 <= t <= len(q.core):
        raise InvalidSegment(f"time {t} out of range")
    if move.target != "bulk":  # an encoder finger is built at the bottom slice
        t = len(q.core)
    w = widths[t]
    if not 0 <= p < w:
        raise InvalidSegment(f"strand {p} not alive at slice {t}")
    if move.target == "bulk" and (reach < 0 or p + reach >= w):
        raise InvalidSegment(f"reach {reach} runs past the slice (width {w})")
    for cut in q.parity_cuts:
        if cut.time_index == t:
            raise PathCrossesHole("stretch path crosses a hole at this slice")

    if move.target == "bulk":
        rows = [(BraidPos.CODE, p + k, p + k + 1, 0j, False) for k in range(reach)]
        rows += [(BraidNeg.CODE, p + k, p + k + 1, 0j, False) for k in reversed(range(reach))]
        return (q.splice(t, 0, Columns.of_rows(rows), q.core.amplitude),
                replace_ledger(ledger, move))

    if move.target == "new_encoder":
        # the finger terminates on a fresh 2-strand bottom interval placed at
        # the right edge; crossings carry it there
        if q.core.width_out == 0:
            raise InvalidSegment("no bottom boundary to grow an encoder on")
        end = q.core.width_out
        intervals = (*q.open_intervals, OpenInterval(BOTTOM, end, 2))
    else:  # existing_encoder
        if move.interval is None or not 0 <= move.interval < len(q.open_intervals):
            raise InvalidSegment("existing_encoder needs a valid interval id")
        iv = q.open_intervals[move.interval]
        if iv.side != BOTTOM:
            raise InvalidSegment("only bottom encoders can be stretched into")
        end = iv.start + iv.size
        if p >= end:
            raise InvalidSegment("stretch into an encoder from its left side")
        # the two new strands join the interval at its right edge; the
        # pairing data gains the corresponding fresh pair
        new_pairing = dg.tensor_product(iv.pairing_data, dg.MajoranaDiagram(0, 2, (Cap(0),)))
        intervals = [OpenInterval(BOTTOM, iv.start, iv.size + 2, new_pairing) if k == move.interval
                     else replace(other, start=other.start + 2)
                     if other.side == BOTTOM and other.start >= end else other
                     for k, other in enumerate(q.open_intervals)]
    # a cap pulled out of strand p, appended at the bottom, its right strand
    # carried by positive braids to position `end` + 1
    tail = (Cap(p), *map(BraidPos, range(p + 1, end + 1)), *map(BraidPos, range(p, end)))
    return (q.splice(len(q.core), 0, tail, q.core.amplitude, open_intervals=intervals),
            replace_ledger(ledger, move))


def replace_ledger(ledger: FactoryLedger, move: Move, switched: int = 0):
    """The ledger with `move` logged; `switched` is the move's change in the
    number of generic scatterings at the switched site (-1, 0 or +1)."""
    return FactoryLedger(ledger.seed, ledger.moves + [move], ledger.n_s + switched)


def insert_move(q: QuonDiagram, move: Insert, ledger: FactoryLedger):
    """Insert a closed payload at an element-free slice, normalized so all
    tensor components are unchanged."""
    t, p = move.time_index, move.position
    widths = q.core.widths()
    if not 0 <= t <= len(q.core):
        raise InvalidRegion(f"time {t} out of range")
    if not 0 <= p <= widths[t]:
        raise RegionOccupied(f"position {p} not inside slice {t} (width {widths[t]})")

    if move.payload == "closed_diagram":
        return (q.splice(t, 0, move._closed.columns.shifted(p),
                         q.core.amplitude * move._closed.amplitude / move._value),
                replace_ledger(ledger, move))

    # k nested loops at p, the new hole on the strands left of them and the
    # left strand of each, and a boundary-tracking ring on the loops' strands
    k = 1 if move.payload == "string_hole_pair" else 2
    if (p + k) % 2:
        raise ParityMismatch(
            "string-hole pair needs an odd strand count to its left; use the double variant here"
            if k == 1 else "double string-hole pair needs an even left count")
    loops = Columns.of_rows([(Cap.CODE, p + i, p + i + 1, 0j, False) for i in range(k)]
                            + [(Cup.CODE, p + i, p + i + 1, 0j, False) for i in reversed(range(k))])
    return (
        q.splice(t, 0, loops, q.core.amplitude * _SQRT2 if k == 1 else q.core.amplitude,
                 parity_cuts=(ParityCut(t + k, tuple(range(p + k))),),
                 boundary_tracking={(t + k, p + i) for i in range(2 * k)}),
        replace_ledger(ledger, move),
    )


def switch_move(q: QuonDiagram, move: Switch, ledger: FactoryLedger):
    """Local replacement; n_S moves by the change in genericity at the site:
    +1 for a braid made a generic scattering, and -1, 0 or +1 for an angle
    set on a scattering."""
    c, n = q.core.columns, len(q.core)
    if move.change == "add_dot_pair":
        t = move.site
        if not 0 <= t <= n:
            raise PatternMismatch(f"site {t} out of range")
        p = move.position or 0
        w = q.core.widths()[t]
        if not 0 <= p <= w - 2:
            raise PatternMismatch(f"no strand pair at {p}")
        return q.splice(t, 0, (DotPair(p, p + 1),), q.core.amplitude), replace_ledger(ledger, move)

    site = move.site
    if not 0 <= site < n:
        raise PatternMismatch(f"site {site} out of range")
    code, j = c.kind[site], c.j[site]
    if move.change != "set_angle" and not SIGN[code]:
        raise PatternMismatch(f"element {site} is not a braid")
    if move.change == "flip_braid":
        return (q.splice(site, 1, c.cut(site, site + 1).dagger(), q.core.amplitude),
                replace_ledger(ledger, move))
    if move.change == "braid_to_scattering":
        # the braid is PHASE times a scattering, so a non-generic angle is a no-op
        return (q.splice(site, 1, (Scattering(j, move.theta),),
                         q.core.amplitude * BY_CODE[code].PHASE),
                replace_ledger(ledger, move, is_generic_angle(move.theta)))
    # set_angle
    if code != Scattering.CODE:
        raise PatternMismatch(f"element {site} is not a scattering")
    switched = is_generic_angle(move.theta) - is_generic_angle(c.angle[site])
    return (q.splice(site, 1, c.cut(site, site + 1)._replace(angle=(move.theta,)),
                     q.core.amplitude),
            replace_ledger(ledger, move, switched))


def parse_move_script(text: str) -> list[Move]:
    """Line-oriented move script: one move per line, `#` comments.

    stretch <time> <position> <reach> [bulk|new_encoder|existing_encoder <k>]
    insert  <time> <position> [loop|string_hole_pair|double_string_hole_pair]
    switch  <site> flip_braid | braid_to_scattering <theta> | set_angle <theta>
    switch  <time> add_dot_pair <position>
    """
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "stretch":
                t, p, reach = int(parts[1]), int(parts[2]), int(parts[3])
                target = parts[4] if len(parts) > 4 else "bulk"
                interval = int(parts[5]) if len(parts) > 5 else None
                moves.append(Stretch(t, p, reach, target, interval))
            elif kind == "insert":
                t, p = int(parts[1]), int(parts[2])
                payload = parts[3] if len(parts) > 3 else "loop"
                if payload == "loop":
                    moves.append(Insert(t, p, "closed_diagram"))
                else:
                    moves.append(Insert(t, p, payload))
            elif kind == "switch":
                site = int(parts[1])
                change = parts[2]
                if change in ("braid_to_scattering", "set_angle"):
                    moves.append(Switch(site, change, theta=complex(parts[3])))
                elif change == "add_dot_pair":
                    moves.append(Switch(site, change, position=int(parts[3])))
                else:
                    moves.append(Switch(site, change))
            else:
                raise ParseError(f"move script line {lineno}: unknown move {kind!r}; "
                                 "use stretch, insert or switch")
        except (IndexError, ValueError, InvariantViolation) as exc:
            raise ParseError(f"move script line {lineno}: {exc}") from exc
    return moves
