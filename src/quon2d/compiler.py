"""Compilers between circuits / elementary tensors and Quon diagrams.

Four strands per qubit; each gate is the element block calibrated against
the dense oracle (global phases included), looked up in `_BLOCKS`, or is
written as sub-gates by `_SUBGATES`; together they are keyed by the names of
`circuits.GATES`:

* X, Y, Z: simultaneous dot pairs on strands (2,3), (1,3), (1,2) of the block,
* S / Sinv: one negative/positive braid on the middle strands, amplitude
  exp(+-i pi/8),
* H: three negative braids, amplitude exp(i pi/8),
* Rz(theta): one vertical scattering on the middle strands,
* XXRot(theta): cup / scattering / cap across the two blocks, amplitude
  sqrt(2), plus one parity cut that keeps compositions parity-clean;
  evaluation prunes it where the diagram already enforces it
  (`wires.redundant_projections`), as in every benchmark template,
* CNOT: no block; it is written into the gate stream as its e^{i pi/4 XX}
  decomposition with single-qubit Cliffords,
* CZ: no block; it is written into the gate stream as H(t) CNOT(c, t) H(t),
  so it is Clifford-form with the one notch of its CNOT,
* SWAP: a full 16-crossing weave of negative braids with its two cuts:
  pure rewiring, since the evaluator takes a braid as a crossing of two
  worldlines (`gaussian`), which adds no points, so a SWAP costs its
  16 crossings' scalars and the trace that follows them.

The braids of S, H and the RXQ gates are crossings too: a compiled
circuit's points are its Pauli dot pairs and its rotations' scatterings.

`quon_to_dense_tensor` enumerates basis assignments over every open interval
(top intervals left to right, then bottom ones), which is also how tensor
legs are ordered, and hands them all to `quon._components`, the route that
`evaluate_closed_quon` takes for a closed diagram's one component.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, Gate
from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Columns,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
)
from .errors import (
    BitLengthMismatch,
    IntervalMismatch,
    InvariantViolation,
    NonPlanarInput,
    TooManyLegs,
    UnknownGenerator,
    UnknownMode,
)
from .quon import (
    BOTTOM,
    TOP,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    _components,
    basis_bits,
    encode_basis,
    evaluate_closed_quon,
)

_PI = math.pi
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DenseTensor:
    """Rank-n complex tensor over bit indices; legs ordered top intervals
    left-to-right then bottom intervals left-to-right (counterclockwise from
    the top-left star)."""

    rank: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex).reshape(-1)
        if entries.shape != (2 ** self.rank,):
            raise InvariantViolation(
                f"rank {self.rank} needs {2 ** self.rank} entries, one per bit string; "
                f"got {entries.size}")
        object.__setattr__(self, "entries", entries)

    def tensor(self) -> np.ndarray:
        return self.entries.reshape([2] * self.rank) if self.rank else self.entries.reshape(())


# -- gate blocks ------------------------------------------------------------


def _fixed(amplitude, *elements):
    """The block of a gate without an angle: the columns of `elements`, on
    strands counted from the qubit block's first strand, moved to it."""
    template = Columns.of_elements(elements)
    return lambda gate, base: (template.shifted(base), amplitude, (), ())


def _xx_block(gate: Gate, base: int):
    """XX rotation across blocks at base and base+4, with its notch
    projection (the manifold pinch between the qubit blocks)."""
    rows = Columns.of_elements((Cup(base + 3), Scattering(base + 2, gate.angle), Cap(base + 3)))
    return rows, _SQRT2, (), (ParityCut(3, tuple(range(base, base + 4))),)


# negative braids crossing the 4-strand bundle at strand 0 over the 4
# strands to its right
_SWAP = Columns.of_elements(BraidNeg(j) for step in range(4) for j in range(3 + step, step - 1, -1))


def _swap_block(gate: Gate, base: int):
    """A full 16-crossing weave between the SWAP's two closed-interval
    notches, realized as genuine holes; the SWAP-hole relation removes them
    when adjacent."""
    strands = tuple(range(base, base + 4))
    return (_SWAP.shifted(base), 1.0,
            (ParityCut(0, strands), ParityCut(len(_SWAP.kind), strands)), ())


_E8 = cmath.exp(1j * _PI / 8)  # the amplitude of S, H and RXQ+

# name -> (gate, first strand of its lowest qubit) -> (columns, amplitude,
# holes, notches), cut times counted from the block's first element
_BLOCKS = {
    "X": _fixed(1.0, DotPair(2, 3)),
    "Y": _fixed(1.0, DotPair(1, 3)),
    "Z": _fixed(1.0, DotPair(1, 2)),
    "S": _fixed(_E8, BraidNeg(1)),
    "SINV": _fixed(cmath.exp(-1j * _PI / 8), BraidPos(1)),
    "H": _fixed(_E8, BraidNeg(1), BraidNeg(2), BraidNeg(1)),
    "RXQ+": _fixed(_E8, BraidNeg(2)),
    "RXQ-": _fixed(cmath.exp(-1j * _PI / 8), BraidPos(2)),
    "RZ": lambda gate, base: (Columns.of_elements((Scattering(base + 1, gate.angle),)), 1.0,
                              (), ()),
    "XX": _xx_block,
    "SWAP": _swap_block,
}


# name -> (control, target) -> the sub-gates a gate without a block is
# written as; CNOT's amplitudes reproduce its permutation matrix including
# the global phase, and CZ is H(t) CNOT(c, t) H(t) exactly
_SUBGATES = {
    "CNOT": lambda c, t: (Gate("H", (c,)), Gate("RXQ+", (t,)), Gate("XX", (c, t), -_PI / 2),
                          Gate("RXQ+", (c,)), Gate("H", (c,))),
    "CZ": lambda c, t: (Gate("H", (t,)), Gate("CNOT", (c, t)), Gate("H", (t,))),
}


def _compiled_gates(gates):
    """The gates with each gate of `_SUBGATES` written as its sub-gates, until
    every gate has a block."""
    for g in gates:
        if g.name in _SUBGATES:
            yield from _compiled_gates(_SUBGATES[g.name](*g.qubits))
        else:
            yield g


def compile_circuit(c: Circuit) -> QuonDiagram:
    """Compile a nearest-neighbor circuit to a Quon diagram with one 4-strand
    open interval per qubit on each of the top and bottom boundaries."""
    width = 4 * c.n_qubits
    blocks: list[Columns] = []
    holes: list[ParityCut] = []
    notches: list[ParityCut] = []
    amplitude = 1.0 + 0.0j
    t = 0  # the block's first element
    for g in _compiled_gates(c.gates):
        rows, amp, gate_holes, gate_notches = _BLOCKS[g.name](g, 4 * min(g.qubits))
        holes.extend(ParityCut(t + cut.time_index, cut.strands) for cut in gate_holes)
        notches.extend(ParityCut(t + cut.time_index, cut.strands) for cut in gate_notches)
        blocks.append(rows)
        t += len(rows.kind)
        amplitude *= amp

    core = MajoranaDiagram(width, width, Columns.joined(blocks), amplitude)
    intervals = tuple(
        OpenInterval(side, 4 * q, 4)
        for side in (TOP, BOTTOM)
        for q in range(c.n_qubits)
    )
    marks = frozenset((0, 4 * q + s) for q in range(c.n_qubits) for s in (0, 3))
    return QuonDiagram(core, tuple(holes), intervals, marks, tuple(notches))


# -- dense extraction -------------------------------------------------------


def quon_to_dense_tensor(q: QuonDiagram, use_oracle: bool = False) -> DenseTensor:
    """Component enumeration over all basis assignments; legs are the open
    intervals' qubits, top intervals (left to right) first.

    The components come from `quon._components`, the one route from a
    diagram to its values, on its fast route or, with `use_oracle`, on its
    Fock-oracle route.
    """
    order = sorted(range(len(q.open_intervals)),
                   key=lambda i: (q.open_intervals[i].side != TOP, q.open_intervals[i].start))
    rank = sum(iv.qubit_count for iv in q.open_intervals)
    if rank > 12:
        raise TooManyLegs(f"{rank} legs exceeds the 12-leg extraction limit")
    bounds = list(itertools.accumulate((q.open_intervals[i].qubit_count for i in order), initial=0))
    assignments = []
    for bits in itertools.product((0, 1), repeat=rank):  # entry index order
        groups = [()] * len(order)
        for i, lo, hi in zip(order, bounds, bounds[1:]):
            groups[i] = bits[lo:hi]
        assignments.append(groups)
    return DenseTensor(rank, np.array(_components(q, assignments, use_oracle), dtype=complex))


def circuit_amplitude(c: Circuit, bits_in, bits_out) -> complex:
    """<bits_out| U(c) |bits_in> including the global phase."""
    bits_in = basis_bits(bits_in)
    bits_out = basis_bits(bits_out)
    if len(bits_in) != c.n_qubits or len(bits_out) != c.n_qubits:
        raise BitLengthMismatch(
            f"{len(bits_in)} input and {len(bits_out)} output bits for a "
            f"{c.n_qubits}-qubit circuit; give one bit per qubit"
        )
    q = compile_circuit(c)
    groups = []
    for iv in q.open_intervals:
        source = bits_in if iv.side == TOP else bits_out
        groups.append((source[iv.start // 4],))
    return evaluate_closed_quon(encode_basis(q, BasisAssignment(tuple(groups))))


# -- generating tensors -----------------------------------------------------


def compile_generator_tensor(name: str, params=None) -> QuonDiagram:
    """Quon diagrams of the elementary generating tensors; the dense tensor
    of each equals the conventional tensor exactly (scalars calibrated by the
    dense oracle)."""
    name = name.lower()
    if name == "ket0":
        core = MajoranaDiagram(0, 4, (Cap(0), Cap(1)), 2.0 ** -0.5)
        return QuonDiagram(core, (), (OpenInterval(BOTTOM, 0, 4),),
                           frozenset({(2, 0), (2, 3)}))
    if name == "identity":
        return QuonDiagram(
            MajoranaDiagram.identity(4), (),
            (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4)),
            frozenset({(0, 0), (0, 3)}),
        )
    if name in ("x", "rotxquarter+", "rotxquarter-", "rz"):
        gate = {
            "x": Gate("X", (0,)),
            "rotxquarter+": Gate("RXQ+", (0,)),
            "rotxquarter-": Gate("RXQ-", (0,)),
            "rz": Gate("RZ", (0,), params if params is not None else 0.0),
        }[name]
        return compile_circuit(Circuit(1, (gate,)))
    if name == "parityp":
        d = 3 if params is None else int(params)
        return parity_tensor_quon(d)
    raise UnknownGenerator(name)


def parity_tensor_quon(degree: int) -> QuonDiagram:
    """The degree-d parity tensor: two concentric rings (outer = boundary
    tracking) visiting d bottom legs; entries are 1 at even-weight indices."""
    if degree < 1:
        raise UnknownGenerator(f"parity tensor degree {degree}")
    size = 4 * degree
    # outer ring: (4k+3, 4k+4) between legs, wrap (0, 4d-1)
    # inner ring: (4k+2, 4k+5) between legs, wrap (1, 4d-2)
    pairs = []
    if degree == 1:
        pairs = [(0, 3), (1, 2)]
    else:
        for k in range(degree - 1):
            pairs.append((4 * k + 3, 4 * k + 4))
            pairs.append((4 * k + 2, 4 * k + 5))
        pairs.append((0, size - 1))
        pairs.append((1, size - 2))
    elements = caps_from_pairing(size, pairs)
    amp = 2.0 ** ((degree - 2) / 2)
    core = MajoranaDiagram(0, size, elements, amp)
    intervals = tuple(OpenInterval(BOTTOM, 4 * k, 4) for k in range(degree))
    marks = set()
    trace_time = len(elements)
    for k in range(degree):
        marks.add((trace_time, 4 * k))
        marks.add((trace_time, 4 * k + 3))
    return QuonDiagram(core, (), intervals, frozenset(marks))


def caps_from_pairing(size: int, pairs) -> tuple:
    """Cap sequence realizing a non-crossing perfect matching of 0..size-1."""
    remaining = sorted(tuple(sorted(p)) for p in pairs)
    if sorted(x for p in remaining for x in p) != list(range(size)):
        raise InvariantViolation(
            f"pairs must cover each of 0..{size - 1} exactly once; got {sorted(remaining)}")
    order = []
    pending = set(remaining)
    while pending:
        progress = False
        current = sorted(x for p in pending for x in p)
        index = {x: i for i, x in enumerate(current)}
        for a, b in sorted(pending):
            if index[b] == index[a] + 1:
                order.append((a, index[a]))
                pending.discard((a, b))
                progress = True
                break
        if not progress:
            raise NonPlanarInput(
                f"pairs {sorted(pending)} cross: caps realize only a non-crossing pairing")
    caps = tuple(Cap(pos) for _, pos in reversed(order))
    return caps


# -- leg contraction ---------------------------------------------------------


def contract_legs(q: QuonDiagram, interval_a: int, interval_b: int,
                  mode: str = "neighboring") -> QuonDiagram:
    """Glue two same-side open intervals through the resolution of the
    identity.  Neighboring intervals connect directly; non-neighboring ones
    are routed across the intervening strands with positive braids and add
    one ParityCut (a puncture).  Any other `mode` raises UnknownMode."""
    if mode not in ("neighboring", "non_neighboring"):
        raise UnknownMode(
            f"contract_legs mode is 'neighboring' or 'non_neighboring', not {mode!r}")
    try:
        iv_a = q.open_intervals[interval_a]
        iv_b = q.open_intervals[interval_b]
    except IndexError:
        raise IntervalMismatch("no such interval") from None
    if iv_a.side != iv_b.side:
        raise IntervalMismatch("legs must terminate on the same boundary side")
    if iv_a.size != iv_b.size:
        raise IntervalMismatch(f"sizes {iv_a.size} != {iv_b.size}")
    if iv_a.start > iv_b.start:
        iv_a, iv_b = iv_b, iv_a
    s = iv_a.size
    gap = iv_b.start - (iv_a.start + s)
    if mode == "neighboring" and gap != 0:
        raise IntervalMismatch("neighboring contraction needs adjacent intervals")

    # an interval on their side past a loses a's s strands, and past b b's too
    a, b = iv_a.start, iv_b.start
    intervals = [replace(iv, start=iv.start - s * ((iv.start > a) + (iv.start > b)))
                 if iv.side == iv_a.side else iv
                 for k, iv in enumerate(q.open_intervals) if k not in (interval_a, interval_b)]

    # gluing through the resolution of the identity imposes the bundle's
    # parity projection: a notch for neighboring contractions (the manifold
    # pinch between the mouths), the puncture's own cut otherwise
    if iv_a.side == BOTTOM:
        tail: list = []
        start = iv_a.start
        if gap:
            # braid the a-bundle rightward across the gap (positive-over)
            for step in range(gap):
                pos = start + s - 1 + step
                for j in range(pos, start + step - 1, -1):
                    tail.append(BraidPos(j))
            start = iv_a.start + gap
        projection = ParityCut(len(q.core) + len(tail), tuple(range(start, start + s)))
        for k in range(s):
            tail.append(Cup(start + s - 1 - k))
        hole = mode == "non_neighboring"
        return q.splice(len(q.core), 0, tail, q.core.amplitude, open_intervals=intervals,
                        parity_cuts=(projection,) if hole else (),
                        notches=() if hole else (projection,))

    if mode == "non_neighboring":
        raise IntervalMismatch("non-neighboring top contraction is not supported")
    head = tuple(Cap(iv_a.start + k) for k in range(s))
    return q.splice(0, 0, head, q.core.amplitude, width_in=q.core.width_in - 2 * s,
                    open_intervals=intervals, notches=(ParityCut(s, tuple(iv_a.strands)),))
