"""Compilers between circuits / elementary tensors and Quon diagrams.

Four strands per qubit; each gate is the element block calibrated against
the dense oracle (global phases included):

* X, Y, Z: simultaneous dot pairs on strands (2,3), (1,3), (1,2) of the block,
* S / Sinv: one negative/positive braid on the middle strands, amplitude
  exp(+-i pi/8),
* H: three negative braids, amplitude exp(i pi/8),
* Rz(theta): one vertical scattering on the middle strands,
* XXRot(theta): cup / scattering / cap across the two blocks, amplitude
  sqrt(2), plus one parity cut that keeps compositions parity-clean,
* CNOT: the e^{i pi/4 XX} decomposition with single-qubit Cliffords,
* SWAP: a full 16-crossing weave of negative braids with its two cuts,
* CZ: the Appendix-style gadget G_H / SWAP / G_X / G_H on the middle dense
  qubits, conjugated into this encoding by logical Hadamards.

`quon_to_dense_tensor` enumerates basis assignments over every open interval
(top intervals left to right, then bottom ones), which is also how tensor
legs are ordered; all components are terms of one factorisation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian
from .circuits import Circuit, Gate
from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    offset_elements,
)
from .errors import BitLengthMismatch, IntervalMismatch, TooManyLegs, UnknownGenerator
from .quon import (
    BOTTOM,
    TOP,
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    all_projections,
    basis_bits,
    encode_basis,
    encoder_slots,
    evaluate_closed_quon,
    projection_sum,
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
            raise ValueError(f"rank {self.rank} needs {2 ** self.rank} entries")
        object.__setattr__(self, "entries", entries)

    def tensor(self) -> np.ndarray:
        return self.entries.reshape([2] * self.rank) if self.rank else self.entries.reshape(())

    def as_matrix(self, rows: int) -> np.ndarray:
        """(2^rows) x (2^(rank-rows)) matrix, row legs first."""
        return self.entries.reshape(2 ** rows, -1)

    def permuted(self, order) -> "DenseTensor":
        return DenseTensor(self.rank, np.transpose(self.tensor(), order).reshape(-1))


# -- gate blocks ------------------------------------------------------------


def _single_qubit_block(gate: Gate, base: int):
    """(elements, amplitude, cuts) for a one-qubit gate on strands base..base+3."""
    n = gate.name
    if n == "X":
        return (DotPair(base + 2, base + 3),), 1.0, ()
    if n == "Y":
        return (DotPair(base + 1, base + 3),), 1.0, ()
    if n == "Z":
        return (DotPair(base + 1, base + 2),), 1.0, ()
    if n == "S":
        return (BraidNeg(base + 1),), cmath.exp(1j * _PI / 8), ()
    if n == "SINV":
        return (BraidPos(base + 1),), cmath.exp(-1j * _PI / 8), ()
    if n == "H":
        els = (BraidNeg(base + 1), BraidNeg(base + 2), BraidNeg(base + 1))
        return els, cmath.exp(1j * _PI / 8), ()
    if n == "RXQ+":
        return (BraidNeg(base + 2),), cmath.exp(1j * _PI / 8), ()
    if n == "RXQ-":
        return (BraidPos(base + 2),), cmath.exp(-1j * _PI / 8), ()
    if n == "RZ":
        return (Scattering(base + 1, gate.angle),), 1.0, ()
    raise UnknownGenerator(n)


def _xx_block(theta: float, base: int, n_elements_before: int):
    """XX rotation across blocks at base and base+4, with its notch
    projection (the manifold pinch between the qubit blocks)."""
    els = (Cup(base + 3), Scattering(base + 2, theta), Cap(base + 3))
    notch = ParityCut(n_elements_before + 3, tuple(range(base, base + 4)))
    return els, _SQRT2, (notch,)


def _weave(base: int, n: int, m: int):
    """Negative braids crossing an n-strand bundle at `base` over the m
    strands to its right."""
    els = []
    for step in range(m):
        top = base + n - 1 + step
        for j in range(top, base + step - 1, -1):
            els.append(BraidNeg(j))
    return tuple(els)


def _gab_layers(a_mat: np.ndarray, b_mat: np.ndarray):
    """Scattering layers realizing G(A, B) on two dense qubits (strand
    offsets are local to a 4-strand window); see classify.decompose_gab."""
    from .classify import gab_rotation_layers

    layers, phase = gab_rotation_layers(a_mat, b_mat)
    els = []
    amp = phase
    for kind, which, alpha in layers:
        # e^{i alpha Z_d} = e^{i alpha} * Scattering(2d, -2 alpha)
        # e^{i alpha X X}  = e^{i alpha} * Scattering(2d+1, -2 alpha)
        if abs(alpha) < 1e-15:
            continue
        pos = 2 * which if kind == "z" else 1
        els.append(Scattering(pos, -2 * alpha))
        amp *= cmath.exp(1j * alpha)
    return tuple(els), amp


def _cz_block(base: int, n_elements_before: int):
    """CZ via the gadget (G_H, SWAP, G_X, G_H) on the middle dense qubits,
    conjugated by logical Hadamards into this encoding."""
    from .circuits import H as H_MATRIX

    h_pair_els = []
    amp = 1.0 + 0.0j
    for q_base in (base, base + 4):
        els, a, _ = _single_qubit_block(Gate("H", (0,)), q_base)
        h_pair_els.extend(els)
        amp *= a

    gh_els, gh_amp = _gab_layers(H_MATRIX, H_MATRIX)
    mid = base + 2  # gadget window: strands base+2 .. base+5
    gh_els = offset_elements(gh_els, mid)
    gx_els = (DotPair(base + 3, base + 4),)
    swap_els = offset_elements(_weave(0, 2, 2), mid)

    elements = []
    cuts = []
    t = n_elements_before

    def emit(els, cut_strands=None):
        nonlocal t
        elements.extend(els)
        t += len(els)
        if cut_strands is not None:
            cuts.append(ParityCut(t, cut_strands))

    emit(tuple(h_pair_els))
    emit(gh_els)
    emit(swap_els, cut_strands=tuple(range(base + 2, base + 4)))
    emit(gx_els)
    emit(gh_els)
    # the gadget's inner cut halves the flow; the content-preserving
    # normalization restores it (pinned by the dense-oracle gate test)
    amp *= 2.0 * gh_amp * gh_amp
    for q_base in (base, base + 4):
        els, a, _ = _single_qubit_block(Gate("H", (0,)), q_base)
        emit(els)
        amp *= a
    cuts.append(ParityCut(t, tuple(range(base, base + 4))))
    return tuple(elements), amp, tuple(cuts)


def _cnot_gates(control: int, target: int):
    """CNOT as the e^{i pi/4 XX} decomposition; verified to reproduce the
    permutation matrix including global phase."""
    c, t = control, target
    return [
        Gate("H", (c,)),
        Gate("RXQ+", (t,)),
        Gate("XX", (min(c, t), max(c, t)), -_PI / 2),
        Gate("RXQ+", (c,)),
        Gate("H", (c,)),
    ]


# phases of the replaced sub-gates: RXQ+ carries e^{i pi/4} relative to
# e^{-i pi/4 X} and XXRot(-pi/2) carries e^{-i pi/4} relative to e^{i pi/4 XX};
# together with the decomposition's e^{i pi/4} everything cancels
_CNOT_EXTRA_AMP = 1.0 + 0.0j


def compile_circuit(c: Circuit) -> QuonDiagram:
    """Compile a nearest-neighbor circuit to a Quon diagram with one 4-strand
    open interval per qubit on each of the top and bottom boundaries."""
    width = 4 * c.n_qubits
    elements: list = []
    holes: list[ParityCut] = []
    notches: list[ParityCut] = []
    amplitude = 1.0 + 0.0j
    marks = set()
    for q in range(c.n_qubits):
        marks.add((0, 4 * q))
        marks.add((0, 4 * q + 3))

    for g in c.gates:
        if g.name in ("X", "Y", "Z", "S", "SINV", "H", "RXQ+", "RXQ-", "RZ"):
            els, amp, gate_cuts = _single_qubit_block(g, 4 * g.qubits[0])
        elif g.name == "XX":
            els, amp, gate_cuts = _xx_block(g.angle, 4 * min(g.qubits), len(elements))
        elif g.name == "CNOT":
            for sg in _cnot_gates(g.qubits[0], g.qubits[1]):
                if sg.name == "XX":
                    e2, a2, c2 = _xx_block(sg.angle, 4 * min(sg.qubits), len(elements))
                else:
                    e2, a2, c2 = _single_qubit_block(sg, 4 * sg.qubits[0])
                elements.extend(e2)
                amplitude *= a2
                notches.extend(c2)
            amplitude *= _CNOT_EXTRA_AMP
            continue
        elif g.name == "CZ":
            els, amp, gate_cuts = _cz_block(4 * min(g.qubits), len(elements))
        elif g.name == "SWAP":
            # the two closed-interval notches of the SWAP realized as genuine
            # holes; the SWAP-hole relation removes them when adjacent
            base = 4 * min(g.qubits)
            pre_cut = ParityCut(len(elements), tuple(range(base, base + 4)))
            els = _weave(base, 4, 4)
            post_cut = ParityCut(len(elements) + len(els), tuple(range(base, base + 4)))
            elements.extend(els)
            holes.extend((pre_cut, post_cut))
            continue
        else:
            raise UnknownGenerator(g.name)
        elements.extend(els)
        amplitude *= amp
        notches.extend(gate_cuts)

    core = MajoranaDiagram(width, width, tuple(elements), amplitude)
    intervals = tuple(
        OpenInterval(side, 4 * q, 4)
        for side in (TOP, BOTTOM)
        for q in range(c.n_qubits)
    )
    return QuonDiagram(core, tuple(holes), intervals, frozenset(marks),
                       tuple(notches))


# -- dense extraction -------------------------------------------------------


def quon_to_dense_tensor(q: QuonDiagram, use_oracle: bool = False) -> DenseTensor:
    """Component enumeration over all basis assignments; legs are the open
    intervals' qubits, top intervals (left to right) first.

    Every component is a set of terms of one factorisation
    (`_prepared_components`); `use_oracle` instead closes q with each
    assignment's encoders and evaluates it with the Fock oracle.
    """
    order = sorted(
        range(len(q.open_intervals)),
        key=lambda i: (q.open_intervals[i].side != TOP, q.open_intervals[i].start),
    )
    leg_counts = [q.open_intervals[i].qubit_count for i in order]
    rank = sum(leg_counts)
    if rank > 12:
        raise TooManyLegs(f"{rank} legs exceeds the 12-leg extraction limit")
    assignments = []
    for bits in itertools.product((0, 1), repeat=rank):  # entry index order
        groups: list[tuple[int, ...]] = [()] * len(q.open_intervals)
        pos = 0
        for i, count in zip(order, leg_counts):
            groups[i] = tuple(bits[pos:pos + count])
            pos += count
        assignments.append(groups)
    if use_oracle:
        entries = [evaluate_closed_quon(encode_basis(q, BasisAssignment(groups)), use_oracle=True)
                   for groups in assignments]
    else:
        entries = _prepared_components(q, assignments)
    return DenseTensor(rank, np.array(entries, dtype=complex))


def _prepared_components(q: QuonDiagram, assignments) -> list[complex]:
    """The basis components of q for each assignment of per-interval bits,
    as terms of one `PreparedDiagram` evaluated in one call.

    q is closed once by its all-zero encoders.  Each candidate encoder dot
    (`encoder_slots`) is a one-point group: a top interval's at the slice
    after all top caps, a bottom interval's at the slice before the bottom
    cups, each side in descending strand order.  Top slots come first, then
    the projections' parity strings, then bottom slots.  A component is the
    sum over the projections of the terms with the dots its bits put down.
    """
    intervals = q.open_intervals
    closed = encode_basis(q, BasisAssignment(tuple((0,) * iv.qubit_count for iv in intervals)))
    top_end = sum(len(iv.pairing_data.elements) for iv in intervals if iv.side == TOP)
    # (strand at the boundary, interval, slot) of every candidate dot, per side
    slots = {
        side: sorted(((iv.start + s, i, k) for i, iv in enumerate(intervals) if iv.side == side
                      for k, s in enumerate(encoder_slots(iv))), reverse=True)
        for side in (TOP, BOTTOM)
    }
    cuts = all_projections(closed)
    groups = (
        [(top_end, (strand,)) for strand, _, _ in slots[TOP]]
        + [(c.time_index, c.strands) for c in cuts]
        + [(top_end + len(q.core.elements), (strand,)) for strand, _, _ in slots[BOTTOM]]
    )
    group_of = {(i, k): g for g, (_, i, k) in enumerate(slots[TOP])}
    group_of.update({(i, k): g for g, (_, i, k) in
                     enumerate(slots[BOTTOM], len(slots[TOP]) + len(cuts))})
    masks = []
    for bit_groups in assignments:
        selected = 0
        for i, bits in enumerate(bit_groups):
            dots = [k for k, b in enumerate(bits) if b] + ([len(bits)] if sum(bits) % 2 else [])
            for k in dots:
                selected |= 1 << group_of[(i, k)]
        masks.extend(selected | s << len(slots[TOP]) for s in range(1 << len(cuts)))
    terms = gaussian.PreparedDiagram(closed.core, groups).evaluate(masks)
    return [projection_sum(row, len(cuts)) for row in terms.reshape(len(assignments), -1)]


def dense_gate_matrix(q: QuonDiagram) -> np.ndarray:
    """Dense (out x in) matrix of a compiled circuit diagram."""
    n_top = sum(iv.qubit_count for iv in q.open_intervals if iv.side == TOP)
    tensor = quon_to_dense_tensor(q)
    mat = tensor.as_matrix(n_top)  # rows = top bits (inputs), cols = bottom
    return mat.T  # (out, in)


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
    pairing = {}
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
        raise ValueError("pairs must tile 0..size-1")
    order = []
    positions = list(range(size))
    live = {p: i for i, p in enumerate(positions)}
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
            raise ValueError("pairing is not planar (non-crossing)")
    caps = tuple(Cap(pos) for _, pos in reversed(order))
    return caps


# -- leg contraction ---------------------------------------------------------


def contract_legs(q: QuonDiagram, interval_a: int, interval_b: int,
                  mode: str = "neighboring") -> QuonDiagram:
    """Glue two same-side open intervals through the resolution of the
    identity.  Neighboring intervals connect directly; non-neighboring ones
    are routed across the intervening strands with positive braids and add
    one ParityCut (a puncture)."""
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

    intervals = []
    for k, iv in enumerate(q.open_intervals):
        if k in (interval_a, interval_b):
            continue
        if iv.side == iv_a.side and iv.start > iv_b.start:
            intervals.append(replace(iv, start=iv.start - 2 * s))
        elif iv.side == iv_a.side and iv.start > iv_a.start:
            intervals.append(replace(iv, start=iv.start - s))
        else:
            intervals.append(iv)

    core = q.core
    # gluing through the resolution of the identity imposes the bundle's
    # parity projection: a notch for neighboring contractions (the manifold
    # pinch between the mouths), the puncture's own cut otherwise
    if iv_a.side == BOTTOM:
        # the gluing is appended, so nothing needs re-timing
        tail: list = []
        start = iv_a.start
        if gap:
            # braid the a-bundle rightward across the gap (positive-over)
            for step in range(gap):
                pos = start + s - 1 + step
                for j in range(pos, start + step - 1, -1):
                    tail.append(BraidPos(j))
            start = iv_a.start + gap
        projection = ParityCut(len(core.elements) + len(tail), tuple(range(start, start + s)))
        for k in range(s):
            tail.append(Cup(start + s - 1 - k))
        new_core = MajoranaDiagram(core.width_in, core.width_out - 2 * s,
                                   core.elements + tuple(tail), core.amplitude)
        cuts, notches = q.parity_cuts, q.notches
        if mode == "non_neighboring":
            cuts += (projection,)
        else:
            notches += (projection,)
        return QuonDiagram(new_core, cuts, intervals, q.boundary_tracking, notches)

    if mode == "non_neighboring":
        raise IntervalMismatch("non-neighboring top contraction is not supported")
    head = tuple(Cap(iv_a.start + k) for k in range(s))
    new_core = MajoranaDiagram(core.width_in - 2 * s, core.width_out,
                               head + core.elements, core.amplitude)
    glued = q.splice(0, 0, new_core, intervals)
    return replace(glued, notches=glued.notches + (ParityCut(s, tuple(iv_a.strands)),))
