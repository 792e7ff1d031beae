"""Structural classifiers and matchgate utilities.

Classification is a sufficient syntactic check on the given representation
(semantic testing is intractable): Clifford form means no generic scattering
element; matchgate form means every closed boundary interval is tracked by a
marked quiet strand and the manifold is hole-free after automatic
string-genus cleanup; punctured matchgate form drops the hole-freeness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .errors import InvariantViolation, NotMatchgate, RankTooLarge, TooLarge, UntaggedTensor
from .quon import QuonDiagram, remove_holes_to_fixpoint
from .wires import WireTrace

_PI = math.pi


@dataclass(frozen=True)
class ClassReport:
    clifford_form: bool
    matchgate_form: bool
    punctured_matchgate_form: bool
    hole_count: int
    generic_scattering_count: int
    boundary_tracking_ok: bool

    def __post_init__(self):
        if self.matchgate_form and not self.punctured_matchgate_form:
            raise InvariantViolation(
                "matchgate form implies punctured matchgate form: set "
                "punctured_matchgate_form=True or matchgate_form=False")


def boundary_tracking_ok(q: QuonDiagram) -> bool:
    """Every marked strand must be quiet (no dots, braids, or scatterings),
    and marks must exist whenever the diagram has boundary structure."""
    trace = WireTrace(q.core)
    labels = trace.worldline_labels()
    marked = {labels[trace.slices[t][pos]] for t, pos in q.boundary_tracking}
    if not marked and (q.open_intervals or q.parity_cuts):
        return False
    return marked.isdisjoint(labels[sid] for sid, count in enumerate(trace.touches) if count)


def classify(q: QuonDiagram, cleanup: bool = True) -> ClassReport:
    """Structural Clifford / matchgate / punctured-matchgate report.

    hole_count reports the diagram as given; matchgate_form is judged after
    attempting automatic string-genus removals (on a copy) when `cleanup`.
    """
    generic = q.core.generic_scattering_count()
    tracking = boundary_tracking_ok(q)
    cleaned = remove_holes_to_fixpoint(q) if cleanup else q
    matchgate = tracking and cleaned.hole_count() == 0
    return ClassReport(
        clifford_form=generic == 0,
        matchgate_form=matchgate,
        punctured_matchgate_form=tracking,
        hole_count=q.hole_count(),
        generic_scattering_count=generic,
    boundary_tracking_ok=tracking,
    )


# -- matchgate identity ------------------------------------------------------


def matchgate_identity_residual(entries: np.ndarray, rank: int | None = None) -> float:
    """Max over (x, y) of |sum_{a: x_a != y_a} T(x xor e_a) T(y xor e_a)
    (-1)^{x_1+..+x_{a-1}+y_1+..+y_{a-1}}|; zero iff the tensor is matchgate."""
    entries = np.asarray(entries, dtype=complex).reshape(-1)
    n = int(round(math.log2(entries.size)))
    if 2 ** n != entries.size:
        raise InvariantViolation(
            f"{entries.size} entries: a tensor of rank n has 2^n entries, one per bit string")
    if rank is not None and rank != n:
        raise InvariantViolation(
            f"rank {rank} does not match {entries.size} entries: pass rank={n} or omit it")
    if n > 8:
        raise RankTooLarge(f"rank {n} exceeds the limit 8")
    worst = 0.0
    for x in range(2 ** n):
        for y in range(2 ** n):
            diff = x ^ y
            if not diff:
                continue
            total = 0.0 + 0.0j
            prefix_x = 0
            prefix_y = 0
            for a in range(n):
                bit = 1 << (n - 1 - a)
                if diff & bit:
                    sign = -1.0 if (prefix_x + prefix_y) % 2 else 1.0
                    total += sign * entries[x ^ bit] * entries[y ^ bit]
                if x & bit:
                    prefix_x += 1
                if y & bit:
                    prefix_y += 1
            worst = max(worst, abs(total))
    return worst


def boundary_ordered(entries, n_top: int) -> np.ndarray:
    """Reorder a (top..., bottom...) leg tensor into the planar boundary
    cycle (top left-to-right, then bottom right-to-left), the order in which
    the matchgate identity applies."""
    t = np.asarray(entries)
    n = int(round(math.log2(t.size)))
    t = t.reshape([2] * n)
    perm = list(range(n_top)) + list(range(n - 1, n_top - 1, -1))
    return np.transpose(t, perm).reshape(-1)


@dataclass(frozen=True)
class MatchgateGate:
    """The two-block matchgate G(A, B): A on the even-parity sector, B on the
    odd one; valid when det A = det B."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex).reshape(2, 2)
        b = np.asarray(self.b, dtype=complex).reshape(2, 2)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if abs(np.linalg.det(a) - np.linalg.det(b)) > 1e-9:
            raise NotMatchgate(
                f"det A = {np.linalg.det(a):.6g} != det B = {np.linalg.det(b):.6g}"
            )

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        a, b = self.a, self.b
        m[0, 0], m[0, 3], m[3, 0], m[3, 3] = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        m[1, 1], m[1, 2], m[2, 1], m[2, 2] = b[0, 0], b[0, 1], b[1, 0], b[1, 1]
        return m


def _su2_params(u: np.ndarray):
    """(theta, phi1, phi2) with u = [[e^{i phi1} cos(t/2), -e^{-i phi2} sin(t/2)],
    [e^{i phi2} sin(t/2), e^{-i phi1} cos(t/2)]]."""
    c = u[0, 0]
    s = u[1, 0]
    t = 2 * math.atan2(abs(s), abs(c))
    phi1 = cmath.phase(c) if abs(c) > 1e-12 else 0.0
    phi2 = cmath.phase(s) if abs(s) > 1e-12 else 0.0
    return t, phi1, phi2


def _gai_layers(theta, phi1, phi2, odd_sector: bool):
    """(kind, dense qubit, alpha) layers for G(A, I) (odd_sector False) or
    G(I, B) (True), following the two Appendix products (verified against
    dense matrices)."""
    if not odd_sector:
        return [
            ("z", 0, phi2 / 4), ("z", 1, -_PI / 4 + phi1 / 2 + phi2 / 4),
            ("xx", 0, theta / 4),
            ("z", 0, _PI / 4), ("z", 1, _PI / 4),
            ("xx", 0, -theta / 4),
            ("z", 0, -_PI / 4 + phi1 / 2 - phi2 / 4), ("z", 1, -phi2 / 4),
        ]
    return [
        ("z", 0, phi2 / 4), ("z", 1, _PI / 4 - phi1 / 2 - phi2 / 4),
        ("xx", 0, theta / 4),
        ("z", 0, _PI / 4), ("z", 1, -_PI / 4),
        ("xx", 0, -theta / 4),
        ("z", 0, -_PI / 4 + phi1 / 2 - phi2 / 4), ("z", 1, phi2 / 4),
    ]


def decompose_gab(g: MatchgateGate):
    """Circuit over {Rz, XXRot} whose oracle unitary equals G(A, B) up to the
    returned overall phase: (circuit, phase).

    A and B are rescaled to SU(2) by the root of their common determinant
    and written as rotation layers (kind, dense qubit, alpha), first-applied
    first; e^{i alpha Z} = e^{i alpha} Rz(-2 alpha) and e^{i alpha XX} =
    e^{i alpha} XXRot(-2 alpha), so the phase is the root times
    prod e^{i alpha}.  Layers with |alpha| < 1e-15 are dropped.
    """
    phase = cmath.sqrt(np.linalg.det(g.a))
    layers = _gai_layers(*_su2_params(g.b / phase), odd_sector=True)
    layers += _gai_layers(*_su2_params(g.a / phase), odd_sector=False)
    gates = []
    for kind, which, alpha in layers:
        if abs(alpha) >= 1e-15:
            phase *= cmath.exp(1j * alpha)
            gates.append(Gate("RZ", (which,), -2 * alpha) if kind == "z"
                         else Gate("XX", (0, 1), -2 * alpha))
    return Circuit(2, tuple(gates)), complex(phase)


# -- desk-scale decomposition -------------------------------------------------


def clifford_matchgate_decompose(tensors, plan, open_legs):
    """Contract a tagged network into one Clifford and one matchgate tensor.

    `tensors`: list of (tag, ndarray) with tag in {"clifford", "matchgate"};
    `plan`: list of ((i, leg_i), (j, leg_j)) contractions; `open_legs`:
    ordered list of (i, leg) defining the output leg order.  Returns
    (clifford_tensor, matchgate_tensor, bridge_count): contracting the last
    bridge_count legs of each against each other reproduces the network.
    """
    for tag, _ in tensors:
        if tag not in ("clifford", "matchgate"):
            raise UntaggedTensor(f"tag {tag!r}")
    total_legs = sum(np.asarray(t).ndim for _, t in tensors)
    if total_legs > 2 * len(plan) + 16:
        raise TooLarge("network too large for the desk-scale decomposition")

    def group_contract(indices: list[int]):
        """Contract all plan edges internal to `indices`; returns
        (tensor, boundary) with boundary = list of (i, leg) in output order."""
        idx = {i: np.asarray(tensors[i][1], dtype=complex) for i in indices}
        # start with an identity scalar and absorb tensors one by one
        order = list(indices)
        result = np.array(1.0 + 0.0j)
        result_legs: list = []
        for i in order:
            result = np.tensordot(result, idx[i], axes=0)
            result_legs += [(i, l) for l in range(idx[i].ndim)]
            # contract any internal edges now available
            changed = True
            while changed:
                changed = False
                for (pi, pl), (qi, ql) in plan:
                    if (pi, pl) in result_legs and (qi, ql) in result_legs:
                        a = result_legs.index((pi, pl))
                        b = result_legs.index((qi, ql))
                        result = np.trace(
                            np.moveaxis(result, (a, b), (0, 1)), axis1=0, axis2=1
                        )
                        result_legs = [
                            leg for k, leg in enumerate(result_legs) if k not in (a, b)
                        ]
                        changed = True
                        break
        return result, result_legs

    cliff_ids = [i for i, (tag, _) in enumerate(tensors) if tag == "clifford"]
    match_ids = [i for i, (tag, _) in enumerate(tensors) if tag == "matchgate"]
    cliff, cliff_legs = group_contract(cliff_ids)
    match, match_legs = group_contract(match_ids)

    bridges = [
        ((pi, pl), (qi, ql))
        for (pi, pl), (qi, ql) in plan
        if (tensors[pi][0] != tensors[qi][0])
    ]
    # order: open legs (as requested), then bridge legs (same order on both)
    def arrange(tensor, legs, own_open, bridge_side):
        perm = [legs.index(l) for l in own_open] + [legs.index(l) for l in bridge_side]
        if sorted(perm) != list(range(tensor.ndim)):
            raise TooLarge("network legs do not tile (dangling contraction?)")
        return np.transpose(tensor, perm)

    cliff_open = [l for l in open_legs if tensors[l[0]][0] == "clifford"]
    match_open = [l for l in open_legs if tensors[l[0]][0] == "matchgate"]
    cliff_bridge = []
    match_bridge = []
    for (p, q) in bridges:
        if tensors[p[0]][0] == "clifford":
            cliff_bridge.append(p)
            match_bridge.append(q)
        else:
            cliff_bridge.append(q)
            match_bridge.append(p)
    cliff = arrange(cliff, cliff_legs, cliff_open, cliff_bridge)
    match = arrange(match, match_legs, match_open, match_bridge)
    return cliff, match, len(bridges)


def recombine(cliff: np.ndarray, match: np.ndarray, bridge_count: int) -> np.ndarray:
    """Contract the trailing bridge legs of the two parts."""
    if bridge_count == 0:
        return np.tensordot(cliff, match, axes=0)
    axes_c = list(range(cliff.ndim - bridge_count, cliff.ndim))
    axes_m = list(range(match.ndim - bridge_count, match.ndim))
    return np.tensordot(cliff, match, axes=(axes_c, axes_m))
