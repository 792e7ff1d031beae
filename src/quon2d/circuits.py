"""Nearest-neighbor qubit circuits and the dense matrix oracle.

`GATES` is the one table of gate names: each name's `GateKind` gives its
arity, whether it takes an angle and its textbook unitary.  `Gate` checks
its name, qubits and angle against it, `gate_matrix` looks the unitary up
there, and the compiler's block table is keyed by the same names.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation, NonAdjacentTwoQubitGate, TooLarge

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class GateKind:
    """What a gate name means: the number of qubits it acts on, its unitary
    on them (two-qubit gates: qubit order = (min, max) of the addressed
    pair) and whether it takes an angle."""

    qubits: int
    matrix: Callable[["Gate"], np.ndarray]
    takes_angle: bool = False


GATES = {
    "X": GateKind(1, lambda g: X),
    "Y": GateKind(1, lambda g: Y),
    "Z": GateKind(1, lambda g: Z),
    "S": GateKind(1, lambda g: np.diag([1, 1j]).astype(complex)),
    "SINV": GateKind(1, lambda g: np.diag([1, -1j]).astype(complex)),
    "H": GateKind(1, lambda g: H),
    # e^{+-i pi/4} e^{-+i pi/4 X}
    "RXQ+": GateKind(1, lambda g: cmath.exp(1j * math.pi / 4) * (
        math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * X)),
    "RXQ-": GateKind(1, lambda g: cmath.exp(-1j * math.pi / 4) * (
        math.cos(math.pi / 4) * I2 + 1j * math.sin(math.pi / 4) * X)),
    "RZ": GateKind(1, lambda g: np.diag([1, cmath.exp(1j * g.angle)]).astype(complex), True),
    "XX": GateKind(2, lambda g: cmath.exp(1j * g.angle / 2) * (
        math.cos(g.angle / 2) * np.eye(4) - 1j * math.sin(g.angle / 2) * np.kron(X, X)), True),
    "CNOT": GateKind(2, lambda g: np.eye(4, dtype=complex)[
        [0, 1, 3, 2] if g.qubits[0] < g.qubits[1] else [0, 3, 2, 1]]),
    "CZ": GateKind(2, lambda g: np.diag([1, 1, 1, -1]).astype(complex)),
    "SWAP": GateKind(2, lambda g: np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
}


@dataclass(frozen=True)
class Gate:
    """A gate of `GATES` on integer qubits; an angle is reduced mod 2 pi.
    Raises InvariantViolation naming the gate for an unknown name, a wrong
    number of qubits, a qubit that is not an integer, a missing or
    non-finite angle, or an angle on a gate that takes none."""

    name: str
    qubits: tuple[int, ...]
    angle: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())
        kind = GATES.get(self.name)
        if kind is None:
            raise InvariantViolation(f"unknown gate {self.name!r}")
        try:
            object.__setattr__(self, "qubits", tuple(operator.index(q) for q in self.qubits))
        except TypeError:
            raise InvariantViolation(f"{self}: qubits must be integers") from None
        if len(self.qubits) != kind.qubits:
            raise InvariantViolation(f"{self}: {self.name} takes {kind.qubits} qubit(s)")
        if kind.takes_angle:
            if not isinstance(self.angle, numbers.Real) or not math.isfinite(self.angle):
                raise InvariantViolation(f"{self}: {self.name} needs a finite angle")
            object.__setattr__(self, "angle", float(self.angle) % (2 * math.pi))
        elif self.angle is not None:
            raise InvariantViolation(f"{self}: {self.name} takes no angle")


@dataclass(frozen=True)
class Circuit:
    """Gates on qubits 0..n_qubits - 1.  Raises InvariantViolation for a
    qubit count that is not a non-negative integer (a bool is not one) and
    for a gate outside the qubits; NonAdjacentTwoQubitGate for a two-qubit
    gate on qubits that are not neighbours."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise InvariantViolation(
                f"n_qubits must be a non-negative integer, the number of qubits; got {n!r}")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise InvariantViolation(
                    f"{g} addresses qubits outside 0..{self.n_qubits - 1}")
            if len(g.qubits) == 2 and abs(g.qubits[0] - g.qubits[1]) != 1:
                raise NonAdjacentTwoQubitGate(
                    f"{g} is not nearest-neighbor; insert explicit SWAP chains"
                )


def gate_matrix(g: Gate) -> np.ndarray:
    """The gate's unitary on its own qubits (two-qubit gates: qubit order =
    (min, max) of the addressed pair)."""
    return GATES[g.name].matrix(g)


def circuit_oracle_unitary(c: Circuit) -> np.ndarray:
    """Ordered matrix product of the standard gate matrices; qubit 0 is the
    most significant index.  Limited to 12 qubits."""
    if c.n_qubits > 12:
        raise TooLarge(f"{c.n_qubits} qubits exceeds the 12-qubit oracle limit")
    dim = 2 ** c.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        u = _embedded(g, c.n_qubits) @ u
    return u


def _embedded(g: Gate, n: int) -> np.ndarray:
    lo = min(g.qubits)
    m = gate_matrix(g)
    left = np.eye(2 ** lo, dtype=complex)
    right = np.eye(2 ** (n - lo - len(g.qubits)), dtype=complex)
    return np.kron(np.kron(left, m), right)
