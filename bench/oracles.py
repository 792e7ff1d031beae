"""References the benchmark checks the program against.

Both are written here from first principles and share no code with
`quon2d`: a log-domain row transfer matrix for the Ising partition function
with per-edge couplings, and a numpy state-vector simulator built from
textbook gate matrices.  Gate data are plain tuples
`(name, qubits, angle)`, so the simulator never sees a `quon2d` object.

Conventions (the same as `quon2d.circuits`): qubit 0 is the most
significant index, RZ(t) = diag(1, e^{it}),
XX(t) = e^{it/2} (cos(t/2) I - i sin(t/2) X(x)X), and the first qubit of a
CNOT is its control.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

ONE_QUBIT = {
    "X": _PAULI_X,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
}

TWO_QUBIT = {
    # basis |first second>, first qubit most significant
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def gate_unitary(name: str, angle: float | None = None) -> np.ndarray:
    """Textbook matrix of one gate on its own qubits, in the order given."""
    if name in ONE_QUBIT:
        return ONE_QUBIT[name]
    if name in TWO_QUBIT:
        return TWO_QUBIT[name]
    if name == "RZ":
        return np.diag([1.0, cmath.exp(1j * angle)]).astype(complex)
    if name == "XX":
        xx = np.kron(_PAULI_X, _PAULI_X)
        return cmath.exp(0.5j * angle) * (
            math.cos(angle / 2) * np.eye(4) - 1j * math.sin(angle / 2) * xx)
    raise ValueError(f"no reference matrix for gate {name!r}")


def apply_gates(state: np.ndarray, n_qubits: int, gates) -> np.ndarray:
    """Apply `gates` in order to a batch of states of shape (2**n, batch)."""
    psi = state.reshape((2,) * n_qubits + (-1,))
    for name, qubits, angle in gates:
        k = len(qubits)
        u = gate_unitary(name, angle).reshape((2,) * (2 * k))
        # contract the gate's input legs with the addressed qubit axes,
        # then move its output legs back into place
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return psi.reshape(2 ** n_qubits, -1)


def circuit_unitary(n_qubits: int, gates) -> np.ndarray:
    """U with U[out, in] = <out| gates |in>."""
    return apply_gates(np.eye(2 ** n_qubits, dtype=complex), n_qubits, gates)


def circuit_amplitude(n_qubits: int, gates, bits_in, bits_out) -> complex:
    """<bits_out| gates |bits_in>, global phase included."""
    dim = 2 ** n_qubits
    state = np.zeros((dim, 1), dtype=complex)
    state[_index(bits_in), 0] = 1.0
    return complex(apply_gates(state, n_qubits, gates)[_index(bits_out), 0])


def _index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def ising_log_z(rows: int, cols: int, horizontal, vertical) -> float:
    """log Z of the open rows x cols Ising lattice by a row transfer matrix.

    `horizontal[r][c]` couples sites (r, c) and (r, c+1); `vertical[r][c]`
    couples (r, c) and (r+1, c).  The row vector is rescaled after every
    step and the scales are summed in the log, so no value overflows.
    """
    n_states = 1 << cols
    # spin of column c in row state s: +1 for bit 0, -1 for bit 1 (bit c
    # counted from the most significant end)
    bits = (np.arange(n_states)[:, None] >> (cols - 1 - np.arange(cols))) & 1
    spins = 1.0 - 2.0 * bits

    def row_energy(r):
        k = np.asarray(horizontal[r], dtype=float)
        return (spins[:, :-1] * spins[:, 1:]) @ k

    log_scale = 0.0
    e = row_energy(0)
    top = float(e.max())
    vec = np.exp(e - top)
    log_scale += top
    for r in range(rows - 1):
        for c in range(cols):
            k = float(vertical[r][c])
            v = vec.reshape(1 << c, 2, n_states >> (c + 1))
            same, flip = math.exp(k), math.exp(-k)
            vec = np.stack(
                (same * v[:, 0] + flip * v[:, 1], flip * v[:, 0] + same * v[:, 1]),
                axis=1,
            ).reshape(n_states)
        e = row_energy(r + 1)
        top = float(e.max())
        vec = vec * np.exp(e - top)
        log_scale += top
        peak = float(vec.max())
        vec /= peak
        log_scale += math.log(peak)
    return log_scale + math.log(float(vec.sum()))


def ising_log_z_enumerated(rows: int, cols: int, horizontal, vertical) -> float:
    """log Z by summing over every spin configuration (rows * cols <= 20)."""
    n = rows * cols
    if n > 20:
        raise ValueError(f"{n} sites is too many to enumerate")
    configs = np.arange(1 << n)
    spin = 1.0 - 2.0 * ((configs[:, None] >> np.arange(n)) & 1)
    energy = np.zeros(1 << n)
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                energy += horizontal[r][c] * spin[:, s] * spin[:, s + 1]
            if r + 1 < rows:
                energy += vertical[r][c] * spin[:, s] * spin[:, s + cols]
    top = energy.max()
    return float(top + math.log(np.exp(energy - top).sum()))
