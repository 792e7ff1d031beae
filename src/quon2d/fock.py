"""Exponential-cost Fock-space evaluation oracle.

Elements act on a dense state vector over n qubits (2n Majorana strands)
through the Jordan-Wigner dictionary:

* strand 2q, 2q+1 form qubit q (qubit 0 is the most significant axis),
* g_{2q}   = Z_0 ... Z_{q-1} X_q,
* g_{2q+1} = i Z_0 ... Z_q X_q,
* a cap at an even position inserts a fresh qubit in |0> with weight 2^{1/4};
  at an odd position it splits qubit q via |b> -> 2^{-1/4} sum_p |p, p xor b>,
* cups are the daggers of caps,
* every other element acts as its a*1 + b*M (`diagram`'s convention), M
  built from `apply_gamma`.

Every normalization question elsewhere in the package is settled against
this oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diagram import I_POWERS, WIDTH_DELTA, MajoranaDiagram, row_weights
from .errors import InvariantViolation, NotClosed, OracleTooLarge

_QUARTER = 2.0 ** 0.25

DEFAULT_ORACLE_LIMIT = 20


@dataclass
class FockState:
    """Dense state over n_strands/2 qubits; amplitudes has length 2^(n_strands/2)."""

    n_strands: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_strands
        if n < 0 or n % 2:
            raise InvariantViolation(
                f"n_strands must be even and non-negative (two per qubit), got {n}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2 ** (n // 2),):
            raise InvariantViolation(
                f"amplitude vector has shape {self.amplitudes.shape}; {n} strands need a "
                f"flat vector of {2 ** (n // 2)} amplitudes")

    @staticmethod
    def scalar(value: complex = 1.0) -> "FockState":
        return FockState(0, np.array([value], dtype=complex))

    def tensor(self) -> np.ndarray:
        n = self.n_strands // 2
        return self.amplitudes.reshape([2] * n) if n else self.amplitudes.reshape(())


def _zmul(t: np.ndarray, axis: int) -> np.ndarray:
    t = t.copy()
    sl = [slice(None)] * t.ndim
    sl[axis] = 1
    t[tuple(sl)] *= -1
    return t


def _xmul(t: np.ndarray, axis: int) -> np.ndarray:
    return np.take(t, [1, 0], axis=axis)


def apply_gamma(t: np.ndarray, j: int) -> np.ndarray:
    """Apply the Majorana operator of strand j to an n-qubit tensor."""
    q, odd = divmod(j, 2)
    u = _xmul(t, q)
    if odd:
        u = 1j * _zmul(u, q)
    for qp in range(q):
        u = _zmul(u, qp)
    return u


@functools.lru_cache(maxsize=1024)
def _monomial(positions: tuple[int, ...], qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """M = i^(n//2) g_{s1} ... g_{sn} on `qubits` qubits as (phases, sources),
    (M t)[x] = phases[x] * t[sources[x]]: read off M applied to 1, 2, 3, ...,
    since M permutes the basis states with phases +-1, +-i."""
    probe = np.arange(1, 2 ** qubits + 1, dtype=complex).reshape((2,) * qubits)
    probe = I_POWERS[len(positions) // 2 % 4] * functools.reduce(
        apply_gamma, reversed(positions), probe).ravel()  # the rightmost acts first
    sources = np.abs(probe).astype(int) - 1
    phases = np.round(probe / (sources + 1))  # round away the division's last bit
    phases.flags.writeable = sources.flags.writeable = False  # shared by every call
    return phases, sources


def _apply_cap(t: np.ndarray, j: int, n_after: int) -> np.ndarray:
    q, odd = divmod(j, 2)
    new = np.zeros([2] * n_after, dtype=complex)
    if not odd:
        sl = [slice(None)] * n_after
        sl[q] = 0
        new[tuple(sl)] = t
        return _QUARTER * new
    for b in (0, 1):
        sl_old = [slice(None)] * (n_after - 1)
        sl_old[q] = b
        tb = t[tuple(sl_old)]
        for p in (0, 1):
            sl = [slice(None)] * n_after
            sl[q] = p
            sl[q + 1] = p ^ b
            new[tuple(sl)] = tb
    return new / _QUARTER


def _apply_cup(t: np.ndarray, j: int, n_before: int) -> np.ndarray:
    q, odd = divmod(j, 2)
    if not odd:
        sl = [slice(None)] * n_before
        sl[q] = 0
        return _QUARTER * t[tuple(sl)]
    new = None
    for a in (0, 1):
        for b in (0, 1):
            sl = [slice(None)] * n_before
            sl[q], sl[q + 1] = a, b
            piece = t[tuple(sl)]
            target = a ^ b
            sl_new = [slice(None)] * (n_before - 1)
            sl_new[q] = target
            if new is None:
                new = np.zeros(piece.shape[:q] + (2,) + piece.shape[q:], dtype=complex)
            new[tuple(sl_new)] += piece
    return new / _QUARTER


def apply_element(state: FockState, kind: int, j: int, k: int, angle: complex = 0j,
                  horizontal: bool = False) -> FockState:
    """Apply one diagram element, given as its row of `diagram.Columns`
    (`el.row()` of an element object), to a Fock state."""
    n = state.n_strands // 2
    grown = WIDTH_DELTA[kind]
    if grown > 0:
        return FockState(state.n_strands + 2, _apply_cap(state.tensor(), j, n + 1).ravel())
    if grown < 0:
        return FockState(state.n_strands - 2, _apply_cup(state.tensor(), j, n).ravel())
    a, b = row_weights(kind, angle, horizontal)
    phases, sources = _monomial((j,) if j == k else (j, k), n)
    t = state.amplitudes
    return FockState(state.n_strands, a * t + b * (phases * t[sources]))


def propagate(state: FockState, diag: MajoranaDiagram,
              limit: int = DEFAULT_ORACLE_LIMIT) -> FockState:
    """`state`, on diag.width_in strands, after diag's elements, row by row
    of its columns; diag's amplitude is left to the caller.  Raises
    OracleTooLarge when any slice holds more than `limit` Majoranas."""
    if diag.max_width() > limit:
        raise OracleTooLarge(f"max width {diag.max_width()} exceeds oracle limit {limit}")
    if state.n_strands != diag.width_in:
        raise InvariantViolation(f"{state.n_strands} strands fed to width {diag.width_in}")
    for row in zip(*diag.columns):
        state = apply_element(state, *row)
    return state


def evaluate_closed_oracle(
    diag: MajoranaDiagram, limit: int = DEFAULT_ORACLE_LIMIT
) -> complex:
    """Evaluate a closed diagram by brute-force state propagation.

    Raises NotClosed for open diagrams and OracleTooLarge when any slice
    holds more than `limit` Majoranas.
    """
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")
    state = propagate(FockState.scalar(1.0), diag, limit)
    return complex(diag.amplitude) * complex(state.amplitudes[0])


def diagram_operator(diag: MajoranaDiagram, limit: int = DEFAULT_ORACLE_LIMIT) -> np.ndarray:
    """Dense matrix of an open diagram: shape (2^(w_out/2), 2^(w_in/2)).

    Columns are obtained by feeding computational basis states in at the top.
    """
    if diag.max_width() > limit:  # before the matrix is allocated
        raise OracleTooLarge(f"max width {diag.max_width()} exceeds oracle limit {limit}")
    n_in = diag.width_in // 2
    n_out = diag.width_out // 2
    mat = np.zeros((2 ** n_out, 2 ** n_in), dtype=complex)
    for col in range(2 ** n_in):
        vec = np.zeros(2 ** n_in, dtype=complex)
        vec[col] = 1.0
        mat[:, col] = propagate(FockState(diag.width_in, vec), diag, limit).amplitudes
    return complex(diag.amplitude) * mat
