"""Parlett-Reid eliminations of complex antisymmetric matrices.

`_eliminate` is a blocked, banded Parlett-Reid (LTL^T) with partial
pivoting, after Wimmer, "Efficient numerical computation of the Pfaffian for
dense and banded skew-symmetric matrices" (ACM TOMS 38, 2012,
arXiv:1102.3440): panels of 2 * PANEL columns are eliminated with their
trailing updates held back, then applied as one matrix product.  Every step
works in a window of rows [k, hi): the rows from hi on are original rows,
untouched, because no row eliminated or swapped so far reaches them.  The
window follows the actual nonzeros and fill, so nothing is assumed about the
matrix.  It takes the matrix as its nonzeros (`_Rows`) and copies a row into
a buffer the size of the window (`_Window`) only when the window reaches it,
so with a window of width w it costs O(N w^2) time and O(nnz + w^2) memory.
W of an L x L Ising lattice in time order has bandwidth about 4L, and the
window stays near it: at L = 14 (N = 728, bandwidth 55) the buffer is at
most 192 rows wide.  A dense matrix, such as a compiled circuit's W, opens
the whole matrix at step 0 and costs O(N^3).

`_pfaffians` eliminates a stack of small matrices of one size in one
unblocked pass, one rank-2 update of the whole stack per step, where NumPy's
per-call overhead, not arithmetic, would dominate one elimination per
matrix.  Products are kept as a mantissa and a power of two
(`_renormalised`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PANEL = 32  # pivot steps whose trailing updates are applied together
SINGULAR_TOL = 1e-16  # relative size of a pivot taken as zero
_LOW, _HIGH = 2.0 ** -64, 2.0 ** 64  # |mantissa| kept as it is (see `_renormalised`)


class _Rows(NamedTuple):
    """An antisymmetric matrix W by its nonzeros below the diagonal, row by
    row: row r has an entry in column c = cols[i], c < r, for each i in
    range(starts[r], starts[r + 1]), with lower[i] = W[r, c] and upper[i] =
    W[c, r].  Every other entry of W is 0.  Both values are kept, so that
    W is the matrix entry for entry, signed zeros included."""

    starts: np.ndarray
    cols: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray) -> _Rows:
        """The nonzeros of a square matrix: every pair whose entry is nonzero
        on either side of the diagonal."""
        nonzero = a != 0
        rows, cols = np.nonzero(np.tril(nonzero | nonzero.T, -1))
        starts = np.zeros(len(a) + 1, dtype=int)
        np.cumsum(np.bincount(rows, minlength=len(a)), out=starts[1:])
        return cls(starts, cols, a[rows, cols], a[cols, rows])

    def reach(self) -> list[int]:
        """One past the last column with an entry, for each row (0 for a row
        without one)."""
        n = len(self.starts) - 1
        reach = np.zeros(n, dtype=int)
        rows = np.repeat(np.arange(n), np.diff(self.starts))
        np.maximum.at(reach, self.cols, rows + 1)
        np.maximum.at(reach, rows, self.cols + 1)
        return reach.tolist()

    def largest(self) -> float:
        """max |entry| (0 for no entries)."""
        return float(max(np.abs(self.lower).max(initial=0.0), np.abs(self.upper).max(initial=0.0)))

    def plus_pairs(self, first: np.ndarray, values: np.ndarray) -> _Rows:
        """W plus value at (i, i + 1) and minus it at (i + 1, i), for each i
        in `first` (ascending) and its value, as new arrays: where W has no
        entry (i + 1, i), one is inserted as 0 and the value added to it, so
        each entry is W's own plus the value."""
        ends = self.starts[first + 2]  # one past row i + 1, whose last column is at most i
        present = ends > self.starts[first + 1]
        present[present] = self.cols[ends[present] - 1] == first[present]
        missing = first[~present]  # an entry 0 goes at the end of each such row i + 1
        starts = self.starts + np.searchsorted(missing + 2, np.arange(len(self.starts)),
                                               side="right")
        at = starts[missing + 2] - 1
        kept = np.ones(len(self.cols) + len(missing), dtype=bool)
        kept[at] = False
        cols = np.empty(len(kept), dtype=int)
        cols[kept], cols[at] = self.cols, missing
        lower, upper = np.zeros((2, len(kept)), dtype=complex)
        lower[kept], upper[kept] = self.lower, self.upper
        last = starts[first + 2] - 1
        lower[last] -= values
        upper[last] += values
        return _Rows(starts, cols, lower, upper)


def _eliminate(w: _Rows, core: int, singular_tol: float):
    """Blocked, banded Parlett-Reid elimination of the first `core` rows of
    the antisymmetric matrix W, given by its nonzeros.

    Returns (pf, x, e, schur, largest): the Pfaffian of the eliminated
    part, swap signs included, is pf * 2^x, e is the number of eliminated
    rows, schur is the Schur complement on the deferred core rows
    (positions e .. core - 1) followed by the rows after the core, so that
    for every set S of rows after the core

        Pf(W[core + S]) = pf * 2^x * Pf(schur on deferred + S),

    and largest is W's max |entry|.

    The running product is renormalised by an exact power of two whenever it
    leaves [2^-64, 2^64) (see `_renormalised`), so every pivot may lie
    anywhere in the float range, and pf * 2^x equals the plain product
    wherever that is in float range.

    Step k pivots the largest |entry| of row k among the remaining core
    columns into column k + 1 and eliminates with the rank-2 update
    tau col^T - col tau^T of the trailing block.  When that entry is at or
    below singular_tol times scale = max(max|entry|, 1), row k is deferred
    instead: swapped behind the remaining core rows.  With no rows after the
    core it has nothing left to pair with, and the elimination stops with
    pf = 0 and e = n: nothing is left of the Schur complement.
    A kept pivot bounds the multipliers of the columns after the core by
    1 / singular_tol; a term's Pfaffian over those columns multiplies two
    of them, so its round-off grows like eps / singular_tol^2, which is why
    `PreparedDiagram` passes DEFER_TOL and not a tolerance near sqrt(eps).
    Within a panel of 2 * PANEL columns the updates stay pending in p and q
    (the current matrix is the stored one plus p q^T); each step reads rows k
    and k + 1 with one matrix-vector product each, and the panel's updates
    reach the trailing block as one matrix product.

    Window: every row at a position >= hi is an original row of W, at its
    own position and untouched by any update.  reach[r] is one past the last
    nonzero column of row r of W.  Step k raises hi to the reach of row k
    before its pivot search, and to the reaches of rows k + 1 and kp once the
    pivot kp is chosen, before they swap.  Then rows k and k + 1 vanish
    beyond hi, so the step's update, and every swapped row and column, lies
    in [k, hi): the pivot search, the matrix-vector products, the swaps and
    the panel's product touch that window only.  A deferral sets hi = n.
    So the matrix is held only on the positions [base, top), top >= hi, in
    `buf`: the rows from top on are original, and rows top .. to - 1 are
    copied in from the nonzeros, a block of at least 2 * PANEL rows at a
    time, when hi passes top.  A column of such a row that holds an earlier
    row is found at that row's current position; it cannot have been
    eliminated, since its reach passes the new row.  The rows and columns
    from the panel's start on move to a new zero `buf` when a copy would run
    past its end, or at a panel's start when little room is left (see
    `_Window`); p and q cover the same positions.  With a window of width w
    the elimination costs O(N w^2) and holds O(nnz + w^2); a dense matrix
    reaches hi = n at step 0, is copied in whole, and costs O(N^3)."""
    n = len(w.starts) - 1
    reach = w.reach()
    largest = w.largest()
    scale = max(largest, 1.0)
    win = _Window(w)
    del w  # the window lets the nonzeros go once all of them are in
    orig = win.orig  # the original row at each position
    p = q = np.zeros((0, 0), dtype=complex)
    k = k0 = hi = 0
    pf, x = 1.0 + 0.0j, 0
    while k + 1 < core:
        k0 = k
        # the matrix and the pending updates from position k0 on
        hi = max(hi, k + 2, reach[orig[k]])
        a = win.start(k0, hi)
        p = np.zeros((len(a), min(2 * PANEL, core - k0)), dtype=complex)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            hi = max(hi, k + 2, reach[orig[k]])
            if hi > win.top:
                a, p, q = win.load(hi, k0, p, q)
            row = a[j, j + 1:hi - k0] + q[j + 1:hi - k0, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:min(hi, core) - k - 1])))
            if abs(row[i]) <= singular_tol * scale:
                if core == n:  # nothing kept: row k pairs with no row at all
                    return 0.0 + 0.0j, 0, n, np.zeros((0, 0), dtype=complex), largest
                core -= 1  # defer row k behind the remaining core rows
                hi = n
                a, p, q = win.load(n, k0, p, q)
                if core != k:
                    c = core - k0
                    a[[j, c], j:] = a[[c, j], j:]
                    a[j:, [j, c]] = a[j:, [c, j]]
                    p[[j, c]] = p[[c, j]]
                    q[[j, c]] = q[[c, j]]
                    orig[k], orig[core] = orig[core], orig[k]
                    pf = -pf
                continue
            kp = k + 1 + i
            reached = hi  # row k vanishes from column reached on
            hi = max(hi, reach[orig[k + 1]], reach[orig[kp]])
            if hi > win.top:
                a, p, q = win.load(hi, k0, p, q)
            if i:
                a[[j + 1, j + 1 + i], j + 1:hi - k0] = a[[j + 1 + i, j + 1], j + 1:hi - k0]
                a[j + 1:hi - k0, [j + 1, j + 1 + i]] = a[j + 1:hi - k0, [j + 1 + i, j + 1]]
                p[[j + 1, j + 1 + i]] = p[[j + 1 + i, j + 1]]
                q[[j + 1, j + 1 + i]] = q[[j + 1 + i, j + 1]]
                orig[k + 1], orig[kp] = orig[kp], orig[k + 1]
                row[[0, i]] = row[[i, 0]]
                pf = -pf
            pivot = row[0]
            pf *= pivot
            if not _LOW <= abs(pf) < _HIGH:
                pf, x = _renormalised(pf, x)
            if k + 2 < hi:
                tau = row[1:] / pivot
                col = -(a[j + 1, j + 2:hi - k0] + q[j + 2:hi - k0, :j] @ p[j + 1, :j])
                p[j + 2:reached - k0, j] = tau
                p[j + 2:hi - k0, j + 1] = col
                q[j + 2:hi - k0, j] = col
                q[j + 2:reached - k0, j + 1] = -tau
            k += 2
        if k < hi:
            a[k - k0:hi - k0, k - k0:hi - k0] += p[k - k0:hi - k0] @ q[k - k0:hi - k0].T
    a, _, _ = win.load(n, k0, p, q)
    return pf, x, k, a[k - k0:, k - k0:].copy(), largest


class _Window:
    """The positions [base, top) of the matrix that `_eliminate` works on,
    held in `buf`, and the rows of W from top on, as its nonzeros `w` (None
    once top = n): those rows are W's own, untouched.  orig[i] is W's row at
    position i, which `_eliminate` keeps as it swaps rows."""

    def __init__(self, w: _Rows):
        self.w = w
        self.orig = list(range(len(w.starts) - 1))
        self.where = np.arange(len(self.orig))  # W's row r is at where[r] (see `load`)
        self.buf = np.zeros((0, 0), dtype=complex)
        self.base = self.top = 0

    def start(self, k0: int, hi: int) -> np.ndarray:
        """The matrix from position k0 <= hi on, for a panel that starts
        there, with the rows before hi copied in (see `load`).  With fewer
        than 2 * PANEL rows left in buf past top, the positions from k0 on
        first move to a new buf (see `_move`), so that a panel seldom moves
        them."""
        if hi > self.top:
            self._copy(hi, k0)
        elif self.top < len(self.orig) and self.base + len(self.buf) - self.top < 2 * PANEL:
            self._move(k0, self.top)
        return self.buf[k0 - self.base:, k0 - self.base:]

    def load(self, to: int, k0: int, p: np.ndarray, q: np.ndarray):
        """`_copy` of the rows before `to`; returns the matrix from position
        k0 on, and p and q with as many rows."""
        self._copy(to, k0)
        a = self.buf[k0 - self.base:, k0 - self.base:]
        if len(p) < len(a):
            p, q = (np.concatenate([m, np.zeros((len(a) - len(m), m.shape[1]), dtype=complex)])
                    for m in (p, q))
        return a, p, q

    def _copy(self, to: int, k0: int) -> None:
        """Copy W's rows top .. to - 1, at least 2 * PANEL of them (fewer at
        the end), into buf, at their own positions, each entry in the column
        of its other row's position; first `_move` when they run past the
        end of buf."""
        w, n = self.w, len(self.orig)
        to = min(n, max(to, self.top + 2 * PANEL))
        if to <= self.top:
            return
        if to - self.base > len(self.buf):
            self._move(k0, to)
        # only rows in the window have moved, and only they share entries with new rows
        self.where[self.orig[self.base:self.top]] = np.arange(self.base, self.top)
        first, last = w.starts[self.top], w.starts[to]
        rows = np.repeat(np.arange(self.top, to) - self.base, np.diff(w.starts[self.top:to + 1]))
        cols = self.where[w.cols[first:last]] - self.base
        self.buf[rows, cols] = w.lower[first:last]
        self.buf[cols, rows] = w.upper[first:last]
        self.top = to
        if to == n:  # nothing left to copy: a dense W is not held twice
            self.w = None

    def _move(self, k0: int, to: int) -> None:
        """Move the positions [k0, top) to the start of a new zero buf that
        reaches 4 * PANEL rows past `to` (or n)."""
        size = min(len(self.orig), to + 4 * PANEL) - k0
        moved = np.zeros((size, size), dtype=complex)
        live = slice(k0 - self.base, self.top - self.base)
        moved[:self.top - k0, :self.top - k0] = self.buf[live, live]
        self.buf, self.base = moved, k0


def _split(z: complex) -> tuple[complex, int]:
    """(m, s) with z = m * 2^s exactly and the larger part of m in [0.5, 1);
    (z, 0) for zero and non-finite z."""
    s = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -s), math.ldexp(z.imag, -s)), s


def _renormalised(z: complex, x: int) -> tuple[complex, int]:
    """(z, x) as it is while |z| lies in [2^-64, 2^64), so that a product
    that stays there keeps x = 0; otherwise `_split` of z, its power added
    to x.  Zero and non-finite values stay as they are.  The hot loops make
    the same range test inline and call this only when it fails."""
    if _LOW <= abs(z) < _HIGH:
        return z, x
    m, s = _split(z)
    return m, x + s


def _ldexp(z, x: int):
    """z * 2^x, exactly, for a complex array or number (z itself when x is
    0); past the float range it is inf, with no warning."""
    if not x:
        return z
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(z.real, x)
        out.imag = np.ldexp(z.imag, x)
    return out


def _pfaffians(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack a[t] of antisymmetric matrices, overwriting a.

    One unblocked Parlett-Reid pass over the whole stack: at step k each
    matrix pivots the largest |entry| of its row k into column k + 1 with
    its own swaps, and the stack takes one rank-2 update.  A row whose
    largest |entry| is at or below SINGULAR_TOL times max(max|entry|, 1) of
    its matrix makes that Pfaffian exactly 0 (as in `pfaffian`); the matrix
    goes on with a unit pivot.  Every operation acts on each matrix alone,
    so a Pfaffian does not depend on the other matrices in the stack.
    """
    count, n = a.shape[:2]
    if n % 2:
        return np.zeros(count, dtype=complex)
    pf = np.ones(count, dtype=complex)
    tol = SINGULAR_TOL * np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0), 1.0)
    zero = np.zeros(count, dtype=bool)
    at = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n, 2):
            s = a[:, k:, k:]  # the trailing blocks; s[:, 0] is row k
            p = 1 + np.argmax(np.abs(s[:, 0, 1:]), axis=1)
            row = s[at, p]
            s[at, p] = s[:, 1]
            s[:, 1] = row
            col = s[at, :, p]
            s[at, :, p] = s[:, :, 1]
            s[:, :, 1] = col
            pf = np.where(p > 1, -pf, pf)
            pivot = s[:, 0, 1]
            unusable = np.abs(pivot) <= tol
            zero |= unusable
            pivot = np.where(unusable, 1.0, pivot)
            # out of place: NumPy rounds an in-place product of a one-element
            # array differently from that of a longer one
            pf = pf * pivot
            if k + 2 < n:
                tau = s[:, 0, 2:] / pivot[:, None]
                u = s[:, 1, 2:, None] * tau[:, None, :]
                s[:, 2:, 2:] += u - u.transpose(0, 2, 1)
    pf[zero] = 0.0
    return pf
