"""Parlett-Reid eliminations of antisymmetric matrices, in the matrix's dtype.

`_eliminate` is a blocked, banded Parlett-Reid (LTL^T) with partial
pivoting, after Wimmer, "Efficient numerical computation of the Pfaffian for
dense and banded skew-symmetric matrices" (ACM TOMS 38, 2012,
arXiv:1102.3440): panels of pivot steps are eliminated with their trailing
updates held back, then applied as one matrix product.  Every step works in
a window of rows [k, hi): the rows from hi on are original rows, untouched,
because no row eliminated or swapped so far reaches them.  The window
follows the actual nonzeros and fill, so nothing is assumed about the
matrix.  It takes the matrix as its nonzeros (`_Rows`) and copies a row into
a buffer the size of the window (`_Window`) only when the window reaches it,
so with a window of width w it costs O(N w^2) time and O(nnz + w^2) memory.
W of an L x L Ising lattice in time order has bandwidth about 4L, and the
window stays near it: at L = 14 (N = 728, bandwidth 55) the buffer is at
most 244 rows wide.  A dense matrix opens the whole matrix at step 0 and
costs O(N^3).  A compiled circuit's W is dense, since its encoder loops run
through the whole circuit, but small: its braids are crossings of the
wiring, so its points are its dot pairs and rotations, about 22 for a
3-qubit amplitude of the benchmark, where the per-step overhead below costs
more than the arithmetic.

Cost model.  A step makes about 25 NumPy calls whatever the window's width,
so on a narrow window their overhead, not the O(w) to O(w^2) arithmetic,
sets the time: at L = 14 (window about 47 rows) the 364 steps of its real
W take about 6 ms on 2 shared vCPUs, about 16 us each.  So on a banded W `_eliminate`
first tries each next BLOCK core rows as one 2 x 2-block pivot A11, in the
manner of Bunch & Kaufman's block LDL^T (Math. Comp. 31, 1977), on top of
the steps: a kept block costs one inverse and one update A22 += A12^T X of
the window, about 10 calls and O(BLOCK^3 + BLOCK w^2) arithmetic, in place
of BLOCK / 2 steps.  The Pfaffians of all kept blocks come from one
`_pivots` pass over their stack at the end, which costs BLOCK / 2 stack
steps however many blocks there are.  At L = 14 all 36 blocks are kept and
the elimination takes 2.7 ms instead of 6.0 (4.7 against 8.3 in complex128,
BENCH_real_gauge.json).  At L = 64 the window is about 280 rows wide and
both ways are bound by the same arithmetic (0.21 s against 0.25 s; 0.40
against 0.47 in complex128).  A dense W tries no block: there a
block's update does a panel's arithmetic and saves a share of the calls
only, while a refused block costs an inverse and a product over the whole
width, and the cores of compiled circuits, the dense W's here, are exactly
singular in places.

`_pfaffians` eliminates a stack of small matrices of one size in one
unblocked pass, one rank-2 update of the whole stack per step, where NumPy's
per-call overhead, not arithmetic, would dominate one elimination per
matrix.  Products are kept as a mantissa and a power of two
(`_renormalised`).

The dtype follows W, as in Wimmer's real and complex routines: the
window's buffer, the p and q panels, the kept blocks' store, `_product`'s
stack and `_pfaffians`' stacks are float64 for a real W (a square Ising
lattice's, gauged in `gaussian`) and complex128 otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

PANEL = 32  # pivot steps whose trailing updates are applied together
SINGULAR_TOL = 1e-16  # relative size of a `_pfaffians` pivot taken as zero
BLOCK = 20  # core rows tried as one block pivot (see `_block`)
# A kept block's multipliers are at most 1; W's entries are phases, and a
# multiplier that is 1 exactly comes out a few ulps above it
MULTIPLIER_MAX = 1.0 + 1e-9
# A core pivot at or below DEFER_TOL times the scale is deferred behind the
# core.  A kept pivot p gives multipliers up to 1/p on the group rows and a
# term's Pfaffian multiplies two of them, so its round-off grows like
# eps / p^2: O(1) for p near sqrt(eps), which circuits with angles at
# k*pi/2 + 1e-8 reach.  With 1e-3 near-Clifford amplitudes stay within 1e-10
# of the unitary; with 1e-4 an offset of 2e-4 still missed by 3e-9.  A block
# pivot A11 is kept only with max|A11| max|A11^-1| <= 1 / DEFER_TOL.
DEFER_TOL = 1e-3
_LOW, _HIGH = 2.0 ** -64, 2.0 ** 64  # |mantissa| kept as it is (see `_renormalised`)
_CHUNK = 512  # split factors multiplied at once: their product lies in [2^-512, 2^256)


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
        lower, upper = np.zeros((2, len(kept)), dtype=np.result_type(self.lower, values))
        lower[kept], upper[kept] = self.lower, self.upper
        last = starts[first + 2] - 1
        lower[last] -= values
        upper[last] += values
        return _Rows(starts, cols, lower, upper)


def _eliminate(w: _Rows, core: int):
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

    Blocks.  W is banded when its first BLOCK rows do not reach its last
    row.  Then, from k on, the next BLOCK core rows are tried as one pivot
    A11 = the current matrix on [k, k + BLOCK), with A12 their rows over
    [k + BLOCK, hi) and hi raised first to all their reaches, so that A12
    holds every nonzero of them.  No block whose rows reach W's last row is
    tried (on deep circuits they lost up to 1.9e-5).  A block is kept when
    np.linalg.inv(A11) is finite, max|A11| max|A11^-1| <= 1 / DEFER_TOL,
    and every multiplier |X| = |A11^-1 A12|, over the core and group
    columns alike, is at most 1 (MULTIPLIER_MAX); the window then takes the
    Schur update A22 += A12^T X, and k moves on by BLOCK.  The bound is on
    the multipliers because they, not A11, carry A11's error into the rest:
    X scales each update, and a term's Pfaffian over the group columns
    multiplies two of them, which is what partial pivoting (|tau| <= 1 on
    the core columns) and DEFER_TOL (1 / DEFER_TOL on the group columns)
    bound for a step; a well conditioned A11 does not bound X, since A12 may
    be large beside it.  The condition bound keeps X's own round-off, about
    eps max|A11| max|A11^-1|, small.  A kept block's Pfaffian is left for
    the end: each A11 is held by its entries above the diagonal, and
    `_product` multiplies the pivots of one `_pivots` pass over their stack
    into the steps' pivots, each block's in its place, so pf * 2^x is the
    plain product of the pivots in pivot order.  A kept block's pivots are
    not tested: its conditioning bound already keeps it away from singular.
    A refused or untried block runs as steps, a panel of BLOCK columns
    pivoted and deferred as below, and the next block is tried after it.
    A W that is not banded takes no block, and its panels are 2 * PANEL
    columns wide.

    Step k pivots the largest |entry| of row k among the remaining core
    columns into column k + 1 and eliminates with the rank-2 update
    tau col^T - col tau^T of the trailing block.  When that entry is at or
    below DEFER_TOL times scale = max(max|entry|, 1), row k is deferred
    instead: swapped behind the remaining core rows, into the Schur
    complement, whose Pfaffians `_pfaffians` takes on their own scale; with
    every row in the core, Pf(W) = pf * 2^x * Pf(schur), and a row with no
    usable pivot at all makes that last Pfaffian 0.  A kept pivot bounds the
    multipliers of the columns after the core by 1 / DEFER_TOL; a term's
    Pfaffian over those columns multiplies two of them, so its round-off
    grows like eps / DEFER_TOL^2, which is why DEFER_TOL is not near
    sqrt(eps).
    Within a panel the updates stay pending in p and q (the current matrix
    is the stored one plus p q^T); each step reads rows k and k + 1 with one
    matrix-vector product each, and the panel's updates reach the trailing
    block as one matrix product.

    Window: every row at a position >= hi is an original row of W, at its
    own position and untouched by any update.  reach[r] is one past the last
    nonzero column of row r of W.  Step k raises hi to the reach of row k
    before its pivot search, and to the reaches of rows k + 1 and kp once the
    pivot kp is chosen, before they swap.  Then rows k and k + 1 vanish
    beyond hi, so the step's update, and every swapped row and column, lies
    in [k, hi): the pivot search, the matrix-vector products, the swaps and
    the panel's product touch that window only.  A kept block raises hi to
    the reaches of its rows, so its update lies in [k, hi) too.  A deferral
    sets hi = n.  So the matrix is held only on the positions [base, top),
    top >= hi, in `buf`: the rows from top on are original, and rows
    top .. to - 1 are copied in from the nonzeros, at least 2 * PANEL rows
    at a time, when hi passes top.  A column of such a row that holds an
    earlier row is found at that row's current position; it cannot have
    been eliminated, since its reach passes the new row.  The rows and
    columns from the panel's or block's start on move to the start of `buf`
    when a copy would run past its end, or at that start when little room is
    left (see `_Window`); p and q cover the same positions.  With a window of
    width w the elimination costs O(N w^2) and holds O(nnz + w^2); a dense
    matrix reaches hi = n at step 0, is copied in whole, and costs O(N^3)."""
    n = len(w.starts) - 1
    reach = w.reach()
    largest = w.largest()
    scale = max(largest, 1.0)
    win = _Window(w)
    del w  # the window lets the nonzeros go once all of them are in
    orig = win.orig  # the original row at each position
    k = k0 = hi = 0
    negated = False  # by the swaps and deferrals of the steps
    pivots: list = []  # the steps' pivots in order, None for each kept block
    # the kept blocks' A11 by their entries above the diagonal, in order;
    # none is tried where W's first rows already reach its last row
    banded = max(reach[:BLOCK], default=0) < n
    upper = np.triu_indices(BLOCK, 1) if banded else None
    blocks = np.empty((core // BLOCK if banded else 0, BLOCK * (BLOCK - 1) // 2),
                      dtype=win.buf.dtype)
    kept = 0
    while k + 1 < core:
        k0 = k
        hi = max(hi, k + 2, reach[orig[k]])
        if kept < len(blocks) and k + BLOCK <= core:
            to = max(hi, k + BLOCK, *(reach[r] for r in orig[k:k + BLOCK]))
            # no view of the window outlives the try, so a move lets the old buf go
            above = _block(win.start(k0, to)[:to - k0, :to - k0], upper) if to < n else None
            if above is not None:
                blocks[kept] = above
                kept += 1
                pivots.append(None)
                hi, k = to, k + BLOCK
                continue
        # the matrix and the pending updates from position k0 on, for the
        # steps of a refused block, or of a panel where none is tried
        a = win.start(k0, hi)
        p = np.zeros((len(a), min(BLOCK if len(blocks) else 2 * PANEL, core - k0)), dtype=a.dtype)
        q = np.zeros_like(p)
        while k + 1 < core and k - k0 < p.shape[1]:
            j = k - k0
            hi = max(hi, k + 2, reach[orig[k]])
            if hi > win.top:
                a, p, q = win.load(hi, k0, p, q)
            row = a[j, j + 1:hi - k0] + q[j + 1:hi - k0, :j] @ p[j, :j]
            i = int(np.argmax(np.abs(row[:min(hi, core) - k - 1])))
            if abs(row[i]) <= DEFER_TOL * scale:
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
                    negated = not negated
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
                negated = not negated
            pivot = row[0]
            pivots.append(pivot)
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
        del a, p, q
    schur = win.start(k, n).copy()
    del win
    pf, x = _product(pivots, blocks[:kept])
    return -pf if negated else pf, x, k, schur, largest


def _block(a: np.ndarray, upper) -> np.ndarray | None:
    """Try the first BLOCK rows of the window `a` (the current matrix on
    the positions [k, hi), every nonzero of those rows among them) as one
    pivot A11.  Kept when A11 has a finite inverse, max|A11| max|A11^-1| <=
    1 / DEFER_TOL and every multiplier |X| = |A11^-1 A12| is at most 1, up
    to round-off; then the rest of the window takes the update
    A22 += A12^T X, and A11's entries at `upper`, the indices above its
    diagonal, are returned.  Else nothing changes, and the result is None."""
    a11, a12 = a[:BLOCK, :BLOCK], a[:BLOCK, BLOCK:]
    try:
        inv = np.linalg.inv(a11)
    except np.linalg.LinAlgError:  # exactly singular
        return None
    if not np.abs(inv).max() * np.abs(a11).max() <= 1.0 / DEFER_TOL:  # also inf, nan
        return None
    x = inv @ a12
    if not np.abs(x).max(initial=0.0) <= MULTIPLIER_MAX:
        return None
    a[BLOCK:, BLOCK:] += a12.T @ x
    return a11[upper]


def _product(pivots: list, blocks: np.ndarray) -> tuple[complex, int]:
    """(pf, x): the product of the pivots in order, each None replaced by
    the pivots of the next block, renormalised as it goes (see
    `_renormalised`).  blocks[b] holds block b's entries above the diagonal
    (`np.triu_indices`); the pivots of all blocks come from one `_pivots`
    pass over their stack, swap signs included, and are 0 for a block with
    an exactly zero one."""
    stacked = iter(())
    if len(blocks):
        i, j = np.triu_indices(BLOCK, 1)
        stack = np.zeros((len(blocks), BLOCK, BLOCK), dtype=blocks.dtype)
        stack[:, i, j] = blocks
        stack[:, j, i] = -blocks
        steps = [np.where(zero, 0.0, pivot) for pivot, zero in _pivots(stack, 0.0)]
        stacked = iter(np.array(steps).T.tolist())
    pf, x = 1.0 + 0.0j, 0
    for pivot in pivots:
        for factor in next(stacked) if pivot is None else (pivot,):
            pf *= factor
            if not _LOW <= abs(pf) < _HIGH:
                pf, x = _renormalised(pf, x)
    return pf, x


class _Window:
    """The positions [base, top) of the matrix that `_eliminate` works on,
    held in `buf`, and the rows of W from top on, as its nonzeros `w` (None
    once top = n): those rows are W's own, untouched.  orig[i] is W's row at
    position i, which `_eliminate` keeps as it swaps rows."""

    def __init__(self, w: _Rows):
        self.w = w
        self.orig = list(range(len(w.starts) - 1))
        self.where = np.arange(len(self.orig))  # W's row r is at where[r] (see `load`)
        self.buf = np.zeros((0, 0), dtype=w.lower.dtype)
        self.base = self.top = 0

    def start(self, k0: int, hi: int) -> np.ndarray:
        """The matrix from position k0 <= hi on, for a panel or block that
        starts there, with the rows before hi copied in (see `load`).  With
        fewer than 2 * PANEL rows left in buf past top, and rows of W left
        beyond its end, the positions from k0 on first move to the start of
        buf (see `_move`), so that a panel seldom moves them."""
        end = self.base + len(self.buf)
        if hi > self.top:
            self._copy(hi, k0)
        elif end < len(self.orig) and end - self.top < 2 * PANEL:
            self._move(k0, self.top)
        return self._view(k0)

    def load(self, to: int, k0: int, p: np.ndarray, q: np.ndarray):
        """`_copy` of the rows before `to`; returns the matrix from position
        k0 on, and p and q with as many rows."""
        self._copy(to, k0)
        a = self._view(k0)
        if len(p) < len(a):
            p, q = (np.concatenate([m, np.zeros((len(a) - len(m), m.shape[1]), dtype=m.dtype)])
                    for m in (p, q))
        return a, p, q

    def _view(self, k0: int) -> np.ndarray:
        """The positions [k0, n) held in buf (it may reach past n)."""
        i, n = k0 - self.base, len(self.orig) - self.base
        return self.buf[i:n, i:n]

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
        """Move the positions [k0, top) to the start of buf, with room up to
        4 * PANEL rows past `to` (or n), and zero the rest: in place when buf
        is large enough, else in a new buf, made once the old one has gone
        (unless the caller still holds a view of it)."""
        size = min(len(self.orig), to + 4 * PANEL) - k0
        live = slice(k0 - self.base, self.top - self.base)
        kept = self.buf[live, live].copy()
        if size > len(self.buf):
            dtype, self.buf = self.buf.dtype, None
            self.buf = np.zeros((size, size), dtype=dtype)
        else:
            self.buf[len(kept):] = 0.0
            self.buf[:len(kept), len(kept):] = 0.0
        self.buf[:len(kept), :len(kept)] = kept
        self.base = k0


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


def _times(z: complex, x: int, factors: np.ndarray) -> tuple[complex, int]:
    """z * 2^x times the product of `factors`, renormalised as
    `_renormalised` keeps it: each factor is first split as `_split` does,
    so that products of _CHUNK of them, their larger parts in [0.5, 1),
    stay in float range."""
    scale = np.frexp(np.maximum(np.abs(factors.real), np.abs(factors.imag)))[1]
    parts = np.empty_like(factors)
    parts.real = np.ldexp(factors.real, -scale)
    parts.imag = np.ldexp(factors.imag, -scale)
    for first in range(0, len(factors), _CHUNK):
        chunk = slice(first, first + _CHUNK)
        z, x = _renormalised(z * complex(np.prod(parts[chunk])), x + int(scale[chunk].sum()))
    return z, x


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
    """Pfaffians of a stack a[t] of antisymmetric matrices, overwriting a:
    the products of their `_pivots`.  A row whose largest |entry| is at or
    below SINGULAR_TOL times max(max|entry|, 1) of its matrix makes that
    Pfaffian exactly 0: the zero test of every Pfaffian, since `_eliminate`
    defers small pivots into these matrices.  Every operation acts on each
    matrix alone, so a Pfaffian does not depend on the other matrices in the
    stack."""
    count, n = a.shape[:2]
    if n % 2:
        return np.zeros(count, dtype=a.dtype)
    pf = np.ones(count, dtype=a.dtype)
    tol = SINGULAR_TOL * np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0), 1.0)
    zero = np.zeros(count, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for pivot, unusable in _pivots(a, tol):
            zero |= unusable
            # out of place: NumPy rounds an in-place product of a one-element
            # array differently from that of a longer one
            pf = pf * pivot
    pf[zero] = 0.0
    return pf


def _pivots(a: np.ndarray, tol):
    """Yield the pivots of a stack a[t] of antisymmetric matrices of even
    size, step by step, overwriting a: at each step an array of one pivot per
    matrix, and which of them are unusable.  The product of a matrix's
    pivots in order is its Pfaffian.

    One unblocked Parlett-Reid pass over the whole stack: at step k each
    matrix pivots the largest |entry| of its row k into column k + 1 with
    its own swaps, and the stack takes one rank-2 update.  A swap negates
    its step's pivot.  Where no matrix swaps, the gathers and scatters of the
    swap are skipped: a row swapped with itself is the identity.  A pivot at
    or below `tol` (one per matrix, or one for all) is unusable: its matrix
    goes on with a unit pivot, and its Pfaffian is 0."""
    count, n = a.shape[:2]
    at = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n, 2):
            s = a[:, k:, k:]  # the trailing blocks; s[:, 0] is row k
            p = 1 + np.argmax(np.abs(s[:, 0, 1:]), axis=1)
            swapped = p > 1
            swaps = swapped.any()
            if swaps:
                row = s[at, p]
                s[at, p] = s[:, 1]
                s[:, 1] = row
                col = s[at, :, p]
                s[at, :, p] = s[:, :, 1]
                s[:, :, 1] = col
            pivot = s[:, 0, 1]
            unusable = np.abs(pivot) <= tol
            pivot = np.where(unusable, 1.0, pivot)
            yield np.where(swapped, -pivot, pivot) if swaps else pivot, unusable
            if k + 2 < n:
                tau = s[:, 0, 2:] / pivot[:, None]
                u = s[:, 1, 2:, None] * tau[:, None, :]
                s[:, 2:, 2:] += u - u.transpose(0, 2, 1)
