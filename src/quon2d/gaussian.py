"""Polynomial-time evaluator for closed Majorana diagrams.

A closed diagram is a wiring of caps, cups and crossings decorated with
points.  A braid is a(1 + mu g_j g_{j+1}) with mu = +-1, a sqrt2 times a
unitary that carries each of its two worldlines to the other's position
with a sign (`diagram.CROSSING`): a crossing, which gives its scalar a
sqrt2 and no points.  Every other element but a cap or cup is a*1 + b*M
(`diagram`'s convention): a times (1 + mu * g_j g_{j+1}), mu = i*b/a, an
optional point pair, or, for a negligible a, b*M with mandatory points.
The wiring decomposes into loops (`wires.WireTrace`, which follows the
crossings); insertions contract pairwise by Wick's theorem, and the
weighted sum over insertion subsets collapses into a single Pfaffian:

    value = amplitude * V * prod(alpha_t * mu_t) * prod(mandatory scalars)
            * Pf(G + pair-couplings(1/mu))

where V, the vacuum of the wiring, is sqrt(2)^loops times a phase
(`_vacuum`): 1 for caps and cups alone; with crossings a product of
exp(+-i pi/4) and a sign that knotted wirings carry, found by making the
crossings one at a time: three BraidPos on the middle strands of two caps
closed by two cups (a trefoil) have V = -sqrt2, and three BraidPos between
one cap and cup (three twists of one loop) sqrt2 exp(3i pi/4).

A contraction G(x, y) moves the dot x along its loop onto y's strand by
exact moves, until g^2 = 1 is left: sliding in time along a strand (-1
whenever it passes y on another strand), through a crossing (the sign
i^(1 + mu) from position j to j + 1, i^(1 - mu) from j + 1 to j) and
hopping across a turn (a dot on the left arm of a cap, or the right arm of
a cup, is i times the dot on the other arm).  `contraction_matrix` reads
the trace's one walk of each loop (`wires.Walk`), which leaves the loop's
smallest segment through its birth turn and each segment through the turn
it did not enter by.  Segment k of the walk has its exit boundary (the
turn's slice + 1/4 for a cap, - 1/4 for a cup) and its span from entry to
exit boundary.  A point's phase exponent e(x) (`WireTrace.phases`) is the
walk's e at its segment's entry (a turn adds 1 from the left arm of a cap
or the right arm of a cup, 3 otherwise, and a crossing its sign's
exponent) plus the crossings its segment passes before it.  E is the
loop's total.  For x before y in time on segments a != b of one loop

    G(x, y) = i^(e(y) - e(x)) * (i^E if k_a > k_b) * (-1)^c,

where c counts the spans strictly between a and b, going forward, that hold
t_y strictly inside, plus one if t_y lies strictly between t_x and a's exit.
G is i^(e(y) - e(x)), a sign, within a segment and 0 across loops.  The
moves walk x out through a's birth turn, for some segments the other way
round, to the same entry: backward turns give inverse factors, so the
phases differ by i^E, and the counts c by an odd number, the strands of
the loop at time t_y other than y's own.  So i^E = -1 wherever V is not 0.

Twisted loops.  A loop whose E = 0 (mod 4) is twisted: moving a dot once
round it gives the vacuum minus itself, so V = 0.  Caps and cups alone
never twist a loop (E = 2 on each); crossings can.  The braid-type switch
(`rewrite.BraidTypeSwitch`) B(mu) = mu g_j g_{j+1} B(-mu) flips a
crossing for one mandatory dot pair.  `_vacuum` makes the crossings one at
a time and flips each one whose factor would be 0, so the vacuum of the
flipped wiring is a product of nonzero factors: no loop of it is twisted,
E = 2 (mod 4) on every loop, and the formula above holds for the flipped
wiring, its flips' dot pairs among the mandatory points.

The gauge.  With D = diag(i^e(x)) and E = 2 (mod 4), every contraction of
D G D is exactly +-1: (-1)^(e(y) + c + [k_a > k_b]) for x before y on
segments a != b, (-1)^e(y) within a segment.  `contraction_matrix` returns
these, from integer parities, in float64.  An optional pair's 1/mu becomes
i^(e_x + e_(x+1)) / mu, and W is float64 when every such entry is exactly
real, else complex128: real for an Ising lattice, square or generic (its
scatterings' mu is imaginary, e_x + e_(x+1) odd, and its braids are
crossings), complex for a compiled circuit with a generic rotation.  On
every principal submatrix Pf(D W D) = i^(sum of e) Pf(W), so each term is
multiplied by i^-(sum of e over the core and its points).  No |entry|
changes, so pivots, deferrals and blocks see the same magnitudes.

The sweep (`assemble_frontier`) reads the diagram's columns
(`diagram.Columns`, the one form a diagram stores), as the trace does: the
weights of all elements but caps and cups, their points and the product of
their scalars are computed as arrays, made from the column tuples once per
sweep.

One factorisation per diagram.  A parity projection (1 + P)/2 of a hole or
notch, and a bit-dependent dot of a basis encoder, add an optional group of
points to the diagram (the callers first prune the projections a diagram
already enforces, `wires.redundant_projections`, so that a compiled
circuit's amplitude is often one term); a term of a hole expansion or a
basis component selects some of these groups.  A contraction entry depends
only on its own two points, so every term is a principal sub-Pfaffian of
one matrix W over the core points followed by every group's points.  `PreparedDiagram`
eliminates the core rows of W once and evaluates each term as

    gauge * sign * Pf(eliminated) * Pf(Schur[deferred + selected])

where Schur is the complement left on the rows after the eliminated ones.
A core row with no pivot above DEFER_TOL among the core rows is deferred:
swapped behind the core, so that it joins every small matrix.  That is a
reordering, exact in exact arithmetic, and it is what makes the singular
cores of Clifford circuits work.  The gauge is the term's i^-(sum of e);
the sign is the interleave parity: moving each selected point from its
place in time to behind the core passes the core points later than it.
This follows the few-non-Gaussian-element methods of Dias & Koenig
(arXiv:2307.12912) and Reardon-Smith, Oszmaniec & Korzekwa
(arXiv:2307.12702).

The matrix W is kept as its nonzeros, row by row (`_Rows`, built by
`contraction_matrix` with no sort of the pairs), never as an N x N array,
and eliminated by the windowed, blocked Parlett-Reid of `elimination.py`,
which holds only the rows its window has reached: a banded W, such as an
Ising lattice's, costs O(nnz + w^2) memory and O(N w^2) time for a window
of width w, a dense W O(N^3).  A compiled circuit's W is dense (its encoder
loops run through the whole circuit) but small: its points are its dot
pairs and rotations only, about 22 for the benchmark's 3-qubit amplitudes,
whose 45 braids would add 90 as point pairs.  Each pivot
step there makes about 25 NumPy calls, which on a narrow window cost more
than its arithmetic, so a banded W is eliminated BLOCK core rows at a time
where it can: the block A11 is kept when its inverse is finite,
max|A11| max|A11^-1| <= 1 / DEFER_TOL and every multiplier |A11^-1 A12| is
at most 1, the bounds that partial pivoting and DEFER_TOL give a step, so a
kept block makes the terms' Pfaffians no less accurate (the bound is on the
multipliers, since a term's round-off grows with the product of two of
them); a refused block runs as steps.  A diagram without groups is the
case of none: every point is core, and its one term is Pf(eliminated) times
the Pfaffian of the Schur complement on the deferred rows; `pfaffian` does
the same on the nonzeros of a copy of any matrix.  The terms of a diagram
with groups are many small matrices, where NumPy's per-call overhead, not
arithmetic, would dominate a per-term elimination.
`PreparedDiagram.evaluate` gathers them into stacks of equal size (at most
STACK entries each) and `_pfaffians` (also in `elimination.py`) eliminates
a whole stack in one unblocked Parlett-Reid pass, one rank-2 update of the
stack per step.  Everything here is validated against the Fock oracle.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .diagram import CROSSING, WIDTH_DELTA, MajoranaDiagram
from .elimination import (
    _eliminate,
    _ldexp,
    _pfaffians,
    _renormalised,
    _Rows,
    _split,
    _times,
)
from .errors import InvariantViolation, NotClosed, NumericalInstability, TooLarge
from .wires import WireTrace

MU_MIN = 1e-13
STACK = 1 << 17  # matrix entries (2 MB) in one stack of small term matrices
PAIRS = 1 << 16  # point pairs whose contractions are computed together
MAX_GROUPS = 63  # point groups a term mask, a non-negative int64, can select
MAX_TERMS = 1 << 20  # terms one evaluation holds: 2^18 of them peaked near 100 MB
ANTISYMMETRY_TOL = 1e-10  # relative size of a + a^T that `pfaffian` accepts

_SQRT2 = math.sqrt(2.0)
_SUB = 1e-4  # sub-slot offset for multiple insertions of one element
_PHASES = np.array([1, 1j, -1, -1j])  # i^k by k % 4


def check_terms(count: int, what: str) -> None:
    """Raise TooLarge when an evaluation would hold more than MAX_TERMS
    terms; callers check before they build any per-term array."""
    if count > MAX_TERMS:
        raise TooLarge(f"{what} give {count} terms; one evaluation holds at most {MAX_TERMS}")


def _scaled_text(m: complex, x: int) -> str:
    """|m * 2^x| for a message: as a float when it is one, else as |m| x 2^x."""
    value = abs(complex(_ldexp(m, x)))
    if math.isfinite(value) and (value or not m):
        return f"{value:.3g}"
    return f"{abs(m):.3g} x 2^{x}"


def pfaffian(mat: np.ndarray) -> complex:
    """Pfaffian of an antisymmetric matrix, which is left unchanged:
    `_eliminate` of the nonzeros of a copy, with every row in the core, times
    `_pfaffians` of the Schur complement on the rows it deferred, as for a
    diagram without groups: zero when a row of that complement has only
    entries at or below SINGULAR_TOL times max(max|entry|, 1) of it.  A
    matrix of booleans, integers or reals is eliminated in float64, any
    other in complex128.  Anything but a finite square matrix whose
    max|a + a^T| is within ANTISYMMETRY_TOL of max(max|a|, 1) raises
    InvariantViolation."""
    try:
        a = np.asarray(mat)
        a = a.astype(float if a.dtype.kind in "biuf" else complex)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"pfaffian takes a numeric matrix: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantViolation(f"pfaffian takes a square 2-D matrix; got shape {a.shape}")
    mag = np.abs(a)
    if not np.isfinite(mag).all():
        raise InvariantViolation("pfaffian takes finite entries; got inf or nan")
    scale = max(float(mag.max(initial=0.0)), 1.0)
    skew = float(np.abs(a + a.T).max(initial=0.0))
    if skew > ANTISYMMETRY_TOL * scale:
        raise InvariantViolation(
            f"pfaffian takes an antisymmetric matrix; max|a + a^T| is {skew:.3g} against "
            f"max(max|a|, 1) {scale:.3g} (pass (a - a.T) / 2 for its antisymmetric part)")
    pf, x, _, schur, _ = _eliminate(_Rows.of(a), len(a))
    return complex(_ldexp(pf * _pfaffians(schur[None])[0], x))


def contraction_matrix(trace: WireTrace, seg: np.ndarray, t: np.ndarray, e: np.ndarray) -> _Rows:
    """The antisymmetric matrix W of the contractions G(x, y) of the points
    on the segments `seg` at the times `t`, with the phase exponents `e`
    (`WireTrace.phases`), read from the walk of `trace`, a closed
    diagram's, each gauged to +-1 in float64 (see the module docstring), as
    its nonzeros (`_Rows`): the pairs of points on one loop, each once.
    Row r lists the points of its loop before it, in order, so the pairs
    are enumerated row by row with no sort of them, and the cost is the sum
    over loops of points^2, not N^2.  They are computed in blocks of rows of
    about PAIRS entries, so no array but the result's is as long as the list
    of pairs."""
    n = len(seg)
    if not n:  # bare loops have nothing to contract
        return _Rows(np.zeros(1, dtype=int), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    walk = trace.walk
    lengths, exits = np.array(walk.lengths, dtype=int), np.array(walk.exits)
    first = np.cumsum(lengths) - lengths  # walk place of each loop's first segment
    loop_w = np.repeat(np.arange(len(lengths)), lengths)
    k_w = np.arange(len(exits)) - first[loop_w]
    prev = np.arange(len(exits)) - 1
    prev[first] += lengths  # a loop's first segment is entered from its last
    lo = np.full((len(lengths), lengths.max()), np.inf)  # spans, padded
    hi = -lo
    lo[loop_w, k_w] = np.minimum(exits[prev], exits)
    hi[loop_w, k_w] = np.maximum(exits[prev], exits)

    place = np.empty(len(exits), dtype=int)  # each segment's walk place
    place[walk.order] = np.arange(len(exits))
    at = place[seg]
    loop, k = loop_w[at], k_w[at]
    # prefix[y, j]: spans among the first j of y's loop that hold t_y strictly inside
    prefix = np.zeros((n, lo.shape[1] + 1), dtype=int)
    np.cumsum((lo[loop] < t[:, None]) & (t[:, None] < hi[loop]), axis=1, out=prefix[:, 1:])
    # row r: the points of r's loop before it, which open r's run in the
    # points sorted by (loop, index)
    s = np.argsort(loop, kind="stable")
    rank = np.empty(n, dtype=int)  # each point's place in its loop's run
    rank[s] = np.arange(n) - np.searchsorted(loop[s], loop[s])
    starts = np.zeros(n + 1, dtype=int)
    np.cumsum(rank, out=starts[1:])
    shift = np.empty(n, dtype=int)  # s index of a row's first entry, less the entry's index
    shift[s] = np.arange(n) - rank[s]
    shift -= starts[:-1]
    w = _Rows(starts, np.empty(starts[-1], dtype=int), np.empty(starts[-1]), np.empty(starts[-1]))
    r0 = 0
    while r0 < n:  # rows in blocks of about PAIRS entries, the only pair-sized arrays
        r1 = max(r0 + 1, int(np.searchsorted(starts, starts[r0] + PAIRS, side="right")) - 1)
        block = slice(starts[r0], starts[r1])
        rows = np.repeat(np.arange(r0, r1), rank[r0:r1])
        cols = s[np.arange(block.start, block.stop) + shift[rows]]
        w.cols[block] = cols
        first = t[rows] < t[cols]  # x before y in time
        x, y = np.where(first, rows, cols), np.where(first, cols, rows)
        # a wrap (k[x] > k[y]) also passes all the loop's strands at t_y: an even number
        between = prefix[y, k[y]] - prefix[y, k[x] + 1]
        exit_x = exits[at[x]]
        partial = (np.minimum(t[x], exit_x) < t[y]) & (t[y] < np.maximum(t[x], exit_x))
        c = (k[x] > k[y]) + between + partial  # i^E = -1 for a wrap
        g = 1.0 - 2.0 * ((e[y] + np.where(at[x] == at[y], 0, c)) & 1)
        negated = 0.0 - g  # W[y, x], as W[x, y] = g
        w.lower[block] = np.where(first, g, negated)
        w.upper[block] = np.where(first, negated, g)
        r0 = r1
    return w


def _opened(partner: list, sign: list, j: int) -> list:
    """The pairing of a slice after a turn opens the strands j, j + 1 as a
    pair (i g_j g_(j+1) = +1): `partner` moved, and `sign` extended in place."""
    partner = [p + 2 if p >= j else p for p in partner]
    partner[j:j] = (j + 1, j)
    sign[j:j] = (0, 2)
    return partner


def _closed(partner: list, sign: list, j: int) -> list:
    """The pairing of a slice after a turn closes the strands j, j + 1: their
    partners p, q are paired with i g_p g_q = -(i g_j g_p)(i g_(j+1) g_q),
    `partner` moved, and `sign` shortened in place."""
    p, q = partner[j], partner[j + 1]
    if p != j + 1:
        partner[p], partner[q] = q, p
        sign[p] = (2 + sign[j] + sign[j + 1]) % 4
        sign[q] = (sign[p] + 2) % 4
    del partner[j:j + 2], sign[j:j + 2]
    return [p - 2 if p > j + 1 else p for p in partner]


def _contraction(partner: list, sign: list, bra: list, bra_sign: list, j: int) -> int | None:
    """<b| g_j g_(j+1) |a> / <b|a> as k with the value i^k, None for 0, for
    the states |a> and <b| of a slice given by their pairings: strand p is
    paired with partner[p] and i g_p g_partner[p] |a> = i^sign[p] |a>, and
    likewise <b| by bra, bra_sign.  It follows the loop of the two pairings
    from j + 1, replacing g_y by i^(1 + sign[y]) g_partner[y] on |a> and, on
    <b|, by -i^(1 + bra_sign[y]) g_bra[y], until it meets j (0 when it comes
    back to j + 1 first)."""
    k, y = 0, j + 1
    while True:
        p = partner[y]
        if p == j:
            return (k + 3 + sign[j]) % 4
        k += 1 + sign[y]
        q = bra[p]
        if q == j:
            return (k + 1 + bra_sign[p]) % 4
        k += 3 + bra_sign[p]
        y = q
        if y == j + 1:
            return None


def _vacuum(trace: WireTrace) -> tuple[int, list[int]]:
    """The phase of the vacuum of a closed diagram's wiring, its caps, cups
    and crossings (braids as the unitaries U = (1 + mu g_j g_(j+1)) / sqrt2),
    once the crossings it passes are flipped: (n, passed) with that vacuum
    exp(i pi n / 4) sqrt2^loops, `passed` indices into `trace.crossed`.

    The crossings are made one at a time from the bottom up, the wiring
    above each one still uncrossed: this is the sweep in time order of the
    adjoint wiring (caps and cups swapped, mu negated, elements reversed),
    whose vacuum is the conjugate.  U multiplies the vacuum by
    (1 + mu G) / sqrt2, where G is the contraction of g_j g_(j+1) at the
    crossing between the state below it, with every later crossing made,
    and the uncrossed wiring above (`_contraction`).  G is 0 (two loops
    merge), mu (a loop splits), +-i (a loop is twisted back into one: a
    phase exp(+-i pi/4)), or -mu, which would make the factor 0.  That
    crossing is passed: made with -mu, as the flip B(mu) = mu g_j g_(j+1)
    B(-mu) takes it, where the factor is sqrt2.  So every factor is
    nonzero, and the product is the vacuum of the wiring with the passed
    crossings flipped: no loop of that wiring is twisted.  The states are
    pairings of the slice's strands (`_opened`, `_closed`); a crossing
    moves each arm to the other position with the signs of its mu
    (`diagram.CROSSING`).  The vacuum of a knotted wiring carries a sign (a
    trefoil's is -sqrt2) that no phase per crossing gives, which is why the
    crossings are made in turn.  Compiled circuits pass fewer crossings from
    the bottom up than from the top down."""
    kind, first = trace.diagram.columns.kind, trace.diagram.columns.j
    at = {int(trace.quiet[c]): i for i, c in enumerate(trace.crossed)}
    bras, partner, sign = {}, [], []
    for t in range(len(kind)):  # the uncrossed wiring above each crossing
        grown = WIDTH_DELTA[kind[t]]
        if grown > 0:
            partner = _opened(partner, sign, first[t])
        elif grown:
            partner = _closed(partner, sign, first[t])
        elif t in at:
            bras[t] = partner[:], sign[:]
    n, passed, partner, sign = 0, [], [], []
    for t in range(len(kind) - 1, -1, -1):
        code = kind[t]
        grown = WIDTH_DELTA[code]
        if grown < 0:  # the adjoint's cap
            partner = _opened(partner, sign, first[t])
        elif grown:
            partner = _closed(partner, sign, first[t])
        elif t in at:
            j = first[t]
            k = _contraction(partner, sign, *bras[t], j)
            mu = -CROSSING[code]  # the adjoint's
            if k is not None:
                k = (k + 1 - mu) % 4  # mu G = i^k
                if k == 2:
                    passed.append(at[t])
                    mu = -mu
                elif k:
                    n += 2 - k  # 1 +- i = sqrt2 exp(+-i pi/4)
            p, q = partner[j], partner[j + 1]
            if p != j + 1:  # i g_j g_p goes to -mu i g_(j+1) g_p, i g_(j+1) g_q to mu i g_j g_q
                partner[j], partner[j + 1], partner[p], partner[q] = q, p, j + 1, j
                sign[j], sign[j + 1] = (sign[j + 1] + 1 - mu) % 4, (sign[j] + 1 + mu) % 4
                sign[p], sign[q] = (sign[j + 1] + 2) % 4, (sign[j] + 2) % 4
    return -n, passed[::-1]


def assemble_frontier(diag: MajoranaDiagram):
    """Sweep a closed diagram into ((amplitude, x), seg, time, pair, mus,
    trace, flipped), reading its columns (`diagram.Columns`) and its trace:
    the weights of all elements but caps and cups are computed as arrays
    (`Columns.weights`), and whether an element has two positions is read
    off the trace's segments at its first and last.  A braid is a crossing
    of the wiring, not a point pair: it gives its weight a times sqrt2.  The
    crossings that the vacuum's one sweep passes (`_vacuum`) are `flipped`
    (indices into the trace's `crossed`): each gives a mandatory dot pair
    mu g_j g_(j+1) after the crossing, and the sweep's product is the
    vacuum of the wiring with them flipped, its phase.  The diagram's
    amplitude times its element weights, the vacuum's phase and sqrt(2) per
    loop is amplitude * 2^x, renormalised as in `_eliminate`, so it neither
    overflows nor underflows.  The points, in time order, are the arrays seg
    (each one's segment), time and pair (its optional pair's index into mus,
    the pairs' mu, -1 for a mandatory point); `trace.phases(seg, time,
    flipped)` gives their phases."""
    if not diag.is_closed:
        raise NotClosed(f"diagram has widths {diag.width_in} -> {diag.width_out}")

    trace = WireTrace(diag)
    quiet = trace.quiet  # caps and cups are the bare wiring
    a, b = diag.columns.weights(quiet)
    ends = np.array((trace.last, trace.first), dtype=int)  # the segments at both positions
    two = ends[0] != ends[1]  # two positions, not a dot's one
    size_a, size_b = abs(a), abs(b)
    inserting = size_b > MU_MIN * size_a  # the others are the scalar a
    crossed = np.array(trace.crossed, dtype=int)
    inserting[crossed] = False  # a crossing has its scalar a sqrt2 and no points
    paired = inserting & (size_a > MU_MIN * size_b)
    # a pure insertion b * i^(n//2) g_{s1} ... g_{sn} has mandatory points;
    # every other element a + b*M is a * (1 + mu * M), mu = i b / a
    mus = 1j * b[paired] / a[paired]
    factors = np.where(inserting, b * np.where(two, 1j, 1), a)
    factors[paired] = a[paired] * mus
    amplitude = complex(diag.amplitude)
    flipped: list[int] = []
    if len(crossed):
        factors[crossed] *= _SQRT2
        turns, flipped = _vacuum(trace)
        amplitude *= cmath.exp(1j * math.pi / 4 * (turns % 8))
        for f in flipped:  # mu g_j g_(j+1) after the crossing: g_(j+1) acts first
            c = crossed[f]
            factors[c] *= CROSSING[diag.columns.kind[quiet[c]]]
            inserting[c] = True
            ends[:, c] = ends[::-1, c]
    amplitude, x = _times(*_renormalised(amplitude, 0), factors)

    # each inserting element's points, the rightmost position acting first
    owner = inserting.nonzero()[0]
    owner = owner.repeat(1 + two[owner])
    second = np.zeros(len(owner), dtype=bool)
    second[1:] = owner[1:] == owner[:-1]
    seg = ends[second.view(np.int8), owner]
    time = quiet[owner] + second * _SUB
    pair = np.where(paired[owner], paired.cumsum()[owner] - 1, -1)

    # in a closed diagram every worldline is a loop; sqrt(2)^2046 = 2^1023
    # is the largest power that is a float, and a mantissa below 1 times it
    # is finite
    loops = len(trace.walk.lengths)
    while loops:
        step = min(loops, 2046)
        if abs(amplitude) >= 1.0:
            m, s = _split(amplitude)
            amplitude, x = m, x + s
        amplitude, x = _renormalised(amplitude * _SQRT2 ** step, x)
        loops -= step
    return (amplitude, x), seg, time, pair, mus, trace, flipped


class PreparedDiagram:
    """A closed diagram and its optional point groups, factorised once.

    `groups` lists (time_index, strands) pairs.  A group's points are dots on
    those strands at that slice, in descending strand order: the parity
    string of a projection (simultaneous dot pairs), or one candidate dot of
    a basis encoder.  Groups with an odd number of points must come in time
    order; a group with an even number may come anywhere in the list.

    `evaluate(masks)` gives, for each mask, the value of the diagram
    decorated with the groups whose bits are set in it.  For the selected
    points S (each pair carrying a factor i) it is

        amplitude * i^(|S|/2 - e) * sign * Pf(eliminated) * Pf(Schur[deferred + S])

    Pf(eliminated) and Schur come from one `_eliminate` of the core rows of
    the gauged contraction matrix W over all points, in [core, groups]
    order, when the diagram is prepared; e sums the gauge exponents of the
    core points and S (see the module docstring).  W is held as its
    nonzeros only: the point pairs of `contraction_matrix` plus the gauged
    1/mu entries of the optional pairs (`_Rows.plus_pairs`), in float64
    where all of those are real.  The sign is the parity of the number of core
    points later in time than a selected point, summed over S.  The terms'
    matrices Schur[deferred + S] are gathered into stacks by size, and each
    stack is one `_pfaffians` pass, whose zero test SINGULAR_TOL takes each
    matrix on its own scale; an odd size is 0.  Without groups every point
    is core, and the one term, S empty, is Pf(eliminated) * Pf(Schur): a
    1/mu near 1/MU_MIN makes W's largest entry so large that a row of
    O(offset) entries, near a Clifford angle, is deferred, and the Schur
    complement tests it against its own entries, not that one.  Only the
    Schur block is kept.  The amplitude (see `assemble_frontier`) and
    Pf(eliminated) (see `_eliminate`) are each kept as a mantissa and a
    power of two: each value is the amplitude's mantissa times Pf's times
    the term's Pfaffian, scaled by both powers of two last, with ldexp, so a
    value in float range comes back even where the amplitude or
    Pf(eliminated) alone is not, and bit for bit as the plain product
    wherever that is in range.  At most MAX_GROUPS groups (TooLarge): a mask
    is an int64.
    """

    def __init__(self, diag: MajoranaDiagram, groups=()):
        if len(groups) > MAX_GROUPS:
            raise TooLarge(f"{len(groups)} point groups; a term mask holds at most {MAX_GROUPS}")
        (self.amplitude, self._amp_exp), seg, time, pair, mus, trace, flipped = (
            assemble_frontier(diag))
        core = len(seg)
        extra_seg: list[int] = []
        extra_time: list[float] = []
        self._groups: list[range] = []
        for time_index, strands in groups:
            first = len(extra_seg)
            for pos in sorted(strands, reverse=True):
                # strictly inside the slice: turn boundaries sit at t -/+ 0.25
                extra_time.append(time_index - 0.5 + 1e-6 * (len(extra_seg) + 1))
                extra_seg.append(trace.slices[time_index][pos])
            self._groups.append(range(first, len(extra_seg)))

        paired = np.flatnonzero(pair >= 0)  # pair after pair, each as two neighbours
        if not (np.array_equal(pair[paired], np.repeat(np.arange(len(mus)), 2))
                and np.all(paired[1::2] - paired[::2] == 1)):
            raise NumericalInstability("optional pair separated in the point order")

        later = (core - np.searchsorted(time, extra_time, side="right")).tolist()
        self._flips = np.array([sum(later[i] for i in group) for group in self._groups], dtype=int)
        segs = np.concatenate([seg, np.array(extra_seg, dtype=int)])
        times = np.concatenate([time, extra_time])
        e = trace.phases(segs, times, flipped) % 4  # the gauge i^e of each point (module docstring)
        self._core_gauge = int(e[:core].sum())
        self._gauge = np.array([e[core:][group].sum() for group in self._groups], dtype=int)
        pairs = _PHASES[(e[paired[::2]] + e[paired[1::2]]) % 4] * (1.0 / mus)
        pairs = pairs if pairs.imag.any() else pairs.real  # W is real where it can be
        self._group_of = np.array([g for g, group in enumerate(self._groups) for _ in group],
                                  dtype=int)
        self._points = core + len(extra_seg)

        # an update past the float range reaches `evaluate` as a non-finite
        # value.  W is built in the call, so that `_eliminate` holds the only
        # reference to its nonzeros.
        with np.errstate(over="ignore", invalid="ignore"):
            self._pf, pf_exp, self._eliminated, self._schur, self._largest = _eliminate(
                contraction_matrix(trace, segs, times, e).plus_pairs(paired[::2], pairs),
                core)
        self._exp = self._amp_exp + pf_exp  # applied last, to amplitude * term
        self._deferred = core - self._eliminated

    def evaluate(self, masks) -> np.ndarray:
        """The values of the terms whose groups the masks select (bit g of
        a mask selects group g), as a complex array in mask order.  A value
        depends only on its own mask, bit for bit, whatever masks come with
        it; a non-finite one raises NumericalInstability."""
        masks = np.asarray(masks, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _ldexp(self.amplitude * self._terms(masks), self._exp)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            d = self._deferred
            points = np.flatnonzero(masks[bad[0]] >> self._group_of & 1)
            rows = np.concatenate([np.arange(d), d + points])
            sub = self._schur[np.ix_(rows, rows)]
            raise NumericalInstability(
                f"non-finite value from a {len(sub)} x {len(sub)} Pfaffian with largest "
                f"|entry| {np.max(np.abs(sub), initial=0.0):.3g} and amplitude "
                f"{_scaled_text(self.amplitude, self._amp_exp)}, after eliminating "
                f"{self._eliminated} of {self._points} points of a W with largest |entry| "
                f"{self._largest:.3g} (their Pfaffian "
                f"{_scaled_text(self._pf, self._exp - self._amp_exp)})"
            )
        return values

    def _terms(self, masks: np.ndarray) -> np.ndarray:
        """phase * Pf(eliminated) * Pf(Schur[deferred + S]) of each mask, the
        small Pfaffians gathered into stacks by size."""
        bits = (masks[:, None] >> np.arange(len(self._groups)) & 1).astype(bool)
        chosen = bits[:, self._group_of]  # each term's selected points, in group order
        points = chosen.sum(axis=1)
        # i^(|S|/2), the interleave sign and the gauge's i^-(core e + selected e)
        turns = points // 2 - self._core_gauge + bits @ (2 * self._flips - self._gauge)
        phase = _PHASES[turns % 4]
        d = self._deferred
        sizes = d + points
        pfs = np.zeros(len(masks), dtype=complex)  # odd sizes stay 0
        for size in set(sizes[sizes % 2 == 0].tolist()):
            terms = np.flatnonzero(sizes == size)
            rows = np.empty((len(terms), size), dtype=int)
            rows[:, :d] = np.arange(d)
            rows[:, d:] = d + np.nonzero(chosen[terms])[1].reshape(len(terms), size - d)
            step = max(1, STACK // max(size, 1) ** 2)
            for first in range(0, len(terms), step):
                r = rows[first:first + step]
                pfs[terms[first:first + step]] = _pfaffians(
                    self._schur[r[:, :, None], r[:, None, :]])
        return phase * (self._pf * pfs)


def evaluate_closed_fast(diag: MajoranaDiagram) -> complex:
    """Evaluate a closed diagram in polynomial time; matches the Fock oracle
    within 1e-9 (relative, or absolute below magnitude one).

    Raises NotClosed for open diagrams and NumericalInstability when the
    assembled Pfaffian degenerates (callers may fall back to the oracle).
    """
    return complex(PreparedDiagram(diag).evaluate([0])[0])
