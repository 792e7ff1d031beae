"""Ising-model applications: matchgate partition functions, the
Kramers-Wannier rewrite chain, and the star-triangle solver.

The partition function compiles to the cleaned (hole-free) Quon network:
one Majorana site loop per spin, one real-exponential scattering per bond.
With the loop-level angle -2K the scattering's dot weight is exactly tanh K,
so the high-temperature expansion emerges term by term and

    Z = sqrt(2)^sites * e^{K * edges} * eval(diagram).

That prefactor is the diagram's amplitude; where it passes the float range
(200 x 4 at K = 0.4 reaches 2^1205), its powers of two beyond 2^1000 are
drawn as bare loops instead, sqrt(2) each (see `_closed_core`).

The edge tensor is the paper-form (e^K / cosh phi) e^{phi Z} with
tanh(phi) = e^{-2K}; the loop-level angle is its strand realization after
string-genus cleanup (the scalars are re-collected in the amplitude).  The
space-time dual of the loop angle reproduces Kramers-Wannier exactly:
e^{psi} = (1 - e^{-2K}) / (1 + e^{-2K}) = tanh K = e^{-2K*}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    MajoranaDiagram,
    ScatteringStar,
)
from .errors import (
    InvariantViolation,
    NonPlanarInput,
    NumericalInstability,
    Singular,
    TooManySites,
    UnknownMode,
)
from .quon import QuonDiagram, string_genus
from .rewrite import RewriteSite, SpaceTimeDual, apply_rule


@dataclass(frozen=True)
class IsingLattice:
    """Planar spin lattice; couplings K = J / k_B T are absorbed per edge.

    Its edges are checked as arrays (`bonds`): integer sites in range and
    distinct, finite real couplings, and, for a shaped lattice, each bond
    of the rows x cols grid exactly once."""

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    shape: tuple[int, int] | None = None  # (rows, cols) for the built-in square

    def __post_init__(self):
        if self.n_sites < 1 or min(self.shape or (1,)) < 1:
            shape = "" if self.shape is None else f"{self.shape[0]} x {self.shape[1]} "
            raise InvariantViolation(
                f"the {shape}lattice has no sites; it needs at least one row and one column"
            )
        a, b, k = self.bonds
        n = self.n_sites
        bad = (a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b) | ~np.isfinite(k)
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            if np.isfinite(k[t]):
                raise InvariantViolation(f"bad edge ({a[t]}, {b[t]})")
            raise InvariantViolation(f"coupling {k[t]} of edge ({a[t]}, {b[t]}) is not finite")
        if self.shape is not None:
            self._check_grid()
        elif not self._planar():
            raise NonPlanarInput("the interaction graph is not planar")

    @functools.cached_property
    def bonds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as arrays: the sites a and b, integers, and the
        couplings k, floats; InvariantViolation for an edge that is not
        (site, site, coupling) of integer sites and a real coupling."""
        if set(map(len, self.edges)) - {3}:
            raise InvariantViolation("each edge must be a (site, site, coupling) triple")
        a, b, k = (np.array(column) for column in zip(*self.edges)) if self.edges else (
            np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
            raise InvariantViolation("edge sites must be integers")
        if k.dtype.kind not in "biuf":
            raise InvariantViolation(f"edge couplings must be real numbers, got {k.tolist()[:3]}")
        return a, b, k.astype(float)

    def _check_grid(self) -> None:
        """A shaped lattice holds each bond of its rows x cols grid once, and
        no other bond; a grid is planar."""
        rows, cols = self.shape
        grid = f"the {rows} x {cols} grid"
        if self.n_sites != rows * cols:
            raise InvariantViolation(f"{grid} has {rows * cols} sites, not {self.n_sites}")
        a, b, _ = self.bonds
        index = _bond_index(rows, cols, a, b)
        if (index < 0).any():
            t = int(np.flatnonzero(index < 0)[0])
            raise InvariantViolation(f"bond ({a[t]}, {b[t]}) is not a bond of {grid}")
        counts = np.bincount(index, minlength=rows * (cols - 1) + (rows - 1) * cols)
        if counts.max(initial=1) > 1:
            seen = set()
            t = next(t for t, i in enumerate(index.tolist()) if i in seen or seen.add(i))
            raise InvariantViolation(f"bond ({a[t]}, {b[t]}) appears twice")
        if len(index) < len(counts):
            lows, highs = _grid_bonds(rows, cols)
            i = int(np.flatnonzero(counts == 0)[0])
            raise InvariantViolation(f"bond {(int(lows[i]), int(highs[i]))} of {grid} is missing")

    def _planar(self) -> bool:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_sites))
        g.add_edges_from((a, b) for a, b, _ in self.edges)
        ok, _ = nx.check_planarity(g)
        return ok

    @staticmethod
    def square(rows: int, cols: int, coupling: float,
               overrides: dict | None = None) -> "IsingLattice":
        """Open rows x cols square lattice with `coupling` on every bond
        but those `overrides` maps, by a (site_a, site_b) pair in either
        order, to a coupling of their own.  InvariantViolation for a key
        that is no bond of the grid, a bond given in both orders, or a
        coupling that is not a finite real number."""
        a, b = _grid_bonds(rows, cols)
        k = np.full(len(a), _finite_reals([coupling], "the coupling")[0])
        if overrides and min(rows, cols) > 0:  # a lattice of no sites refuses itself below
            keys = list(overrides)
            try:
                pairs = set(map(len, keys)) == {2}
            except TypeError:  # a key without a length
                pairs = False
            ends = [np.array(column) for column in zip(*keys)] if pairs else []
            if not pairs or any(end.dtype.kind not in "iu" for end in ends):
                raise InvariantViolation(
                    f"override keys must be (site, site) pairs of integers, got {keys[:3]}")
            index = _bond_index(rows, cols, *ends)
            if (index < 0).any():
                key = keys[int(np.flatnonzero(index < 0)[0])]
                raise InvariantViolation(
                    f"override {key} is not a bond of the {rows} x {cols} grid")
            counts = np.bincount(index)
            if counts.max() > 1:
                i = int(np.flatnonzero(counts > 1)[0])
                raise InvariantViolation(
                    f"bond {(int(a[i]), int(b[i]))} is overridden twice, as "
                    f"{(int(a[i]), int(b[i]))} and {(int(b[i]), int(a[i]))}")
            k[index] = _finite_reals(list(overrides.values()), "override couplings")
        return IsingLattice(rows * cols, tuple(zip(a.tolist(), b.tolist(), k.tolist())),
                            (rows, cols))


def _finite_reals(values: list, what: str) -> np.ndarray:
    """values as a float array; InvariantViolation unless each is a finite
    real number."""
    k = np.array(values)
    if k.dtype.kind not in "biuf":
        raise InvariantViolation(f"{what} must be real numbers, got {values[:3]}")
    k = k.astype(float)
    if not np.isfinite(k).all():
        raise InvariantViolation(f"{what} must be finite, got {k[~np.isfinite(k)][0]}")
    return k


def _grid_bonds(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The bonds (s, s + 1) and (s, s + cols) of the open rows x cols grid,
    site by site in row-major order, as arrays of their two sites."""
    s = np.arange(max(rows, 0) * max(cols, 0))
    ends, kept = np.empty((len(s), 2), dtype=s.dtype), np.empty((len(s), 2), dtype=bool)
    ends[:, 0], ends[:, 1] = s + 1, s + cols
    kept[:, 0], kept[:, 1] = (s + 1) % max(cols, 1) != 0, s < len(s) - cols
    return np.repeat(s, kept.sum(axis=1)), ends[kept]


def _bond_index(rows: int, cols: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The place of each bond (a, b), in either order, in `_grid_bonds`: a
    site s has s - s // cols bonds to the right and min(s, n - cols) bonds
    down before it, and its own bond to the right before its bond down; -1
    where (a, b) is no bond of the grid."""
    n = rows * cols
    low, high = np.minimum(a, b), np.maximum(a, b)
    down = high - low == cols  # with one column, every bond
    beside = (low + 1) % cols != 0  # s has a bond to the right
    known = (0 <= low) & (high < n) & (down | ((high - low == 1) & beside))
    place = low - low // cols + np.minimum(low, n - cols) + (down & beside)
    return np.where(known, place, -1)


def partition_oracle(lattice: IsingLattice, limit: int = 24) -> float:
    """Exact spin enumeration of sum_sigma exp(K sum sigma sigma'), taken
    in blocks of 2^14 configurations, which bounds the memory and keeps
    the arrays in cache.  Raises NumericalInstability when Z overflows a
    float."""
    n = lattice.n_sites
    if n > limit:
        raise TooManySites(f"{n} sites exceeds the enumeration limit {limit}")
    low_bits = min(n, 14)
    low = np.arange(1 << low_bits, dtype=np.int64)
    total = 0.0
    for high in range(1 << (n - low_bits)):
        configs = low | (high << low_bits)
        energy = np.zeros(len(low), dtype=float)
        for a, b, k in lattice.edges:
            agree = ((configs >> (n - 1 - a)) ^ (configs >> (n - 1 - b))) & 1
            energy += k * (1.0 - 2.0 * agree)
        with np.errstate(over="ignore"):
            total += float(np.exp(energy).sum())
    if not math.isfinite(total):
        bound = sum(abs(k) for _, _, k in lattice.edges)
        raise NumericalInstability(
            f"the partition function overflows a float: a configuration's energy "
            f"reaches {bound:.4g}, and exp of it must stay below about 1.8e308 "
            f"(energies up to about 709)"
        )
    return total


def loop_angle(coupling: float) -> float:
    """Strand-level scattering angle of one bond: phi_loop = -2K."""
    return -2.0 * coupling


def build_ising_quon(lattice: IsingLattice) -> QuonDiagram:
    """Closed Quon diagram whose evaluation equals the partition function.

    Square lattices use the brickwork sweep (site loops handed down column
    by column); general planar graphs place all site loops upfront and route
    each bond with a cancelling braid detour.
    """
    if lattice.shape is not None:
        return _build_square(lattice)
    return _build_generic(lattice)


def _build_square(lattice: IsingLattice) -> QuonDiagram:
    """The brickwork sweep, as columns: caps opening the first row's site
    loops; then per row its bonds to the right, and, but for the last row,
    per column a cap opening the site below, its bond down and a cup
    closing the site above; the last row's cups."""
    rows, cols = lattice.shape
    a, b, k = lattice.bonds
    low = np.minimum(a, b)
    down = np.abs(b - a) == cols  # with one column, every bond
    right, below = np.zeros((rows, cols - 1)), np.zeros((rows - 1, cols))
    right[low[~down] // cols, low[~down] % cols] = k[~down]
    below[low[down] // cols, low[down] % cols] = k[down]
    c = np.arange(cols)
    star, cap, cup = ScatteringStar.CODE, Cap.CODE, Cup.CODE
    # a row but the last: its bonds to the right, then cap, bond down, cup per column
    kind = np.concatenate([np.full(cols - 1, star), np.tile([cap, star, cup], cols)])
    j = np.concatenate([2 * c[1:] - 1, np.stack([2 * c + 2, 2 * c + 1, 2 * c], axis=1).ravel()])
    coupled = np.zeros((rows - 1, len(kind)))  # each scattering's coupling
    coupled[:, :cols - 1] = right[:-1]
    coupled[:, cols::3] = below
    return QuonDiagram(_closed_core(
        np.concatenate([np.full(cols, cap), np.tile(kind, rows - 1), np.full(cols - 1, star),
                        np.full(cols, cup)]),
        np.concatenate([2 * c, np.tile(j, rows - 1), 2 * c[1:] - 1, np.zeros(cols, dtype=int)]),
        loop_angle(np.concatenate([np.zeros(cols), coupled.ravel(), right[-1], np.zeros(cols)])),
        lattice.n_sites, k))


def _build_generic(lattice: IsingLattice) -> QuonDiagram:
    """All site loops first; each bond (a < b) then routes loop a's right
    strand next to loop b's left one by braids, scatters them and braids
    back; the cups close the loops."""
    n = lattice.n_sites
    a, b, k = lattice.bonds
    low, high = np.minimum(a, b), np.maximum(a, b)
    out = 2 * (high - low) - 2  # braids each way: on 2 low + 1 .. 2 high - 2
    length = 2 * out + 1
    bond = np.repeat(np.arange(len(k)), length)
    i = np.arange(len(bond)) - np.repeat(np.cumsum(length) - length, length)
    turn = out[bond]  # the scattering's place in its bond's run
    kind = np.where(i < turn, BraidPos.CODE, np.where(i == turn, ScatteringStar.CODE,
                                                      BraidNeg.CODE))
    j = 2 * low[bond] + 1 + np.minimum(i, 2 * turn - i)
    return QuonDiagram(_closed_core(
        np.concatenate([np.full(n, Cap.CODE), kind, np.full(n, Cup.CODE)]),
        np.concatenate([2 * np.arange(n), j, np.zeros(n, dtype=int)]),
        np.concatenate([np.zeros(n), np.where(i == turn, loop_angle(k[bond]), 0.0), np.zeros(n)]),
        n, k))


def _exp2(k: float) -> tuple[float, int]:
    """(m, s) with e^k = m * 2^s: (e^k, 0) for |k| <= 512, so that it is
    the float e^k, and otherwise m = e^(k - s ln 2) near 1, for any k that
    math.exp would overflow or underflow on."""
    if abs(k) <= 512:
        return math.exp(k), 0
    s = round(k / math.log(2.0))
    return math.exp(k - s * math.log(2.0)), s


def _closed_core(kind: np.ndarray, j: np.ndarray, phi: np.ndarray, sites: int,
                 couplings: np.ndarray) -> MajoranaDiagram:
    """The closed diagram of the columns `kind` and `j`, with phi the
    parameter of each ScatteringStar (its angle is -i phi), and the
    amplitude sqrt(2)^sites e^(sum of the couplings), the sum exactly
    rounded (math.fsum), held as a mantissa and a power of two (`_exp2`).
    Where that is a float it is the amplitude; past the float range the
    powers of two beyond 2^1000 are drawn as bare loops ahead of the
    elements, two per factor 2 (a closed loop is worth sqrt(2)), so the
    diagram keeps its value.

    Z is at least e^(sum k), the weight of the all-up configuration, so
    where that alone reaches 2^(1024 + sites / 2) Z passes the float range
    whatever the Pfaffian, and NumericalInstability is raised before any
    loop is drawn; below it fewer than sites + 24 pairs of loops are drawn.
    An amplitude under 2^-1022 raises it too: on a grid Z is then at least
    e^(sum |k|), the Neel configuration's weight, past the float range."""
    total = math.fsum(couplings.tolist())
    weight = total / math.log(2.0)  # log2 e^(sum k)
    if weight >= 1024 + sites / 2:
        raise NumericalInstability(
            f"Z passes the float range: it is at least e^(sum of the couplings) = "
            f"2^{weight:.4g}, the weight of the all-up configuration")
    amp, x = _exp2(total)
    amp *= math.sqrt(2.0) ** (sites % 2)
    x += sites // 2
    size = math.frexp(amp)[1] + x  # amp * 2^x lies in [2^(size - 1), 2^size)
    if size <= -1022:
        raise NumericalInstability(
            f"the amplitude sqrt(2)^sites e^(sum of the couplings) is below 2^{size}, under "
            f"the float range, and on a grid Z is at least e^(sum of |couplings|), past it")
    loops = 2 * (size - 1000 if size > 1024 else 0)
    angle = np.zeros(loops * 2 + len(kind), dtype=complex)
    angle.imag[loops * 2:] = -phi  # angle = -i phi, by parts
    return MajoranaDiagram.from_columns(
        0, 0, np.concatenate([np.tile([Cap.CODE, Cup.CODE], loops), kind]),
        np.concatenate([np.zeros(2 * loops, dtype=int), j]), angle=angle,
        amplitude=math.ldexp(amp, x - loops // 2))


# -- Kramers-Wannier --------------------------------------------------------


def kw_dual_coupling(coupling: float) -> float:
    """K* with e^{-2K*} = tanh K (equivalently tanh K* = e^{-2K}); raises
    InvariantViolation unless K > 0."""
    if not coupling > 0:
        raise InvariantViolation(f"the duality map needs K > 0, got {coupling}")
    return -0.5 * math.log(math.tanh(coupling))


def kw_self_dual_point() -> float:
    return 0.5 * math.log(1.0 + math.sqrt(2.0))


def kw_rewrite_chain(lattice: IsingLattice):
    """Quon rewrite chain deriving the dual model: string-hole insertions on
    the dual plaquettes, then the space-time duality on every edge
    scattering.  Every consecutive pair of steps evaluates identically; the
    final diagram carries the dual-lattice angles (the dual coupling K* with
    e^{-2K*} = tanh K on every edge, in the rotated orientation).

    Returns (steps, dual_lattice).  Raises InvariantViolation, before any
    step is built, unless every edge has the same coupling K > 0.
    """
    if lattice.shape is None:
        raise InvariantViolation("the rewrite chain is implemented for square lattices")
    rows, cols = lattice.shape
    couplings = {k for _, _, k in lattice.edges}
    if len(couplings) != 1:
        raise InvariantViolation(
            f"the rewrite chain needs one coupling on every edge, got {sorted(couplings)}")
    dual_k = kw_dual_coupling(couplings.pop())
    steps = [build_ising_quon(lattice)]

    # insert a string-hole pair on each dual plaquette (interior vertices)
    current = steps[-1]
    for _ in range(1, rows - 1):
        for _ in range(1, cols - 1):
            # any slice after the first row of caps hosts the pair; value
            # preservation is exact wherever the pair is placed
            current = string_genus(current, 0, "insert", region=(cols, 1))
            steps.append(current)

    # space-time duality on every edge scattering; the rule replaces one
    # element by one, so the sites found up front stay valid
    columns = current.core.columns
    sites = np.flatnonzero((np.array(columns.kind) == ScatteringStar.CODE)
                           & ~np.array(columns.horizontal, dtype=bool)).tolist()
    for site in sites:
        current = apply_rule(current, SpaceTimeDual(), RewriteSite.at(site))
        steps.append(current)

    dual_rows = max(rows - 1, 1)
    dual_cols = max(cols - 1, 1)
    return steps, IsingLattice.square(dual_rows, dual_cols, dual_k)


# -- star-triangle -----------------------------------------------------------


def _parity3() -> np.ndarray:
    p = np.zeros((2, 2, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                p[x, y, z] = 1.0 if (x + y + z) % 2 == 0 else 0.0
    return p


def _edge(u: complex) -> np.ndarray:
    return np.diag([1 + u, 1 - u]).astype(complex)


def star_triangle_oracle(params, which: str = "star") -> np.ndarray:
    """Brute-force rank-3 tensor of the star (center parity tensor with
    (1 + u_i Z) legs) or the triangle (three corner parity tensors pairwise
    joined through (1 + v_k Z) edges)."""
    p3 = _parity3()
    if which == "star":
        u1, u2, u3 = params
        return np.einsum(
            "abc,ax,by,cz->xyz", p3, _edge(u1), _edge(u2), _edge(u3)
        )
    if which == "triangle":
        v1, v2, v3 = params
        # corner i carries open leg x_i; edge k joins the two corners other
        # than k (so v_k sits opposite leg k)
        return np.einsum(
            "xfa,ybc,zde,ab,cd,ef->xyz",
            p3, p3, p3, _edge(v3), _edge(v1), _edge(v2),
        )
    raise UnknownMode(f"star_triangle_oracle builds 'star' or 'triangle', not {which!r}")


@dataclass(frozen=True)
class StarTriangleSolution:
    v1: complex
    v2: complex
    v3: complex
    r: complex

    def residual(self, u) -> float:
        """max|star(u) - R * triangle(v)| / max|star(u)| over the 8
        components: the fit's error relative to the star's largest entry."""
        star = star_triangle_oracle(u, "star")
        tri = star_triangle_oracle((self.v1, self.v2, self.v3), "triangle")
        return float(np.max(np.abs(star - self.r * tri)) / np.max(np.abs(star)))


def star_triangle_solve(u1: complex, u2: complex, u3: complex) -> StarTriangleSolution:
    """(v1, v2, v3, R) with star(u) = R * triangle(v) on all 8 components,
    in closed form.

    Both tensors live on the four even-parity entries 000, 011, 101, 110.
    With s those entries of the star (scaled to largest |entry| 1) and N
    their sum, h1 = (s0 + s1 - s2 - s3)/N, h2 = (s0 - s1 + s2 - s3)/N and
    h3 = (s0 - s1 - s2 + s3)/N are the star's <Z_i>; the triangle's are
    v2 v3, v1 v3 and v1 v2, and its four entries always sum to 8.  So, with
    i the index of the largest |h_i|, v_i = sqrt(h_j h_k / h_i),
    v_j = h_k / v_i and v_k = h_j / v_i (v_j = v_k = sqrt(h_i) when v_i is
    0, and v = 0 when every h is), and R = N / 8.  The result is checked
    by `StarTriangleSolution.residual`.

    Raises Singular when N = 0 or the residual exceeds 1e-10 (the
    measure-zero degenerate set), InvariantViolation for a coupling that is
    not finite and NumericalInstability when the star tensor overflows."""
    for name, u in (("u1", u1), ("u2", u2), ("u3", u3)):
        if not cmath.isfinite(u):
            raise InvariantViolation(f"coupling {name} = {u} is not finite")
    star = star_triangle_oracle((u1, u2, u3), "star")
    scale = float(np.max(np.abs(star)))
    if not math.isfinite(scale):
        raise NumericalInstability(f"the star tensor of ({u1}, {u2}, {u3}) overflows a float")
    if scale < 1e-14:
        raise Singular("star tensor vanishes")
    even = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    s0, s1, s2, s3 = (complex(star[x]) / scale for x in even)
    total = s0 + s1 + s2 + s3
    if total == 0:
        raise Singular(f"no star-triangle partner for ({u1}, {u2}, {u3}): "
                       "the star's even entries sum to 0")
    h = [(s0 + s1 - s2 - s3) / total, (s0 - s1 + s2 - s3) / total, (s0 - s1 - s2 + s3) / total]
    i = int(np.argmax(np.abs(h)))
    j, k = (i + 1) % 3, (i + 2) % 3
    v = [0j, 0j, 0j]
    if h[i] != 0:
        v[i] = cmath.sqrt(h[j] * h[k] / h[i])
        if v[i] == 0:
            v[j] = v[k] = cmath.sqrt(h[i])
        else:
            v[j], v[k] = h[k] / v[i], h[j] / v[i]
    sol = StarTriangleSolution(*v, total / 8 * scale)
    if not sol.residual((u1, u2, u3)) <= 1e-10:
        raise Singular(f"no star-triangle partner for ({u1}, {u2}, {u3})")
    return sol
