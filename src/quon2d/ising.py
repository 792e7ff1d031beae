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
    VERTICAL,
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
    """Planar spin lattice; couplings K = J / k_B T are absorbed per edge."""

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    shape: tuple[int, int] | None = None  # (rows, cols) for the built-in square

    def __post_init__(self):
        if self.n_sites < 1:
            shape = "" if self.shape is None else f"{self.shape[0]} x {self.shape[1]} "
            raise InvariantViolation(
                f"the {shape}lattice has no sites; it needs at least one row and one column"
            )
        for a, b, k in self.edges:
            if not (0 <= a < self.n_sites and 0 <= b < self.n_sites and a != b):
                raise InvariantViolation(f"bad edge ({a}, {b})")
            if not math.isfinite(k):
                raise InvariantViolation(f"coupling {k} of edge ({a}, {b}) is not finite")
        if self.shape is not None:
            self._check_grid()
        elif not self._planar():
            raise NonPlanarInput("the interaction graph is not planar")

    def _check_grid(self) -> None:
        """A shaped lattice holds each bond of its rows x cols grid once, and
        no other bond; a grid is planar."""
        rows, cols = self.shape
        grid = f"the {rows} x {cols} grid"
        if self.n_sites != rows * cols:
            raise InvariantViolation(f"{grid} has {rows * cols} sites, not {self.n_sites}")
        bonds = _grid_bonds(rows, cols)
        grid_bonds, seen = set(bonds), set()
        for a, b, _ in self.edges:
            bond = (min(a, b), max(a, b))
            if bond not in grid_bonds:
                raise InvariantViolation(f"bond ({a}, {b}) is not a bond of {grid}")
            if bond in seen:
                raise InvariantViolation(f"bond ({a}, {b}) appears twice")
            seen.add(bond)
        for bond in bonds:
            if bond not in seen:
                raise InvariantViolation(f"bond {bond} of {grid} is missing")

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
        """Open rows x cols square lattice; `overrides` maps (site_a, site_b)
        pairs to per-edge couplings."""
        overrides = overrides or {}
        edges = tuple(
            (a, b, float(overrides.get((a, b), overrides.get((b, a), coupling))))
            for a, b in _grid_bonds(rows, cols)
        )
        return IsingLattice(rows * cols, edges, (rows, cols))


def _grid_bonds(rows: int, cols: int) -> list[tuple[int, int]]:
    """The bonds (s, s + 1) and (s, s + cols) of the open rows x cols grid,
    site by site in row-major order."""
    bonds = []
    for s in range(rows * cols):
        if (s + 1) % cols:
            bonds.append((s, s + 1))
        if s + cols < rows * cols:
            bonds.append((s, s + cols))
    return bonds


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


def _edge_k(lattice: IsingLattice):
    return {(a, b): k for a, b, k in lattice.edges} | {
        (b, a): k for a, b, k in lattice.edges
    }


def _build_square(lattice: IsingLattice) -> QuonDiagram:
    rows, cols = lattice.shape
    kk = _edge_k(lattice)
    els: list = [Cap(2 * c) for c in range(cols)]
    couplings = []
    for r in range(rows):
        for c in range(cols - 1):
            a, b = r * cols + c, r * cols + c + 1
            els.append(ScatteringStar(2 * c + 1, loop_angle(kk[(a, b)])))
            couplings.append(kk[(a, b)])
        if r < rows - 1:
            for c in range(cols):
                a, b = r * cols + c, (r + 1) * cols + c
                p = 2 * c
                els += [Cap(p + 2), ScatteringStar(p + 1, loop_angle(kk[(a, b)])), Cup(p)]
                couplings.append(kk[(a, b)])
        else:
            for _ in range(cols):
                els.append(Cup(0))
    return QuonDiagram(_closed_core(els, lattice.n_sites, couplings))


def _build_generic(lattice: IsingLattice) -> QuonDiagram:
    n = lattice.n_sites
    els: list = [Cap(2 * s) for s in range(n)]
    for a, b, k in lattice.edges:
        a, b = min(a, b), max(a, b)
        # route loop a's right strand next to loop b's left strand and back
        out = [BraidPos(j) for j in range(2 * a + 1, 2 * b - 1)]
        back = [BraidNeg(j) for j in reversed(range(2 * a + 1, 2 * b - 1))]
        els += out + [ScatteringStar(2 * b - 1, loop_angle(k))] + back
    for _ in range(n):
        els.append(Cup(0))
    return QuonDiagram(_closed_core(els, n, [k for _, _, k in lattice.edges]))


def _closed_core(els: list, sites: int, couplings: list[float]) -> MajoranaDiagram:
    """The closed diagram of `els` with amplitude sqrt(2)^sites times e^k
    for each coupling k, multiplied out in that order as a mantissa and a
    power of two.  Where the product is a float it is the amplitude, bit for
    bit the plain product; past the float range the powers of two beyond
    2^1000 are drawn as bare loops ahead of `els`, two per factor 2 (a
    closed loop is worth sqrt(2)), so the diagram keeps its value."""
    amp, x = 1.0, 0
    factors = [math.sqrt(2.0) ** min(2046, sites - done) for done in range(0, sites, 2046)]
    for factor in factors + [math.exp(k) for k in couplings]:
        amp *= factor
        m, s = math.frexp(amp)
        if not -64 < s <= 64:
            amp, x = m, x + s
    size = math.frexp(amp)[1] + x  # amp * 2^x lies in [2^(size - 1), 2^size)
    doubles = size - 1000 if size > 1024 else 0
    return MajoranaDiagram(0, 0, (Cap(0), Cup(0)) * (2 * doubles) + tuple(els),
                           math.ldexp(amp, x - doubles))


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
    sites = [i for i, el in enumerate(current.core.elements)
             if isinstance(el, ScatteringStar) and el.orientation == VERTICAL]
    for site in sites:
        current = apply_rule(current, SpaceTimeDual(), RewriteSite.at(site))
        steps.append(current)

    dual_rows = max(rows - 1, 1)
    dual_cols = max(cols - 1, 1)
    return steps, IsingLattice.square(dual_rows, dual_cols, dual_k)


def kw_dual_angle(angle: complex) -> complex:
    """Loop-angle image under the space-time duality:
    e^{psi} = (1 - e^{phi}) / (1 + e^{phi}); for phi = -2K this is -2K*."""
    e = cmath.exp(complex(angle))
    if abs(1 + e) < 1e-12 or abs(1 - e) < 1e-12:
        raise Singular(f"angle {angle} is singular for the duality")
    return cmath.log((1 - e) / (1 + e))


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
