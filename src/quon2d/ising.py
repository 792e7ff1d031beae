"""Ising-model applications: matchgate partition functions, the
Kramers-Wannier rewrite chain, and the star-triangle solver.

The partition function compiles to the cleaned (hole-free) Quon network:
one Majorana site loop per spin, one real-exponential scattering per bond.
With the loop-level angle -2K the scattering's dot weight is exactly tanh K,
so the high-temperature expansion emerges term by term and

    Z = sqrt(2)^sites * e^{K * edges} * eval(diagram).

The edge tensor is the paper-form (e^K / cosh phi) e^{phi Z} with
tanh(phi) = e^{-2K}; the loop-level angle is its strand realization after
string-genus cleanup (the scalars are re-collected in the amplitude).  The
space-time dual of the loop angle reproduces Kramers-Wannier exactly:
e^{psi} = (1 - e^{-2K}) / (1 + e^{-2K}) = tanh K = e^{-2K*}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
from .errors import NonPlanarInput, Singular, TooManySites
from .quon import QuonDiagram, string_genus
from .rewrite import RewriteSite, SpaceTimeDual, apply_rule


@dataclass(frozen=True)
class IsingLattice:
    """Planar spin lattice; couplings K = J / k_B T are absorbed per edge."""

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    shape: tuple[int, int] | None = None  # (rows, cols) for the built-in square

    def __post_init__(self):
        for a, b, k in self.edges:
            if not (0 <= a < self.n_sites and 0 <= b < self.n_sites and a != b):
                raise ValueError(f"bad edge ({a}, {b})")
            if not math.isfinite(k):
                raise ValueError("couplings must be finite")
        if not self._planar():
            raise NonPlanarInput("the interaction graph is not planar")

    def _planar(self) -> bool:
        try:
            import networkx as nx
        except ImportError:  # pragma: no cover - networkx ships with the env
            return True
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
        edges = []

        def k_of(a, b):
            return overrides.get((a, b), overrides.get((b, a), coupling))

        for r in range(rows):
            for c in range(cols):
                s = r * cols + c
                if c + 1 < cols:
                    edges.append((s, s + 1, float(k_of(s, s + 1))))
                if r + 1 < rows:
                    edges.append((s, s + cols, float(k_of(s, s + cols))))
        return IsingLattice(rows * cols, tuple(edges), (rows, cols))


def partition_oracle(lattice: IsingLattice, limit: int = 24) -> float:
    """Exact spin enumeration of sum_sigma exp(K sum sigma sigma'), taken
    in blocks of 2^14 configurations, which bounds the memory and keeps
    the arrays in cache."""
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
        total += float(np.exp(energy).sum())
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
    amp = math.sqrt(2.0) ** lattice.n_sites
    for r in range(rows):
        for c in range(cols - 1):
            a, b = r * cols + c, r * cols + c + 1
            els.append(ScatteringStar(2 * c + 1, loop_angle(kk[(a, b)])))
            amp *= math.exp(kk[(a, b)])
        if r < rows - 1:
            for c in range(cols):
                a, b = r * cols + c, (r + 1) * cols + c
                p = 2 * c
                els += [Cap(p + 2), ScatteringStar(p + 1, loop_angle(kk[(a, b)])), Cup(p)]
                amp *= math.exp(kk[(a, b)])
        else:
            for _ in range(cols):
                els.append(Cup(0))
    core = MajoranaDiagram(0, 0, tuple(els), amp)
    return QuonDiagram(core)


def _build_generic(lattice: IsingLattice) -> QuonDiagram:
    n = lattice.n_sites
    els: list = [Cap(2 * s) for s in range(n)]
    amp = math.sqrt(2.0) ** n
    for a, b, k in lattice.edges:
        a, b = min(a, b), max(a, b)
        # route loop a's right strand next to loop b's left strand and back
        out = [BraidPos(j) for j in range(2 * a + 1, 2 * b - 1)]
        back = [BraidNeg(j) for j in reversed(range(2 * a + 1, 2 * b - 1))]
        els += out + [ScatteringStar(2 * b - 1, loop_angle(k))] + back
        amp *= math.exp(k)
    for _ in range(n):
        els.append(Cup(0))
    core = MajoranaDiagram(0, 0, tuple(els), amp)
    return QuonDiagram(core)


# -- Kramers-Wannier --------------------------------------------------------


def kw_dual_coupling(coupling: float) -> float:
    """K* with e^{-2K*} = tanh K (equivalently tanh K* = e^{-2K})."""
    if coupling <= 0:
        raise ValueError("the duality map needs K > 0")
    return -0.5 * math.log(math.tanh(coupling))


def kw_self_dual_point() -> float:
    return 0.5 * math.log(1.0 + math.sqrt(2.0))


def kw_rewrite_chain(lattice: IsingLattice):
    """Quon rewrite chain deriving the dual model: string-hole insertions on
    the dual plaquettes, then the space-time duality on every edge
    scattering.  Every consecutive pair of steps evaluates identically; the
    final diagram carries the dual-lattice angles (the dual coupling K* with
    e^{-2K*} = tanh K on every edge, in the rotated orientation).

    Returns (steps, dual_lattice).
    """
    if lattice.shape is None:
        raise ValueError("the rewrite chain is implemented for square lattices")
    rows, cols = lattice.shape
    couplings = {k for _, _, k in lattice.edges}
    steps = [build_ising_quon(lattice)]

    # insert a string-hole pair on each dual plaquette (interior vertices)
    current = steps[-1]
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            # any slice after the first row of caps hosts the pair; value
            # preservation is exact wherever the pair is placed
            current = string_genus(current, 0, "insert", region=(cols, 1))
            steps.append(current)

    # space-time duality on every edge scattering
    while True:
        site = None
        for i, el in enumerate(current.core.elements):
            if isinstance(el, ScatteringStar) and el.orientation == VERTICAL:
                site = i
                break
        if site is None:
            break
        core = apply_rule(current.core, SpaceTimeDual(), RewriteSite.at(site))
        current = QuonDiagram(core, current.parity_cuts, current.open_intervals,
                              current.boundary_tracking, current.notches)
        steps.append(current)

    dual_rows = max(rows - 1, 1)
    dual_cols = max(cols - 1, 1)
    dual_k = {kw_dual_coupling(k) for k in couplings}
    dual = IsingLattice.square(dual_rows, dual_cols, dual_k.pop() if len(dual_k) == 1
                               else kw_dual_coupling(next(iter(couplings))))
    return steps, dual


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
    raise ValueError(which)


@dataclass(frozen=True)
class StarTriangleSolution:
    v1: complex
    v2: complex
    v3: complex
    r: complex

    def residual(self, u) -> float:
        star = star_triangle_oracle(u, "star")
        tri = star_triangle_oracle((self.v1, self.v2, self.v3), "triangle")
        return float(np.max(np.abs(star - self.r * tri)))


def star_triangle_solve(u1: complex, u2: complex, u3: complex) -> StarTriangleSolution:
    """Find (v1, v2, v3, R) with star(u) = R * triangle(v) on all 8
    components; raises Singular on the measure-zero degenerate set."""
    from scipy.optimize import least_squares

    star = star_triangle_oracle((u1, u2, u3), "star")
    scale = float(np.max(np.abs(star)))
    if scale < 1e-14:
        raise Singular("star tensor vanishes")

    def resid(x):
        v = (x[0] + 1j * x[1], x[2] + 1j * x[3], x[4] + 1j * x[5])
        r = x[6] + 1j * x[7]
        tri = star_triangle_oracle(v, "triangle")
        d = (star - r * tri).ravel()
        return np.concatenate([d.real, d.imag])

    seeds = [
        np.array([abs(u1) * 0.5, 0, abs(u2) * 0.5, 0, abs(u3) * 0.5, 0, 0.5, 0]),
        np.array([0.2, 0, 0.2, 0, 0.2, 0, 0.5, 0]),
        np.array([0.7, 0, 0.7, 0, 0.7, 0, 1.0, 0]),
    ]
    rng = np.random.default_rng(0)
    seeds += [rng.normal(scale=0.7, size=8) for _ in range(7)]
    for x0 in seeds:
        res = least_squares(resid, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if np.max(np.abs(res.fun)) <= 1e-10 * max(1.0, scale):
            x = res.x
            return StarTriangleSolution(
                x[0] + 1j * x[1], x[2] + 1j * x[3], x[4] + 1j * x[5], x[6] + 1j * x[7]
            )
    raise Singular(f"no star-triangle partner for ({u1}, {u2}, {u3})")
