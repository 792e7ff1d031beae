"""Shared generators for randomized tests, the gluing and dense helpers only
tests use, and a fresh interpreter."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quon2d
from quon2d.circuits import GATES, Circuit, Gate

from quon2d.compiler import DenseTensor, quon_to_dense_tensor
from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Columns,
    Cup,
    Dot,
    DotPair,
    HORIZONTAL,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    VERTICAL,
)
from quon2d.errors import WidthMismatch
from quon2d.factory import Insert, Stretch, Switch
from quon2d.quon import BOTTOM, TOP, QuonDiagram


def offset_elements(elements, off):
    """Element objects with every position moved by `off`."""
    return Columns.of_elements(elements).shifted(off).objects()


def quon_compose(top: QuonDiagram, bottom: QuonDiagram) -> QuonDiagram:
    """Vertical gluing; top's bottom intervals fuse with bottom's top
    intervals (they must align)."""
    tops = sorted((iv for iv in top.open_intervals if iv.side == BOTTOM),
                  key=lambda iv: iv.start)
    bots = sorted((iv for iv in bottom.open_intervals if iv.side == TOP),
                  key=lambda iv: iv.start)
    if [(iv.start, iv.size) for iv in tops] != [(iv.start, iv.size) for iv in bots]:
        raise WidthMismatch("glued boundary intervals do not align")
    intervals = [iv for iv in top.open_intervals if iv.side == TOP] + [
        iv for iv in bottom.open_intervals if iv.side == BOTTOM
    ]
    below = bottom.splice(0, 0, top.core.columns, top.core.amplitude * bottom.core.amplitude,
                          width_in=top.core.width_in, open_intervals=intervals)
    return QuonDiagram(below.core, top.parity_cuts + below.parity_cuts, intervals,
                       top.boundary_tracking | below.boundary_tracking,
                       top.notches + below.notches)


def dense_gate_matrix(q: QuonDiagram) -> np.ndarray:
    """Dense (out x in) matrix of a compiled circuit diagram."""
    n_top = sum(iv.qubit_count for iv in q.open_intervals if iv.side == TOP)
    mat = as_matrix(quon_to_dense_tensor(q), n_top)  # rows = top bits (inputs), cols = bottom
    return mat.T  # (out, in)


def as_matrix(tensor: DenseTensor, rows: int) -> np.ndarray:
    """(2^rows) x (2^(rank-rows)) matrix, row legs first."""
    return tensor.entries.reshape(2 ** rows, -1)


def permuted(tensor: DenseTensor, order) -> DenseTensor:
    """The tensor with its legs in `order`."""
    return DenseTensor(tensor.rank, np.transpose(tensor.tensor(), order).reshape(-1))


def random_closed_diagram(rng, max_width=16, max_elems=50, allow_dots=True,
                          allow_horizontal=True, allow_star=True):
    """Random closed diagram mixing caps, cups, dots, braids, scatterings."""
    elems = []
    w = 0
    n = int(rng.integers(5, max_elems))
    for _ in range(n):
        choices = ["cap"]
        if w >= 2:
            choices += ["cup", "braid", "scat", "pair"]
            if allow_dots:
                choices += ["dot", "dotpair"]
        kind = rng.choice(choices)
        if kind == "cap" and w + 2 <= max_width:
            elems.append(Cap(int(rng.integers(0, w + 1))))
            w += 2
        elif kind == "cup" and w >= 2:
            elems.append(Cup(int(rng.integers(0, w - 1))))
            w -= 2
        elif kind == "braid" and w >= 2:
            j = int(rng.integers(0, w - 1))
            elems.append(BraidPos(j) if rng.random() < 0.5 else BraidNeg(j))
        elif kind == "scat" and w >= 2:
            j = int(rng.integers(0, w - 1))
            theta = complex(rng.normal() * 2, rng.normal() * 0.5)
            orient = HORIZONTAL if (allow_horizontal and rng.random() < 0.3) else VERTICAL
            if allow_star and rng.random() < 0.3:
                phi = 1j * theta if rng.random() < 0.5 else complex(rng.normal(), rng.normal() * 0.3)
                elems.append(ScatteringStar(j, phi, orient))
            else:
                elems.append(Scattering(j, theta, orient))
        elif kind == "dot" and w >= 1:
            elems.append(Dot(int(rng.integers(0, w))))
        elif kind == "dotpair" and w >= 2:
            j = int(rng.integers(0, w - 1))
            k = int(rng.integers(j + 1, w))
            elems.append(DotPair(j, k))
    while w > 0:
        elems.append(Cup(int(rng.integers(0, w - 1))))
        w -= 2
    amp = complex(rng.normal(), rng.normal())
    return MajoranaDiagram(0, 0, tuple(elems), amp)


def embed_pattern(rng, pattern, pattern_width, max_extra=10):
    """Random closed diagram containing `pattern` at a random slice/offset;
    the pattern must be width-neutral.  Returns (diagram, time, offset)."""
    while True:
        host = random_closed_diagram(rng, max_width=10, max_elems=max_extra,
                                     allow_dots=False, allow_star=False)
        widths = host.widths()
        slots = [t for t, w in enumerate(widths) if w >= pattern_width]
        if not slots:
            continue
        t = int(rng.choice(slots))
        off = int(rng.integers(0, widths[t] - pattern_width + 1))
        els = host.elements[:t] + offset_elements(pattern, off) + host.elements[t:]
        return MajoranaDiagram(0, 0, els, host.amplitude), t, off


def random_circuit(n, depth, rng, two_qubit_rate=0.45,
                   names1=tuple(name for name, kind in GATES.items() if kind.qubits == 1),
                   names2=tuple(name for name, kind in GATES.items() if kind.qubits == 2)):
    """Random nearest-neighbour circuit of `depth` gates drawn from the pools
    (by default every gate of `GATES`, split by arity)."""
    gates = []
    for _ in range(depth):
        if n >= 2 and rng.random() < two_qubit_rate:
            q = int(rng.integers(0, n - 1))
            name = names2[int(rng.integers(0, len(names2)))]
            pair = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
            angle = float(rng.uniform(0, 2 * np.pi)) if GATES[name].takes_angle else None
            gates.append(Gate(name, pair, angle))
        else:
            q = int(rng.integers(0, n))
            name = names1[int(rng.integers(0, len(names1)))]
            angle = float(rng.uniform(0, 2 * np.pi)) if GATES[name].takes_angle else None
            gates.append(Gate(name, (q,), angle))
    return Circuit(n, tuple(gates))


def random_move(q, rng):
    """One valid move on q: a braid switched to a generic angle or to a
    small offset from the angle that leaves it a braid (+-pi/2), a loop or
    string-hole insert, or a bulk stretch."""
    els, widths = q.core.elements, q.core.widths()
    braids = [i for i, el in enumerate(els) if isinstance(el, (BraidPos, BraidNeg))]
    kind = rng.choice(["switch", "switch", "loop", "string_hole_pair", "stretch"])
    if kind == "switch" and braids:
        site = braids[int(rng.integers(len(braids)))]
        if rng.random() < 0.4:
            theta = float(rng.uniform(-math.pi, math.pi))
        else:
            offset = float(rng.choice([1e-8, -1e-8, 1e-6, 1e-4, 1e-2]))
            theta = (-math.pi / 2 if isinstance(els[site], BraidPos) else math.pi / 2) + offset
        return Switch(site, "braid_to_scattering", theta=theta)
    if kind == "stretch":
        holes = {cut.time_index for cut in q.parity_cuts}
        slices = [t for t, w in enumerate(widths) if t not in holes and w >= 2]
        t = slices[int(rng.integers(len(slices)))]
        reach = int(rng.integers(1, widths[t]))
        return Stretch(t, int(rng.integers(0, widths[t] - reach)), reach)
    t = int(rng.integers(0, len(widths)))
    if kind == "string_hole_pair" and widths[t]:
        return Insert(t, 2 * int(rng.integers(0, (widths[t] + 1) // 2)) + 1, "string_hole_pair")
    return Insert(t, int(rng.integers(0, widths[t] + 1)), "closed_diagram")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def run_fresh(code: str, *unloaded: str) -> None:
    """Run `code` in a fresh interpreter that imports quon2d from this
    checkout, and check that it imported none of the modules `unloaded`."""
    src = str(Path(quon2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys\n" + code + "".join(
        f"assert {name!r} not in sys.modules, {name!r}\n" for name in unloaded)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def flipped_totals(trace, flipped):
    """E of each loop of a closed diagram's trace (`wires.Walk.totals`), with
    2 more for each worldline of a crossing of `flipped` on it (the flips
    that `gaussian.assemble_frontier` returns)."""
    totals = list(trace.walk.totals)
    labels = trace.worldline_labels()
    for f in flipped:
        c = trace.crossed[f]
        for sid in (trace.first[c], trace.last[c]):
            totals[labels[sid]] += 2
    return totals
