"""Shared generators for randomized tests."""

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate

from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    HORIZONTAL,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    VERTICAL,
    offset_elements,
)


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
                   names1=("X", "Y", "Z", "S", "SINV", "H", "RXQ+", "RXQ-", "RZ"),
                   names2=("XX", "CNOT", "CZ", "SWAP")):
    """Random nearest-neighbour circuit of `depth` gates drawn from the pools."""
    gates = []
    for _ in range(depth):
        if n >= 2 and rng.random() < two_qubit_rate:
            q = int(rng.integers(0, n - 1))
            name = names2[int(rng.integers(0, len(names2)))]
            pair = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
            angle = float(rng.uniform(0, 2 * np.pi)) if name == "XX" else None
            gates.append(Gate(name, pair, angle))
        else:
            q = int(rng.integers(0, n))
            name = names1[int(rng.integers(0, len(names1)))]
            angle = float(rng.uniform(0, 2 * np.pi)) if name == "RZ" else None
            gates.append(Gate(name, (q,), angle))
    return Circuit(n, tuple(gates))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
