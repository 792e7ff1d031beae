"""Diagram documents: a JSON-compatible schema for Quon diagrams.

Schema (version 1):

    {
      "format": "quon2d-diagram",
      "version": 1,
      "width_in": 0, "width_out": 0,
      "amplitude": [re, im],
      "elements": [ {"kind": "cap", "j": 0},
                    {"kind": "scattering", "j": 0, "theta": [re, im],
                     "orientation": "vertical"}, ... ],
      "parity_cuts": [ {"time_index": 3, "strands": [0, 1]}, ... ],
      "notches": [ {"time_index": 5, "strands": [0, 1, 2, 3]}, ... ],
      "open_intervals": [ {"side": "bottom", "start": 0, "size": 4,
                           "pairing": {"width_out": 4, "amplitude": [re, im],
                                       "elements": [...]} or null}, ... ],
      "boundary_tracking": [[slice, position], ...]
    }

Parsing re-validates every diagram invariant (anchors included); round-trips
are exact.
"""

from __future__ import annotations

import json

from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
)
from .errors import InvariantViolation, ParseError
from .quon import OpenInterval, ParityCut, QuonDiagram
from .wires import WireTrace

FORMAT = "quon2d-diagram"
VERSION = 1


def _complex_out(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(v, what: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ParseError(f"{what}: expected [re, im], got {v!r}")


def element_to_dict(el) -> dict:
    if isinstance(el, Cap):
        return {"kind": "cap", "j": el.j}
    if isinstance(el, Cup):
        return {"kind": "cup", "j": el.j}
    if isinstance(el, Dot):
        return {"kind": "dot", "j": el.j}
    if isinstance(el, DotPair):
        return {"kind": "dot_pair", "j": el.j, "k": el.k}
    if isinstance(el, BraidPos):
        return {"kind": "braid_pos", "j": el.j}
    if isinstance(el, BraidNeg):
        return {"kind": "braid_neg", "j": el.j}
    if isinstance(el, Scattering):
        return {"kind": "scattering", "j": el.j, "theta": _complex_out(el.theta),
                "orientation": el.orientation}
    if isinstance(el, ScatteringStar):
        return {"kind": "scattering_star", "j": el.j, "phi": _complex_out(el.phi),
                "orientation": el.orientation}
    raise ParseError(f"unknown element {el!r}")


def element_from_dict(d: dict, where: str):
    try:
        kind = d["kind"]
        if kind == "cap":
            return Cap(int(d["j"]))
        if kind == "cup":
            return Cup(int(d["j"]))
        if kind == "dot":
            return Dot(int(d["j"]))
        if kind == "dot_pair":
            return DotPair(int(d["j"]), int(d["k"]))
        if kind == "braid_pos":
            return BraidPos(int(d["j"]))
        if kind == "braid_neg":
            return BraidNeg(int(d["j"]))
        if kind == "scattering":
            return Scattering(int(d["j"]), _complex_in(d["theta"], where),
                              d.get("orientation", "vertical"))
        if kind == "scattering_star":
            return ScatteringStar(int(d["j"]), _complex_in(d["phi"], where),
                                  d.get("orientation", "vertical"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: unknown element kind {d.get('kind')!r}")


def diagram_to_dict(q: QuonDiagram) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "width_in": q.core.width_in,
        "width_out": q.core.width_out,
        "amplitude": _complex_out(q.core.amplitude),
        "elements": [element_to_dict(el) for el in q.core.elements],
        "parity_cuts": [
            {"time_index": c.time_index, "strands": list(c.strands)}
            for c in q.parity_cuts
        ],
        "notches": [
            {"time_index": c.time_index, "strands": list(c.strands)}
            for c in q.notches
        ],
        "open_intervals": [
            {
                "side": iv.side,
                "start": iv.start,
                "size": iv.size,
                "pairing": {
                    "width_out": iv.pairing_data.width_out,
                    "amplitude": _complex_out(iv.pairing_data.amplitude),
                    "elements": [element_to_dict(el) for el in iv.pairing_data.elements],
                },
            }
            for iv in q.open_intervals
        ],
        "boundary_tracking": sorted([list(anchor) for anchor in q.boundary_tracking]),
    }


def serialize_diagram(q: QuonDiagram) -> str:
    return json.dumps(diagram_to_dict(q), indent=2, sort_keys=True) + "\n"


def parse_diagram(text: str) -> QuonDiagram:
    """Parse and re-validate a diagram document; raises ParseError on
    malformed input and InvariantViolation (naming the failed check) on
    structurally invalid diagrams."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError(f"not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise ParseError(f"unsupported version {doc.get('version')!r}")
    try:
        elements = tuple(
            element_from_dict(d, f"elements[{i}]")
            for i, d in enumerate(doc.get("elements", []))
        )
        core = MajoranaDiagram(
            int(doc.get("width_in", 0)),
            int(doc.get("width_out", 0)),
            elements,
            _complex_in(doc.get("amplitude", 1.0), "amplitude"),
        )
        cuts = tuple(
            ParityCut(int(c["time_index"]), tuple(int(s) for s in c["strands"]))
            for c in doc.get("parity_cuts", [])
        )
        intervals = []
        for iv in doc.get("open_intervals", []):
            pairing = None
            if iv.get("pairing") is not None:
                p = iv["pairing"]
                pairing = MajoranaDiagram(
                    0,
                    int(p["width_out"]),
                    tuple(
                        element_from_dict(d, "pairing element")
                        for d in p.get("elements", [])
                    ),
                    _complex_in(p.get("amplitude", 1.0), "pairing amplitude"),
                )
            intervals.append(
                OpenInterval(iv["side"], int(iv["start"]), int(iv["size"]), pairing)
            )
        marks = frozenset(
            (int(a), int(b)) for a, b in doc.get("boundary_tracking", [])
        )
        notches = tuple(
            ParityCut(int(c["time_index"]), tuple(int(s) for s in c["strands"]))
            for c in doc.get("notches", [])
        )
        return QuonDiagram(core, cuts, tuple(intervals), marks, notches)
    except InvariantViolation:
        raise
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def emit_dot(q: QuonDiagram) -> str:
    """Graphviz description of the diagram: nodes are elements and turns,
    edges are strand segments.  A debugging aid, not a rendering contract."""
    trace = WireTrace(q.core)
    lines = ["graph quon {", "  rankdir=TB;"]
    for t, el in enumerate(q.core.elements):
        label = type(el).__name__
        if isinstance(el, Scattering):
            label += f" {complex(el.theta):.3g}"
        elif isinstance(el, ScatteringStar):
            label += f"* {complex(el.phi):.3g}"
        lines.append(f'  e{t} [label="{t}: {label}", shape=box];')
    for sid, seg in enumerate(trace.segments):
        ends = []
        for tid in (seg.birth_turn, seg.death_turn):
            if tid is not None:
                ends.append(f"e{trace.turns[tid].elem_index}")
        for t, _el in seg.touches:
            ends.append(f"e{t}")
        if seg.top_position is not None:
            lines.append(f'  top{seg.top_position} [label="in {seg.top_position}", shape=plaintext];')
            ends.insert(0, f"top{seg.top_position}")
        if seg.bottom_position is not None:
            lines.append(
                f'  bot{seg.bottom_position} [label="out {seg.bottom_position}", shape=plaintext];'
            )
            ends.append(f"bot{seg.bottom_position}")
        for a, b in zip(ends, ends[1:]):
            lines.append(f"  {a} -- {b} [label=s{sid}];")
    for k, cut in enumerate(q.parity_cuts):
        lines.append(f'  cut{k} [label="hole @{cut.time_index} {list(cut.strands)}", shape=octagon];')
    lines.append("}")
    return "\n".join(lines) + "\n"
