"""Diagram documents: a JSON-compatible schema for Quon diagrams.

Schema (version 1):

    {
      "format": "quon2d-diagram",
      "version": 1,
      "width_in": 0, "width_out": 0,
      "amplitude": [re, im],
      "elements": [ {"kind": "cap", "j": 0}, ... ],
      "parity_cuts": [ {"time_index": 3, "strands": [0, 1]}, ... ],
      "notches": [ {"time_index": 5, "strands": [0, 1, 2, 3]}, ... ],
      "open_intervals": [ {"side": "bottom", "start": 0, "size": 4,
                           "pairing": {"width_out": 4, "amplitude": [re, im],
                                       "elements": [...]} or null}, ... ],
      "boundary_tracking": [[slice, position], ...]
    }

Each element is an object with its "kind" and its fields:

    cap, cup, dot, braid_pos, braid_neg    j
    dot_pair                               j, k  (j < k)
    scattering                             j, theta [re, im], orientation
    scattering_star                        j, phi [re, im], orientation

where j and k are strand positions and orientation is "vertical" (the
default when absent) or "horizontal".

Parsing re-validates every diagram invariant (anchors included); round-trips
are exact.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

from .diagram import (
    BY_CODE,
    HORIZONTAL,
    KINDS,
    SCATTERING,
    VERTICAL,
    DotPair,
    MajoranaDiagram,
)
from .errors import InvariantViolation, ParseError
from .quon import BOTTOM, TOP, OpenInterval, ParityCut, QuonDiagram
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


def _int_in(v, what: str) -> int:
    """An integer field.  A fraction, a string or a boolean is rejected,
    never truncated."""
    if type(v) is int:  # not a bool
        return v
    if type(v) is float and v.is_integer():
        return int(v)
    raise ParseError(f"{what}: expected an integer, got {v!r}")


def _object_in(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ParseError(f"{what}: expected an object, got {v!r}")
    return v


# each kind's fields in constructor order: (name, annotation, default)
_FIELDS = {cls: tuple((f.name, f.type, f.default) for f in fields(cls))
           for cls in KINDS.values()}


def _row_to_dict(kind: int, j: int, k: int, angle: complex, horizontal: bool) -> dict:
    """The document of one row of `diagram.Columns`: its kind's fields."""
    cls = BY_CODE[kind]
    d = {"kind": cls.KIND, "j": j}
    if kind == DotPair.CODE:
        d["k"] = k
    if SCATTERING[kind]:
        d[_FIELDS[cls][1][0]] = _complex_out(cls._parameter(angle))  # theta or phi
        d["orientation"] = HORIZONTAL if horizontal else VERTICAL
    return d


def element_to_dict(el) -> dict:
    return _row_to_dict(*el.row())


def element_from_dict(d: dict, where: str):
    try:
        cls = KINDS.get(d["kind"])
        if cls is None:
            raise ParseError(f"{where}: unknown element kind {d['kind']!r}")
        args = []
        for name, kind, default in _FIELDS[cls]:
            value = d[name] if default is MISSING else d.get(name, default)
            if kind == "complex":
                value = _complex_in(value, where)
            elif kind == "int":
                value = _int_in(value, f"{where}.{name}")
            args.append(value)
        return cls(*args)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _cuts_out(cuts) -> list:
    return [{"time_index": c.time_index, "strands": list(c.strands)} for c in cuts]


def _cuts_in(docs, what: str) -> tuple[ParityCut, ...]:
    return tuple(
        ParityCut(_int_in(c["time_index"], f"{what}[{k}].time_index"),
                  tuple(_int_in(s, f"{what}[{k}].strands") for s in c["strands"]))
        for k, c in enumerate(docs)
    )


def diagram_to_dict(q: QuonDiagram) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "width_in": q.core.width_in,
        "width_out": q.core.width_out,
        "amplitude": _complex_out(q.core.amplitude),
        "elements": [_row_to_dict(*row) for row in zip(*q.core.columns)],
        "parity_cuts": _cuts_out(q.parity_cuts),
        "notches": _cuts_out(q.notches),
        "open_intervals": [
            {
                "side": iv.side,
                "start": iv.start,
                "size": iv.size,
                "pairing": {
                    "width_out": iv.pairing_data.width_out,
                    "amplitude": _complex_out(iv.pairing_data.amplitude),
                    "elements": [_row_to_dict(*row) for row in zip(*iv.pairing_data.columns)],
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
    except (ValueError, RecursionError) as exc:  # an over-long number, over-deep nesting
        raise ParseError(f"unreadable document: {exc}") from exc
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
            _int_in(doc.get("width_in", 0), "width_in"),
            _int_in(doc.get("width_out", 0), "width_out"),
            elements,
            _complex_in(doc.get("amplitude", 1.0), "amplitude"),
        )
        intervals = []
        for k, iv in enumerate(doc.get("open_intervals", [])):
            p = _object_in(iv, f"open_intervals[{k}]").get("pairing")
            pairing = None
            if p is not None:
                pairing = MajoranaDiagram(
                    0,
                    _int_in(_object_in(p, f"open_intervals[{k}].pairing")["width_out"],
                            "pairing width_out"),
                    tuple(
                        element_from_dict(d, "pairing element")
                        for d in p.get("elements", [])
                    ),
                    _complex_in(p.get("amplitude", 1.0), "pairing amplitude"),
                )
            side = iv["side"]
            start = _int_in(iv["start"], "interval start")
            size = _int_in(iv["size"], "interval size")
            # before the interval is built: a default pairing holds size / 2 caps
            width = {TOP: core.width_in, BOTTOM: core.width_out}.get(side)
            if width is not None and not (0 <= start and 0 <= size and start + size <= width):
                raise InvariantViolation(
                    f"open_intervals[{k}]: a {side} interval of {size} strands from {start} "
                    f"runs past the {side} boundary of {width} strands")
            intervals.append(OpenInterval(side, start, size, pairing))
        marks = frozenset(
            (_int_in(a, "boundary_tracking"), _int_in(b, "boundary_tracking"))
            for a, b in doc.get("boundary_tracking", [])
        )
        return QuonDiagram(core, _cuts_in(doc.get("parity_cuts", []), "parity_cuts"),
                           tuple(intervals), marks, _cuts_in(doc.get("notches", []), "notches"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc


def emit_dot(q: QuonDiagram) -> str:
    """Graphviz description of the diagram: nodes are elements, boundary
    points, holes (octagons) and notches (houses), edges are strand
    segments.  A debugging aid, not a rendering contract."""
    trace = WireTrace(q.core)
    lines = ["graph quon {", "  rankdir=TB;"]
    columns = q.core.columns
    for t, (kind, angle) in enumerate(zip(columns.kind, columns.angle)):
        label = BY_CODE[kind].__name__
        if SCATTERING[kind]:
            label += f" {angle:.3g}"
        lines.append(f'  e{t} [label="{t}: {label}", shape=box];')
    touched = [[] for _ in trace.birth]  # per segment, the elements on it in time order
    for t, first, last in zip(trace.quiet.tolist(), trace.first, trace.last):
        for sid in (first,) if first == last else (first, last):
            touched[sid].append(f"e{t}")
    bottom = {sid: pos for pos, sid in enumerate(trace.slices[-1])}
    for sid, touches in enumerate(touched):
        birth, death = ([f"e{trace.turn_elem[tid]}"] if tid >= 0 else []
                        for tid in (trace.birth[sid], trace.death[sid]))
        ends = birth + touches + death  # in time order
        if trace.birth[sid] < 0:  # the top slice holds segments 0, 1, ... in order
            lines.append(f'  top{sid} [label="in {sid}", shape=plaintext];')
            ends.insert(0, f"top{sid}")
        if sid in bottom:
            lines.append(f'  bot{bottom[sid]} [label="out {bottom[sid]}", shape=plaintext];')
            ends.append(f"bot{bottom[sid]}")
        for a, b in zip(ends, ends[1:]):
            lines.append(f"  {a} -- {b} [label=s{sid}];")
    for kind, cuts, shape in (("hole", q.parity_cuts, "octagon"), ("notch", q.notches, "house")):
        for k, cut in enumerate(cuts):
            lines.append(f'  {kind}{k} [label="{kind} @{cut.time_index} {list(cut.strands)}", '
                         f'shape={shape}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
