"""Command-line front end.

Subcommands: eval, amplitude, simplify, classify, compile, ising,
star-triangle, factory, emit-dot.  Exit codes: 0 success, 1 usage error,
2 evaluation error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import cmath
import sys

from . import __version__
from .circuits import Circuit, Gate
from .diagram import BraidNeg, BraidPos, Cap, Cup, Scattering, is_generic_angle
from .errors import (
    InvariantViolation,
    NumericalInstability,
    ParseError,
    Quon2dError,
)
from .fock import evaluate_closed_oracle
from .gaussian import evaluate_closed_fast
from .quon import ParityCut, QuonDiagram, evaluate_closed_quon, string_genus
from .rewrite import ReidemeisterII, RewriteSite, ScatteringReduce, apply_rule
from .serialize import emit_dot, parse_diagram, serialize_diagram

USAGE_ERROR, EVAL_ERROR, INVARIANT_ERROR = 1, 2, 3


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def parse_circuit_text(text: str) -> Circuit:
    """One gate per line: `GATE q [q2] [angle]`, comments with #."""
    gates = []
    n = 0
    names_angle = {"RZ": 1, "XX": 2}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        try:
            if name in ("X", "Y", "Z", "S", "SINV", "H", "RXQ+", "RXQ-"):
                gates.append(Gate(name, (int(parts[1]),)))
            elif name == "RZ":
                gates.append(Gate(name, (int(parts[1]),), float(parts[2])))
            elif name == "XX":
                gates.append(Gate(name, (int(parts[1]), int(parts[2])), float(parts[3])))
            elif name in ("CNOT", "CZ", "SWAP"):
                gates.append(Gate(name, (int(parts[1]), int(parts[2]))))
            else:
                raise ValueError(f"unknown gate {name!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"circuit line {lineno}: {exc}") from exc
        n = max(n, max(gates[-1].qubits) + 1)
    return Circuit(n, tuple(gates))


def greedy_simplify(q: QuonDiagram) -> QuonDiagram:
    """String-genus removals, Reidemeister II cancellations, and k*pi/2
    scattering reductions, to fixpoint."""
    from .classify import remove_holes_to_fixpoint

    changed = True
    while changed:
        changed = False
        cleaned = remove_holes_to_fixpoint(q)
        if cleaned.hole_count() != q.hole_count():
            q = cleaned
            changed = True
        core = q.core
        for i, el in enumerate(core.elements):
            if isinstance(el, Scattering) and not is_generic_angle(el.theta):
                try:
                    core = apply_rule(core, ScatteringReduce(), RewriteSite.at(i))
                    changed = True
                    break
                except Quon2dError:
                    continue
        if changed and core is not q.core:
            q = _with_core(q, core, i, 1)
            continue
        for i in range(len(core.elements) - 1):
            a, b = core.elements[i], core.elements[i + 1]
            if isinstance(a, (BraidPos, BraidNeg)) and isinstance(b, (BraidPos, BraidNeg)) \
                    and type(a) is not type(b) and a.j == b.j:
                q = _with_core(q, apply_rule(core, ReidemeisterII(), RewriteSite.at(i)), i, 2)
                changed = True
                break
    return q


def _with_core(q: QuonDiagram, core, at: int, removed: int) -> QuonDiagram:
    """q with its core replaced by `core`, in which the `removed` elements
    from index `at` of q.core were rewritten.  Cuts and notches after them
    move by the change in element count; one between them moves to `at`."""
    delta = len(core.elements) - len(q.core.elements)

    def retimed(cuts):
        out = []
        for c in cuts:
            t = c.time_index
            if t >= at + removed:
                t += delta
            elif t > at:
                t = at
            out.append(ParityCut(t, c.strands))
        return tuple(out)

    return QuonDiagram(core, retimed(q.parity_cuts), q.open_intervals,
                       q.boundary_tracking, retimed(q.notches))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quon2d", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed diagram file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="use the Fock oracle")
    p.add_argument("--fast", action="store_true", help="use the Gaussian evaluator (default)")

    p = sub.add_parser("amplitude", help="circuit amplitude <out|U|in>")
    p.add_argument("circuit")
    p.add_argument("--in", dest="bits_in", required=True)
    p.add_argument("--out", dest="bits_out", required=True)

    p = sub.add_parser("simplify", help="greedy value-preserving simplification")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("classify", help="Clifford/matchgate classification report")
    p.add_argument("file")

    p = sub.add_parser("compile", help="compile a circuit file to a diagram")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("ising", help="square-lattice Ising partition function")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("star-triangle", help="solve the star-triangle relation")
    p.add_argument("--u", required=True, help="three comma-separated couplings")

    p = sub.add_parser("factory", help="apply a move script to a seed diagram")
    p.add_argument("seed")
    p.add_argument("--script", required=True)
    p.add_argument("--component", help="comma-separated bits for the expanded evaluation")
    p.add_argument("-o", "--output")

    p = sub.add_parser("emit-dot", help="write a graph-layout description")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        return _dispatch(args)
    except (ParseError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except (Quon2dError, NumericalInstability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EVAL_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dispatch(args) -> int:
    if args.command == "eval":
        q = parse_diagram(_read(args.file))
        value = evaluate_closed_quon(q, use_oracle=args.oracle)
        print(_fmt(value))
        return 0

    if args.command == "amplitude":
        from .compiler import circuit_amplitude

        circuit = parse_circuit_text(_read(args.circuit))
        bits_in = [int(b) for b in args.bits_in.replace(",", "")]
        bits_out = [int(b) for b in args.bits_out.replace(",", "")]
        print(_fmt(circuit_amplitude(circuit, bits_in, bits_out)))
        return 0

    if args.command == "simplify":
        q = parse_diagram(_read(args.file))
        before = evaluate_closed_quon(q) if q.is_closed else None
        simplified = greedy_simplify(q)
        if before is not None:
            after = evaluate_closed_quon(simplified)
            drift = abs(after - before)
            print(f"# value preserved: before={_fmt(before)} after={_fmt(after)} "
                  f"drift={drift:.3e}", file=sys.stderr)
        _write(args.output, serialize_diagram(simplified))
        return 0

    if args.command == "classify":
        from .classify import classify

        report = classify(parse_diagram(_read(args.file)))
        for key in ("clifford_form", "matchgate_form", "punctured_matchgate_form",
                    "hole_count", "generic_scattering_count", "boundary_tracking_ok"):
            print(f"{key}: {getattr(report, key)}")
        return 0

    if args.command == "compile":
        from .compiler import compile_circuit

        q = compile_circuit(parse_circuit_text(_read(args.circuit)))
        _write(args.output, serialize_diagram(q))
        return 0

    if args.command == "ising":
        from .ising import IsingLattice, build_ising_quon, partition_oracle

        lattice = IsingLattice.square(args.rows, args.cols, args.K)
        if args.oracle:
            print(f"{partition_oracle(lattice):.12g}")
        else:
            z = evaluate_closed_quon(build_ising_quon(lattice))
            print(f"{z.real:.12g}")
        return 0

    if args.command == "star-triangle":
        from .ising import star_triangle_solve

        u = [complex(part) for part in args.u.split(",")]
        if len(u) != 3:
            print("error: --u needs three couplings", file=sys.stderr)
            return USAGE_ERROR
        sol = star_triangle_solve(*u)
        print(f"v1: {_fmt(sol.v1)}")
        print(f"v2: {_fmt(sol.v2)}")
        print(f"v3: {_fmt(sol.v3)}")
        print(f"R:  {_fmt(sol.r)}")
        print(f"residual: {sol.residual(u):.3e}")
        return 0

    if args.command == "factory":
        from .factory import FactoryLedger, parse_move_script
        from .quon import BasisAssignment

        seed = parse_diagram(_read(args.seed))
        moves = parse_move_script(_read(args.script))
        ledger = FactoryLedger(seed)
        ledger.moves = moves
        result = ledger.replay()
        ledger_full = FactoryLedger(seed)
        current = seed
        from .factory import Insert, Stretch, Switch, insert_move, stretch, switch_move

        for move in moves:
            if isinstance(move, Stretch):
                current, ledger_full = stretch(current, move, ledger_full)
            elif isinstance(move, Insert):
                current, ledger_full = insert_move(current, move, ledger_full)
            else:
                current, ledger_full = switch_move(current, move, ledger_full)
        print(f"n_S: {ledger_full.n_s}", file=sys.stderr)
        if args.component is not None:
            from .factory import evaluate_component_expanded

            groups = tuple(
                tuple(int(b) for b in grp)
                for grp in args.component.split(",")
            )
            value = evaluate_component_expanded(
                current, ledger_full, BasisAssignment(groups)
            )
            print(_fmt(value))
        if args.output:
            _write(args.output, serialize_diagram(current))
        elif args.component is None:
            _write(None, serialize_diagram(current))
        return 0

    if args.command == "emit-dot":
        q = parse_diagram(_read(args.file))
        _write(args.output, emit_dot(q))
        return 0

    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
