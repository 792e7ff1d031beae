"""Command-line front end.

Subcommands: eval, amplitude, simplify, classify, compile, ising,
star-triangle, factory, emit-dot.  Exit codes: 0 success, 1 usage error,
2 evaluation error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .circuits import GATES, Circuit, Gate
from .errors import InvariantViolation, ParseError, Quon2dError
from .quon import QuonDiagram, evaluate_closed_quon
from .rewrite import ReidemeisterII, RewriteSite, ScatteringReduce, apply_rule
from .serialize import emit_dot, parse_diagram, serialize_diagram

USAGE_ERROR, EVAL_ERROR, INVARIANT_ERROR = 1, 2, 3


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def parse_circuit_text(text: str) -> Circuit:
    """One gate per line: `GATE q [q2] [angle]`, comments with #; each
    gate's qubit count and angle come from `GATES`."""
    gates = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        name, *args = fields
        kind = GATES.get(name.upper())
        try:
            if kind is None:
                raise InvariantViolation(f"unknown gate {name!r}")
            if len(args) != kind.qubits + kind.takes_angle:
                raise InvariantViolation(f"{name} takes {kind.qubits + kind.takes_angle} "
                                         f"field(s) after its name, got {len(args)}")
            angle = float(args.pop()) if kind.takes_angle else None
            gates.append(Gate(name, tuple(int(q) for q in args), angle))
        except (ValueError, InvariantViolation) as exc:
            raise ParseError(f"circuit line {lineno}: {exc}") from exc
        n = max(n, max(gates[-1].qubits) + 1)
    try:
        return Circuit(n, tuple(gates))
    except InvariantViolation as exc:
        raise ParseError(f"circuit: {exc}") from exc


def greedy_simplify(q: QuonDiagram) -> QuonDiagram:
    """String-genus removals, k*pi/2 scattering reductions and Reidemeister
    II cancellations, to fixpoint.  Each pass removes the holes it can, with
    one WireTrace and one rebuild for all of them, then applies the first
    rule that matches anywhere, at its first match.

    A rule's match at i reads elements i .. i + SPAN - 1 only, so each rule
    keeps the index before which it is known not to match: its last scan's
    end, lowered to i - SPAN + 1 by a rewrite at i, which leaves the
    elements before i as they were, and reset to 0 by a hole removal.  A
    scan starts there and finds the first match a scan from 0 would."""
    from .classify import remove_holes_to_fixpoint

    rules = (ScatteringReduce(), ReidemeisterII())
    clean = [0] * len(rules)
    while True:
        cleaned = remove_holes_to_fixpoint(q)
        removed = cleaned.hole_count() != q.hole_count()
        if removed:
            q = cleaned
            clean = [0] * len(rules)
        for r, rule in enumerate(rules):
            i = rule.first_match(q.core.columns, clean[r])
            if i is None:
                clean[r] = len(q.core)
                continue
            clean[r] = i
            q = apply_rule(q, rule, RewriteSite.at(i))
            clean = [min(k, max(i - other.SPAN + 1, 0)) for k, other in zip(clean, rules)]
            break
        else:
            if not removed:
                return q


def _bits(text: str) -> tuple[int, ...]:
    """A bit string such as `0110`; commas between bits are ignored."""
    text = text.replace(",", "")
    if set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"bits must be 0 or 1, got {text!r}")
    return tuple(int(b) for b in text)


def _bit_groups(text: str) -> tuple[tuple[int, ...], ...]:
    """Comma-separated bit strings, one per open interval."""
    return tuple(_bits(group) for group in text.split(","))


def _couplings(text: str) -> list[complex]:
    try:
        u = [complex(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"couplings must be complex numbers, got {text!r}") \
            from None
    if len(u) != 3:
        raise argparse.ArgumentTypeError("--u needs three couplings")
    return u


# options whose numeric value may start with "-", which argparse reads as an
# option unless it looks like a plain decimal (-0.1, not -1e-1)
_SIGNED = ("--K", "--u")


def _joined(argv) -> list[str]:
    """argv with each option of `_SIGNED` and a value after it that starts
    with a single "-" joined by "=", the form argparse reads as a value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="quon2d", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a closed diagram file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="use the Fock oracle")

    p = sub.add_parser("amplitude", help="circuit amplitude <out|U|in>")
    p.add_argument("circuit")
    p.add_argument("--in", dest="bits_in", type=_bits, required=True)
    p.add_argument("--out", dest="bits_out", type=_bits, required=True)

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
    p.add_argument("--u", type=_couplings, required=True,
                   help="three comma-separated couplings")

    p = sub.add_parser("factory", help="apply a move script to a seed diagram")
    p.add_argument("seed")
    p.add_argument("--script", required=True)
    p.add_argument("--component", type=_bit_groups,
                   help="print the basis component of the grown diagram: one bit "
                        "string per open interval, comma-separated")
    p.add_argument("-o", "--output")

    p = sub.add_parser("emit-dot", help="write a graph-layout description")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    try:
        args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # --help and --version exit with code 0
        return USAGE_ERROR if exc.code else 0

    try:
        return _dispatch(args)
    except (ParseError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except Quon2dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EVAL_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


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
        print(_fmt(circuit_amplitude(circuit, args.bits_in, args.bits_out)))
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

        sol = star_triangle_solve(*args.u)
        print(f"v1: {_fmt(sol.v1)}")
        print(f"v2: {_fmt(sol.v2)}")
        print(f"v3: {_fmt(sol.v3)}")
        print(f"R:  {_fmt(sol.r)}")
        print(f"residual: {sol.residual(args.u):.3e}")
        return 0

    if args.command == "factory":
        from .factory import FactoryLedger, apply_move, parse_move_script
        from .quon import BasisAssignment, encode_basis

        current = parse_diagram(_read(args.seed))
        ledger = FactoryLedger(current)
        for move in parse_move_script(_read(args.script)):
            current, ledger = apply_move(current, move, ledger)
        print(f"n_S: {ledger.n_s}", file=sys.stderr)
        if args.component is not None:
            value = evaluate_closed_quon(encode_basis(current, BasisAssignment(args.component)))
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
