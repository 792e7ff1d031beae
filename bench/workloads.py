"""The benchmark's four workloads: inputs, the timed operation, and checks.

Each workload turns a seed into a fixed list of operations (one round).
Every operation of a workload has the same size: the seed chooses angles,
couplings, single-qubit gates, gate directions, basis bits and move
positions, never the number or the kind of two-qubit gates, projections or
moves.  `generate` returns plain data; only `prepare` and `run` touch
`quon2d`.  `reference` uses `oracles` (or, for `edit`, the unitary of the
seed circuit) and never the program's fast path.

The timed operations look every program function up through its module at
call time, so the traced run can wrap those names in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles
import quon2d
from quon2d import cli, compiler, factory, ising, quon, serialize

TOL = 1e-9

ONE_QUBIT_POOL = ("X", "Y", "Z", "S", "RZ")
# a component below this is exactly zero up to the simulator's round-off
ZERO = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int  # distinct operations; every run repeats whole rounds
    generate: Callable[[np.random.Generator], Any]  # plain-data inputs of one op
    prepare: Callable[[Any], Any]  # plain data -> program objects
    run: Callable[[Any], Any]  # the timed operation
    reference: Callable[[Any], Any]  # computed apart from the program
    error: Callable[[Any, Any], float]  # the op passes when error <= TOL
    probe: str  # the kind of work of its ops, which picks harness.probe_seconds


def generic_angle(rng: np.random.Generator) -> float:
    """An angle at least 0.15 away from every multiple of pi/2."""
    quarter = int(rng.integers(0, 4))
    return quarter * math.pi / 2 + float(rng.uniform(0.15, math.pi / 2 - 0.15))


def template_circuit(rng, n_qubits: int, two_qubit, n_h: int, per_layer: int):
    """Gate tuples (name, qubits, angle): a layer of `per_layer` single-qubit
    gates before and after each fixed two-qubit gate.  `two_qubit` lists
    (name, pair) in time order; a CNOT's direction is drawn.  Exactly `n_h`
    single-qubit slots hold an H, the others draw from ONE_QUBIT_POOL."""
    n_slots = per_layer * (len(two_qubit) + 1)
    h_slots = set(rng.choice(n_slots, size=n_h, replace=False).tolist())

    def layer(first_slot):
        out = []
        for slot in range(first_slot, first_slot + per_layer):
            q = int(rng.integers(0, n_qubits))
            if slot in h_slots:
                out.append(("H", (q,), None))
                continue
            name = ONE_QUBIT_POOL[int(rng.integers(0, len(ONE_QUBIT_POOL)))]
            out.append((name, (q,), generic_angle(rng) if name == "RZ" else None))
        return out

    gates = layer(0)
    for k, (name, pair) in enumerate(two_qubit):
        if name == "CNOT" and rng.random() < 0.5:
            pair = pair[::-1]
        gates.append((name, tuple(pair), generic_angle(rng) if name == "XX" else None))
        gates += layer(per_layer * (k + 1))
    return tuple(gates)


def mixing_circuit(rng, n_qubits: int, two_qubit, n_h: int):
    """A template circuit (two single-qubit gates per layer) whose unitary
    has no exactly-zero entry; drawn again until it has none.

    An exactly-zero component makes an exactly singular matrix, whose
    round-off the Pfaffian kernel may take as a pivot and turn into NaN,
    on some inputs and not others (see CHANGES.md).  Such a failure would
    depend on the seed, so the workloads that evaluate every component
    leave these circuits out; small nonzero components stay in."""
    while True:
        gates = template_circuit(rng, n_qubits, two_qubit, n_h, per_layer=2)
        if np.min(np.abs(oracles.circuit_unitary(n_qubits, gates))) > ZERO:
            return gates


def to_circuit(n_qubits: int, gates) -> quon2d.Circuit:
    return quon2d.Circuit(
        n_qubits, tuple(quon2d.Gate(name, qubits, angle) for name, qubits, angle in gates))


def _bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


# -- ising_z ---------------------------------------------------------------

ISING_SIZE = 14  # 14 x 14 sites, 364 bonds, 728 insertion points


def ising_generate(rng):
    n = ISING_SIZE
    return (rng.uniform(0.1, 0.6, (n, n - 1)), rng.uniform(0.1, 0.6, (n - 1, n)))


def ising_prepare(spec):
    horizontal, vertical = spec
    n = ISING_SIZE
    overrides = {}
    for r in range(n):
        for c in range(n):
            s = r * n + c
            if c + 1 < n:
                overrides[(s, s + 1)] = float(horizontal[r, c])
            if r + 1 < n:
                overrides[(s, s + n)] = float(vertical[r, c])
    return overrides


def ising_run(overrides):
    lattice = ising.IsingLattice.square(ISING_SIZE, ISING_SIZE, 0.0, overrides)
    return quon.evaluate_closed_quon(ising.build_ising_quon(lattice))


def ising_reference(spec):
    return oracles.ising_log_z(ISING_SIZE, ISING_SIZE, *spec)


def ising_error(z, log_z) -> float:
    z = complex(z)
    if not z.real > 0:
        return math.inf
    return max(abs(math.log(z.real) - log_z) / abs(log_z), abs(z.imag) / abs(z))


# -- circuit_amp -------------------------------------------------------------

# 5 projections (CZ: 2, SWAP: 2, CNOT: 1), so 32 expansion terms per op
AMP_QUBITS = 3
AMP_TWO_QUBIT = (("CZ", (0, 1)), ("CNOT", (1, 2)), ("SWAP", (0, 1)))


def amp_generate(rng):
    gates = template_circuit(rng, AMP_QUBITS, AMP_TWO_QUBIT, n_h=2, per_layer=2)
    bits_in = tuple(int(b) for b in rng.integers(0, 2, AMP_QUBITS))
    # any output component that is not exactly zero (see mixing_circuit)
    column = oracles.circuit_unitary(AMP_QUBITS, gates)[:, int("".join(map(str, bits_in)), 2)]
    nonzero = np.flatnonzero(np.abs(column) > ZERO)
    bits_out = _bits(int(rng.choice(nonzero)), AMP_QUBITS)
    return gates, bits_in, bits_out


def amp_prepare(spec):
    gates, bits_in, bits_out = spec
    return to_circuit(AMP_QUBITS, gates), bits_in, bits_out


def amp_run(inputs):
    circuit, bits_in, bits_out = inputs
    return compiler.circuit_amplitude(circuit, bits_in, bits_out)


def amp_reference(spec):
    gates, bits_in, bits_out = spec
    return oracles.circuit_amplitude(AMP_QUBITS, gates, bits_in, bits_out)


def amp_error(value, ref) -> float:
    return abs(complex(value) - ref)


# -- dense_tensor ------------------------------------------------------------

# 2 projections (XX: 1, CNOT: 1): 64 basis encodings of 4 terms each per op;
# 3 of the 6 single-qubit gates are H
DENSE_QUBITS = 3
DENSE_TWO_QUBIT = (("XX", (0, 1)), ("CNOT", (1, 2)))


def dense_generate(rng):
    return mixing_circuit(rng, DENSE_QUBITS, DENSE_TWO_QUBIT, n_h=3)


def dense_prepare(gates):
    return to_circuit(DENSE_QUBITS, gates)


def dense_run(circuit):
    return compiler.quon_to_dense_tensor(compiler.compile_circuit(circuit))


def dense_reference(gates):
    return oracles.circuit_unitary(DENSE_QUBITS, gates)


def tensor_error(tensor, unitary) -> float:
    """Legs are the input bits then the output bits: entries[in, out] = U[out, in]."""
    dim = unitary.shape[0]
    return float(np.max(np.abs(tensor.entries.reshape(dim, dim).T - unitary)))


# -- edit --------------------------------------------------------------------

EDIT_QUBITS = 2
EDIT_TWO_QUBIT = (("XX", (0, 1)), ("CNOT", (0, 1)))
# 25 value-preserving moves: bulk stretches, inserted loops, string-hole pairs
EDIT_MOVES = ("stretch",) * 10 + ("loop",) * 8 + ("string_hole_pair",) * 7


def edit_generate(rng):
    gates = mixing_circuit(rng, EDIT_QUBITS, EDIT_TWO_QUBIT, n_h=2)
    kinds = [EDIT_MOVES[k] for k in rng.permutation(len(EDIT_MOVES))]
    # each move: kind, then uniform draws placed on the diagram by `prepare`
    moves = tuple((kind, float(rng.random()), float(rng.random()), int(rng.integers(1, 4)))
                  for kind in kinds)
    return gates, moves


def edit_prepare(spec):
    """Compile the seed circuit and place the moves on it.  The widths and the
    hole slices are followed through the script, so every move is valid."""
    gates, draws = spec
    seed = compiler.compile_circuit(to_circuit(EDIT_QUBITS, gates))
    widths = seed.core.widths()
    holes = [c.time_index for c in seed.parity_cuts]
    moves = []
    for kind, u_t, u_p, reach in draws:
        if kind == "stretch":
            slices = [t for t, w in enumerate(widths) if t not in holes and w > reach]
            t = slices[int(u_t * len(slices))]
            w = widths[t]
            p = int(u_p * (w - reach))
            moves.append(factory.Stretch(t, p, reach))
            widths[t:t] = [w] * (2 * reach)
            holes = [h + 2 * reach if h >= t else h for h in holes]
            continue
        t = int(u_t * len(widths))
        w = widths[t]
        if kind == "loop":
            p = int(u_p * (w + 1))
            moves.append(factory.Insert(t, p, "closed_diagram"))
        else:  # a string-hole pair needs an odd strand count left of it
            p = 2 * int(u_p * ((w + 1) // 2)) + 1
            moves.append(factory.Insert(t, p, "string_hole_pair"))
        widths[t + 1:t + 1] = [w + 2, w]
        holes = [h + 2 if h >= t else h for h in holes]
        if kind == "string_hole_pair":
            holes.append(t + 1)
    return seed, tuple(moves)


def edit_run(inputs):
    q, moves = inputs
    ledger = factory.FactoryLedger(q)
    for move in moves:
        if isinstance(move, factory.Stretch):
            q, ledger = factory.stretch(q, move, ledger)
        else:
            q, ledger = factory.insert_move(q, move, ledger)
    simplified = cli.greedy_simplify(q)
    return simplified, serialize.parse_diagram(serialize.serialize_diagram(simplified))


@dataclass
class EditReference:
    unitary: np.ndarray
    # error of each distinct simplified diagram already evaluated; a
    # repeated op that returns an equal diagram has the same value
    evaluated: dict = field(default_factory=dict)


def edit_reference(spec):
    gates, _ = spec
    return EditReference(oracles.circuit_unitary(EDIT_QUBITS, gates))


def edit_error(result, ref: EditReference) -> float:
    """Exact serialization round trip, and the simplified diagram's
    components equal the seed circuit's unitary (every move and rule keeps
    the value).  The components come from the Fock-space oracle, apart from
    the Gaussian fast path, which raises on some of these diagrams (see
    CHANGES.md)."""
    simplified, parsed = result
    if parsed != simplified:
        return math.inf
    if simplified not in ref.evaluated:
        ref.evaluated[simplified] = tensor_error(
            compiler.quon_to_dense_tensor(simplified, use_oracle=True), ref.unitary)
    return ref.evaluated[simplified]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ising_z", 4, ising_generate, ising_prepare, ising_run,
                 ising_reference, ising_error, "numeric"),
        Workload("circuit_amp", 6, amp_generate, amp_prepare, amp_run,
                 amp_reference, amp_error, "numeric"),
        Workload("dense_tensor", 6, dense_generate, dense_prepare, dense_run,
                 dense_reference, tensor_error, "objects"),
        Workload("edit", 24, edit_generate, edit_prepare, edit_run,
                 edit_reference, edit_error, "objects"),
    )
}


def generate_round(workload: Workload, seed: int):
    rng = np.random.default_rng(seed)
    return [workload.generate(rng) for _ in range(workload.round_size)]
