"""Per-layer spans for the traced run, recorded from the benchmark's side.

`Tracer.install()` replaces public `quon2d` names, in the module where the
program looks each one up, by wrappers that record a span (layer, start,
end, parent) in memory; `uninstall()` puts the originals back.  The timed
runs never install it.  A layer's self time is its spans' duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from quon2d import cli, compiler, diagram, factory, gaussian, ising, quon, serialize

# quon2d.classify is the function re-exported by the package; the module is
# only reachable through sys.modules
_classify = sys.modules["quon2d.classify"]

# (layer, owner of the looked-up name, attribute)
TARGETS = (
    ("gaussian.pfaffian", gaussian, "pfaffian"),
    ("gaussian.contraction", gaussian, "contraction_matrix"),
    ("gaussian.assemble", gaussian, "assemble_frontier"),
    ("gaussian.prepare", gaussian, "PreparedDiagram"),
    ("wires.trace", gaussian, "WireTrace"),
    ("wires.trace", quon, "WireTrace"),
    ("wires.trace", _classify, "WireTrace"),
    ("quon.expand", quon, "evaluate_closed_quon"),
    ("quon.expand", compiler, "evaluate_closed_quon"),
    ("quon.encode", compiler, "encode_basis"),
    ("compiler.compile", compiler, "compile_circuit"),
    ("diagram.build", diagram.MajoranaDiagram, "__post_init__"),
    ("factory.move", factory, "stretch"),
    ("factory.move", factory, "insert_move"),
    ("rewrite.apply_rule", cli, "apply_rule"),
    ("cli.simplify", cli, "greedy_simplify"),
    ("classify.remove_holes", _classify, "remove_holes_to_fixpoint"),
    ("serialize.round_trip", serialize, "serialize_diagram"),
    ("serialize.round_trip", serialize, "parse_diagram"),
    ("ising.build", ising, "build_ising_quon"),
    ("ising.build", ising.IsingLattice, "square"),
)


def pfaffian_flops(n: int) -> int:
    """Real flops of Parlett-Reid on an n x n complex matrix: each of the n/2
    steps does a rank-2 update of the trailing m x m block (two complex
    outer products and two complex additions, 16 flops per entry)."""
    return sum(16 * m * m for m in range(n - 2, 0, -2)) if n % 2 == 0 else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.pfaffian_dim_max = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _measure(self, layer, args, result) -> None:
        """Counts taken at the layer boundary from its arguments and result."""
        if layer == "gaussian.pfaffian":
            n = len(args[0])
            self.pfaffian_dim_max = max(self.pfaffian_dim_max, n)
            self.counts["pfaffian_flops"] += pfaffian_flops(n)
        elif layer == "gaussian.assemble":
            self.counts["assemble_points"] += len(result[1])
        elif layer == "quon.expand":
            q = args[0]
            self.counts["expand_terms"] += 2 ** (len(q.parity_cuts) + len(q.notches))
        elif layer == "serialize.round_trip" and isinstance(result, str):
            self.counts["serialize_bytes"] += len(result)

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.counts[layer + ".calls"] += 1
            self._measure(layer, args, result)
            return result

        return traced

    def install(self) -> None:
        for layer, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            fn = original.__func__ if isinstance(original, staticmethod) else original
            wrapped = self._wrap(layer, fn)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(original, staticmethod)
                    else wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), covered in zip(self.spans, child):
            out[layer] += end - start - covered
        return out


def layer_values(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """The per-layer figures, per traced operation: calls and self time of
    every traced layer, and the counts taken at layer boundaries.  The run
    prints those BENCHMARK.json lists."""
    counts = tracer.counts
    self_s = tracer.self_seconds()
    out = {}
    for layer in {target[0] for target in TARGETS}:
        out[layer + ".calls"] = counts[layer + ".calls"] / n_ops
        out[layer + ".self_ms"] = 1e3 * self_s.get(layer, 0.0) / n_ops
    out["gaussian.pfaffian.dim_max"] = float(tracer.pfaffian_dim_max)
    out["gaussian.pfaffian.gflop"] = counts["pfaffian_flops"] / 1e9 / n_ops
    out["quon.expand.terms"] = counts["expand_terms"] / n_ops
    builds = counts["gaussian.prepare.calls"]
    out["quon.terms_per_assembly"] = counts["expand_terms"] / builds if builds else 0.0
    out["gaussian.assemble.points"] = counts["assemble_points"] / n_ops
    out["serialize.bytes"] = counts["serialize_bytes"] / n_ops
    return out
