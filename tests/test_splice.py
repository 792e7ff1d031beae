"""Manifold edits: the splice rule, and boundary-tracking anchors carried
through moves, rewrites and contractions."""

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate
from quon2d.classify import classify
from quon2d.cli import greedy_simplify
from quon2d.compiler import compile_circuit, contract_legs, parity_tensor_quon
from quon2d.diagram import (
    HORIZONTAL,
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
)
from quon2d.errors import InvariantViolation, Quon2dError
from quon2d.factory import FactoryLedger, Insert, Stretch, apply_move, insert_move, stretch
from quon2d.quon import (
    BOTTOM,
    TOP,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    remove_holes_to_fixpoint,
    string_genus,
)
from quon2d.rewrite import ReidemeisterII, ScatteringReduce

from conftest import offset_elements, random_circuit, random_closed_diagram, random_move

# one projection of each kind and one anchor at every slice 0..4
CORE = MajoranaDiagram(2, 2, (BraidPos(0), BraidNeg(0), DotPair(0, 1), BraidPos(0)))
MARKED = QuonDiagram(
    CORE,
    tuple(ParityCut(t, (0, 1)) for t in range(5)),
    (OpenInterval(TOP, 0, 2), OpenInterval(BOTTOM, 0, 2)),
    frozenset((t, 1) for t in range(5)),
    tuple(ParityCut(t, (0, 1)) for t in range(5)),
)


def _times(q):
    return ([c.time_index for c in q.parity_cuts], [c.time_index for c in q.notches],
            sorted(t for t, _ in q.boundary_tracking))


def test_splice_replacing_a_run():
    # elements 1..2 become one: slice 2 lies inside the run, 3 and 4 after it
    core = MajoranaDiagram(2, 2, (BraidPos(0), DotPair(0, 1), BraidPos(0)))
    out = MARKED.splice(1, 2, (DotPair(0, 1),), CORE.amplitude)
    assert out.core == core
    assert _times(out) == ([0, 1, 1, 2, 3], [0, 1, 1, 2, 3], [0, 1, 2, 3])
    assert out.open_intervals == MARKED.open_intervals


def test_splice_pure_insertion_moves_the_slice_at_the_site():
    out = MARKED.splice(2, 0, (BraidPos(0), BraidNeg(0)), CORE.amplitude)
    assert _times(out) == ([0, 1, 4, 5, 6], [0, 1, 4, 5, 6], [0, 1, 4, 5, 6])


def test_anchor_off_the_diagram_is_rejected():
    with pytest.raises(InvariantViolation, match="anchor"):
        QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(3, 0)})
    with pytest.raises(InvariantViolation, match="anchor"):
        QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(1, 2)})
    QuonDiagram(MajoranaDiagram.loop(), boundary_tracking={(1, 1)})


def test_stretch_then_simplify_gives_back_the_seed():
    seed = parity_tensor_quon(2)
    q, _ = stretch(seed, Stretch(4, 1, 1), FactoryLedger(seed))
    simplified = greedy_simplify(q)
    assert simplified == seed
    assert classify(simplified).punctured_matchgate_form


def test_string_hole_pair_then_simplify_gives_back_the_seed():
    seed = compile_circuit(Circuit(1, (Gate("Z", (0,)),)))
    q, _ = insert_move(seed, Insert(0, 1, "string_hole_pair"), FactoryLedger(seed))
    assert q.boundary_tracking == {(1, 1), (1, 2), (2, 0), (2, 3)}
    simplified = greedy_simplify(q)
    assert simplified == seed
    assert simplified.boundary_tracking == {(0, 0), (0, 3)}
    assert classify(simplified).punctured_matchgate_form


def test_top_contraction_moves_the_anchors_past_the_caps():
    q = contract_legs(compile_circuit(Circuit(2, (Gate("Z", (0,)), Gate("Z", (1,))))), 0, 1)
    assert q.boundary_tracking == {(4, 0), (4, 3), (4, 4), (4, 7)}
    assert classify(q).punctured_matchgate_form


def test_string_genus_insert_then_remove_is_exact():
    seed = compile_circuit(Circuit(2, (Gate("Z", (0,)), Gate("SWAP", (0, 1)), Gate("X", (1,)))))
    assert seed.parity_cuts and seed.boundary_tracking
    widths = seed.core.widths()
    for t in range(len(seed.core.elements) + 1):
        for p in range(1, widths[t] + 1, 2):
            q = string_genus(seed, 0, "insert", region=(t, p))
            assert string_genus(q, len(q.parity_cuts) - 1, "remove") == seed


def test_string_genus_removal_moves_anchors_beside_the_loop():
    seed = QuonDiagram(MajoranaDiagram(4, 4), (),
                       (OpenInterval(TOP, 0, 4), OpenInterval(BOTTOM, 0, 4)), {(0, 0), (0, 3)})
    q = string_genus(seed, 0, "insert", region=(0, 1))
    # strand 3 sits at position 5 while the loop (positions 1, 2) is alive
    q = QuonDiagram(q.core, q.parity_cuts, q.open_intervals,
                    q.boundary_tracking | {(1, 5), (1, 1)}, q.notches)
    out = string_genus(q, 0, "remove")
    assert out.boundary_tracking == {(0, 0), (0, 3)}
    assert out.core == seed.core


# -- the splice contract: what the full constructors build ------------------


def _retimed(t, at, removed, delta):
    """Today's rule: after the run moves by delta, inside it moves to `at`."""
    if t >= at + removed:
        return t + delta
    return at if t > at else t


def full_core(q, at, removed, replacement, amplitude, width_in=None):
    """The spliced core as the constructor builds it, every element replayed."""
    els = q.core.elements[:at] + tuple(replacement) + q.core.elements[at + removed:]
    top = q.core.width_in if width_in is None else width_in
    return MajoranaDiagram(top, top + sum(el.width_delta for el in els), els, amplitude)


def full_splice(q, at, removed, replacement, amplitude, width_in=None, open_intervals=None,
                parity_cuts=(), notches=(), boundary_tracking=()):
    """The splice as the full constructors build it: every element replayed,
    every cut, notch, anchor and interval checked."""
    core = full_core(q, at, removed, replacement, amplitude, width_in)
    delta = len(replacement) - removed

    def cuts(projections):
        return tuple(ParityCut(_retimed(c.time_index, at, removed, delta), c.strands)
                     for c in projections)

    return QuonDiagram(core, cuts(q.parity_cuts) + tuple(parity_cuts),
                       q.open_intervals if open_intervals is None else open_intervals,
                       {(_retimed(t, at, removed, delta), p) for t, p in q.boundary_tracking}
                       | set(boundary_tracking),
                       cuts(q.notches) + tuple(notches))


def slice_widths(start, elements):
    """The width before each element, replayed from `start`, plus the final
    width, as the constructor replays them."""
    return MajoranaDiagram(start, start + sum(el.width_delta for el in elements),
                           elements).widths()


def _outcome(build):
    try:
        return build()
    except Quon2dError as exc:
        return type(exc)


def _run(rng, w, count, target=None):
    """`count` random elements, each fitting the width it meets from w, then
    caps or cups to end at `target` when one is given."""
    els = []
    for _ in range(count):
        kind = rng.choice(["cap", "cup", "braid", "scattering", "pair"] if w >= 2 else ["cap"])
        if kind == "cap":
            els.append(Cap(int(rng.integers(0, w + 1))))
            w += 2
        elif kind == "cup":
            els.append(Cup(int(rng.integers(0, w - 1))))
            w -= 2
        elif kind == "braid":
            j = int(rng.integers(0, w - 1))
            els.append(BraidPos(j) if rng.random() < 0.5 else BraidNeg(j))
        elif kind == "scattering":
            els.append(Scattering(int(rng.integers(0, w - 1)), float(rng.normal())))
        else:
            j = int(rng.integers(0, w - 1))
            els.append(DotPair(j, int(rng.integers(j + 1, w))))
    while target is not None and w > target:
        els.append(Cup(int(rng.integers(0, w - 1))))
        w -= 2
    while target is not None and w < target:
        els.append(Cap(int(rng.integers(0, w + 1))))
        w += 2
    return els


def _marks(rng, widths, count):
    """`count` random cuts and `count` anchors on the slices of `widths`,
    a few of them off their slice's strands."""
    cuts, anchors = [], set()
    for _ in range(count):
        t = int(rng.integers(0, len(widths)))
        w = widths[t] + (2 if rng.random() < 0.1 else 0)
        size = 2 * int(rng.integers(0, w // 2 + 1))
        cuts.append(ParityCut(t, tuple(int(s) for s in rng.choice(w, size, replace=False))))
        if widths[t]:
            anchors.add((t, int(rng.integers(0, widths[t] + (rng.random() < 0.1)))))
    return cuts, anchors


def _marked_closed(rng):
    """A random closed diagram with valid cuts, notches and anchors."""
    core = random_closed_diagram(rng, max_width=8, max_elems=30)
    widths = core.widths()
    while True:
        cuts, anchors = _marks(rng, widths, int(rng.integers(1, 5)))
        notches, _ = _marks(rng, widths, int(rng.integers(0, 3)))
        q = _outcome(lambda: QuonDiagram(core, cuts, (), anchors, notches))
        if isinstance(q, QuonDiagram):
            return q


def _moved_circuit(rng):
    """A compiled circuit (cuts, notches, anchors and intervals) after a few
    factory moves."""
    q = compile_circuit(random_circuit(int(rng.integers(1, 4)), int(rng.integers(1, 6)), rng))
    ledger = FactoryLedger(q)
    for _ in range(int(rng.integers(0, 4))):
        q, ledger = apply_move(q, random_move(q, rng), ledger)
    return q


def _draw(rng, q):
    """Random splice arguments for q: runs that keep or change the widths,
    top-boundary runs with a new width_in, elements off their slice, and
    new cuts and anchors."""
    widths = q.core.widths()
    n = len(q.core.elements)
    at = 0 if rng.random() < 0.15 else int(rng.integers(0, n + 1))
    removed = int(rng.integers(0, min(3, n - at) + 1))
    kwargs, start = {}, widths[at]
    if at == 0 and rng.random() < 0.8:
        start = kwargs["width_in"] = 2 * int(rng.integers(0, 4))
    target = widths[at + removed] if rng.random() < 0.6 else None
    replacement = _run(rng, start, int(rng.integers(0, 4)), target)
    run = slice_widths(start, replacement)
    width_out = q.core.width_out + run[-1] - widths[at + removed]
    if (start, width_out) != (widths[at], q.core.width_out) and rng.random() < 0.8:
        # 2-strand intervals on each boundary the run changes
        kwargs["open_intervals"] = (
            [iv for iv in q.open_intervals if iv.side == TOP and "width_in" not in kwargs]
            + [OpenInterval(TOP, 2 * k, 2) for k in range(start // 2) if "width_in" in kwargs]
            + [iv for iv in q.open_intervals if iv.side == BOTTOM and width_out == q.core.width_out]
            + [OpenInterval(BOTTOM, 2 * k, 2) for k in range(width_out // 2)
               if width_out != q.core.width_out])
    if replacement and rng.random() < 0.1:  # one element off its slice
        k = int(rng.integers(len(replacement)))
        replacement[k], = offset_elements((replacement[k],), 40)
    if rng.random() < 0.2:  # new marks on the replaced slices
        cuts, anchors = _marks(rng, run, 1)
        kwargs["parity_cuts"] = [ParityCut(c.time_index + at, c.strands) for c in cuts]
        kwargs["boundary_tracking"] = {(t + at, p) for t, p in anchors}
    return (at, removed, tuple(replacement), complex(rng.normal(), rng.normal())), kwargs


def _off_strands(widths, projections, anchors) -> bool:
    return (any(not 0 <= c.time_index < len(widths)
                or any(not 0 <= x < widths[c.time_index] for x in c.strands) for c in projections)
            or any(not 0 <= t < len(widths) or not 0 <= p < widths[t] for t, p in anchors))


def test_splice_builds_what_the_full_constructors_build():
    """Valid and invalid splices on closed diagrams and moved circuits: the
    same diagram, with the same slice widths, or the same typed error.  The
    invalid ones include elements after a run that changes the widths, and
    cuts and anchors moved into a run that keeps them."""
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(["valid", "widths_changed", "top", "bad_run", "bad_suffix",
                          "bad_window_cut", "bad_window_anchor"], 0)
    for trial in range(400):
        q = _marked_closed(rng) if trial % 2 else _moved_circuit(rng)
        for _ in range(6):
            args, kwargs = _draw(rng, q)
            want = _outcome(lambda: full_splice(q, *args, **kwargs))
            got = _outcome(lambda: q.splice(*args, **kwargs))
            assert got == want, (args, kwargs)
            at, removed, replacement, _ = args
            if isinstance(want, QuonDiagram):
                assert got.core._widths == want.core._widths
                seen["valid"] += 1
                seen["top"] += want.core.width_in != q.core.width_in
                seen["widths_changed"] += (want.core._widths[at + len(replacement)]
                                           != q.core._widths[at + removed])
                continue
            core = _outcome(lambda: full_core(q, *args, kwargs.get("width_in")))
            run = _outcome(lambda: slice_widths(kwargs.get("width_in", q.core.widths()[at]),
                                                replacement))
            if not isinstance(run, list):
                seen["bad_run"] += 1
            elif not isinstance(core, MajoranaDiagram):
                seen["bad_suffix"] += 1
            elif core._widths[at + len(replacement)] == q.core._widths[at + removed]:
                # the widths meet: only the marks moved into the run can fail
                delta = len(replacement) - removed
                window = [ParityCut(_retimed(c.time_index, at, removed, delta), c.strands)
                          for c in q.parity_cuts + q.notches if at <= c.time_index <= at + removed]
                anchors = [(_retimed(t, at, removed, delta), p) for t, p in q.boundary_tracking
                           if at <= t <= at + removed]
                seen["bad_window_cut"] += _off_strands(core._widths, window, ())
                seen["bad_window_anchor"] += _off_strands(core._widths, (), anchors)
    assert seen["valid"] > 1000 and seen["widths_changed"] > 200 and seen["top"] > 50, seen
    assert min(seen.values()) >= 10, seen
    # a run outside the elements, and a new width_in below the top
    for at, removed in ((-1, 0), (0, -1), (4, 1), (5, 0)):
        with pytest.raises(InvariantViolation, match="outside"):
            MARKED.splice(at, removed, (), 1.0)
    with pytest.raises(InvariantViolation, match="top boundary"):
        MARKED.splice(1, 0, (), 1.0, width_in=4)
    with pytest.raises(InvariantViolation, match="width_in 3"):
        MARKED.splice(0, 0, (), 1.0, width_in=3)


# -- greedy_simplify: scans that resume where the last rewrite landed -------


def greedy_from_zero(q):
    """greedy_simplify with every rule scan started at element 0, and each
    rewrite built by the full constructors."""
    rules = (ScatteringReduce(), ReidemeisterII())
    while True:
        cleaned = remove_holes_to_fixpoint(q)
        removed = cleaned.hole_count() != q.hole_count()
        if removed:
            q = cleaned
        for rule in rules:
            i = rule.first_match(q.core.columns)
            if i is not None:
                repl, scalar = rule.rewrite(q.core.columns, i)
                q = full_splice(q, i, rule.SPAN, repl, q.core.amplitude * scalar)
                break
        else:
            if not removed:
                return q


# a string hole whose loop a braid pair keeps from being quiet: the pair's
# cancellation at 3 frees the hole, and the hole's removal brings the outer
# braids together at 1, before the index where the cancellation left the scan
HELD_HOLE = QuonDiagram(
    MajoranaDiagram(0, 0, (Cap(0), BraidPos(0), Cap(1), BraidPos(1), BraidNeg(1), Cup(1),
                           BraidNeg(0), Cup(0)), 0.7),
    (ParityCut(3, (0, 1)),),
)


def _reducible(rng):
    """A closed diagram whose scatterings sit at k*pi/2, stars and horizontal
    ones among them, with braid pairs that cancel and string holes."""
    core = random_closed_diagram(rng, max_width=8, max_elems=30)
    els = list(core.elements)
    for i, el in enumerate(els):
        if isinstance(el, (Scattering, ScatteringStar)) and rng.random() < 0.8:
            k = int(rng.integers(-4, 5))
            orientation = HORIZONTAL if k % 4 == 0 and rng.random() < 0.5 else el.orientation
            els[i] = (ScatteringStar(el.j, 1j * k * np.pi / 2, orientation) if rng.random() < 0.5
                      else Scattering(el.j, k * np.pi / 2, orientation))
    q = QuonDiagram(MajoranaDiagram(0, 0, tuple(els), core.amplitude))
    for _ in range(int(rng.integers(0, 4))):
        widths = q.core.widths()
        t = int(rng.integers(0, len(widths)))
        if widths[t] >= 2:
            j = int(rng.integers(0, widths[t] - 1))
            pair = (BraidPos(j), BraidNeg(j)) if rng.random() < 0.5 else (BraidNeg(j), BraidPos(j))
            q = q.splice(t, 0, pair, q.core.amplitude)
        t = int(rng.integers(0, len(q.core.elements) + 1))
        w = q.core.widths()[t]
        if w:
            q = string_genus(q, 0, "insert", (t, 2 * int(rng.integers(0, (w + 1) // 2)) + 1))
    return q


def test_resumed_scans_simplify_as_scans_from_zero():
    """Factory-moved circuits, stars and scatterings at k*pi/2, horizontal
    scatterings, braid pairs and string holes: greedy_simplify gives what
    rescanning every rule from element 0 gives."""
    rng = np.random.default_rng(43)
    inputs = [HELD_HOLE] + [_moved_circuit(rng) for _ in range(40)] + [
        _reducible(rng) for _ in range(80)]
    shrunk = 0
    for q in inputs:
        simplified = greedy_simplify(q)
        assert simplified == greedy_from_zero(q)
        shrunk += len(simplified.core.elements) < len(q.core.elements)
    assert greedy_simplify(HELD_HOLE) == QuonDiagram(
        MajoranaDiagram(0, 0, (Cap(0), Cup(0)), 0.7 / 2 ** 0.5))
    assert shrunk > 60
