"""The flat trace of a diagram (`wires.WireTrace`) and its one walk of every
worldline, on closed diagrams and on open ones cut from them."""

import math

from quon2d.diagram import MajoranaDiagram
from quon2d.gaussian import assemble_frontier
from quon2d.wires import WireTrace

from conftest import flipped_totals, random_closed_diagram


def traced_diagrams(rng, count):
    """Random closed diagrams, each followed by a run of its elements with
    the top, the bottom or both left open."""
    for _ in range(count):
        d = random_closed_diagram(rng, max_width=10, max_elems=40)
        yield d
        widths = d.widths()
        a, b = sorted(rng.integers(0, len(d.elements) + 1, size=2).tolist())
        yield MajoranaDiagram(widths[a], widths[b], d.elements[a:b])


def test_the_walk_covers_each_worldline_once_and_closes_every_loop(rng):
    """Every segment lies on exactly one worldline; the worldlines come in
    order of their smallest ids; each turn's arms stand side by side at its
    slice; the walk steps from each segment to the other arm of the turn it
    leaves by, back to its start on a closed loop, and from one open end to
    the other on an open worldline.  A loop that passes no crossing has the
    phase i^E = -1.  Crossings can twist a loop (E = 0 mod 4, a vacuum of 0);
    in a closed diagram the crossings that the evaluation flips
    (`gaussian.Wiring`) leave every loop at i^E = -1."""
    loops = open_lines = crossing_loops = twisted = 0
    for d in traced_diagrams(rng, 60):
        trace = WireTrace(d)
        walk = trace.walk
        crossing = {sid for c in trace.crossed for sid in (trace.first[c], trace.last[c])}
        if d.is_closed:
            wiring = assemble_frontier(d)[-1]
            assert wiring.trace.walk == walk
            assert all(total % 4 == 2 for total in flipped_totals(wiring))
            twisted += any(total % 4 == 0 for total in walk.totals)
        lines = trace.worldlines()
        segments = len(trace.birth)
        assert sorted(sid for line in lines for sid in line) == list(range(segments))
        assert [min(line) for line in lines] == sorted(min(line) for line in lines)
        labels = trace.worldline_labels()
        assert all(labels[sid] == li for li, line in enumerate(lines) for sid in line)
        assert walk.order == [sid for line in lines for sid in line]
        assert walk.lengths == [len(line) for line in lines]

        turn_at = {}  # exit boundary -> turn
        for tid, (t, cap) in enumerate(zip(trace.turn_elem, trace.turn_cap)):
            el = d.elements[t]
            assert el.width_delta == (2 if cap else -2)
            arms = (trace.turn_left[tid], trace.turn_right[tid])
            assert trace.slices[t + 1 if cap else t][el.j:el.j + 2] == arms
            assert (trace.birth if cap else trace.death)[arms[0]] == tid
            assert (trace.birth if cap else trace.death)[arms[1]] == tid
            turn_at[t + (0.25 if cap else -0.25)] = tid

        for li, line in enumerate(lines):
            closed = all(trace.birth[s] >= 0 and trace.death[s] >= 0 for s in line)
            exits = [walk.exits[walk.order.index(sid)] for sid in line]
            steps = zip(line, line[1:] + line[:1]) if closed else zip(line, line[1:])
            for (sid, nxt), exit_ in zip(steps, exits):
                tid = turn_at[exit_]
                assert {sid, nxt} == {trace.turn_left[tid], trace.turn_right[tid]}
            if closed:
                assert trace.birth[line[0]] == turn_at[exits[0]]
                if crossing.isdisjoint(line):
                    assert walk.totals[li] % 4 == 2  # i^E = -1
                else:
                    crossing_loops += 1
                loops += 1
            else:
                assert math.isnan(exits[-1])
                for end in (line[0], line[-1]):
                    assert trace.birth[end] < 0 or trace.death[end] < 0
                open_lines += 1
    assert loops > 200 and open_lines > 100 and crossing_loops > 20 and twisted
