import copy
import json
import math
import warnings

import numpy as np
import pytest

from quon2d.circuits import Circuit, Gate
from quon2d.cli import greedy_simplify, main, parse_circuit_text
from quon2d.compiler import compile_circuit, quon_to_dense_tensor
from quon2d.diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
)
from quon2d.errors import ParseError, Quon2dError
from quon2d.fock import evaluate_closed_oracle
from quon2d.quon import ParityCut, QuonDiagram, evaluate_closed_quon
from quon2d.serialize import parse_diagram, serialize_diagram

from conftest import random_circuit

# two theta = 0 scatterings that simplify removes, before a dot pair
CORE = MajoranaDiagram(0, 0, (
    Cap(0), Cap(2), Scattering(0, 0.0), Scattering(1, 0.0), DotPair(1, 2),
    Scattering(1, 0.9), Cup(2), Cup(0),
))


def test_simplify_keeps_a_cut_before_the_dot_pair():
    q = QuonDiagram(CORE, (ParityCut(5, (0, 1)),))
    assert abs(evaluate_closed_quon(q)) <= 1e-12
    simplified = greedy_simplify(q)
    assert len(simplified.core.elements) == len(CORE.elements) - 2
    assert simplified.parity_cuts == (ParityCut(3, (0, 1)),)
    assert abs(evaluate_closed_quon(simplified)) <= 1e-12


def test_simplify_keeps_a_cut_after_the_dot_pair():
    q = QuonDiagram(CORE, (ParityCut(6, (0, 1)),))
    want = evaluate_closed_quon(q, use_oracle=True)
    got = evaluate_closed_quon(greedy_simplify(q), use_oracle=True)
    assert got == pytest.approx(want, rel=1e-12)


def test_simplify_reduces_stars_at_multiples_of_half_pi():
    for star in (ScatteringStar(1, 0.0), ScatteringStar(1, 0.5j * math.pi),
                 ScatteringStar(1, -0.5j * math.pi), ScatteringStar(1, 1j * math.pi),
                 ScatteringStar(1, 0.0, "horizontal")):
        core = MajoranaDiagram(0, 0, (Cap(0), Cap(2), star, Scattering(1, 0.9), Cup(2), Cup(0)))
        simplified = greedy_simplify(QuonDiagram(core))
        assert star not in simplified.core.elements
        assert evaluate_closed_quon(simplified, use_oracle=True) == pytest.approx(
            evaluate_closed_oracle(core), abs=1e-12)


# -- the command line ---------------------------------------------------------


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_compile_then_amplitude_and_factory(tmp_path, capsys):
    circuit = _write(tmp_path / "bell.txt", "H 0\nCNOT 0 1  # entangle\n")
    compiled = tmp_path / "bell.json"
    assert _run(capsys, "compile", circuit, "-o", compiled)[0] == 0
    q = parse_diagram(compiled.read_text())
    assert len(q.open_intervals) == 4 and q.notches

    code, out, _ = _run(capsys, "amplitude", circuit, "--in", "00", "--out", "1,1")
    assert code == 0
    assert complex(out.strip()) == pytest.approx(2 ** -0.5, abs=1e-9)

    script = _write(tmp_path / "moves.txt",
                    "stretch 0 1 2  # bulk\ninsert 0 1 string_hole_pair\ninsert 3 2 loop\n")
    grown = tmp_path / "grown.json"
    code, out, err = _run(capsys, "factory", compiled, "--script", script,
                          "--component", "0,0,1,1", "-o", grown)
    assert code == 0 and "n_S: 0" in err
    assert complex(out.strip()) == pytest.approx(2 ** -0.5, abs=1e-9)
    assert parse_diagram(grown.read_text()).hole_count() == 1


def test_factory_component_with_seventeen_switched_braids(tmp_path, capsys):
    q = compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,)),
                                    Gate("CNOT", (1, 0)), Gate("H", (0,)))))
    seed = _write(tmp_path / "seed.json", serialize_diagram(q))
    braids = [i for i, el in enumerate(q.core.elements) if isinstance(el, (BraidPos, BraidNeg))]
    script = _write(tmp_path / "moves.txt", "".join(
        f"switch {site} braid_to_scattering {0.2 + 0.1 * k}\n" for k, site in enumerate(braids[:17])))
    grown = tmp_path / "grown.json"
    code, out, err = _run(capsys, "factory", seed, "--script", script,
                          "--component", "1,0,1,1", "-o", grown)
    assert code == 0 and "n_S: 17" in err
    want = quon_to_dense_tensor(parse_diagram(grown.read_text())).tensor()[1, 0, 1, 1]
    assert abs(want) > 0.1
    assert complex(out.strip()) == pytest.approx(want, abs=1e-9)


def test_factory_counts_a_scattering_set_back_to_a_braid_angle(tmp_path, capsys):
    seed = _write(tmp_path / "seed.json", serialize_diagram(
        compile_circuit(Circuit(2, (Gate("H", (0,)), Gate("S", (1,)))))))
    script = _write(tmp_path / "moves.txt",
                    f"switch 1 braid_to_scattering 0.7\nswitch 1 set_angle {math.pi / 2!r}\n")
    code, _, err = _run(capsys, "factory", seed, "--script", script, "-o", tmp_path / "out.json")
    assert code == 0 and "n_S: 0" in err


def test_emit_dot_names_every_hole_and_notch(tmp_path, capsys):
    q = compile_circuit(Circuit(2, (Gate("CNOT", (0, 1)), Gate("SWAP", (0, 1)))))
    assert len(q.parity_cuts) == 2 and q.notches
    code, out, _ = _run(capsys, "emit-dot", _write(tmp_path / "q.json", serialize_diagram(q)))
    assert code == 0 and out.startswith("graph quon {")
    for kind, cuts in (("hole", q.parity_cuts), ("notch", q.notches)):
        for k, cut in enumerate(cuts):
            assert f'{kind}{k} [label="{kind} @{cut.time_index} {list(cut.strands)}"' in out


def test_eval_and_simplify(tmp_path, capsys):
    doc = _write(tmp_path / "cut.json",
                 serialize_diagram(QuonDiagram(CORE, (ParityCut(6, (0, 1)),))))
    code, out, _ = _run(capsys, "eval", doc)
    want = evaluate_closed_quon(QuonDiagram(CORE, (ParityCut(6, (0, 1)),)))
    assert code == 0 and complex(out.strip()) == pytest.approx(want, abs=1e-9)
    code, out, _ = _run(capsys, "eval", doc, "--oracle")
    assert code == 0 and complex(out.strip()) == pytest.approx(want, abs=1e-9)

    simplified = tmp_path / "simple.json"
    code, _, err = _run(capsys, "simplify", doc, "-o", simplified)
    assert code == 0 and "value preserved" in err
    q = parse_diagram(simplified.read_text())
    assert len(q.core.elements) == len(CORE.elements) - 2


def _loop_with(element: str) -> str:
    """A closed-diagram document: one loop around `element` at strand 0."""
    return ('{"format": "quon2d-diagram", "version": 1, "elements": [{"kind": "cap", "j": 0}, '
            '{"j": 0, ' + element + '}, {"kind": "cup", "j": 0}]}')


@pytest.mark.parametrize("argv, files, code", [
    (["factory", "seed.json", "--script", "bad.txt"], {"bad.txt": "stretch 0 0\n"}, 3),
    (["factory", "seed.json", "--script", "bad.txt"], {"bad.txt": "warp 1 2\n"}, 3),
    (["factory", "seed.json", "--script", "ok.txt", "--component", "0,x"],
     {"ok.txt": "stretch 0 1 1\n"}, 1),
    (["amplitude", "z.txt", "--in", "00", "--out", "0"], {}, 2),
    (["amplitude", "z.txt", "--in", "2", "--out", "0"], {}, 1),
    (["compile", "neg.txt", "-o", "out.json"], {"neg.txt": "X -1\n"}, 3),
    (["compile", "neg.txt", "-o", "out.json"], {"neg.txt": "RZ 0 abc\n"}, 3),
    (["eval", "seed.json"], {}, 2),
    (["eval", "doc.json"], {"doc.json": "{not json"}, 3),
    (["eval", "doc.json"], {"doc.json": '{"format": "quon2d-diagram", "version": 1, '
                                        '"boundary_tracking": [[3, 0]]}'}, 3),
    (["eval", "missing.json"], {}, 1),
    (["ising", "--rows", "2", "--cols", "2", "--K", "nan"], {}, 3),
    (["ising", "--rows", "2", "--cols", "2", "--K", "-400"], {}, 2),
    (["ising", "--rows", "0", "--cols", "2", "--K", "0.3"], {}, 3),
    (["eval", "doc.json"], {"doc.json": _loop_with('"kind": "scattering_star", "phi": [800, 0]')}, 2),
    (["eval", "doc.json", "--oracle"],
     {"doc.json": _loop_with('"kind": "scattering_star", "phi": [800, 0]')}, 2),
    (["eval", "doc.json"], {"doc.json": _loop_with('"kind": "scattering", "theta": [NaN, 0]')}, 3),
    (["eval", "doc.json"], {"doc.json": _loop_with(
        '"kind": "scattering", "theta": [0.3, 0], "orientation": "sideways"')}, 3),
    (["star-triangle", "--u", "1,2"], {}, 1),
    (["bogus"], {}, 1),
])
def test_bad_input_exits_with_a_code(tmp_path, capsys, monkeypatch, argv, files, code):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "z.txt", "Z 0\n")
    _write(tmp_path / "seed.json",
           serialize_diagram(compile_circuit(Circuit(1, (Gate("Z", (0,)),)))))
    for name, text in files.items():
        _write(tmp_path / name, text)
    got, _, err = _run(capsys, *argv)
    assert got == code
    assert "error" in err


@pytest.mark.parametrize("couplings", ["1,1,1e400", "nan,1,1"])
def test_star_triangle_non_finite_coupling_is_one_error_line(capsys, couplings):
    code, out, err = _run(capsys, "star-triangle", "--u", couplings)
    assert code == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and "is not finite" in err


@pytest.mark.parametrize("couplings", ["1e200,1,1", "1e300,1e300,1e300"])
def test_star_triangle_huge_coupling_warns_nothing(capsys, couplings):
    """The fit runs on the star tensor scaled to O(1): a solution with its
    residual line, or one error line, and no NumPy or SciPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "star-triangle", "--u", couplings)
    if code == 0:
        assert "residual: " in out and err == ""
    else:
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, option, value", [
    ("ising", "--K", "-1e-1"),
    ("star-triangle", "--u", "-1e-1,0.2,0.3"),
])
def test_signed_values_with_an_exponent_parse(capsys, command, option, value):
    """argparse reads "-1e-1" after an option as another option unless it is
    joined to it; the separate and the joined forms give the same output."""
    lattice = ("--rows", 2, "--cols", 2) if command == "ising" else ()
    outputs = [_run(capsys, command, *lattice, *form)
               for form in ((option, value), (f"{option}={value}",))]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1]


def test_star_triangle_prints_the_relative_residual(capsys):
    """The star tensor's largest entry is 4e200; the residual is relative to
    it, so a fit good to round-off reads as one."""
    code, out, _ = _run(capsys, "star-triangle", "--u", "1e200,1,1")
    assert code == 0
    assert float(out.split("residual: ")[1]) <= 1e-9


def test_parse_circuit_text_reads_arity_and_angle_from_the_gate_table():
    text = "h 0  # comment\n\nXX 1 0 -1.5\nCNOT 1 2\nRZ 2 0.25\n"
    assert parse_circuit_text(text) == Circuit(3, (
        Gate("H", (0,)), Gate("XX", (1, 0), -1.5), Gate("CNOT", (1, 2)), Gate("RZ", (2,), 0.25)))


@pytest.mark.parametrize("text, match", [
    ("H 0\nX 0 1\n", "line 2: X takes 1 field"),
    ("RZ 0 0.3 7\n", "line 1: RZ takes 2 field"),
    ("XX 0 1\n", "line 1: XX takes 3 field"),
    ("RZ 0 nan\n", "line 1: .*RZ needs a finite angle"),
    ("XX 0 1 inf\n", "line 1: .*XX needs a finite angle"),
    ("FROB 0\n", "line 1: unknown gate 'FROB'"),
    ("X 0.5\n", "line 1: invalid literal"),
])
def test_parse_circuit_text_rejects_bad_lines(text, match):
    with pytest.raises(ParseError, match=match):
        parse_circuit_text(text)


@pytest.mark.parametrize("argv, message", [
    (("--rows", 2, "--cols", 2, "--K", -400, "--oracle"), "overflows a float"),
    # Z of the 300 x 4 strip, near e^1020, passes the float range
    (("--rows", 300, "--cols", 4, "--K", 0.4), "non-finite value"),
    # 2200 sites: sqrt(2)^sites alone passes the float range
    (("--rows", 1100, "--cols", 2, "--K", 0.4), "non-finite value"),
    # e^(K edges) alone passes the float range: refused before any loop is drawn
    (("--rows", 2, "--cols", 2, "--K", 710), "Z passes the float range"),
    # e^(K edges) alone falls under the float range, and Z is at least e^(4 |K|)
    (("--rows", 2, "--cols", 2, "--K", -300), "under the float range"),
    (("--rows", 2, "--cols", 2, "--K", -200), "under the float range"),
], ids=["oracle", "pfaffian", "sites", "coupling", "underflow-300", "underflow-200"])
def test_ising_overflow_is_one_error_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, out, err = _run(capsys, "ising", *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and message in err


def test_ising_past_the_float_range_of_its_pfaffian(capsys):
    """The 20 x 20 lattice's Pfaffian passes 1.8e308 and its amplitude is
    near 5e-174; Z itself, near 5e150, is printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "ising", "--rows", 20, "--cols", 20, "--K", 0.4)
    assert code == 0 and err == ""
    assert math.isfinite(float(out)) and 1e150 < float(out) < 1e151


# what a mutation puts in place of one node of a document
MUTANTS = (None, True, 0, -1, 3, 1.5, 1e300, math.nan, 10 ** 400, "x", "", "cap", [], {},
           [1.5], [0, 0], {"kind": "cap"}, {"j": 0})


def _mutated(doc, rng):
    """`doc` with one node, anywhere in it, replaced by a mutant, deleted or
    wrapped in a list."""
    doc = copy.deepcopy(doc)
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            paths.append(path + (key,))
            walk(child, path + (key,))

    walk(doc, ())
    *parents, key = paths[int(rng.integers(len(paths)))]
    node = doc
    for k in parents:
        node = node[k]
    how = int(rng.integers(3))
    if how == 0:
        node[key] = copy.deepcopy(MUTANTS[int(rng.integers(len(MUTANTS)))])
    elif how == 1:
        del node[key]
    else:
        node[key] = [node[key]]
    return doc


def test_mutated_documents_raise_only_typed_errors(tmp_path, capsys):
    """Seeded mutations of compiled-circuit documents: parse_diagram either
    reads each or raises a Quon2dError, and `classify` on the file ends with
    an exit code and at most one error line, never a traceback.  Every tenth
    file also has one byte overwritten, which may leave it not UTF-8."""
    rng = np.random.default_rng(16)
    docs = [json.loads(serialize_diagram(compile_circuit(random_circuit(2, 4, rng))))
            for _ in range(4)]
    path = tmp_path / "doc.json"
    rejected = 0
    for trial in range(300):
        data = json.dumps(_mutated(docs[trial % len(docs)], rng)).encode()
        if trial % 10 == 0:
            at = int(rng.integers(len(data)))
            data = data[:at] + bytes([int(rng.integers(256))]) + data[at + 1:]
        try:
            parse_diagram(data.decode(errors="replace"))
        except Quon2dError:
            rejected += 1
        path.write_bytes(data)
        code, _, err = _run(capsys, "classify", path)
        assert code in (0, 2, 3)
        assert code == 0 or len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert rejected >= 100, rejected
