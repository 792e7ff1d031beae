"""Source hygiene of `src/quon2d`, checked with `ast`: no import its module
never uses, no function-local name that is assigned and never read, no
diagram built without its checks outside the splice primitive and the
columns constructor, no Quon diagram's core edited outside its splice, no
PreparedDiagram built off the one evaluation route, no element objects read
back from a diagram outside `diagram.py`, no comparison with a braid's
kind code outside it, and every name the bench tracer wraps still where it
looks."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import quon2d
from quon2d.gaussian import assemble_frontier
from quon2d.ising import IsingLattice, build_ising_quon

MODULES = sorted(Path(quon2d.__file__).parent.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _loaded(node) -> set[str]:
    """Every name read under `node`, nested scopes included (a closure reads
    its enclosing function's locals)."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = _loaded(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return found


def _own_stores(fn) -> list[ast.Name]:
    """The names `fn` binds in its own body, not inside a nested function or
    class, which have scopes of their own."""
    stores, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return stores


def dead_locals(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        read = _loaded(fn)
        found += [(n.lineno, n.id) for n in _own_stores(fn)
                  if not n.id.startswith("_") and n.id not in read]
    return sorted(found)


# where a diagram may be built without its constructor's checks: the
# constructor itself, the splice primitive, which checks what its edit
# can change, and the columns constructor, which makes each of the
# constructor's checks once per array (`diagram._checked_arrays`)
UNCHECKED_BUILDERS = {
    ("diagram.py", "MajoranaDiagram.__post_init__"),
    ("diagram.py", "MajoranaDiagram.splice"),
    ("diagram.py", "MajoranaDiagram.from_columns"),
    ("quon.py", "QuonDiagram.splice"),
}


def _skips_checks(node) -> bool:
    """An object.__new__ call, a write to an attribute `_widths`, or the
    name "_widths" handed to a setattr or as a keyword (a `vars(d).update`)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object")
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr == "_widths"
    if isinstance(node, ast.keyword):
        return node.arg == "_widths"
    return isinstance(node, ast.Constant) and node.value == "_widths"


def unchecked_builds(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function) of every place that
    builds a diagram around its checks (see `_skips_checks`)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if _skips_checks(child):
                found.append((child.lineno, scope))
            named = isinstance(child, (*_FUNCTIONS[:2], ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_diagrams_skip_their_checks_only_in_the_splice(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    faults = [f"{path.name}:{line}: {scope or 'module'} builds a diagram without its checks"
              for line, scope in unchecked_builds(tree)
              if (path.name, scope) not in UNCHECKED_BUILDERS]
    assert not faults, "\n".join(faults)


def test_unchecked_builds_are_found():
    tree = ast.parse(
        "class MajoranaDiagram:\n"
        "    def splice(self):\n"
        "        return object.__new__(MajoranaDiagram)\n"
        "def shortcut(d):\n"
        "    q = object.__new__(type(d))\n"
        "    object.__setattr__(q, '_widths', d._widths)\n"
        "    d._widths = ()\n"
        "    vars(q).update(_widths=())\n"
        "    return q\n")
    assert unchecked_builds(tree) == [(3, "MajoranaDiagram.splice"), (5, "shortcut"),
                                      (6, "shortcut"), (7, "shortcut"), (8, "shortcut")]


# where an existing Quon diagram's core is edited: the one splice, which
# re-times the marks, and the expansion, which splices a bare core
CORE_SPLICERS = {
    ("quon.py", "QuonDiagram.splice"),
    ("quon.py", "expanded_core"),
}


def core_splices(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function) of every `.splice`
    call on a name `core` or on an attribute `.core`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "splice":
                target = child.func.value
                if getattr(target, "id", None) == "core" or getattr(target, "attr", None) == "core":
                    found.append((child.lineno, scope))
            named = isinstance(child, (*_FUNCTIONS[:2], ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_quon_cores_are_edited_only_by_the_splice(path):
    """A Quon diagram's core is edited through `QuonDiagram.splice`, the one
    place that moves its cuts, notches and anchors with it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    faults = [f"{path.name}:{line}: {scope or 'module'} splices a core by hand"
              for line, scope in core_splices(tree) if (path.name, scope) not in CORE_SPLICERS]
    assert not faults, "\n".join(faults)


def test_core_splices_are_found():
    tree = ast.parse(
        "def f(q, core):\n"
        "    core.splice(0, 0, (), 1.0)\n"
        "    q.core.splice(0, 0, (), 1.0)\n"
        "    q.splice(0, 0, (), 1.0)\n"
        "    d.splice(0, 0, (), 1.0)\n"
        "class QuonDiagram:\n"
        "    def splice(self):\n"
        "        return self.core.splice(0, 0, (), 1.0)\n")
    assert core_splices(tree) == [(2, "f"), (3, "f"), (8, "QuonDiagram.splice")]


# where a diagram is factorised for evaluation: the one route from a Quon
# diagram to its values, and the bare Majorana evaluator
PREPARERS = {
    ("quon.py", "_components"),
    ("gaussian.py", "evaluate_closed_fast"),
}


def prepared_builds(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function) of every call of
    `PreparedDiagram`, by that name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "PreparedDiagram" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append((child.lineno, scope))
            named = isinstance(child, (*_FUNCTIONS[:2], ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_diagrams_are_prepared_only_on_the_one_route(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    faults = [f"{path.name}:{line}: {scope or 'module'} builds a PreparedDiagram"
              for line, scope in prepared_builds(tree) if (path.name, scope) not in PREPARERS]
    assert not faults, "\n".join(faults)


def test_prepared_builds_are_found():
    tree = ast.parse(
        "from . import gaussian\n"
        "def f(d):\n"
        "    return gaussian.PreparedDiagram(d).evaluate([0])\n"
        "class C:\n"
        "    def g(self, d):\n"
        "        return PreparedDiagram(d, ())\n"
        "PreparedDiagram.evaluate\n")
    assert prepared_builds(tree) == [(3, "f"), (6, "C.g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_dead_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    faults = [f"{path.name}:{line}: unused import {name}"
              for line, name in ([] if path.name == "__init__.py" else unused_imports(tree))]
    faults += [f"{path.name}:{line}: local {name} is assigned and never read"
               for line, name in dead_locals(tree)]
    assert not faults, "\n".join(sorted(faults))


def test_the_checks_catch_what_they_name():
    tree = ast.parse(
        "import os\n"
        "from math import pi, tau\n"
        "def f(x):\n"
        "    kept = tau\n"
        "    dead = 1\n"
        "    for r in range(x):\n"
        "        _ = r\n"
        "    for c in range(x):\n"
        "        pass\n"
        "    return lambda: kept\n")
    assert unused_imports(tree) == [(1, "os"), (2, "pi")]
    assert dead_locals(tree) == [(5, "dead"), (8, "c")]


def elements_reads(tree: ast.Module) -> list[int]:
    """The lines that read an attribute named `elements`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "elements"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_diagram_module_reads_element_objects(path):
    """A diagram stores its columns; `MajoranaDiagram.elements` builds
    objects for readers outside the package, and every module but
    `diagram.py` reads the columns instead."""
    if path.name == "diagram.py":
        return
    lines = elements_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} reads `.elements` at lines {lines}"


def test_elements_reads_are_found():
    tree = ast.parse("a = d.elements\nd.core.elements[0]\nelements = 1\nf(elements=2)\n")
    assert elements_reads(tree) == [1, 2]


def braid_code_comparisons(tree: ast.Module) -> list[int]:
    """The lines of the comparisons that name `BraidPos.CODE` or
    `BraidNeg.CODE`."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                   for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                   and sub.attr == "CODE" and getattr(sub.value, "id", None) in
                   ("BraidPos", "BraidNeg")})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_crossings_are_read_from_the_one_table(path):
    """Whether an element is a crossing, and its mu, come from
    `diagram.CROSSING`; no other module compares kind codes with a braid's."""
    if path.name == "diagram.py":
        return
    lines = braid_code_comparisons(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} compares against a braid's kind code at lines {lines}"


def test_braid_code_comparisons_are_found():
    tree = ast.parse("a = code == BraidPos.CODE\nb = k in (BraidNeg.CODE, 4)\n"
                     "c = BraidPos.CODE\nd = x.CODE == y\n")
    assert braid_code_comparisons(tree) == [1, 2]


# kind dispatch belongs in the element table (`diagram.py`), not in type
# tests spread over the modules; the cap may only fall
ISINSTANCE_CAP = 14


def isinstance_calls(tree: ast.Module) -> int:
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "isinstance")


def test_isinstance_calls_stay_under_the_cap():
    counts = {path.name: isinstance_calls(ast.parse(path.read_text(), filename=str(path)))
              for path in MODULES}
    total = sum(counts.values())
    assert total <= ISINSTANCE_CAP, (
        f"{total} isinstance calls in src/quon2d, cap {ISINSTANCE_CAP}: "
        + ", ".join(f"{name} {n}" for name, n in sorted(counts.items()) if n))
    assert isinstance_calls(ast.parse("isinstance(x, int)\nf(isinstance)\nisinstance\n")) == 1


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_the_bench_tracer_finds_every_name_it_wraps():
    """The traced benchmark run (`bench/tracing.py`, parsed here, not
    imported) replaces each (owner, attribute) of its TARGETS through
    `owner.__dict__[attribute]`; a refactor that moves one of them breaks
    that run, so each must still be there.  Its "gaussian.assemble" layer
    counts the points as len(result[1])."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    namespace = {"sys": sys}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "quon2d":
            namespace.update({alias.asname or alias.name:
                              importlib.import_module(f"quon2d.{alias.name}")
                              for alias in node.names})
    for node in tree.body:  # module-level names the targets may use, such as _classify
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id != "TARGETS":
            try:
                value = compile(ast.Expression(node.value), "", "eval")
                namespace[node.targets[0].id] = eval(value, namespace)
            except (KeyError, NameError, AttributeError):
                pass  # a value no target reads
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    assert len(targets.elts) >= 21
    for target in targets.elts:
        layer, owner, attr = target.elts
        resolved = eval(compile(ast.Expression(owner), "", "eval"), namespace)
        assert attr.value in resolved.__dict__, f"{layer.value}: {ast.unparse(owner)}.{attr.value}"
    core = build_ising_quon(IsingLattice.square(2, 2, 0.3)).core
    assert len(assemble_frontier(core)[1]) == 8  # two points on each of the 4 bonds
