"""Every module-level import in ``src/tgk`` is used by its module, and
every top-level ``def`` or ``class`` is used by the package.

An import counts as used when the module reads it anywhere (code or an
evaluated annotation) or re-exports it through ``__all__``. A definition
counts as used when some code of the package other than the definition
itself names it, when the benchmark in ``perfbench/`` names it (in code
or as a string: its tracer binds names by string), or when it is one of
the few public entry points listed in ``PUBLIC``. Listing a name in
``__all__`` does not count, so test-only code cannot hide in ``src/``.
No module calls a ufunc's ``.at`` or ``isin``: per-segment reductions go
through ``ScatterPlan``. The pyramid's doubling law,
``2.0 ** (stage - 1)``, is written only in ``graph.stage_scale``, and the
on-disk ``"<f4"`` row dtype only in ``graph``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tgk"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
# documented entry points no package or benchmark code calls
PUBLIC = {"run_transfer_matchup"}


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return used | exported_names(tree)


def named_in(nodes, strings: bool = False) -> set[str]:
    """Every name the nodes read, reach as an attribute or import, and
    with ``strings`` every string constant they hold."""
    out = set()
    for root in nodes:
        for n in ast.walk(root):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
            elif (strings and isinstance(n, ast.Constant)
                  and isinstance(n.value, str)):
                out.add(n.value)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def unused_definitions(trees: dict[str, ast.Module],
                       outside: set[str]) -> list[str]:
    """Each top-level ``def`` or ``class`` of ``trees`` (module stem to
    tree), as ``stem.name``, whose name is not in ``outside`` and that no
    top-level node of any tree names apart from the definition itself."""
    named = {id(node): named_in([node])
             for tree in trees.values() for node in tree.body}
    count = Counter(name for names in named.values() for name in names)
    return [f"{stem}.{node.name}" for stem, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in outside
            and count[node.name] == (node.name in named[id(node)])]


def test_every_top_level_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    outside = PUBLIC | named_in([ast.parse(p.read_text()) for p in BENCH],
                                strings=True)
    assert unused_definitions(trees, outside) == []


def test_dead_code_guard_sees_an_unused_definition():
    trees = {"a": ast.parse("def kept():\n    pass\n"
                            "def loop(n):\n    return loop(n - 1)\n"
                            "def entry():\n    pass\n"),
             "b": ast.parse("from a import kept\nkept()\n")}
    # ``kept`` is named by another module, ``entry`` is listed as outside,
    # and ``loop`` names only itself
    assert unused_definitions(trees, {"entry"}) == ["a.loop"]


def side_path_reductions(tree: ast.Module) -> list[str]:
    """Each ``<ufunc>.at(...)`` call and each read of ``isin`` in ``tree``,
    by line: per-segment reductions that bypass ``ScatterPlan``."""
    found = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "at"):
            found.append(f"{n.lineno}: {ast.unparse(n.func)}(...)")
        elif (isinstance(n, ast.Attribute) and n.attr == "isin"
              or isinstance(n, ast.alias) and n.name == "isin"):
            found.append(f"{n.lineno}: isin")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_scatter_bypasses_the_segment_kernel(path):
    # a per-segment sum or max goes through ``ScatterPlan.scatter``
    assert side_path_reductions(ast.parse(path.read_text())) == []


def stage_law_copies(tree: ast.Module) -> list[str]:
    """Each power ``2 ** (x - 1)`` in ``tree`` outside a function named
    ``stage_scale``, by line."""
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "stage_scale"
              for n in ast.walk(f)}
    return [f"{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            and isinstance(n.left, ast.Constant) and n.left.value == 2
            and isinstance(n.right, ast.BinOp)
            and isinstance(n.right.op, ast.Sub)
            and isinstance(n.right.right, ast.Constant)
            and n.right.right.value == 1 and id(n) not in inside]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_stage_law_is_written_once(path):
    # connection windows, detection offsets and their targets all scale
    # by ``graph.stage_scale``
    assert stage_law_copies(ast.parse(path.read_text())) == []


def test_stage_law_guard_sees_a_copy():
    tree = ast.parse("def f(s):\n    return 2.0 ** (s - 1)\n"
                     "def stage_scale(stage):\n    return 2.0 ** (stage - 1)\n")
    assert stage_law_copies(tree) == ["2: 2.0 ** (s - 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_row_dtype_lives_in_graph(path):
    # features and banks share ``graph.save_rows`` / ``graph.load_rows``
    found = [n.lineno for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Constant) and n.value == "<f4"]
    assert path.stem == "graph" or found == []
