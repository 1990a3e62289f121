"""Every top-level name in src/claimgan has a caller in src/claimgan.

A function, class or module constant that only tests call is code the
package does not need: move it beside the tests that use it, or delete it.
A name counts as called when some code in the package names it outside its
own definition: a read in its module that resolves to the global (not to a
parameter, local or class attribute of the same name), a
`from .module import name` (`from . import name` for the package's
`__init__`), or `alias.name` through a module-level
`from . import module [as alias]`. Scopes are resolved with `symtable`.
"""

import ast
import functools
import symtable
from pathlib import Path

import pytest

import claimgan

ROOT = Path(__file__).resolve().parents[1]

# "module.name" -> why it stays with no caller in src/. Do not widen this to
# make the check pass: give the name a caller, move it to tests/, or delete it.
UNCALLED_BY_DESIGN = {
    "__init__.__version__":
        "package metadata; test_version_matches_pyproject checks it against pyproject.toml",
    "equilibrium.optimal_t_binary":
        "acceptance criterion 1's closed-form maximiser, checked against a grid",
    "equilibrium.optimal_t_ternary":
        "acceptance criterion 2's closed-form maximiser, symmetric in b and c",
    "equilibrium.jsd":
        "closed-form reference that tests/test_equilibrium.py checks; the whole-game "
        "verdict (ROADMAP item 1 step 1) gives it a caller",
    "equilibrium.value_fn":
        "closed-form reference that tests/test_equilibrium.py checks; the whole-game "
        "verdict (ROADMAP item 1 step 1) gives it a caller",
    "equilibrium.optimal_discriminators":
        "closed-form reference that tests/test_equilibrium.py checks; the whole-game "
        "verdict (ROADMAP item 1 step 1) gives it a caller",
    "trigan.g_y_loss_generator_labels":
        "reference loss for G_Y_ROW's grad check in tests/test_trigan.py, until the "
        "benchmark admits a 17th grad-check rule (ROADMAP item 7)",
}

_COMPREHENSIONS = {
    ast.ListComp: "listcomp", ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr",
}


def _defined(tree: ast.Module) -> dict[str, set[int]]:
    """{name: indices of the top-level statements that bind it} for the
    functions, classes and assigned constants of `tree`."""
    defs: dict[str, set[int]] = {}
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            defs.setdefault(name, set()).add(i)
    return defs


def _is_global(table: symtable.SymbolTable, name: str) -> bool:
    if table.get_type() == "module":
        return True
    try:
        return table.lookup(name).is_global()
    except KeyError:  # an annotation under `from __future__ import annotations`
        return True


def _split(node: ast.AST) -> tuple[list[ast.AST], list[ast.AST]]:
    """(children evaluated in the enclosing scope, children evaluated in the
    scope that `node` opens); the second is empty if it opens none."""
    if isinstance(node, tuple(_COMPREHENSIONS)):
        first = node.generators[0]
        inner = [c for c in ast.iter_child_nodes(node) if c is not first]
        return [first.iter], [*inner, first.target, *first.ifs]
    inner = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
        inner = node.body if isinstance(node.body, list) else [node.body]
    inner_ids = {id(c) for c in inner}
    return [c for c in ast.iter_child_nodes(node) if id(c) not in inner_ids], inner


class _Reads:
    """The reads of one module of the package, statement by statement."""

    def __init__(self, tree: ast.Module):
        self.taken: set[int] = set()  # child tables already matched to a node
        self.aliases = {
            a.asname or a.name: a.name for s in tree.body
            if isinstance(s, ast.ImportFrom) and s.level == 1 and s.module is None
            for a in s.names
        }

    def _scope(self, table, node):
        name = getattr(node, "name", None) or _COMPREHENSIONS.get(type(node), "lambda")
        for child in table.get_children():
            if (id(child) not in self.taken and child.get_name() == name
                    and child.get_lineno() == node.lineno):
                self.taken.add(id(child))
                return child
        return table  # a comprehension inlined into its scope (PEP 709)

    def of(self, node, table):
        """(None, name) for each read of the global `name` in `node`, whose
        scope is `table`, and (module, name) for each of another module's."""
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if _is_global(table, node.id):
                yield None, node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in self.aliases and _is_global(table, node.value.id)):
            yield self.aliases[node.value.id], node.attr
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from . import name` takes `name` from the package's __init__
            yield from ((node.module or "__init__", a.name) for a in node.names)
        outer, inner = _split(node)
        for child in outer:
            yield from self.of(child, table)
        if inner:
            scope = self._scope(table, node)
            for child in inner:
                yield from self.of(child, scope)


def top_level_names(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """("module.name" of every top-level function, class and constant in
    `sources`, those of them called) for {module: source} of one package."""
    defined, called = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        table = symtable.symtable(text, f"{module}.py", "exec")
        reads = _Reads(tree)
        defs = _defined(tree)
        defined |= {f"{module}.{name}" for name in defs}
        for i, stmt in enumerate(tree.body):
            for source, name in reads.of(stmt, table):
                if source is not None:
                    called.add(f"{source}.{name}")
                elif i not in defs.get(name, ()):
                    called.add(f"{module}.{name}")
    return defined, called & defined


@functools.cache
def _src_names() -> tuple[set[str], set[str]]:
    return top_level_names({p.stem: p.read_text(encoding="utf-8")
                            for p in sorted((ROOT / "src" / "claimgan").glob("*.py"))})


def test_every_top_level_name_in_src_has_a_caller_in_src():
    defined, called = _src_names()
    assert sorted(defined - called - UNCALLED_BY_DESIGN.keys()) == []


@pytest.mark.parametrize("name", sorted(UNCALLED_BY_DESIGN))
def test_allow_list_entry_is_an_uncalled_name_with_a_reason(name):
    defined, called = _src_names()
    assert name in defined, f"{name} names nothing in src/"
    assert name not in called, f"{name} has a caller in src/; take it off the list"
    assert UNCALLED_BY_DESIGN[name].strip(), f"{name} gives no reason"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert claimgan.__version__ == tomllib.load(f)["project"]["version"]


PACKAGE = {
    "__init__": "VERSION = '1'\n",
    "a": (
        "from __future__ import annotations\n"
        "LIMIT = 3\n"
        "CAP = LIMIT + 1\n"
        "def helper(x): return x\n"
        "def imported(): pass\n"
        "def through_alias(): pass\n"
        "class Used:\n"
        "    def copy(self) -> Used: return Used()\n"
        "def annotated(x: Used) -> None: pass\n"
        "def main():\n"
        "    return [helper(i) for i in range(CAP)]\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    ),
    "b": (
        "from . import VERSION, a as alias\n"
        "from .a import imported\n"
        "def run(): return alias.through_alias, alias.annotated\n"
        "run()\n"
    ),
}


def test_rule_counts_global_reads_imports_and_module_attributes():
    defined, called = top_level_names(PACKAGE)
    assert defined - called == set()


@pytest.mark.parametrize(
    "source",
    [
        "def f(n): return f(n - 1)",  # recursion is inside its own definition
        "X = 1\nX = [X]",
        "class X:\n    def copy(self): return X()",
        "X = 1\ndef f(X): return X",  # a parameter
        "X = 1\ndef f():\n    X = 2\n    return X",  # a local
        "X = 1\nclass C:\n    X = 2\n    Y = X",  # a class attribute
        "X = 1\nY = [X for X in range(2)]",  # a comprehension variable
        "X = 1\nf = lambda X: X",  # a lambda parameter
        "X = 1\ndef f():\n    X = 2\n    def g(): return X\n    return g",  # a closure
    ],
    ids=["recursion", "redefinition", "method", "parameter", "local", "class-attribute",
         "comprehension", "lambda", "closure"],
)
def test_rule_skips_shadowed_names_and_own_definitions(source):
    defined, called = top_level_names({"m": source})
    assert "m.X" in defined or "m.f" in defined
    assert not {"m.X", "m.f"} & called


def test_rule_skips_a_module_attribute_through_a_shadowing_parameter():
    package = {"a": "def f(): pass", "b": "from . import a\ndef g(a): return a.f\ng(0)"}
    defined, called = top_level_names(package)
    assert "a.f" in defined and "a.f" not in called
