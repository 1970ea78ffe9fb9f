"""Checks on the package source itself."""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

from fanoscaffold import cli, laurent, polyhedra

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fanoscaffold"
CAP = re.compile(r"\w+_too_large|too_many_\w+")


def test_every_private_function_is_used():
    # A module-level helper whose name appears nowhere outside its own
    # definition has no caller left.
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = []
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            own = "".join(lines[node.lineno - 1 : node.end_lineno])
            rest = text.replace(own, "", 1)
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            others = (t for p, t in texts.items() if p != path)
            if not word.search(rest) and not any(word.search(t) for t in others):
                unused.append("%s.%s" % (path.stem, node.name))
    assert unused == []


def test_every_import_is_used():
    # Every name a module imports at top level is read somewhere in that
    # module, unless the module exports it through __all__.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = set()
        imported = []
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.append((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            "%s.%s" % (path.stem, name)
            for name in imported
            if name not in used and name not in exported
        ]
    assert unused == []


def test_no_module_casts_with_int_or_float():
    # int() truncates 3/2 to 1 and float() rounds: integer input goes
    # through exact.to_int_vector and results through exact.as_exact.
    casts = [
        "%s:%d" % (path.stem, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("int", "float")
    ]
    assert casts == []


def test_only_polyhedra_calls_the_unchecked_constructors():
    # Polytope(dim, cone) and Cone(...) check nothing, so every other
    # module builds them through from_points, from_hrep or from_rays, or
    # an operation on a polytope.
    direct = [
        "%s:%d" % (path.stem, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "polyhedra"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("Polytope", "Cone")
    ]
    assert direct == []


def names_by_scope():
    """The pairs (scope, name) over src/, one per read: each function
    (module.Class.func, a nested one by its own path) with each name its
    own body reads, as a Name or an attribute, so that map(f, ...) calls f
    and raising a DomainError reads DomainError."""
    found = []

    class Names(ast.NodeVisitor):
        def __init__(self, stem):
            self.scope = [stem]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Name(self, node):
            found.append((".".join(self.scope), node.id))

        def visit_Attribute(self, node):
            found.append((".".join(self.scope), node.attr))
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Names(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_only_dd_cone_and_convert_read_the_dd_pass():
    # dd_cone drops the tight masks, and polyhedra._convert reads them once
    # for both Cone constructors; no other function reads _dd_core, so a
    # second post-processing of the pass cannot creep back.
    readers = sorted(s for s, n in names_by_scope() if n == "_dd_core")
    assert readers == ["polyhedra._convert", "polyhedra.dd_cone"]


def test_each_conversion_row_and_fan_ray_is_checked_once():
    # Rows enter a conversion through polyhedra._conversion_input, which
    # checks and scales them, and fan input through polyhedra._fan_input;
    # so _dd_core reads clean rows, and the fan classes check nothing.
    found = names_by_scope()
    dd_core = {n for s, n in found if s.startswith("polyhedra._dd_core")}
    assert not {"_check_lengths", "_clear_denominators"} & dd_core
    scalers = [s for s, n in found if n == "_clear_denominators" and s.startswith("polyhedra.")]
    assert scalers == ["polyhedra._conversion_input"]
    for init in ("polyhedra.Fan.__init__", "toric.StackyFan.__init__"):
        names = {n for s, n in found if s == init}
        assert "_fan_input" in names
        assert not {"to_int_vector", "DomainError"} & names


def test_readme_lists_every_cap_kind():
    # The caps are the DomainError kinds named *_too_large or too_many_*;
    # the README sentence on capped inputs names each one and no other.
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "DomainError"
                and isinstance(node.args[0], ast.Constant)
                and CAP.fullmatch(node.args[0].value)
            ):
                raised.add(node.args[0].value)
    listed = {k for k in re.findall(r"`(\w+)`", cap_sentence()) if CAP.fullmatch(k)}
    assert raised and listed == raised


def cap_sentence():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"Inputs that would blow up are capped.*?\.\s", readme, re.S).group(0)


def test_every_cap_kind_appears_in_a_test():
    # Each cap kind the README sentence names is pinned by some test module
    # other than this one.
    tests = [p.read_text() for p in ROOT.glob("tests/test_*.py") if p.name != "test_source.py"]
    listed = {k for k in re.findall(r"`(\w+)`", cap_sentence()) if CAP.fullmatch(k)}
    assert sorted(k for k in listed if not any(k in t for t in tests)) == []


# The constant each cap compares with, for the caps that have one.
CAP_CONSTANTS = {
    "degree_too_large": laurent.MAX_PERIOD_DEPTH,
    "period_too_large": laurent.MAX_PERIOD_PRODUCTS,
    "power_too_large": laurent.MAX_POWER_PRODUCTS,
    "lattice_box_too_large": polyhedra.MAX_LATTICE_BOX,
    "level_too_large": laurent.MAX_MUTATION_LEVEL,
}


def test_readme_cap_numbers_are_the_constants():
    # The first number in the parenthesis after a cap kind, written 64,
    # 10^6 or 5·10^5, is the number that cap's constant holds.
    stated = {}
    for kind, note in re.findall(r"`(\w+)`\s+\(([^)]*)", cap_sentence()):
        a, b, c = re.search(r"(?:(\d+)·)?(\d+)(?:\^(\d+))?", note).groups()
        stated[kind] = int(a or 1) * int(b) ** int(c or 1)
    assert {k: stated.get(k) for k in CAP_CONSTANTS} == CAP_CONSTANTS


def test_readme_lists_every_subcommand():
    # The first code block of README's command line section is the table
    # of subcommands: each parser subcommand, in order, with its help text.
    subs = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    table = section.split("```\n", 2)[1].rstrip("`\n")
    rows = [tuple(line.split(None, 1)) for line in table.splitlines()]
    assert rows == [(a.dest, a.help) for a in subs._choices_actions]


# Public names that nothing in src/ or perfbench/ calls, each kept for the
# reason given.  A name leaves the list when it gets a caller.
UNCALLED_ALLOWED = {
    "scaffolding.laurent_from_scaffolding": "the planned quantum-period subcommand calls it",
    "inversion.binomial_equations": "paper claim awaiting a binomials subcommand",
    "nefpart.mutation_chain_check": "paper claim awaiting a mutation-chain subcommand",
}


def test_every_public_name_is_called():
    # A public module-level function or class, or a public method, is
    # called when its name is read (a Name, an Attribute or an import
    # alias) somewhere in src/ or perfbench/*.py outside its own
    # definition.  Strings and docstrings do not count, and a read of
    # self.<name> inside a class counts only for that class's own method.
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append(("%s.%s" % (path.stem, node.name), node, None))
            if isinstance(node, ast.ClassDef):
                defined += [
                    ("%s.%s.%s" % (path.stem, node.name, m.name), m, node)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]

    def read(node):
        if isinstance(node, ast.Name):
            return (node.id,)
        if isinstance(node, ast.Attribute):
            return (node.attr,)
        if isinstance(node, ast.alias):
            return (node.name.split(".")[-1], node.asname)
        return ()

    def names(node):
        return Counter(name for n in ast.walk(node) for name in read(n))

    def self_reads(node):
        return Counter(
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"
        )

    classes = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    by_class = [(c, self_reads(c)) for c in classes]
    reads = sum(map(names, trees.values()), Counter())

    def outside(node, owner):
        other = sum(r[node.name] for c, r in by_class if c is not owner)
        return reads[node.name] - names(node)[node.name] - other

    uncalled = [full for full, node, owner in defined if not outside(node, owner)]
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)
