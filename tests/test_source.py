"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fanoscaffold"


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
