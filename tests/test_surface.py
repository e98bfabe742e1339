"""Every name the ``poselift`` package exports is reached by the program.

The library, its benchmark or its demos must use each exported name in
code somewhere other than the line that defines it.  A name that only the
tests reach is surface to delete, not to export.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "poselift" / "__init__.py"


def exported_names() -> set:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def program_names() -> set:
    """Identifiers in the code (not strings or comments) of src/, perfbench/
    and demos/, leaving out the package's __init__.py and the name after
    each ``def`` or ``class``."""
    names = set()
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            if path == INIT:
                continue
            previous = None
            with open(path, "rb") as f:
                for tok in tokenize.tokenize(f.readline):
                    if tok.type == tokenize.NAME and previous not in ("def", "class"):
                        names.add(tok.string)
                    previous = tok.string if tok.type == tokenize.NAME else None
    return names


def test_every_export_is_reached_by_the_program():
    unreached = sorted(exported_names() - program_names())
    assert not unreached, f"exported, but only tests reach them: {unreached}"
