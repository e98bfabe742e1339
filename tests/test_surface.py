"""Every name the ``poselift`` package exports is reached by the program.

The library, its benchmark or its demos must use each exported name in
code somewhere other than the line that defines it.  A name that only the
tests reach is surface to delete, not to export.  The same holds for the
package's private module-level names: a helper that no program code reads
any more is left over.
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


# Defaulted parameters that no program call sets, each with the reason it stays.
UNSET_DEFAULTS_KEPT = {
    ("generate_motion", "motion_spec"):
        "lets a test substitute a known motion for the seeded random one",
}


def exported_functions() -> dict:
    """{name: FunctionDef} for every exported name that its module defines
    as a top-level function."""
    functions = {}
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ast.parse((INIT.parent / f"{node.module}.py").read_text(encoding="utf-8"))
        defined = {d.name: d for d in module.body if isinstance(d, ast.FunctionDef)}
        for alias in node.names:
            if alias.name in defined:
                functions[alias.asname or alias.name] = defined[alias.name]
    return functions


def defaulted_parameters(function: ast.FunctionDef) -> dict:
    """{parameter name: its position, or None if keyword-only} for every
    parameter with a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    found = {a.arg: i for i, a in enumerate(positional)
             if i >= len(positional) - len(args.defaults)}
    found.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None})
    return found


def set_parameters(params: dict, calls: list) -> set:
    """Those of the defaulted `params` that some of `calls` sets, by keyword
    or by position (a ``*`` or ``**`` argument sets them all)."""
    passed = set()
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return set(params)
        passed |= {k.arg for k in call.keywords}
        passed |= {name for name, i in params.items() if i is not None and i < len(call.args)}
    return passed & set(params)


def program_calls() -> dict:
    """{called name: [Call]} over the code of src/, perfbench/ and demos/,
    by the bare or dotted name called."""
    calls: dict = {}
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def test_every_default_of_an_exported_function_is_set_by_the_program():
    calls = program_calls()
    unset = []
    for name, function in exported_functions().items():
        params = defaulted_parameters(function)
        unset += [(name, p) for p in sorted(set(params) - set_parameters(params, calls.get(name, [])))
                  if (name, p) not in UNSET_DEFAULTS_KEPT]
    assert not unset, f"defaulted parameters that no program call sets: {unset}"


def module_private_names() -> dict:
    """{name: module file name} for every private (``_x``, not dunder)
    function, class or assigned constant at the top level of src/poselift."""
    names = {}
    for path in INIT.parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            names.update({n: path.name for n in defined
                          if n.startswith("_") and not n.startswith("__")})
    return names


def referenced_names() -> set:
    """Names read in the code of src/, perfbench/ and demos/, bare or as an
    attribute, leaving out each top-level function's or class's reads of
    its own name (a recursive call is no reference)."""
    names = set()
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                own = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        names.add(name)
    return names


def test_every_private_module_name_is_referenced():
    referenced = referenced_names()
    unreferenced = sorted(f"{module}:{name}" for name, module in module_private_names().items()
                          if name not in referenced)
    assert not unreferenced, f"private names that no program code reads: {unreferenced}"


def test_only_the_model_deals_work_to_the_pool():
    # One module decides how a lift uses the CPUs and one keeps the deal's
    # protocol: `network` is the only program code that reads
    # `numerics._in_parts`, and none besides `numerics` itself reads
    # `_deal`, `_Recorded` or `_Part`.
    readers = {name: set() for name in ("_in_parts", "_deal", "_Recorded", "_Part")}
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                else:
                    continue
                for name in readers.keys() & set(names):
                    readers[name].add(path.relative_to(ROOT).as_posix())
    assert readers.pop("_in_parts") <= {"src/poselift/network.py"}, readers
    assert all(r <= {"src/poselift/numerics.py"} for r in readers.values()), readers


def test_only_numerics_starts_threads():
    # One pool: no program code but `numerics` imports a thread or process module.
    banned = {"threading", "concurrent", "multiprocessing"}
    importers = set()
    for directory in ("src", "perfbench", "demos"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] in banned for m in modules):
                    importers.add(path.relative_to(ROOT).as_posix())
    assert importers <= {"src/poselift/numerics.py"}, importers
