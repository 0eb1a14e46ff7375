"""Every top-level name of ``src/unravelings``, public or private, has a
caller, and every module-level import of ``src/unravelings`` and ``scripts/``
is read.

A function, class or constant counts as used when one of these holds:

* ``src/``, ``perfbench/*.py`` or ``scripts/`` refers to it, outside its own
  definition, as a name, an attribute or an import;
* ``perfbench/spans.py`` traces it by name (``FUNCTIONS``);
* it is in ``ALLOWED`` below, with the reason it stays.

An ``ALLOWED`` entry lasts only as long as its reason: the test fails when the
name has gained a caller or a trace, or is no longer defined.

Tests do not count: a name only they reach belongs in the tests.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unravelings"

# (module, name) -> why it stays without a caller
ALLOWED = {
    ("noise", "reconstruct_noise"): "the inverse of measurement_record; the planned "
                                    "record-replay check (ROADMAP item 5) is its first caller",
}


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, fn) for mod, fn, _, _ in module.FUNCTIONS}


def _defined(stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced(node) -> set:
    """Names that ``node`` loads, reads as an attribute or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def test_every_top_level_name_has_a_caller():
    sources = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
               + sorted((ROOT / "scripts").rglob("*.py")))
    definitions = []              # (module, name, the defining statement)
    references = []               # (statement, names it refers to)
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            references.append((stmt, _referenced(stmt)))
            if path.parent == PACKAGE:
                definitions += [(path.stem, name, stmt) for name in _defined(stmt)]
    assert definitions
    used = _traced() | {(mod, name) for mod, name, own in definitions
                        if any(name in names for stmt, names in references if stmt is not own)}
    unused = [f"{mod}.{name}" for mod, name, _ in definitions
              if (mod, name) not in used and (mod, name) not in ALLOWED]
    assert unused == [], f"names that nothing in src/, perfbench/ or scripts/ uses: {unused}"
    defined = {(mod, name) for mod, name, _ in definitions}
    stale = sorted(f"{mod}.{name}" for mod, name in ALLOWED if (mod, name) in used
                   or (mod, name) not in defined)
    assert stale == [], f"ALLOWED entries that are used or gone; drop them: {stale}"


def _imported(stmt) -> list:
    """The names a module-level import binds (``import a.b`` binds ``a``)."""
    if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
            isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
        return []
    return [a.asname or a.name.split(".")[0] for a in stmt.names if a.name != "*"]


def test_every_module_level_import_is_read():
    # no linter runs with the suite; this catches an import a deletion leaves behind
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for stmt in tree.body
                   for name in _imported(stmt) if name not in read]
    assert unused == [], f"module-level imports never read in their module: {unused}"
