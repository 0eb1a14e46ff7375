"""One process module in ``src/unravelings``: ``procs``.

Every child process the library starts comes from one ``os.fork`` call, is
put in its process group by the two ``os.setpgid`` calls (one on each side of
the fork), stopped by one ``os.kill`` call and reaped by one ``os.waitpid``
call, all in ``procs._forked``, so a change to how a child is started or
ended is made in one place.  Every pipe, and every import of ``mmap``,
``pickle`` and ``signal``, is in ``procs`` too, so the numerical modules hold
no process code.
"""

import ast
import functools
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unravelings"


@functools.cache
def _sites() -> tuple:
    """``({name: [call]}, {module: [import]})`` over the package, one walk per file.

    A call ``os.<name>(...)`` is named ``module.function:line``, where
    ``function`` is the innermost function around it, or ``<module>``; an
    import of a module (or of a name from it) is named ``module:line``.
    """
    calls, imports = {}, {}

    def visit(node, stem, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "os"):
                calls.setdefault(child.func.attr, []).append(f"{stem}.{where}:{child.lineno}")
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            for name in names:
                imports.setdefault(name.split(".")[0], []).append(f"{stem}:{child.lineno}")
            visit(child, stem, child.name if isinstance(child, ast.FunctionDef) else where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return calls, imports


def test_one_fork_site_and_one_reaping_path():
    counts = {"fork": 1, "setpgid": 2, "kill": 1, "waitpid": 1}
    sites = {name: _sites()[0].get(name, []) for name in counts}
    for name, calls in sites.items():
        assert len(calls) == counts[name], calls
    functions = {call.split(":")[0] for calls in sites.values() for call in calls}
    assert functions == {"procs._forked"}, sites


def test_every_process_call_and_import_is_in_procs():
    calls, imports = _sites()
    sites = [site for name in ("fork", "pipe", "setpgid", "kill", "waitpid")
             for site in calls.get(name, [])]
    sites += [site for module in ("mmap", "pickle", "signal") for site in imports.get(module, [])]
    assert len(sites) == 11, sites      # 1 + 3 + 2 + 1 + 1 calls, 3 imports
    assert {site.split(".")[0].split(":")[0] for site in sites} == {"procs"}, sites
