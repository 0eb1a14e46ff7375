"""One fork site and one stop path in ``src/unravelings``.

Every helper process the library starts comes from one ``os.fork`` call, is
put in its process group by the two ``os.setpgid`` calls (one on each side of
the fork), stopped by one ``os.kill`` call and reaped by one ``os.waitpid``
call, all in ``engine._forked``, so a change to how a helper is started or
ended is made in one place.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unravelings"


def _os_calls(name: str) -> list:
    """``module.function:line`` of every ``os.<name>(...)`` call in the package.

    ``function`` is the innermost function around the call, or ``<module>``.
    """
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk goes outside in, so an inner function overwrites its outer one
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for scope in scopes:
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == name and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "os"):
                    where = getattr(scope, "name", "<module>")
                    sites[path.stem, node.lineno] = f"{path.stem}.{where}:{node.lineno}"
    return list(sites.values())


def test_one_fork_site_and_one_reaping_path():
    counts = {"fork": 1, "setpgid": 2, "kill": 1, "waitpid": 1}
    sites = {name: _os_calls(name) for name in counts}
    for name, calls in sites.items():
        assert len(calls) == counts[name], calls
    functions = {call.split(":")[0] for calls in sites.values() for call in calls}
    assert functions == {"engine._forked"}, sites
