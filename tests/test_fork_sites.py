"""One fork site and one stop path in ``src/unravelings``.

Every helper process the library starts comes from one ``os.fork`` call, is
stopped by one ``os.kill`` call and reaped by one ``os.waitpid`` call, all
in ``engine._forked``, so a change to how a helper is started or ended is
made in one place.
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
    sites = [_os_calls(name) for name in ("fork", "kill", "waitpid")]
    for calls in sites:
        assert len(calls) == 1, calls
    assert {calls[0].split(":")[0] for calls in sites} == {"engine._forked"}, sites
