"""One fork site and one reaping path in ``src/unravelings``.

Every helper process the library starts comes from one ``os.fork`` call and
is reaped by one ``os.waitpid`` call, so a change to how a helper is started
or ended is made in one place.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "unravelings"


def _os_calls(name: str) -> list:
    """``module:line`` of every ``os.<name>(...)`` call in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"):
                sites.append(f"{path.stem}:{node.lineno}")
    return sites


def test_one_fork_site_and_one_reaping_path():
    forks, reaps = _os_calls("fork"), _os_calls("waitpid")
    assert len(forks) == 1, forks
    assert len(reaps) == 1, reaps
    assert forks[0].split(":")[0] == reaps[0].split(":")[0] == "engine"
