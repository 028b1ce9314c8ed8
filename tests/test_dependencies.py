import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scoregap"

# The package's only third-party dependencies, as pyproject.toml lists them.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "scoregap"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is scoregap's own
            yield node.module


def test_modules_import_only_the_stdlib_numpy_and_yaml():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {f"{path.name}: {name}" for path in sources
               for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name.partition(".")[0] not in ALLOWED}
    assert not outside, sorted(outside)
