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


def _wrapped_names(monkeypatch) -> set:
    """(module file name, name) for each name that benchmarks/run.py::_install wraps."""
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "benchmarks"))
    import run
    from scoregap import experiment, modelio

    class Recorder:
        names = set()

        def install(self, module, name, *_):
            self.names.add((module.__name__.rpartition(".")[2] + ".py", name))

    run._install(Recorder(), experiment, modelio)
    return Recorder.names


def _bound_names(tree: ast.AST):
    """Each name an import statement binds, but for `from __future__` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_used(monkeypatch):
    # __init__ imports to re-export; a name the benchmark wraps is imported for it alone
    wrapped = _wrapped_names(monkeypatch)
    assert wrapped
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused |= {(path.name, name) for name in _bound_names(tree) if name not in used}
    assert not unused - wrapped, sorted(unused - wrapped)


def _names_rel_tol(tree: ast.AST) -> bool:
    """Whether the module binds or reads REL_TOL: a name, an attribute or an import alias."""
    return any(isinstance(node, ast.Name) and node.id == "REL_TOL"
               or isinstance(node, ast.Attribute) and node.attr == "REL_TOL"
               or isinstance(node, ast.alias) and "REL_TOL" in (node.name, node.asname)
               for node in ast.walk(tree))


def test_the_zero_rule_has_one_home():
    # every other module judges a zero through linalg.tolerance, so the rule can change in one place
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if _names_rel_tol(ast.parse(path.read_text(encoding="utf-8")))]
    assert naming == ["linalg.py"]



def _caught(handler: ast.ExceptHandler) -> set:
    """The names of the classes an except clause catches, `module.Name` read as `Name`."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {kind.id if isinstance(kind, ast.Name) else kind.attr
            for kind in kinds if isinstance(kind, (ast.Name, ast.Attribute))}


def _opens_for_reading(body) -> bool:
    """Whether the statements call open() with no mode, or with a mode that only reads."""
    calls = [node for stmt in body for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]
    modes = [next((kw.value for kw in call.keywords if kw.arg == "mode"), call.args[1] if len(call.args) > 1 else None)
             for call in calls]
    return any(mode is None or isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+") for mode in modes)


def _blaming_handlers(source: str) -> list:
    """Lines of the except clauses that word an unreadable input file, or a caught ScoregapError, as their own error."""
    from scoregap import errors

    ours = {name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.ScoregapError)}
    lines = []
    for node in ast.walk(ast.parse(source)):
        for handler in node.handlers if isinstance(node, ast.Try) else ():
            caught = _caught(handler) if handler.type is not None else set()
            raised = {sub.exc.func.id for stmt in handler.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call)
                      and isinstance(sub.exc.func, ast.Name)}
            if (caught & {"OSError", "IOError", "EnvironmentError", "UnicodeError", "UnicodeDecodeError"}
                    and _opens_for_reading(node.body) or caught & ours and "ConfigError" in raised):
                lines.append(handler.lineno)
    return lines


def test_outside_input_is_blamed_in_one_place():
    # errors.opening words every unreadable input file and errors.naming every bad field, each in one place
    assert _blaming_handlers(
        "try:\n    with open(path) as f:\n        text = f.read()\nexcept (OSError, UnicodeDecodeError):\n    pass\n"
        "try:\n    as_vector(v)\nexcept errors.ShapeMismatchError as exc:\n    raise ConfigError(str(exc))\n"
    ) == [4, 8]
    blaming = {path.name: _blaming_handlers(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "errors.py"}
    assert not {name: lines for name, lines in blaming.items() if lines}
