"""Import layering of the package modules, read from their source with ast."""

import ast
from pathlib import Path

import multinets

PACKAGE = Path(multinets.__file__).parent


def package_imports(path):
    """Names of the multinets modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "multinets":  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("multinets."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("multinets.")
            )
    return found


IMPORTS = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_every_module_parsed():
    assert {"projective", "congruences", "circular", "cli", "__init__"} <= set(IMPORTS)


def test_congruences_imports_only_errors_and_projective():
    assert IMPORTS["congruences"] <= {"errors", "projective"}


def test_projective_imports_only_errors():
    assert IMPORTS["projective"] <= {"errors"}


def test_no_module_imports_cli():
    assert [name for name, imports in IMPORTS.items() if "cli" in imports] == []


def test_no_tolerance_parameters_besides_proj_equal():
    """Decisions compare against the named constants of projective (and the
    gauge tolerance of qnets); proj_equal keeps its tol because its callers
    pass different values."""
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if names & {"tol", "rtol"} and getattr(node, "name", None) != "proj_equal":
                    found.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert found == []


def test_only_projective_spells_the_zero_threshold():
    """The absolute zero threshold is projective._ABS_EPS; other modules
    import it instead of repeating its value."""
    found = [
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.stem != "projective"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == 1e-13
    ]
    assert found == []
