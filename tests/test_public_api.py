"""Every public module-level function and class of posekit has a caller.

The library's modules, the demos and the acceptance gates are parsed; a
public name defined in src/posekit must be used somewhere other than its
own definition, as a name, an attribute or an imported name. The package
__init__.py does not count: re-exporting a name is not calling it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "posekit").glob("*.py") if p.name != "__init__.py")
USERS = [*LIBRARY, *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            used.update(alias.name for alias in child.names)
    return used


def test_every_public_definition_is_used():
    defined: dict[str, str] = {}  # name -> defining module
    used: set[str] = set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            kinds = (ast.FunctionDef, ast.ClassDef)
            is_def = path in LIBRARY and isinstance(stmt, kinds) and not stmt.name.startswith("_")
            if is_def:
                defined[stmt.name] = path.stem
                # a definition's own body (recursion, a class naming itself) is not a use
                used |= _names_used(stmt) - {stmt.name}
            else:
                used |= _names_used(stmt)
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"public definitions with no caller: {', '.join(unused)}"
