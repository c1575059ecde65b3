"""Every public module-level function and class of posekit, and every
public method and property of those classes, has a caller.

The library's modules, the demos and the acceptance gates are parsed; a
public name defined in src/posekit must be used somewhere other than its
own definition, as a name, an attribute or an imported name. A private
module-level function or class must be used so by the library itself.

The package __init__.py holds its docstring and nothing else: callers import
the modules, so each public name has one binding, in the module that defines
it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posekit"
LIBRARY = sorted(PACKAGE.glob("*.py"))
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


def _scan(stmt: ast.stmt, where: str, own: set[str], defined: dict, used: set[str]) -> None:
    """Record the public definitions in stmt (a class's public methods and
    properties too) as qualified name -> name, and every other name it uses.

    Names in own, the definitions enclosing stmt, are not uses: a
    definition's own body (recursion, a class naming itself) does not count.
    """
    kinds = (ast.FunctionDef, ast.ClassDef)
    if not isinstance(stmt, kinds) or stmt.name.startswith("_"):
        used |= _names_used(stmt) - own
        return
    defined[f"{where}.{stmt.name}"] = stmt.name
    own = own | {stmt.name}
    if isinstance(stmt, ast.FunctionDef):
        used |= _names_used(stmt) - own
        return
    for part in [*stmt.decorator_list, *stmt.bases, *stmt.keywords]:
        used |= _names_used(part) - own
    for member in stmt.body:
        _scan(member, f"{where}.{stmt.name}", own, defined, used)


def test_every_public_definition_is_used():
    defined: dict[str, str] = {}  # qualified name -> name
    used: set[str] = set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if path in LIBRARY:
                _scan(stmt, path.stem, set(), defined, used)
            else:
                used |= _names_used(stmt)
    unused = sorted(qualified for qualified, name in defined.items() if name not in used)
    assert not unused, f"public definitions with no caller: {', '.join(unused)}"


def test_every_private_definition_is_used_by_the_library():
    """A private module-level function or class of src/posekit is used by
    library code other than its own definition: one that only a test calls
    is a second body of a rule, not part of the library."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    defined: dict[str, str] = {}  # qualified name -> name
    used: set[str] = set()
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = {stmt.name} if isinstance(stmt, kinds) else set()
            if own and stmt.name.startswith("_"):
                defined[f"{path.stem}.{stmt.name}"] = stmt.name
            used |= _names_used(stmt) - own
    unused = sorted(qualified for qualified, name in defined.items() if name not in used)
    assert not unused, f"private definitions no library code uses: {', '.join(unused)}"


def test_package_init_is_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, "src/posekit/__init__.py binds names; import the modules"


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "posekit"
            ):
                private += [
                    f"{path.name}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, f"private names imported across modules: {', '.join(private)}"
