"""Every public name of the package has a program caller, or a reason not to."""

import ast
from pathlib import Path

import capgraph

PACKAGE = Path(capgraph.__file__).parent

# exported for users and tests with no caller inside the package, each for
# the reason given
ALLOWED = {
    "field_from_callable": "builds a field from a formula, for users and tests",
    "assemble_residual": "the solver's discrete equation, exposed for its own checks",
    "assemble_jacobian": "the solver's Hessian, exposed for its own checks",
}


def _references(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_export_has_a_caller_in_another_module():
    # an export is called when code outside __init__.py names it, as an
    # ast.Name or an ast.Attribute; a name inside the definition of another
    # export counts only once that export is called (or allowed), so a record
    # that only an uncalled function builds is no more called than it is
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.asname or alias.name for stmt in init.body
               if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    assert set(ALLOWED) <= exports
    roots, bodies = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            if name in exports:
                bodies[name] = _references(stmt)
            else:
                roots |= _references(stmt)
    called, todo = set(), (roots & exports) | set(ALLOWED)
    while todo:
        name = todo.pop()
        called.add(name)
        todo |= (bodies.get(name, set()) & exports) - called
    uncalled = sorted(exports - called)
    assert not uncalled, f"exports without a caller: {uncalled}"
    # an allowed name that has gained a caller leaves the list
    callers = roots.union(*(bodies[n] for n in called - set(ALLOWED) if n in bodies))
    stale = sorted(set(ALLOWED) & callers)
    assert not stale, f"allowed exports that have a caller: {stale}"
