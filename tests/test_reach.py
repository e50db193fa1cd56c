"""Every public function, class and constant of the physics modules and the
optimizer has a caller outside the tests.

A name that only tests call is a face kept for them: the pipeline runs
another copy of its relation, or none. Such an oracle belongs in the test
that uses it. A name ``N`` of module ``M`` is reached when another module of
the package, a demo or the benchmark imports it (``from .M import N``),
reads it on its module (``M.N``, ``lf.M.N``), or names it as a string
beside ``lf.M`` (the benchmark's tracer patches names given so). It is also
reached when a reached definition of the physics modules names it: one of
``M``'s own by its bare name, another module's by import or attribute. A
bare name never reaches another module's definition, so a loop variable
``col`` in ``deflection`` does not reach ``batch.col``. A top-level
statement that defines nothing, such as an import, is always reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "laserfleet"
MODULES = ("orbits", "plume", "formation", "sublimation", "sizing", "deflection", "batch",
           "moo")

# The paper's station-keeping: criterion 4 checks its Lyapunov descent, and
# no study runs it. What it calls is reached through it.
ALLOWED = {("formation", "simulate_tracking")}


def _module_of(node: ast.AST) -> str | None:
    """The physics module an expression names (``batch``, ``lf.moo``), if any."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None
    return name if name in MODULES else None


def _refs(tree: ast.AST, module: str | None) -> set:
    """The (module, name) pairs that ``tree`` refers to. A bare name refers
    to ``module``'s own definition; outside the physics modules it refers
    to none."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and module is not None:
            refs.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            owner = _module_of(node.value)
            if owner is not None:
                refs.add((owner, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            owner = node.module.rsplit(".", 1)[-1]
            refs |= {(owner, alias.name) for alias in node.names}
        elif isinstance(node, ast.Call):
            owners = {_module_of(arg) for arg in node.args} - {None}
            refs |= {(owner, arg.value) for owner in owners for arg in node.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return refs


def _defined(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_has_a_caller_outside_tests():
    physics = {PACKAGE / f"{module}.py": module for module in MODULES}
    reached = set(ALLOWED)
    bodies = {}  # (module, name) of each top-level definition: what it refers to
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        module = physics.get(path)
        if module is None:
            reached |= _refs(tree, None)
            continue
        for node in tree.body:
            names = _defined(node)
            for name in names:
                bodies[module, name] = _refs(node, module)
            if not names:
                reached |= _refs(node, module)

    grown = True
    while grown:
        grown = False
        for key, refs in bodies.items():
            if key in reached and not refs <= reached:
                reached |= refs
                grown = True
    unreached = [f"{module}.{name}" for module, name in sorted(bodies)
                 if not (name.startswith("_") or (module, name) in reached)]
    assert unreached == []
