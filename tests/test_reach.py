"""Every public function and class of the physics modules has a caller
outside the tests.

A name that only tests call is a face kept for them: the pipeline runs
another copy of its relation, or none. Such an oracle belongs in the test
that uses it. A name is reached when another module of the package, a demo
or the benchmark names it (as a name, an attribute, an import, or a string,
since the benchmark's tracer patches names given as strings), or when a
reached function or class of the physics modules does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "laserfleet"
MODULES = ("orbits", "plume", "formation", "sublimation", "sizing", "deflection")

# The paper's station-keeping: criterion 4 checks its Lyapunov descent, and
# no study runs it. What it calls is reached through it.
ALLOWED = {"simulate_tracking"}


def _named(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    physics = {PACKAGE / f"{module}.py": module for module in MODULES}
    reached = set(ALLOWED)
    bodies = {}  # (module, name) of each top-level function or class: what it names
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path not in physics:
            reached |= _named(tree)
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[physics[path], node.name] = _named(node)
            else:
                reached |= _named(node)

    grown = True
    while grown:
        grown = False
        for (_, name), names in bodies.items():
            if name in reached and not names <= reached:
                reached |= names
                grown = True
    unreached = [f"{module}.{name}" for module, name in sorted(bodies)
                 if not (name.startswith("_") or name in reached)]
    assert unreached == []
