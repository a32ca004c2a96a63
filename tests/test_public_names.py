"""Every public name of the package is part of the pipeline.

A name stays in a module's ``__all__`` only if it is defined there and code
in ``src/patchscape`` other than its own definition uses it: a pipeline
stage, a CLI command, or another public name. Tests alone do not keep a
name alive; a test-only reference belongs in ``tests/_oracles.py``.
"""

import ast
from pathlib import Path

import patchscape

SRC = Path(patchscape.__file__).parent

# closest_point_exact has no caller in the package: it is the one-row entry
# to the residual kernel that the benchmark traces by name, and the tests
# check it, point by point, against the companion-matrix oracle in
# tests/_oracles.py.
# rxy_from_r has none either: perfbench/workloads.py imports it to rebuild
# the 5-DoF pose of a revolute record from its full rotation vector, while
# the package reduces its frames through pose.jac_rxy_of. These are the
# only exceptions: any other name that loses its last package caller goes,
# together with the tests that exercised it.
ALLOWED_UNREFERENCED = {"closest_point_exact", "rxy_from_r"}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _used_names(node):
    """Names loaded in node, bare or as an attribute of a module alias."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreferenced():
    """(undefined, unused) public names as "module.name" strings.

    A name counts as used when some top-level statement other than its own
    definition loads it, and that statement does not define a name already
    found unused: a helper whose only caller is dead code is dead too.
    """
    modules = _modules()
    nodes = [
        (mod, _defined_names(node), _used_names(node))
        for mod, tree in modules.items()
        for node in tree.body
    ]
    undefined, public = [], []
    for mod, tree in modules.items():
        defined = set().union(*(_defined_names(n) for n in tree.body))
        for name in _public_names(tree):
            (public if name in defined else undefined).append((mod, name))
    dead = set()
    while True:
        found = {
            (mod, name)
            for mod, name in public
            if (mod, name) not in dead
            and name not in ALLOWED_UNREFERENCED
            and not any(
                name in used
                and not (other == mod and name in defs)
                and not any((other, d) in dead for d in defs)
                for other, defs, used in nodes
            )
        }
        if not found:
            break
        dead |= found
    unused = [f"{mod}.{name}" for mod, name in public if (mod, name) in dead]
    return [f"{mod}.{name}" for mod, name in undefined], unused


def test_every_public_name_is_defined_and_used_by_the_package():
    undefined, unused = _unreferenced()
    assert undefined == [], f"__all__ entries not defined in their module: {undefined}"
    assert unused == [], f"public names no package code uses: {unused}"
