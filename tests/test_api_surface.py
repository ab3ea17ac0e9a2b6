"""The public names of vbsprep that nothing in the package uses are exactly the pinned ones."""
import ast
import pathlib

import vbsprep

# name -> why it stays although only tests call it
ALLOWED = {
    "mitigated_retry_circuit": "kept for ROADMAP item 2 (qubit liveness)",
    "contract_mps": "kept for ROADMAP item 4 (the MPS backend against the dense one)",
}


def _assigned(node) -> list[str]:
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    """Functions, classes, methods and module-level constants alike: a name a move leaves behind fails here."""
    defined, used = set(), set()
    for path in pathlib.Path(vbsprep.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    defined.add(item.name)
            defined.update(name for name in _assigned(node) if not name.startswith("_"))
        for node in ast.walk(tree):  # a name is used where code reads it: strings, comments and assignments do not count
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined - used == set(ALLOWED)


def test_no_module_state_is_rebound_at_run_time():
    """No function of vbsprep rebinds a module name: module state is set once, as the module loads."""
    found = []
    for path in sorted(pathlib.Path(vbsprep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
    assert found == []
