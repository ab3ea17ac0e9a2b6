"""The names of vbsprep that nothing in the package uses are exactly the pinned ones."""
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


def _guarded(name: str, module_level: bool) -> bool:
    """Every public name, and every private one (a leading `_`, not a dunder) at module level."""
    return not name.startswith("_") or module_level and not name.startswith("__")


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    """Functions, classes, methods and module-level constants alike: a name a move leaves behind fails here.

    A module-level private name counts too, so a helper that only tests call fails as a public one does.
    """
    defined, used = set(), set()
    for path in pathlib.Path(vbsprep.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and _guarded(item.name, item is node):
                    defined.add(item.name)
            defined.update(name for name in _assigned(node) if _guarded(name, True))
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


# (module, function, parameter): a default no call in the package passes, kept on purpose
UNPASSED_DEFAULTS = {("cli", "main", "argv")}  # the console script calls main() and argparse reads sys.argv


def _calls(tree) -> list[tuple[str, ast.Call]]:
    """(callee name, call) of every call in a module; `cls(...)` inside a class's body names that class."""
    found = []

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name is not None:
                    found.append((cls_name if name == "cls" and cls_name else name, child))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)

    visit(tree, None)
    return found


def test_every_default_is_passed_by_some_call_in_the_package():
    """A parameter with a default that no call passes has one value in use: it is an option nothing takes.

    A call counts for every function or method of its name.  A public class's `__init__` is called by the
    class's name (a classmethod's `cls(...)` included); `*args` passes every positional parameter and
    `**kwargs` every keyword.  A parameter always passed the same value is not caught here.
    """
    defaults, passed = [], {}
    for path in sorted(pathlib.Path(vbsprep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = [(item, node) for item in node.body] if isinstance(node, ast.ClassDef) else [(node, None)]
            for item, cls in members:
                if not isinstance(item, ast.FunctionDef) or cls is not None and cls.name.startswith("_"):
                    continue
                name = cls.name if cls is not None and item.name == "__init__" else item.name
                if name.startswith("_"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                positional = [*item.args.posonlyargs, *item.args.args][(cls is not None and not static):]
                for i, arg in enumerate(positional[len(positional) - len(item.args.defaults):],
                                        len(positional) - len(item.args.defaults)):
                    defaults.append((path.stem, name, arg.arg, i))
                for arg, default in zip(item.args.kwonlyargs, item.args.kw_defaults):
                    if default is not None:
                        defaults.append((path.stem, name, arg.arg, None))
        for name, call in _calls(tree):
            seen = passed.setdefault(name, set())
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            seen.update(["*"] if starred else range(len(call.args)))
            seen.update("**" if k.arg is None else k.arg for k in call.keywords)
    # a keyword-only parameter (index None) is passed only by name or through **kwargs
    ways = {(module, name, arg): {arg, "**"} | ({"*", index} if index is not None else set())
            for module, name, arg, index in defaults}
    unpassed = {key for key, keys in ways.items() if not passed.get(key[1], set()) & keys}
    assert unpassed == UNPASSED_DEFAULTS
