"""Every public name of ``rmtlab`` has a caller, or an open ROADMAP item that will call it.

A name in a module's ``__all__`` passes when ``src/rmtlab/*.py`` references
it outside its own definition and the ``__all__`` lists, or when a demo
references it.  So does each public method or property of a class in
``__all__`` (``module.Class.name``), referenced by its name outside its own
definition.  A reference is an identifier in the code (a name, an
attribute or an imported name), not a mention in a docstring or comment.
The few names that wait for a caller sit in ``AWAITING`` with the item that
will call them; an entry that gains a caller, or whose name is gone, fails
too, so the table cannot go stale.  Tests and ``perfbench`` are not
callers: a formula only tests read belongs in ``tests/reference.py``.
"""

import ast
import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: module.name -> the open ROADMAP item that will give it a caller in src/
AWAITING = {
    "concentration.hermitize_split": 6,
    "concentration.psd_split": 6,
    "concentration.dyadic_weight_partition": 6,
    "ensembles.truncation_stats": 10,
    "concentration.optimal_K_subexp": 10,
    "spectral.stieltjes_sc": 11,
    "spectral.stieltjes_mp": 11,
}


def _bound(stmt) -> set:
    """The names a top-level statement binds in its module."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0] for alias in stmt.names}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _referenced(stmt) -> set:
    """The identifiers a statement's code references: names, attributes and imported names and modules."""
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
            found.update((getattr(node, "module", None) or "").split("."))
    return found


def _methods(stmt) -> list:
    """The methods (properties too) a class statement defines."""
    return [node for node in stmt.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _statements(path: Path) -> list:
    """(bound names, referenced names) of each top-level statement of a file but its ``__all__``.

    A class is split in two kinds of parts, each binding the class name: the class without its methods,
    and each method, which binds ``Class.method`` too.  So a method's own body is not its caller.
    """
    parts = []
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        bound = _bound(stmt)
        if "__all__" in bound:
            continue
        if isinstance(stmt, ast.ClassDef):
            methods = _methods(stmt)
            parts += [(bound | {f"{stmt.name}.{method.name}"}, _referenced(method)) for method in methods]
            stmt = copy.copy(stmt)
            stmt.body = [node for node in stmt.body if node not in methods]
        parts.append((bound, _referenced(stmt)))
    return parts


def _public_names(path: Path) -> list:
    """The module's ``__all__``, then ``Class.name`` for each public method or property of a class in it."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    names = next((ast.literal_eval(s.value) for s in body if isinstance(s, ast.Assign) and "__all__" in _bound(s)), [])
    classes = [stmt for stmt in body if isinstance(stmt, ast.ClassDef) and stmt.name in names]
    members = [f"{c.name}.{m.name}" for c in classes for m in _methods(c) if not m.name.startswith("_")]
    return names + members


def _uncalled(src: Path, demos: Path) -> set:
    """module.name of each public name in ``src`` that no code there (outside its definition) or demo references.

    A member ``Class.name`` is referenced by its name alone, as an attribute mostly.
    """
    modules = {path.stem: _statements(path) for path in sorted(src.glob("*.py"))}
    in_demos = set().union(*(refs for path in demos.glob("*.py") for _, refs in _statements(path)))
    uncalled = set()
    for path in sorted(src.glob("*.py")):
        for qualified in _public_names(path):
            name = qualified.rpartition(".")[2]
            called = name in in_demos or any(
                name in refs
                for module, statements in modules.items()
                for bound, refs in statements
                if not (module == path.stem and qualified in bound)
            )
            if not called:
                uncalled.add(f"{path.stem}.{qualified}")
    return uncalled


def test_every_public_name_has_a_caller_or_an_open_item():
    uncalled = _uncalled(ROOT / "src" / "rmtlab", ROOT / "demos")
    orphans = sorted(uncalled - AWAITING.keys())
    assert not orphans, f"public names that no src/ code, demo or open item calls: {orphans}"
    stale = sorted(AWAITING.keys() - uncalled)
    assert not stale, f"AWAITING entries that have a caller or are no longer public: {stale}"


def test_the_rule_reads_code_not_docstrings(tmp_path):
    # a docstring mention and a self-reference are not callers; a call from another statement or a demo is
    module = '''
"""Mentions helper and unused."""


def unused():
    """Calls helper, in words only."""
    return unused


def helper():
    return 1


def caller():
    return helper()


__all__ = ["caller", "helper", "unused", "shown"]


def shown():
    pass
'''
    (tmp_path / "src").mkdir()
    (tmp_path / "demos").mkdir()
    (tmp_path / "src" / "module.py").write_text(module)
    (tmp_path / "demos" / "demo.py").write_text("from module import shown\n\nshown()\n")
    assert _uncalled(tmp_path / "src", tmp_path / "demos") == {"module.caller", "module.unused"}


def test_the_rule_covers_methods_of_public_classes(tmp_path):
    # a public method or property needs a caller outside its own body; a private one and a private class do not
    module = '''
class Public:
    def used(self):
        return self.recursive

    def recursive(self):
        return self.recursive()

    @property
    def shown(self):
        return 1

    def _private(self):
        return 2


class _Hidden:
    def orphan(self):
        return 3


def caller():
    return Public().used()


__all__ = ["Public"]
'''
    (tmp_path / "src").mkdir()
    (tmp_path / "demos").mkdir()
    (tmp_path / "src" / "module.py").write_text(module)
    (tmp_path / "demos" / "demo.py").write_text("from module import Public\n\nprint(Public().shown)\n")
    assert _uncalled(tmp_path / "src", tmp_path / "demos") == set()
    (tmp_path / "demos" / "demo.py").write_text("")
    assert _uncalled(tmp_path / "src", tmp_path / "demos") == {"module.Public.shown"}
    (tmp_path / "src" / "module.py").write_text(module.replace("return self.recursive\n", "return 0\n"))
    assert _uncalled(tmp_path / "src", tmp_path / "demos") == {"module.Public.shown", "module.Public.recursive"}
