"""Every public name of ``rmtlab`` has a caller, or an open ROADMAP item that will call it.

A name in a module's ``__all__`` passes when ``src/rmtlab/*.py`` references
it outside its own definition and the ``__all__`` lists, or when a demo
references it.  A reference is an identifier in the code (a name, an
attribute or an imported name), not a mention in a docstring or comment.
The few names that wait for a caller sit in ``AWAITING`` with the item that
will call them; an entry that gains a caller, or whose name is gone, fails
too, so the table cannot go stale.  Tests and ``perfbench`` are not
callers: a formula only tests read belongs in ``tests/reference.py``.
"""

import ast
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


def _statements(path: Path) -> list:
    """(bound names, referenced names) of each top-level statement of a file but its ``__all__``."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    return [(_bound(stmt), _referenced(stmt)) for stmt in body if "__all__" not in _bound(stmt)]


def _public_names(path: Path) -> list:
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(stmt, ast.Assign) and "__all__" in _bound(stmt):
            return ast.literal_eval(stmt.value)
    return []


def _uncalled(src: Path, demos: Path) -> set:
    """module.name of each public name in ``src`` that no code there (outside its definition) or demo references."""
    modules = {path.stem: _statements(path) for path in sorted(src.glob("*.py"))}
    in_demos = set().union(*(refs for path in demos.glob("*.py") for _, refs in _statements(path)))
    uncalled = set()
    for path in sorted(src.glob("*.py")):
        for name in _public_names(path):
            called = name in in_demos or any(
                name in refs
                for module, statements in modules.items()
                for bound, refs in statements
                if not (module == path.stem and name in bound)
            )
            if not called:
                uncalled.add(f"{path.stem}.{name}")
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
