"""The benchmark tracer rebinds library functions by name.

``bench/tracing.py`` wraps each ``(site, attribute)`` of its ``BINDINGS``
with a bare ``getattr`` on ``rankagg.<site>``, and also
``properties.enumerate_rankings``, ``cli.make_rule`` and
``census._VerdictCache``. A rename in the library breaks ``--trace 1``, so
every name must keep resolving. The file is parsed, not imported, so the
check writes nothing under ``bench/``.

A library module keeps a relative import that it never uses only so that
the tracer can rebind it there. Each such import must therefore be a
``BINDINGS`` entry; once the entry goes, the check names the import to
delete.

A binding whose name its site module never uses traces nothing: its metric
reads 0. The set of such tracer-only bindings is pinned, so a new one fails
the check and the list of entries to drop stays exact.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
LIBRARY = ROOT / "src" / "rankagg"
PATCHED = (
    ("properties", "enumerate_rankings"),
    ("cli", "make_rule"),
    ("census", "_VerdictCache"),
)


def _bindings():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("BINDINGS not found in bench/tracing.py")


def test_every_traced_name_resolves():
    bindings = _bindings()
    assert bindings
    names = [(site, attr) for site, attr, _ in bindings] + list(PATCHED)
    missing = [
        f"{site}.{attr}"
        for site, attr in names
        if not hasattr(importlib.import_module(f"rankagg.{site}"), attr)
    ]
    assert missing == []


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused_relative_imports(path):
    """Names a module imports relatively at module level and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    used = _used_names(tree)
    return [name for local, name in imported.items() if local not in used]


def test_every_unused_import_is_a_traced_name():
    traced = {(site, attr) for site, attr, _ in _bindings()}
    stale = [
        f"{path.stem}.{name}"
        for path in sorted(LIBRARY.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_relative_imports(path)
        if (path.stem, name) not in traced
    ]
    assert stale == []


def test_tracer_only_bindings_are_exactly_the_known_ones():
    used = {
        path.stem: _used_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in LIBRARY.glob("*.py")
    }
    tracer_only = {
        f"{site}.{attr}" for site, attr, _ in _bindings() if attr not in used[site]
    }
    assert tracer_only == {
        "aggregators.is_acyclic",
        "aggregators.linear_extension",
        "properties.aggregate_unanimity",
        "properties.aggregate_delegation",
        "conditions.check_spanning_cycle_free",
    }
