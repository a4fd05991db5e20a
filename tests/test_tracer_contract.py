"""The benchmark tracer rebinds library functions by name.

``bench/tracing.py`` wraps each ``(site, attribute)`` of its ``BINDINGS``
with a bare ``getattr`` on ``rankagg.<site>``, and also
``properties.enumerate_rankings``, ``cli.make_rule`` and
``census._VerdictCache``. A rename in the library breaks ``--trace 1``, so
every name must keep resolving. The file is parsed, not imported, so the
check writes nothing under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
