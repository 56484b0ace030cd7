"""The algebra modules stay below the bound engine.

words, presentations, raag, braids and freeprod hold group algebra only;
certificates and reports are built in tcbounds.bounds on top of them.
An import the other way, even one deferred inside a function, would make
an algebra module depend on the report layer.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "tcbounds"
ALGEBRA = ("words", "presentations", "raag", "braids", "freeprod")
REPORT_LAYER = {"bounds", "certificates", "groupexpr"}


def imported_modules(module: str) -> set[str]:
    """Last components of every tcbounds module imported anywhere in a file,
    function bodies included."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "tcbounds"):  # from . import x, y
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rpartition(".")[2])
    return found


@pytest.mark.parametrize("module", ALGEBRA)
def test_algebra_does_not_import_report_layer(module):
    assert imported_modules(module) & REPORT_LAYER == set()
