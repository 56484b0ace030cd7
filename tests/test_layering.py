"""The algebra modules stay below the bound engine, and the CLI's
boundary decisions live in one place each.

words, presentations, raag, braids and freeprod hold group algebra only;
certificates and reports are built in tcbounds.bounds on top of them.
An import the other way, even one deferred inside a function, would make
an algebra module depend on the report layer.  The schema string is
written once, and every module's input error is a words.InputError,
the one family the CLI reports with exit 1.
"""

import ast
from pathlib import Path

import pytest

from tcbounds import braids, certificates, freeprod, groupexpr, presentations, raag, words

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


def test_schema_is_written_once():
    # main stamps certificates.SCHEMA on every document it writes
    hits = [path.name for path in SRC.glob("*.py")
            for line in path.read_text().splitlines() if "tcbounds/1" in line]
    assert hits == ["certificates.py"]


INPUT_ERRORS = [words.WordError, presentations.PresentationError, raag.GraphError,
                groupexpr.ExprError, braids.BraidError, freeprod.FreeProductError]


@pytest.mark.parametrize("error", INPUT_ERRORS, ids=lambda e: e.__name__)
def test_input_errors_share_one_family(error):
    # the CLI maps exactly this family to exit 1
    assert issubclass(error, words.InputError)


@pytest.mark.parametrize("error", [words.ResourceCapError, certificates.CertificateError],
                         ids=lambda e: e.__name__)
def test_cap_and_certificate_errors_are_not_input_errors(error):
    # they exit 3 and 2, not 1
    assert not issubclass(error, words.InputError)
