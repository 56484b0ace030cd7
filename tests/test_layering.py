"""The algebra modules stay below the bound engine, and the CLI's
boundary decisions live in one place each.

words, presentations, raag, braids and freeprod hold group algebra only;
certificates and reports are built in tcbounds.bounds on top of them.
An import the other way, even one deferred inside a function, would make
an algebra module depend on the report layer.  The schema string is
written once, and every module's input error is a words.InputError,
the one family the CLI reports with exit 1.

The CLI imports a subcommand's modules only when it dispatches to it, so
a request loads only what it runs; the subprocess tests below pin the
module set of each subcommand.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tcbounds import braids, certificates, freeprod, groupexpr, presentations, raag, words
from tcbounds.cli import main

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


# Input files for the module-set runs; "@name" in a run's arguments stands
# for the path of input "name".
INPUTS = {
    "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "presentation": {"generators": ["a", "b"], "relators": ["a^2 b^4"]},
    "hom": {"presentation": {"generators": ["a", "b"], "relators": ["[a,b]"]},
            "target_generators": ["u"], "images": {"a": "u", "b": ""}},
    "expr": {"kind": "product", "left": {"kind": "bs12"}, "right": {"kind": "free", "rank": 2}},
    "scenario": {"kind": "expr", "expr": {"kind": "surface", "genus": 2}},
}
BRAID = ("bounds", "groupexpr", "raag", "presentations", "freeprod")
PRES = ("bounds", "braids", "groupexpr", "freeprod")
CHD = ("bounds", "braids", "freeprod", "presentations")
TREE = ("bounds", "braids", "groupexpr")
# (arguments, modules that must not load, modules that must)
MODULE_SETS = [
    (["braid", "perm", "--n", "3", "s1 s2"], BRAID, ("braids",)),
    (["braid", "lk", "--n", "3", "s1^2"], BRAID, ("braids",)),
    (["braid", "equal", "--n", "3", "s1 s2 s1", "s2 s1 s2"], BRAID, ("braids",)),
    (["pres", "abel", "@presentation"], PRES, ("presentations",)),
    (["pres", "hom-check", "@hom"], PRES, ("presentations",)),
    (["chd", "@expr"], CHD, ("groupexpr",)),
    (["tree", "ball", "--radius", "2"], TREE, ("freeprod",)),
    (["tree", "verify-lemma", "--k", "1", "--radius", "2"], TREE, ("freeprod",)),
    # only Higman's report reaches freeprod through bounds
    (["raag", "z", "@graph"], ("braids", "freeprod"), ("bounds",)),
    (["raag", "bound", "@graph", "--k1", "1", "--k2", "2,3"], ("braids", "freeprod"), ("bounds",)),
    (["braid", "tc-bound", "--n", "4"], ("freeprod",), ("bounds", "braids")),
    (["tc-report", "--case", "pbn", "4"], ("freeprod",), ("bounds", "braids")),
    (["tc-report", "--case", "borromean"], ("braids", "freeprod"), ("bounds",)),
    (["tc-report", "--case", "raag", "@graph"], ("braids", "freeprod"), ("bounds",)),
    (["tc-report", "@scenario"], ("braids", "freeprod"), ("bounds",)),
    (["tc-report", "--case", "higman"], ("braids",), ("bounds", "freeprod")),
]
# runs cli.main on its arguments, then prints the loaded tcbounds modules
# as the last line of stdout and exits with main's code
PROBE = """\
import json, sys
from tcbounds import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("tcbounds."))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, absent, present", MODULE_SETS,
                         ids=[" ".join(argv) for argv, _, _ in MODULE_SETS])
def test_subcommand_loads_only_its_modules(tmp_path, argv, absent, present):
    for name, doc in INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{arg[1:]}.json") if arg.startswith("@") else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", PROBE, "--json", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("tcbounds.") for m in json.loads(proc.stdout.splitlines()[-1])}
    assert loaded & set(absent) == set()
    assert set(present) <= loaded


SUBCOMMANDS = {
    (): ["raag", "braid", "pres", "chd", "tree", "tc-report"],
    ("raag",): ["z", "bound"],
    ("braid",): ["perm", "lk", "equal", "tc-bound"],
    ("pres",): ["abel", "hom-check"],
    ("tree",): ["ball", "verify-lemma"],
}


@pytest.mark.parametrize("group", SUBCOMMANDS, ids=lambda g: " ".join(("tcbounds",) + g))
def test_help_lists_every_subcommand(capsys, group):
    with pytest.raises(SystemExit) as exc:
        main([*group, "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS[group]) + "}" in capsys.readouterr().out
