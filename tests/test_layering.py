"""The algebra modules stay below the bound engine, and the CLI's
boundary decisions live in one place each.

words, presentations, raag, braids and freeprod hold group algebra only;
certificates and reports are built in tcbounds.bounds on top of them.
An import the other way, even one deferred inside a function, would make
an algebra module depend on the report layer.  The schema string is
written once.  src/ defines three exception classes, one per failure exit
code, and every module raises words.InputError for malformed input, the
one class the CLI reports with exit 1.  Records only store their fields,
except the few that check what the engine computed.

The CLI imports a subcommand's modules only when it dispatches to it, so
a request loads only what it runs; the subprocess tests below pin the
module set of each subcommand.  Records derive from words.Record, so no
command line loads dataclasses, or the inspect module it imports.
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
    # main stamps words.SCHEMA on every document it writes
    hits = [path.name for path in SRC.glob("*.py")
            for line in path.read_text().splitlines() if "tcbounds/1" in line]
    assert hits == ["words.py"]


# the exception classes of src/: malformed input (exit 1), a failed check
# (exit 2) and a size cap (exit 3)
ERROR_CLASSES = {"InputError", "CertificateError", "ResourceCapError"}
# the builtins a raise in src/ may name, for a misuse of the API or a
# broken invariant, and argparse's error for a bad flag value
BUILTIN_RAISES = {"IndexError", "TypeError", "AttributeError", "AssertionError",
                  "NotImplementedError", "ArgumentTypeError"}


def test_src_has_one_input_error_class():
    # a per-module subclass of InputError, or a raise of another class, fails here
    defined, raised = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases):
                defined.add(node.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rpartition(".")[2])
    assert defined == ERROR_CLASSES
    # a Fields object words its errors through its problem method
    assert raised - {"problem"} <= ERROR_CLASSES | BUILTIN_RAISES
    assert type(words.Fields({}, "", None).problem("x")) is words.InputError


# each module that once had its own InputError subclass, named by that
# class, with one malformed input it refuses
FORMER_SUBCLASSES = {
    "WordError": (words, lambda: words.parse_word("c", ("a", "b"))),
    "PresentationError": (presentations,
                          lambda: presentations.Presentation.from_strings(["x"], ["x x^-1"])),
    "GraphError": (raag, lambda: raag.SimpleGraph.from_edges(3, [(2, 2)])),
    "ExprError": (groupexpr, lambda: groupexpr.expr_from_json({"kind": "dihedral"})),
    "BraidError": (braids, lambda: braids.parse_braid("t1", 4)),
    "FreeProductError": (freeprod, lambda: freeprod.TreeBall(
        (freeprod.Factor("cyclic", 3), freeprod.Factor("free", 1)), 1, 1)),
}


@pytest.mark.parametrize("name", sorted(FORMER_SUBCLASSES))
def test_input_errors_share_one_family(name):
    # the CLI maps exactly this class to exit 1; the module raises it, not a subclass
    module, refuse = FORMER_SUBCLASSES[name]
    assert not hasattr(module, name)
    with pytest.raises(words.InputError) as exc:
        refuse()
    assert type(exc.value) is words.InputError


@pytest.mark.parametrize("error", [words.ResourceCapError, certificates.CertificateError],
                         ids=lambda e: e.__name__)
def test_cap_and_certificate_errors_are_not_input_errors(error):
    # they exit 3 and 2, not 1
    assert not issubclass(error, words.InputError)


def test_records_that_check_on_construction():
    # every other record only stores its fields: outside input is checked
    # once, by the parser that reads it.  These check values the engine
    # computed (BoundReport, Evaluation, AbelianInvariants); no record runs a
    # certificate step (FreeHom's check_hom runs in the split-extension
    # verifier).  The tree flags are checked by TreeBall and
    # verify_tree_lemma, which are not records.
    checking = {node.name for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                        for item in node.body)}
    assert checking == {"BoundReport", "Evaluation", "AbelianInvariants"}


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
BRAID = ("bounds", "certificates", "groupexpr", "raag", "presentations", "freeprod")
PRES = ("bounds", "certificates", "braids", "groupexpr", "freeprod")
CHD = ("bounds", "certificates", "braids", "freeprod", "presentations")
TREE = ("bounds", "certificates", "braids", "groupexpr")
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
    (["braid", "tc-bound", "--n", "4"], ("freeprod", "presentations", "raag"), ("bounds", "braids")),
    (["tc-report", "--case", "pbn", "4"], ("freeprod", "presentations", "raag"), ("bounds", "braids")),
    (["tc-report", "--case", "borromean"], ("braids", "freeprod", "raag"), ("bounds",)),
    (["tc-report", "--case", "raag", "@graph"], ("braids", "freeprod"), ("bounds",)),
    (["tc-report", "@scenario"], ("braids", "freeprod"), ("bounds",)),
    (["tc-report", "--case", "higman"], ("braids",), ("bounds", "freeprod")),
]
# standard-library modules no command line loads, unless the interpreter
# alone (importing json and sys, as the probe does) already has
STDLIB_ABSENT = ("dataclasses", "inspect")
# runs cli.main on its arguments, then prints the loaded tcbounds modules
# and the loaded modules of STDLIB_ABSENT as the last line of stdout and
# exits with main's code
PROBE = f"""\
import json, sys
from tcbounds import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("tcbounds.") or m in {STDLIB_ABSENT})))
sys.exit(code)
"""
BARE = f"import json, sys; print(json.dumps([m for m in {STDLIB_ABSENT} if m in sys.modules]))"


@pytest.fixture(scope="module")
def env():
    return dict(os.environ, PYTHONPATH=str(SRC.parent))


@pytest.fixture(scope="module")
def bare_stdlib(env):
    """The modules of STDLIB_ABSENT that a bare interpreter loads by itself."""
    proc = subprocess.run([sys.executable, "-c", BARE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, absent, present", MODULE_SETS,
                         ids=[" ".join(argv) for argv, _, _ in MODULE_SETS])
def test_subcommand_loads_only_its_modules(tmp_path, env, bare_stdlib, argv, absent, present):
    for name, doc in INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{arg[1:]}.json") if arg.startswith("@") else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, "--json", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("tcbounds.") for m in json.loads(proc.stdout.splitlines()[-1])}
    assert loaded & set(absent) == set()
    assert set(present) <= loaded
    assert loaded & set(STDLIB_ABSENT) <= bare_stdlib


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
