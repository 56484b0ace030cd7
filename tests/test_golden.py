"""Golden reports: the stdout of fixed CLI runs, byte for byte.

Each run goes through ``tcbounds.cli.main`` in-process and its stdout is
compared with a file in ``tests/golden``: ``<name>.json`` for the runs
in RUNS, which get ``--json``, and ``<name>.txt`` for the runs in
TEXT_RUNS, which do not.  After an intended change to a report,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

from tcbounds.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# Input files, written to a temporary directory; "@name" in a run's
# arguments stands for the path of input "name".
INPUTS = {
    "graph": {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3]]},
    "presentation": {"generators": ["a", "b", "c"],
                     "relators": ["a^4 b^2", "a^2 b^6 c^3", "[a,b]"]},
    # Smith reduction of this one repivots on a remainder and then folds a
    # trailing entry the pivot does not divide
    "fold-presentation": {"generators": ["a", "b", "c"], "relators": ["a^6 b^4", "c^9"]},
    "hom": {
        "presentation": {"generators": ["a", "b", "c"],
                         "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"]},
        "target_generators": ["u", "v"],
        "images": {"a": "u", "b": "v", "c": ""},
    },
    "expr": {"kind": "product",
             "left": {"kind": "bs12"},
             "right": {"kind": "raag", "n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}},
}

RUNS = {
    "tc-report-borromean": ["tc-report", "--case", "borromean"],
    "tc-report-higman": ["tc-report", "--case", "higman"],
    "tc-report-pbn-4": ["tc-report", "--case", "pbn", "4"],
    "raag-z": ["raag", "z", "@graph"],
    "raag-bound": ["raag", "bound", "@graph", "--k1", "4,5", "--k2", "1,2,3"],
    "braid-tc-bound-5": ["braid", "tc-bound", "--n", "5"],
    "braid-equal": ["braid", "equal", "--n", "4", "s1 s2 s1 s3^-1", "s2 s1 s2 s3^-1"],
    "braid-perm": ["braid", "perm", "--n", "4", "s1 s2^-1 s3 s1"],
    "braid-lk": ["braid", "lk", "--n", "3", "s1^2 s2^-2 s1^2"],
    "pres-abel": ["pres", "abel", "@presentation"],
    "pres-abel-fold": ["pres", "abel", "@fold-presentation"],
    "pres-hom-check": ["pres", "hom-check", "@hom"],
    "chd": ["chd", "@expr"],
    "tree-ball": ["tree", "ball", "--radius", "3", "--cap", "2", "--kind", "free_abelian"],
    "tree-verify-lemma": ["tree", "verify-lemma", "--k", "2", "--radius", "5"],
    # the benchmark's tree-lemma request
    "tree-verify-lemma-defaults": ["tree", "verify-lemma", "--k", "3", "--cap", "2",
                                   "--radius", "10"],
}

# Runs without --json: the text render and the DOT output
TEXT_RUNS = {
    "tc-report-borromean-text": ["tc-report", "--case", "borromean"],
    "tree-ball-dot": ["tree", "ball", "--radius", "1", "--cap", "1", "--dot"],
}


def golden_file(name: str) -> Path:
    return GOLDEN_DIR / (f"{name}.txt" if name in TEXT_RUNS else f"{name}.json")


def run_golden(name: str, input_dir: Path) -> int:
    """Exit code of one golden run; its output goes to stdout."""
    for key, doc in INPUTS.items():
        (input_dir / f"{key}.json").write_text(json.dumps(doc))
    argv = TEXT_RUNS[name] if name in TEXT_RUNS else ["--json", *RUNS[name]]
    return main([str(input_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv])


@pytest.mark.parametrize("name", sorted(RUNS.keys() | TEXT_RUNS.keys()))
def test_golden_report(name, tmp_path, capsys):
    code = run_golden(name, tmp_path)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == golden_file(name).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS.keys() | TEXT_RUNS.keys()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run_golden(name, Path(tmp))
            if code != EXIT_OK:
                sys.exit(f"{name}: exit {code}")
            golden_file(name).write_text(buf.getvalue())
            print(f"wrote {golden_file(name).name}")
