"""The benchmark's traced runner still installs on the engine.

bench/traced_cli.py wraps engine functions and constructors by name, so
deleting or bypassing one of them breaks traced benchmark runs.  These
tests run it the way the benchmark does, in a subprocess, and read the
spans and counters it writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


def traced(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "req", "--json", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(spans.read_text())


def test_tree_lemma_walks_exponents(tmp_path):
    report, doc = traced(tmp_path, "tree", "verify-lemma", "--k", "1", "--cap", "1",
                         "--radius", "2")
    # the lemma walks exponent index paths: no FPWord, one BFS from each end of the base edge
    assert "freeprod.fpword" not in doc["summary"]
    assert doc["summary"]["freeprod.distance_map"]["count"] == 2
    assert report["words_checked"] == 4


def test_raag_z_counts_derived_words(tmp_path):
    graph = tmp_path / "path3.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    _, doc = traced(tmp_path, "raag", "z", str(graph))
    # raag_presentation builds one word for each of the two commuting relators
    assert doc["counters"]["words.word.constructed"] == 2


def test_braid_equal_counts_every_image_word(tmp_path):
    report, doc = traced(tmp_path, "braid", "equal", "--n", "3", "s1 s2 s1", "s2 s1 s2")
    assert report["equal"] is True
    # free_group_action builds the n image words of each of the two braids
    assert doc["counters"]["words.word.constructed"] == 6
