import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import tcbounds
from tcbounds.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "path3.json"
    f.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_bad_file(capsys, tmp_path, doc, *argv):
    """Run a subcommand on a JSON file and expect a one-line usage error."""
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(f))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {f}: ")
    return err


DATA_LIMIT = 400 * 2**20  # bytes of RLIMIT_DATA for the CLI subprocesses below


def run_limited(*argv):
    """Run the CLI in a subprocess with at most DATA_LIMIT bytes of data."""
    env = dict(os.environ, PYTHONPATH=str(Path(tcbounds.__file__).parents[1]))

    def limit():
        resource.setrlimit(resource.RLIMIT_DATA, (DATA_LIMIT, DATA_LIMIT))

    return subprocess.run([sys.executable, "-m", "tcbounds.cli", *argv], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=300)


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestRaag:
    def test_z(self, capsys, path3_file):
        doc = run_json(capsys, "raag", "z", path3_file)
        assert doc["z"] == 3
        assert doc["witness"] == {"k1": [1, 2], "k2": [2, 3]}
        assert doc["report"]["tc_lower"] == 3

    def test_bound(self, capsys, path3_file):
        doc = run_json(capsys, "raag", "bound", path3_file, "--k1", "1", "--k2", "2,3")
        assert doc["tc_lower_bound"] == 3
        assert doc["certificate"]["variant"] == "retraction"

    def test_bad_clique_exits_usage(self, capsys, path3_file):
        code, _, err = run(capsys, "raag", "bound", path3_file,
                           "--k1", "1,3", "--k2", "2")
        assert code == EXIT_USAGE
        assert "clique" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "raag", "z", "/nonexistent.json")
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "raag", "z", str(f))
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_vertex_count_not_an_integer(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"n": "abc", "edges": []}, "raag", "z")
        assert "n: expected an integer, got 'abc'" in err

    def test_edge_not_a_pair(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"n": 3, "edges": [[1]]}, "raag", "z")
        assert "edges: edge 1 must be a pair of vertices" in err


class TestBraid:
    def test_perm(self, capsys):
        doc = run_json(capsys, "braid", "perm", "--n", "4", "s1 s2")
        assert doc["permutation"] == [2, 3, 1, 4]
        assert doc["pure"] is False

    def test_lk(self, capsys):
        doc = run_json(capsys, "braid", "lk", "--n", "4", "s1^2")
        assert doc["linking_matrix"][0][1] == 1

    def test_lk_rejects_non_pure(self, capsys):
        code, _, err = run(capsys, "braid", "lk", "--n", "3", "s1")
        assert code == EXIT_USAGE
        assert "pure" in err

    def test_equal(self, capsys):
        doc = run_json(capsys, "braid", "equal", "--n", "3",
                       "s1 s2 s1", "s2 s1 s2")
        assert doc["equal"] is True

    def test_word_cap_exit(self, capsys):
        code, _, err = run(capsys, "--max-word", "8", "braid", "equal",
                           "--n", "3", "s1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1", "s1")
        assert code == EXIT_RESOURCE
        assert "cap" in err

    def test_tc_bound(self, capsys):
        doc = run_json(capsys, "braid", "tc-bound", "--n", "5")
        assert doc["tc_lower_bound"] == 7
        assert doc["report"]["tc_lower"] == 7

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "braid", "perm", "--n", "3", "q7")
        assert code == EXIT_USAGE


class TestPres:
    def test_abel(self, capsys, tmp_path):
        f = tmp_path / "bs.json"
        f.write_text(json.dumps({
            "generators": ["x", "y"],
            "relators": ["x y x^-1 y^-2"],
        }))
        doc = run_json(capsys, "pres", "abel", str(f))
        assert doc["free_rank"] == 1
        assert doc["generator_images"]["y"] == [0]

    def test_relator_not_a_string(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"generators": ["x"], "relators": [5]},
                           "pres", "abel")
        assert "relators: entry 1 must be a string, got 5" in err

    def test_hom_check_ok(self, capsys, tmp_path):
        f = tmp_path / "hom.json"
        f.write_text(json.dumps({
            "presentation": {
                "generators": ["a", "b", "c"],
                "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"],
            },
            "target_generators": ["u", "v"],
            "images": {"a": "u", "b": "v", "c": ""},
        }))
        doc = run_json(capsys, "pres", "hom-check", str(f))
        assert doc["well_defined"] is True

    def test_hom_check_failure_exit(self, capsys, tmp_path):
        f = tmp_path / "hom.json"
        f.write_text(json.dumps({
            "presentation": {
                "generators": ["a", "b", "c"],
                "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"],
            },
            "target_generators": ["u", "v"],
            "images": {"a": "u", "b": "v", "c": "u"},
        }))
        code, out, _ = run(capsys, "--json", "pres", "hom-check", str(f))
        assert code == EXIT_VERIFICATION
        doc = json.loads(out)
        assert doc["well_defined"] is False
        assert doc["failing_relator"]


class TestChd:
    def test_product(self, capsys, tmp_path):
        f = tmp_path / "expr.json"
        f.write_text(json.dumps({
            "kind": "product",
            "left": {"kind": "bs12"},
            "right": {"kind": "bs12"},
        }))
        doc = run_json(capsys, "chd", str(f))
        assert doc["chd_lower"] == doc["chd_upper"] == 4
        assert doc["exact"] is True
        assert doc["trace"]

    def test_unknown_kind(self, capsys, tmp_path):
        f = tmp_path / "expr.json"
        f.write_text(json.dumps({"kind": "quaternion"}))
        code, _, err = run(capsys, "chd", str(f))
        assert code == EXIT_USAGE


class TestTree:
    def test_ball(self, capsys):
        doc = run_json(capsys, "tree", "ball", "--radius", "2", "--cap", "1",
                       "--kind", "free_abelian")
        assert doc["vertices"] == 14
        assert doc["acyclic"] is True

    def test_ball_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "ball", "--radius", "1", "--cap", "1",
                           "--kind", "free_abelian", "--dot")
        assert code == EXIT_OK
        assert out.startswith("graph treeball {")

    def test_ball_resource_cap(self, capsys):
        code, _, err = run(capsys, "--max-ball", "50", "tree", "ball",
                           "--radius", "6", "--cap", "2")
        assert code == EXIT_RESOURCE

    def test_verify_lemma(self, capsys):
        doc = run_json(capsys, "tree", "verify-lemma", "--k", "2",
                       "--cap", "2", "--radius", "6")
        assert doc["verified"] is True
        assert doc["words_checked"] == 16 + 256
        assert doc["failures"] == []

    def test_verify_lemma_radius_too_small(self, capsys):
        # the deepest checked vertex gw sits at depth 2k - 1 = 5
        code, _, err = run(capsys, "tree", "verify-lemma", "--k", "3", "--radius", "4")
        assert code == EXIT_USAGE
        assert err.count("\n") == 1
        assert "--radius 4" in err and "--k 3" in err

    def test_verify_lemma_defaults_fit_data_limit(self):
        proc = run_limited("--json", "tree", "verify-lemma")
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["words_checked"] == 4368
        assert doc["verified"] is True

    def test_verify_lemma_oversized_ball_refused_up_front(self):
        # about 2 * 4^40 vertices: refused by the size check before any
        # allocation, so the data limit is never reached
        proc = run_limited("--json", "tree", "verify-lemma", "--radius", "40")
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "exceeds" in proc.stderr


class TestTcReport:
    def test_case_borromean(self, capsys):
        doc = run_json(capsys, "tc-report", "--case", "borromean")
        assert (doc["tc_lower"], doc["tc_upper"]) == (3, 4)

    def test_case_higman(self, capsys):
        doc = run_json(capsys, "tc-report", "--case", "higman")
        assert (doc["tc_lower"], doc["tc_upper"]) == (4, 4)
        assert doc["exact"] is True

    def test_case_pbn(self, capsys):
        doc = run_json(capsys, "tc-report", "--case", "pbn", "4")
        assert doc["tc_lower"] == 5

    def test_case_pbn_missing_arg(self, capsys):
        code, _, err = run(capsys, "tc-report", "--case", "pbn")
        assert code == EXIT_USAGE

    def test_case_raag_file(self, capsys, path3_file):
        doc = run_json(capsys, "tc-report", "--case", "raag", path3_file)
        assert doc["tc_lower"] == 3

    def test_scenario_expr(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({
            "kind": "expr",
            "expr": {"kind": "surface", "genus": 2},
        }))
        doc = run_json(capsys, "tc-report", str(f))
        assert (doc["tc_lower"], doc["tc_upper"]) == (2, 4)

    def test_scenario_unknown_kind(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"kind": "coxeter"}))
        code, _, err = run(capsys, "tc-report", str(f))
        assert code == EXIT_USAGE
        assert "unknown scenario kind" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "tc-report")
        assert code == EXIT_USAGE


class TestOutputDiscipline:
    def test_json_deterministic(self, capsys, path3_file):
        first = run(capsys, "--json", "raag", "z", path3_file)
        second = run(capsys, "--json", "raag", "z", path3_file)
        assert first == second

    def test_text_mode_renders_same_document(self, capsys):
        doc = run_json(capsys, "braid", "perm", "--n", "3", "s1")
        code, out, _ = run(capsys, "braid", "perm", "--n", "3", "s1")
        assert code == EXIT_OK
        # every scalar value in the JSON document appears in the text render
        for key in ("n", "pure"):
            assert f"{key}: {doc[key]}" in out
