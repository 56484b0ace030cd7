import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcbounds
from tcbounds import groupexpr
from tcbounds.certificates import CertificateError
from tcbounds.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
    scenario_report,
)
from tcbounds.freeprod import TreeBall
from tcbounds.words import MAX_EXPANDED_LENGTH, InputError


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


CLI = [sys.executable, "-m", "tcbounds.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(tcbounds.__file__).parents[1]))


def run_limited(data_limit_mib, *argv):
    """Run the CLI in a subprocess with at most data_limit_mib MiB of data."""

    def limit():
        resource.setrlimit(resource.RLIMIT_DATA, (data_limit_mib * 2**20,) * 2)

    return subprocess.run([*CLI, *argv], env=CLI_ENV, preexec_fn=limit,
                          capture_output=True, text=True, timeout=300)


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

    @pytest.mark.parametrize("k1, k2, message", [
        ("a", "2", "--k1: expected comma-separated vertices, got 'a'"),
        ("1", "2,a", "--k2: expected comma-separated vertices, got '2,a'"),
    ])
    def test_bound_vertex_list_not_integers(self, capsys, path3_file, k1, k2, message):
        code, out, err = run(capsys, "raag", "bound", path3_file, "--k1", k1, "--k2", k2)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

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
        assert 'n: expected an integer, got "abc"' in err

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

    def test_rank_not_an_integer(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "free", "rank": "abc"}, "chd")
        assert 'free: rank: expected an integer, got "abc"' in err

    # json.load raises a plain ValueError for both, not a JSONDecodeError
    @pytest.mark.parametrize("content", [
        b'{"kind": "free", "rank": ' + b"1" * 5000 + b"}",  # past Python's int-string limit
        b'{"kind": "free", "rank": 2}\xff',  # not text
    ], ids=["5000-digit-literal", "undecodable-bytes"])
    def test_unparsable_file_exits_1_with_one_line(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        code, out, err = run(capsys, "chd", str(f))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {f}: ")

    def test_raag_edge_not_a_pair(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "raag", "n": 3, "edges": [[1]]}, "chd")
        assert "raag: edges: edge 1 must be a pair of vertices" in err

    @pytest.mark.parametrize("rank", [2.9, True, "1_0", " 4 ", "+4", "4\n"])
    def test_rank_float_or_bool_is_not_truncated(self, capsys, tmp_path, rank):
        err = run_bad_file(capsys, tmp_path, {"kind": "free", "rank": rank}, "chd")
        assert f"free: rank: expected an integer, got {json.dumps(rank)}" in err

    def test_opaque_negative_chd(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "opaque", "chd": -3}, "chd")
        assert "chd lower bound must be >= 0" in err

    def test_product_with_negative_opaque(self, capsys, tmp_path):
        doc = {"kind": "product", "left": {"kind": "opaque", "chd": -3},
               "right": {"kind": "free", "rank": 2}}
        err = run_bad_file(capsys, tmp_path, doc, "chd")
        assert "chd lower bound must be >= 0" in err


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

    @pytest.mark.parametrize("as_json", [True, False])
    def test_verify_lemma_failure_exits_verification(self, capsys, monkeypatch, as_json):
        # a BFS one level short fails the 16 words of 4 syllables; the
        # document says so, and main turns that into exit 2 in either render
        bounded = TreeBall.distance_map
        monkeypatch.setattr(TreeBall, "distance_map",
                            lambda ball, source, max_depth: bounded(ball, source, max_depth - 1))
        argv = ["tree", "verify-lemma", "--k", "2", "--cap", "1", "--radius", "3"]
        code, out, _ = run(capsys, *(["--json"] if as_json else []), *argv)
        assert code == EXIT_VERIFICATION
        if as_json:
            doc = json.loads(out)
            assert doc["verified"] is False and len(doc["failures"]) == 16
        else:
            assert "verified: False" in out.splitlines()

    def test_verify_lemma_radius_too_small(self, capsys):
        # the deepest checked vertex gw sits at depth 2k - 1 = 5
        code, _, err = run(capsys, "tree", "verify-lemma", "--k", "3", "--radius", "4")
        assert code == EXIT_USAGE
        assert err.count("\n") == 1
        assert "--radius 4" in err and "--k 3" in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_verify_lemma_refuses_k_below_one(self, capsys, k):
        # no word has 2k <= 0 syllables: "verified" would report a check that never ran
        code, out, err = run(capsys, "--json", "tree", "verify-lemma", "--k", k)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("\n") == 1 and "k_max >= 1" in err

    def test_verify_lemma_defaults_fit_data_limit(self):
        # the radius-10 ball's parent, side and child-range columns, with a
        # BFS that stops at depth 2k: about 51 MiB
        proc = run_limited(96, "--json", "tree", "verify-lemma")
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["words_checked"] == 4368
        assert doc["verified"] is True

    def test_verify_lemma_oversized_ball_refused_up_front(self):
        # about 2 * 4^40 vertices: refused by the size check before any
        # allocation, so the data limit is never reached
        proc = run_limited(400, "--json", "tree", "verify-lemma", "--radius", "40")
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "exceeds" in proc.stderr

    def test_verify_lemma_out_of_memory_exits_resource(self):
        # the defaults need about 51 MiB of data; at 40 MiB the ball build
        # runs out of memory partway through
        proc = run_limited(40, "--json", "tree", "verify-lemma")
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stderr == "resource cap exceeded: out of memory\n"


BORROMEAN = {"generators": ["a", "b", "c"], "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"]}


def presentation_scenario(images):
    return {
        "kind": "presentation", **BORROMEAN,
        "hom": {"target_generators": ["u", "v"], "images": images},
        "a_generator": "a", "beta": "v",
        "a_expr": {"kind": "free_abelian", "rank": 1},
        "b_expr": {"kind": "opaque", "name": "B", "chd": 2, "justification": "not free"},
        "group_expr": {"kind": "opaque", "name": "G", "chd": 2, "justification": "link group",
                       "geom_dim": 2},
    }


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
        with pytest.raises(SystemExit) as exc:
            main(["tc-report"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: one of the arguments file --case is required\n")

    @pytest.mark.parametrize("case", [["pbn", "4", "5"], ["borromean", "extra"],
                                      ["higman", "x"], ["raag"], ["klein"]])
    def test_case_argument_count(self, capsys, case):
        code, out, err = run(capsys, "tc-report", "--case", *case)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: --case {' '.join(case)}: expected --case " \
                      "borromean | higman | pbn N | raag FILE\n"

    def test_scenario_braid_padded_strand_count(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "braid", "n": " 4 "}, "tc-report")
        assert 'n: expected an integer, got " 4 "' in err

    def test_scenario_presentation(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(presentation_scenario({"a": "u", "b": "v", "c": ""})))
        doc = run_json(capsys, "tc-report", str(f))
        assert (doc["tc_lower"], doc["tc_upper"]) == (3, 4)
        assert doc["notes"] == [
            "chd(B) taken from the scenario's b_expr (B), not verified",
            "chd(G) and the geometric dimension taken from the scenario's group_expr (G), "
            "not verified",
        ]

    def test_scenario_a_expr_must_be_z(self, capsys, tmp_path):
        # the certificate proves <a> infinite cyclic; Z^9 x Z^9 read from the
        # input used to give the certified interval [18, 18]
        z9 = {"kind": "free_abelian", "rank": 9}
        doc = {**presentation_scenario({"a": "u", "b": "v", "c": ""}), "a_expr": z9,
               "b_expr": z9, "group_expr": {"kind": "opaque", "chd": 2, "geom_dim": 9}}
        err = run_bad_file(capsys, tmp_path, doc, "tc-report")
        assert err.endswith('a_expr: expected {"kind": "free_abelian", "rank": 1}, the '
                            "infinite cyclic <a> the certificate proves, got Z^9\n")

    def test_scenario_b_expr_is_noted_as_supplied(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({**presentation_scenario({"a": "u", "b": "v", "c": ""}),
                                 "b_expr": {"kind": "free_abelian", "rank": 9},
                                 "group_expr": {"kind": "opaque", "chd": 2, "geom_dim": 9}}))
        doc = run_json(capsys, "tc-report", str(f))
        assert doc["tc_lower"] == 10
        assert "chd(B) taken from the scenario's b_expr (Z^9), not verified" in doc["notes"]

    def test_scenario_expr_notes_each_opaque_leaf(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({"kind": "expr", "expr": {
            "kind": "product", "left": {"kind": "opaque", "chd": 7},
            "right": {"kind": "free_product", "left": {"kind": "surface", "genus": 2},
                      "right": {"kind": "opaque", "name": "H", "chd_lower": 1, "chd_upper": 2,
                                "justification": "a one-relator group"}}}}))
        doc = run_json(capsys, "tc-report", str(f))
        assert doc["notes"][:2] == [
            "chd(opaque) in [7, 7] taken from the scenario's expr, not verified "
            "(externally supplied)",
            "chd(H) in [1, 2] taken from the scenario's expr, not verified (a one-relator group)",
        ]

    def test_scenario_images_not_an_object(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, presentation_scenario([1]), "tc-report")
        assert "hom: images: expected an object" in err

    def test_scenario_image_not_a_word(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, presentation_scenario({"a": 5}), "tc-report")
        assert "hom: images: a: expected a word, got 5" in err

    @pytest.mark.parametrize("command", ["tc-report", "hom-check"])
    def test_missing_image_is_an_error(self, capsys, tmp_path, command):
        images = {"a": "u", "b": "v"}
        if command == "tc-report":
            err = run_bad_file(capsys, tmp_path, presentation_scenario(images), "tc-report")
        else:
            doc = {"presentation": BORROMEAN, "target_generators": ["u", "v"], "images": images}
            err = run_bad_file(capsys, tmp_path, doc, "pres", "hom-check")
        assert "images: no image for generator 'c'" in err

    def test_scenario_braid_float_strands(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "braid", "n": 4.9}, "tc-report")
        assert "n: expected an integer, got 4.9" in err

    def test_scenario_raag_float_and_bool_vertices(self, capsys, tmp_path):
        doc = {"kind": "raag", "n": 3, "edges": [[1, 2.5], [True, 3]]}
        err = run_bad_file(capsys, tmp_path, doc, "tc-report")
        assert "edges: edge 1 has a non-integer vertex: [1, 2.5]" in err

    def test_scenario_opaque_geom_dim_below_chd(self, capsys, tmp_path):
        doc = {"kind": "expr", "expr": {"kind": "opaque", "chd": 3, "geom_dim": 1}}
        err = run_bad_file(capsys, tmp_path, doc, "tc-report")
        assert "geometric dimension is below the chd lower bound" in err

    def test_case_pbn_not_an_integer(self, capsys, tmp_path):
        err = run_bad_file(capsys, tmp_path, {"kind": "braid", "n": "abc"}, "tc-report")
        code, out, case_err = run(capsys, "tc-report", "--case", "pbn", "abc")
        assert (code, out) == (EXIT_USAGE, "")
        assert case_err == err.replace(str(tmp_path / "bad.json"), "--case pbn")

    @pytest.mark.parametrize("case, scenario", [
        (["borromean"], {"kind": "case-study", "case": "borromean"}),
        (["higman"], {"kind": "case-study", "case": "higman"}),
        (["pbn", "4"], {"kind": "braid", "n": 4}),
        (["raag", "GRAPH"], {"kind": "raag", "n": 3, "edges": [[1, 2], [2, 3]]}),
    ])
    def test_case_matches_scenario_file(self, capsys, tmp_path, path3_file, case, scenario):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(scenario))
        case = [path3_file if arg == "GRAPH" else arg for arg in case]
        from_case = run(capsys, "--json", "tc-report", "--case", *case)
        assert from_case[0] == EXIT_OK
        assert from_case == run(capsys, "--json", "tc-report", str(f))

    def test_raag_report_matches_raag_z(self, capsys, path3_file):
        report = run_json(capsys, "tc-report", "--case", "raag", path3_file)
        assert report == run_json(capsys, "raag", "z", path3_file)["report"]
        assert report["notes"] == ["TC equals z = 3 for graph groups (Cohen-Pruidze); "
                                   "the upper half is cited, not recomputed"]


Z1 = {"kind": "free_abelian", "rank": 1}
EXPR_LEAVES = st.one_of(
    st.builds(lambda r: {"kind": "free_abelian", "rank": r}, st.integers(0, 9)),
    st.builds(lambda r: {"kind": "free", "rank": r}, st.integers(0, 3)),
    st.builds(lambda n: {"kind": "pure_braid", "n": n}, st.integers(2, 6)),
    st.just({"kind": "bs12"}),
    st.builds(lambda lo, extra, geom: {"kind": "opaque", "chd_lower": lo,
                                       "chd_upper": lo + extra, "geom_dim": geom},
              st.integers(0, 9), st.integers(0, 2), st.none() | st.integers(11, 12)),
)
EXPRS = st.recursive(EXPR_LEAVES, lambda sub: st.builds(
    lambda kind, left, right: {"kind": kind, "left": left, "right": right},
    st.sampled_from(["product", "free_product"]), sub, sub), max_leaves=4)


def chd_upper(expr_json) -> int:
    return groupexpr.chd(groupexpr.expr_from_json(expr_json)).upper


@given(a=st.just(Z1) | EXPRS, b=EXPRS, g=EXPRS)
@settings(max_examples=200, deadline=None)
def test_presentation_lower_bound_rests_on_z_times_b(a, b, g):
    """A presentation scenario certifies chd(Z x B) = 1 + chd(B) at most,
    whatever its a_expr claims."""
    data = {**presentation_scenario({"a": "u", "b": "v", "c": ""}),
            "a_expr": a, "b_expr": b, "group_expr": g}
    try:
        report = scenario_report(data, "scenario")
    except InputError:
        assert a != Z1
        return
    except CertificateError:  # the interval is empty: lower above 2 * geometric dimension
        return
    assert report.lower <= max(chd_upper(g), 1 + chd_upper(b))


class TestExponentCap:
    def test_braid_word(self, capsys):
        code, out, err = run(capsys, "braid", "perm", "--n", "3", f"s1^{MAX_EXPANDED_LENGTH + 1}")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.count("\n") == 1 and f"cap of {MAX_EXPANDED_LENGTH}" in err

    def test_relator(self, capsys, tmp_path):
        f = tmp_path / "pres.json"
        f.write_text(json.dumps({"generators": ["x"], "relators": [f"x^-{MAX_EXPANDED_LENGTH + 1}"]}))
        code, out, err = run(capsys, "pres", "abel", str(f))
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err.count("\n") == 1 and f"cap of {MAX_EXPANDED_LENGTH}" in err


class TestUsageErrors:
    """argparse's own errors exit 1, not 2 (which means a failed verification)."""

    @pytest.mark.parametrize("argv, message", [
        (["braid", "perm"], "the following arguments are required: --n, word"),
        (["braid", "perm", "--n", "x", "s1"], "argument --n: invalid int value: 'x'"),
        (["braid", "perm", "--n", "3", "--bogus", "s1"], "unrecognized arguments: --bogus"),
        (["tc-report", "s.json", "--case", "higman"],
         "argument --case: not allowed with argument file"),
        # integer flags follow the JSON integer rule of tc-report --case pbn N
        (["braid", "tc-bound", "--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["braid", "perm", "--n", "\u0663", "s1"], "argument --n: invalid int value: '\u0663'"),
        (["--max-ball", " 50", "tree", "ball"], "argument --max-ball: invalid int value: ' 50'"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith("usage: tcbounds")
        assert err.endswith(f"error: {message}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["braid", "perm", "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: tcbounds braid perm")


class TestOutputDiscipline:
    @pytest.mark.parametrize("argv", [
        ["--json", "braid", "tc-bound", "--n", "12"],  # fits stdout's buffer
        ["tree", "ball", "--radius", "5", "--cap", "2", "--dot"],  # does not
    ])
    def test_closed_stdout_exits_1_quietly(self, argv):
        # stdout block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run([*CLI, *argv], env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

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


def product_chain(depth: int) -> str:
    """JSON text of depth nested products of F2, built as text because
    json.dumps recurses once per level."""
    f2 = '{"kind": "free", "rank": 2}'
    return '{"kind": "product", "left": ' * depth + f2 + (', "right": ' + f2 + "}") * depth


class TestDeepNesting:
    def run_file(self, tmp_path, text, *argv, timeout=60):
        f = tmp_path / "deep.json"
        f.write_text(text)
        return subprocess.run([*CLI, *argv, str(f)], env=CLI_ENV,
                              capture_output=True, text=True, timeout=timeout)

    @pytest.mark.parametrize("text, argv", [
        ("[" * 200_000, ["raag", "z"]),
        (product_chain(5000), ["chd"]),
        ('{"kind": "expr", "expr": ' + product_chain(5000) + "}", ["tc-report"]),
    ], ids=["raag-brackets", "chd-chain", "tc-report-chain"])
    def test_too_deep_exits_1_with_one_line(self, tmp_path, text, argv):
        proc = self.run_file(tmp_path, text, *argv)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.endswith(": input nested too deeply\n")

    def test_chd_900_deep_chain_is_exact(self, tmp_path):
        proc = self.run_file(tmp_path, product_chain(900), "--json", "chd", timeout=10)
        assert proc.returncode == EXIT_OK, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["chd_lower"] == doc["chd_upper"] == 901
        assert doc["exact"] is True

    def test_tc_report_900_deep_chain(self, tmp_path):
        scenario = '{"kind": "expr", "expr": ' + product_chain(900) + "}"
        proc = self.run_file(tmp_path, scenario, "--json", "tc-report", timeout=10)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["tc_lower"] == 901
