import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcbounds
from tcbounds import braids, freeprod, groupexpr, presentations, words
from tcbounds.bounds import MAX_PURE_BRAID_STRANDS
from tcbounds.certificates import CertificateError
from tcbounds.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    build_parser,
    main,
    scenario_report,
)
from tcbounds.freeprod import TreeBall
from tcbounds.words import MAX_EXPANDED_LENGTH, InputError

from oracles import multipartite


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
        ("a", "2", '--k1: expected comma-separated vertices, got "a"'),
        ("1", "2,a", '--k2: expected comma-separated vertices, got "2,a"'),
        # entries follow the JSON integer rule of words.json_int
        ("1_0", "2", '--k1: expected comma-separated vertices, got "1_0"'),
        ("1", "\u0663", '--k2: expected comma-separated vertices, got "\\u0663"'),
        # an empty entry is no integer; only "" itself is the empty clique
        ("1,,3", "2", '--k1: expected comma-separated vertices, got "1,,3"'),
        ("1,", "2", '--k1: expected comma-separated vertices, got "1,"'),
        ("1", ",2", '--k2: expected comma-separated vertices, got ",2"'),
    ])
    def test_bound_vertex_list_not_integers(self, capsys, path3_file, k1, k2, message):
        code, out, err = run(capsys, "raag", "bound", path3_file, "--k1", k1, "--k2", k2)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_bound_vertex_list_entries_are_stripped(self, capsys, path3_file):
        doc = run_json(capsys, "raag", "bound", path3_file, "--k1", " 1", "--k2", "2, 3")
        assert (doc["k1"], doc["k2"]) == ([1], [2, 3])

    def test_bound_empty_vertex_list_is_the_empty_clique(self, capsys, tmp_path):
        # raag_report pairs the empty clique with the one vertex of a one-vertex graph
        f = tmp_path / "one.json"
        f.write_text(json.dumps({"n": 1, "edges": []}))
        doc = run_json(capsys, "raag", "bound", str(f), "--k1", "", "--k2", "1")
        assert (doc["k1"], doc["k2"], doc["tc_lower_bound"]) == ([], [1], 1)
        assert doc["certificate"] == run_json(capsys, "raag", "z", str(f))["report"]["certificates"][0]

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

    @pytest.mark.parametrize("argv, kind", [
        (["raag", "z"], {}), (["raag", "bound", "--k1", "1", "--k2", "2"], {}),
        (["tc-report", "--case", "raag"], {}), (["tc-report"], {"kind": "raag"}),
    ])
    def test_graph_needs_a_vertex(self, capsys, tmp_path, argv, kind):
        err = run_bad_file(capsys, tmp_path, {"n": 0, "edges": [], **kind}, *argv)
        assert err.endswith(": graph must have at least one vertex\n")

    def test_chd_of_a_graph_without_vertices(self, capsys, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"kind": "raag", "n": 0, "edges": []}))
        doc = run_json(capsys, "chd", str(f))
        assert (doc["chd_lower"], doc["chd_upper"]) == (0, 0)


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

    @pytest.mark.parametrize("argv", [
        ["braid", "tc-bound", "--n", "31"],
        ["--max-word", "8", "braid", "tc-bound", "--n", "31"],  # the flag reaches only braid equal
        ["tc-report", "--case", "pbn", "31"],
    ])
    def test_pure_braid_past_the_default_word_cap(self, capsys, argv):
        # from n = 31 on, the commuting check builds images past 64 letters
        doc = run_json(capsys, *argv)
        assert doc.get("report", doc)["tc_lower"] == 59

    def test_largest_pure_braid_report_finishes_in_time(self):
        n = MAX_PURE_BRAID_STRANDS
        start = time.perf_counter()
        proc = subprocess.run([*CLI, "--json", "braid", "tc-bound", "--n", str(n)], env=CLI_ENV,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["tc_lower_bound"] == 2 * n - 3

    @pytest.mark.parametrize("argv", [
        ["braid", "lk", "--n", "4000", ""],
        ["braid", "perm", "--n", "2000000", ""],
        ["braid", "equal", "--n", "1001", "s1", "s1"],
        ["braid", "tc-bound", "--n", "1001"],
        ["braid", "tc-bound", "--n", "5000000"],
        ["tc-report", "--case", "pbn", "1001"],
        ["tc-report", "--case", "pbn", "5000000"],
        ["braid", "tc-bound", "--n", str(MAX_PURE_BRAID_STRANDS + 1)],
        ["tc-report", "--case", "pbn", str(MAX_PURE_BRAID_STRANDS + 1)],
        ["tc-report", "SCENARIO"],  # a braid scenario file with n = MAX_PURE_BRAID_STRANDS + 1
    ])
    def test_strand_cap_refused_at_once(self, tmp_path, argv):
        # parse_braid admits MAX_BRAID_STRANDS; the pure-braid report, whose
        # commuting check is quartic in n, admits MAX_PURE_BRAID_STRANDS
        n = argv[3] if len(argv) > 3 else str(MAX_PURE_BRAID_STRANDS + 1)
        limit = braids.MAX_BRAID_STRANDS if argv[1] in ("lk", "perm", "equal") else MAX_PURE_BRAID_STRANDS
        scenario = tmp_path / "pb.json"
        scenario.write_text(json.dumps({"kind": "braid", "n": int(n)}))
        start = time.perf_counter()
        proc = run_limited(40, "--json", *(str(scenario) if a == "SCENARIO" else a for a in argv))
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr == (f"resource cap exceeded: braid on {n} strands exceeds "
                               f"the cap of {limit} strands\n")

    def test_strand_cap_is_inclusive(self, capsys):
        doc = run_json(capsys, "braid", "perm", "--n", str(braids.MAX_BRAID_STRANDS), "s1")
        assert doc["permutation"][:3] == [2, 1, 3]

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

    @pytest.mark.parametrize("g", [2000, 20_000])
    def test_abel_entry_cap_refused_at_once(self, tmp_path, g):
        f = tmp_path / "wide.json"
        f.write_text(json.dumps({"generators": [f"g{i}" for i in range(1, g + 1)],
                                 "relators": ["g1 g2"]}))
        start = time.perf_counter()
        proc = run_limited(40, "--json", "pres", "abel", str(f))
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr == (f"resource cap exceeded: abelianization of {g} generators and 1 "
                               f"relators needs {g * g} matrix entries, more than the cap of "
                               f"{MAX_EXPANDED_LENGTH}\n")

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

    def test_hom_check_image_at_the_cap(self, capsys, tmp_path):
        f = tmp_path / "hom.json"
        half = MAX_EXPANDED_LENGTH // 2
        f.write_text(json.dumps(hom_check_doc(f"x^{half}", f"x^-{half}")))
        assert run_json(capsys, "pres", "hom-check", str(f))["well_defined"] is True

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
        # the relator the command prints is the one check_hom returns
        pres = presentations.Presentation.from_strings(["a", "b", "c"], ["[a,[b^-1,c]]", "[b,[c^-1,a]]"])
        u, v = words.generator(1, 2), words.generator(2, 2)
        witness = presentations.check_hom(presentations.FreeHom(pres, ("u", "v"), (u, v, u)))
        assert doc["failing_relator"] == words.format_word(witness, pres.generators) == \
            "a b^-1 c b c^-1 a^-1 c b^-1 c^-1 b"

    @pytest.mark.parametrize("generators, relator", [
        (["x", "y"], "x y x^-1 y^-1"),
        ([f"g{i}" for i in range(1, 31)], "g1 g30^-1"),  # more names than a-z
    ])
    def test_failing_relator_in_the_presentation_names(self, capsys, tmp_path, generators, relator):
        f = tmp_path / "hom.json"
        f.write_text(json.dumps({
            "presentation": {"generators": generators, "relators": [relator]},
            "target_generators": ["u", "v"],
            "images": {name: "u" if name in ("x", "g1") else "v" for name in generators},
        }))
        code, out, _ = run(capsys, "--json", "pres", "hom-check", str(f))
        assert (code, json.loads(out)["failing_relator"]) == (EXIT_VERIFICATION, relator)


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

    def test_ball_dot_size_checked_before_rendering(self, capsys):
        # 174,762 vertices: refused before the first DOT line is built
        start = time.perf_counter()
        code, out, err = run(capsys, "tree", "ball", "--radius", "8", "--cap", "2", "--dot")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == (f"resource cap exceeded: DOT output of a ball of 174762 vertices "
                       f"exceeds the cap of {freeprod.MAX_DOT_VERTICES}; lower the radius or exponent cap\n")
        assert time.perf_counter() - start < 1.0

    def test_ball_resource_cap(self, capsys):
        # 2 + 2 * (4 + 4^2 + ... + 4^11) = 11,184,810 vertices
        code, out, err = run(capsys, "tree", "ball", "--radius", "11")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == ("resource cap exceeded: tree ball of radius 11 exceeds "
                       f"{freeprod.MAX_BALL_VERTICES} vertices; lower the radius or exponent cap\n")

    @pytest.mark.parametrize("argv, reason", [
        # factor elements of 10^10 letters for a ball of 400,002 vertices
        (["tree", "ball", "--radius", "1", "--cap", "100000"],
         "free factor elements up to exponent cap 100000 exceed 1000000 letters"),
        # factor elements of 9,003,000 letters, and (2 * 3000)^2 words
        (["tree", "verify-lemma", "--k", "1", "--radius", "1", "--cap", "3000"],
         "free factor elements up to exponent cap 3000 exceed 1000000 letters"),
        # 3^13 - 1 vectors of 13 coordinates for a ball of 3,188,646 vertices
        (["tree", "ball", "--kind", "free_abelian", "--rank", "13", "--cap", "1", "--radius", "1"],
         "free_abelian factor elements up to exponent cap 1 exceed 1000000 letters"),
        # a ball of 439,322 vertices, but 60^2 + 60^4 = 12,963,600 words
        (["tree", "verify-lemma", "--k", "2", "--radius", "3", "--cap", "30"],
         "the tree lemma for k 2 and exponent cap 30 checks more than 5000000 words"),
    ])
    def test_inputs_sized_before_they_are_built(self, argv, reason):
        # refused by the size check, not by running out of the data limit
        start = time.perf_counter()
        proc = run_limited(40, "--json", *argv)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"resource cap exceeded: {reason}; lower ")

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
        # the radius-10 ball is a table of 22 blocks and the BFS stops at
        # depth 2k, so the defaults run in about 12 MiB of data
        proc = run_limited(16, "--json", "tree", "verify-lemma")
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
        # at --k 5 the BFS runs to depth 10 and keeps a distance for each of
        # the ball's 2.8 M vertices; at 40 MiB it runs out of memory partway
        proc = run_limited(40, "--json", "tree", "verify-lemma", "--k", "5", "--radius", "10")
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stderr == "resource cap exceeded: out of memory\n"


BORROMEAN = {"generators": ["a", "b", "c"], "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"]}
BORROMEAN_IMAGES = {"a": "u", "b": "v", "c": ""}


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
        f.write_text(json.dumps(presentation_scenario(BORROMEAN_IMAGES)))
        doc = run_json(capsys, "tc-report", str(f))
        assert (doc["tc_lower"], doc["tc_upper"]) == (3, 4)
        assert doc["notes"] == [
            "chd(B) taken from the scenario's b_expr (B), not verified",
            "chd(G) and the geometric dimension taken from the scenario's group_expr (G), "
            "not verified",
        ]

    def test_scenario_non_homomorphism_exits_2(self, capsys, tmp_path):
        # the certificate runs check_hom, so a map that does not kill a
        # relator is a failed check (exit 2), as in pres hom-check
        images = {"a": "u", "b": "v", "c": "u"}
        relator = "a b^-1 c b c^-1 a^-1 c b^-1 c^-1 b"
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(presentation_scenario(images)))
        assert run(capsys, "tc-report", str(f)) == (
            EXIT_VERIFICATION, "",
            f'verification failure: not a homomorphism: relator "{relator}" does not map to 1\n')
        f.write_text(json.dumps({"presentation": BORROMEAN, "target_generators": ["u", "v"],
                                 "images": images}))
        code, out, _ = run(capsys, "--json", "pres", "hom-check", str(f))
        assert (code, json.loads(out)["failing_relator"]) == (EXIT_VERIFICATION, relator)

    def test_scenario_words_in_the_target_names(self, capsys, tmp_path):
        # the README's Borromean scenario maps a to u
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(presentation_scenario(BORROMEAN_IMAGES)))
        (cert,) = run_json(capsys, "tc-report", str(f))["certificates"]
        assert cert["steps"][1]["description"] == \
            "p(a) = 'u' is a nontrivial reduced word, hence of infinite order"
        f.write_text(json.dumps({**presentation_scenario({"a": "u v", "b": "v", "c": ""}),
                                 "beta": "v u"}))
        assert run(capsys, "tc-report", str(f)) == (
            EXIT_VERIFICATION, "",
            'verification failure: nonzero powers of p(a) = "u v" and beta = "v u" are '
            "conjugate in the free target; the disjointness hypothesis fails\n")

    def test_scenario_a_expr_must_be_z(self, capsys, tmp_path):
        # the certificate proves <a> infinite cyclic; Z^9 x Z^9 read from the
        # input used to give the certified interval [18, 18]
        z9 = {"kind": "free_abelian", "rank": 9}
        doc = {**presentation_scenario(BORROMEAN_IMAGES), "a_expr": z9,
               "b_expr": z9, "group_expr": {"kind": "opaque", "chd": 2, "geom_dim": 9}}
        err = run_bad_file(capsys, tmp_path, doc, "tc-report")
        assert err.endswith('a_expr: expected {"kind": "free_abelian", "rank": 1}, the '
                            "infinite cyclic <a> the certificate proves, got Z^9\n")

    def test_scenario_b_expr_is_noted_as_supplied(self, capsys, tmp_path):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps({**presentation_scenario(BORROMEAN_IMAGES),
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
        assert 'images: no image for generator "c"' in err

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
    data = {**presentation_scenario(BORROMEAN_IMAGES),
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


def bad_input(name, argv, doc, code, line):
    """A case of TestInputChecks: argv, then a file holding doc unless doc
    is None; the exit code, and the one stderr line ({f} is the file)."""
    return pytest.param(argv, doc, code, line, id=name)


# five parts of size 2 and five of size 5, then one isolated vertex:
# 2^5 * 5^5 + 1 = MAX_CLIQUES + 1 maximal cliques
_past_cap = multipartite([2] * 5 + [5] * 5, isolated=1)
PAST_CLIQUE_CAP = {"n": _past_cap.n, "edges": sorted(map(list, _past_cap.edges))}


def hom_check_doc(a, b):
    """A hom-check file mapping a and b, of the relator a b, to the given words in x."""
    return {"presentation": {"generators": ["a", "b"], "relators": ["a b"]},
            "target_generators": ["x"], "images": {"a": a, "b": b}}


def relator_doc(relator):
    """A presentation on a and b with the one relator."""
    return {"generators": ["a", "b"], "relators": [relator]}


PATH_1_2 = {"n": 3, "edges": [[1, 2]]}  # the edge 1-2 and the isolated vertex 3


class TestInputChecks:
    """Each check on outside input prints its own line.  An input with two
    faults reports the one its parser checks first."""

    @pytest.mark.parametrize("argv, doc, code, line", [
        bad_input("free-rank", ["chd"], {"kind": "free", "rank": -1}, EXIT_USAGE,
                  "error: {f}: free rank must be >= 0"),
        bad_input("free-abelian-rank", ["chd"], {"kind": "free_abelian", "rank": -1}, EXIT_USAGE,
                  "error: {f}: free abelian rank must be >= 0"),
        bad_input("pure-braid-n", ["chd"], {"kind": "pure_braid", "n": 1}, EXIT_USAGE,
                  "error: {f}: pure braid group needs n >= 2 strands"),
        bad_input("surface-genus", ["chd"], {"kind": "surface", "genus": 0}, EXIT_USAGE,
                  "error: {f}: surface genus must be >= 1"),
        bad_input("opaque-interval", ["chd"], {"kind": "opaque", "chd_lower": 3, "chd_upper": 2},
                  EXIT_USAGE, "error: {f}: chd lower bound exceeds upper bound"),
        bad_input("opaque-duality-flag", ["chd"], {"kind": "opaque", "chd": 2, "duality_dim": 3},
                  EXIT_USAGE, "error: {f}: a duality flag forces chd to equal the flagged dimension"),
        bad_input("opaque-geom-dim", ["chd"], {"kind": "opaque", "chd": 2, "geom_dim": 1},
                  EXIT_USAGE, "error: {f}: geometric dimension is below the chd lower bound"),
        bad_input("duplicate-generators", ["pres", "abel"], {"generators": ["a", "a"], "relators": []},
                  EXIT_USAGE, "error: {f}: duplicate generator names"),
        bad_input("empty-relator", ["pres", "abel"], {"generators": ["a"], "relators": ["a a^-1"]},
                  EXIT_USAGE, "error: {f}: empty relator not allowed"),
        # a generator name is one name token of the word syntax, and names are distinct
        bad_input("generator-name-power", ["pres", "abel"], {"generators": ["x^2"], "relators": []},
                  EXIT_USAGE, 'error: {f}: invalid generator name "x^2"'),
        bad_input("generator-name-empty", ["pres", "abel"], {"generators": ["a", ""], "relators": []},
                  EXIT_USAGE, 'error: {f}: invalid generator name ""'),
        bad_input("generator-name-bracket", ["pres", "abel"], {"generators": ["["], "relators": []},
                  EXIT_USAGE, 'error: {f}: invalid generator name "["'),
        bad_input("target-generators-duplicate", ["pres", "hom-check"],
                  {**hom_check_doc("u", "u^-1"), "target_generators": ["u", "u"]}, EXIT_USAGE,
                  "error: {f}: target_generators: duplicate generator names"),
        bad_input("image-unknown-generator", ["pres", "hom-check"],
                  {**hom_check_doc("x", "x^-1"), "images": {"a": "", "b": "", "zz": "x"}}, EXIT_USAGE,
                  'error: {f}: images: unknown generator "zz"'),
        bad_input("graph-loop", ["raag", "z"], {"n": 3, "edges": [[2, 2]]}, EXIT_USAGE,
                  "error: {f}: loop at vertex 2"),
        bad_input("graph-edge-range", ["raag", "z"], {"n": 3, "edges": [[1, 4]]}, EXIT_USAGE,
                  "error: {f}: edge (1,4) not of the form 1 <= u < v <= n"),
        bad_input("graph-vertex-count", ["raag", "z"], {"n": -1, "edges": []}, EXIT_USAGE,
                  "error: {f}: vertex count must be non-negative"),
        bad_input("braid-strands", ["braid", "perm", "--n", "1", "s1"], None, EXIT_USAGE,
                  "error: need at least 2 strands"),
        bad_input("braid-strands-empty-word", ["braid", "perm", "--n", "1", ""], None, EXIT_USAGE,
                  "error: need at least 2 strands"),
        bad_input("braid-index", ["braid", "perm", "--n", "3", "s3"], None, EXIT_USAGE,
                  "error: generator index 3 out of range for B_3"),
        bad_input("tc-bound-strands", ["braid", "tc-bound", "--n", "1"], None, EXIT_USAGE,
                  "error: need at least 2 strands"),
        bad_input("pbn-strands", ["tc-report", "--case", "pbn", "1"], None, EXIT_USAGE,
                  "error: need at least 2 strands"),
        bad_input("graph-vertex-limit", ["raag", "z"], {"n": 65, "edges": []}, EXIT_RESOURCE,
                  "resource cap exceeded: graph has 65 vertices, limit is 64"),
        bad_input("raag-node-vertex-limit", ["chd"], {"kind": "raag", "n": 65, "edges": []},
                  EXIT_RESOURCE, "resource cap exceeded: graph has 65 vertices, limit is 64"),
        bad_input("graph-clique-cap", ["raag", "z"], PAST_CLIQUE_CAP, EXIT_RESOURCE,
                  "resource cap exceeded: graph has more than 100000 maximal cliques"),
        bad_input("hom-image-cap", ["pres", "hom-check"], hom_check_doc("x^600000", "x^600000"),
                  EXIT_RESOURCE, "resource cap exceeded: image expands to 1200000 letters, "
                  f"more than the cap of {MAX_EXPANDED_LENGTH}"),
        # two faults: the first check the parser runs wins
        bad_input("braid-token-before-strands", ["braid", "perm", "--n", "1", "t1"], None,
                  EXIT_USAGE, 'error: bad braid token "t1"; expected like s2 or s2^-1'),
        bad_input("braid-length-before-index", ["braid", "perm", "--n", "3", "s5^2000000"], None,
                  EXIT_RESOURCE, "resource cap exceeded: braid word expands to 2000000 letters, "
                  f"more than the cap of {MAX_EXPANDED_LENGTH}"),
        bad_input("relator-before-generators", ["pres", "abel"],
                  {"generators": ["a", "a"], "relators": ["b"]}, EXIT_USAGE,
                  'error: {f}: unknown generator "b"'),
        bad_input("generators-before-relators", ["pres", "abel"],
                  {"generators": ["a", "a"], "relators": ["a a^-1"]}, EXIT_USAGE,
                  "error: {f}: duplicate generator names"),
        bad_input("vertex-count-before-edges", ["raag", "z"], {"n": -1, "edges": [[1, 1]]},
                  EXIT_USAGE, "error: {f}: vertex count must be non-negative"),
        bad_input("opaque-fields-before-bounds", ["chd"],
                  {"kind": "opaque", "chd": -1, "geom_dim": "x"}, EXIT_USAGE,
                  'error: {f}: opaque: geom_dim: expected an integer, got "x"'),
        bad_input("opaque-lower-before-interval", ["chd"],
                  {"kind": "opaque", "chd_lower": -1, "chd_upper": -2}, EXIT_USAGE,
                  "error: {f}: chd lower bound must be >= 0"),
        # a_generator is checked where the scenario is read, not in the verifier
        bad_input("a-generator-unknown", ["tc-report"],
                  {**presentation_scenario(BORROMEAN_IMAGES), "a_generator": "q"}, EXIT_USAGE,
                  'error: {f}: a_generator: unknown generator "q"'),
        bad_input("a-generator-list", ["tc-report"],
                  {**presentation_scenario(BORROMEAN_IMAGES), "a_generator": ["a"]}, EXIT_USAGE,
                  'error: {f}: a_generator: expected a string, got ["a"]'),
        # a misspelt key used to change the data: [2, 3] read as [2, 2], and a graph with no edges
        bad_input("opaque-misspelt-upper", ["chd"],
                  {"kind": "opaque", "name": "G", "chd_lower": 2, "chd_uper": 3, "justification": "j"},
                  EXIT_USAGE, 'error: {f}: opaque: unknown field "chd_uper"'),
        bad_input("graph-misspelt-edges", ["raag", "z"], {"n": 3, "egdes": [[1, 2]]}, EXIT_USAGE,
                  'error: {f}: unknown field "egdes"'),
        # string fields used to print Python spellings of other values
        bad_input("opaque-name-list", ["chd"], {"kind": "opaque", "chd": 1, "name": ["x"]}, EXIT_USAGE,
                  'error: {f}: opaque: name: expected a string, got ["x"]'),
        bad_input("opaque-justification-object", ["chd"],
                  {"kind": "opaque", "chd": 1, "justification": {"a": 1}}, EXIT_USAGE,
                  'error: {f}: opaque: justification: expected a string, got {{"a": 1}}'),
        bad_input("expr-kind-list", ["chd"], {"kind": ["free"], "rank": 2}, EXIT_USAGE,
                  'error: {f}: kind: expected a string, got ["free"]'),
        bad_input("expr-kind-missing", ["chd"], {"rank": 2}, EXIT_USAGE,
                  'error: {f}: missing field "kind"'),
        bad_input("expr-kind-unknown", ["chd"], {"kind": "quaternion"}, EXIT_USAGE,
                  'error: {f}: unknown expression kind "quaternion"'),
        bad_input("scenario-kind-number", ["tc-report"], {"kind": 5}, EXIT_USAGE,
                  "error: {f}: kind: expected a string, got 5"),
        bad_input("scenario-case-bool", ["tc-report"], {"kind": "case-study", "case": True}, EXIT_USAGE,
                  "error: {f}: case: expected a string, got true"),
        bad_input("scenario-case-unknown", ["tc-report"], {"kind": "case-study", "case": "klein"},
                  EXIT_USAGE, 'error: {f}: unknown case study "klein"'),
        bad_input("scenario-not-an-object", ["tc-report"], ["raag"], EXIT_USAGE,
                  "error: {f}: expected a JSON object"),
        # JSON values in messages are JSON: true, not True
        bad_input("relator-bool", ["pres", "hom-check"],
                  {**hom_check_doc("x", ""), "presentation": {"generators": ["a", "b"], "relators": [True]}},
                  EXIT_USAGE, "error: {f}: presentation: relators: entry 1 must be a string, got true"),
        bad_input("image-bool", ["pres", "hom-check"], hom_check_doc(True, ""), EXIT_USAGE,
                  "error: {f}: images: a: expected a word, got true"),
        bad_input("beta-bool", ["tc-report"], {**presentation_scenario(BORROMEAN_IMAGES), "beta": True},
                  EXIT_USAGE, "error: {f}: beta: expected a word, got true"),
        # the vertex cap is checked where a graph is read, so it covers raag bound too
        bad_input("raag-bound-vertex-limit", ["raag", "bound", "--k1", "1", "--k2", "2"],
                  {"n": 65, "edges": [[1, 2]]}, EXIT_RESOURCE,
                  "resource cap exceeded: graph has 65 vertices, limit is 64"),
        bad_input("raag-scenario-vertex-limit", ["tc-report"], {"kind": "raag", "n": 65}, EXIT_RESOURCE,
                  "resource cap exceeded: graph has 65 vertices, limit is 64"),
        # --case raag FILE reads the graph file as raag z does, so the file's own kind is refused
        bad_input("case-raag-file-kind", ["tc-report", "--case", "raag"],
                  {"n": 2, "edges": [], "kind": "free"}, EXIT_USAGE, 'error: {f}: unknown field "kind"'),
        bad_input("raag-z-file-kind", ["raag", "z"],
                  {"n": 2, "edges": [], "kind": "free"}, EXIT_USAGE, 'error: {f}: unknown field "kind"'),
        # the word parser's own lines; outside text is quoted as JSON
        bad_input("relator-character", ["pres", "abel"], relator_doc("a $"), EXIT_USAGE,
                  'error: {f}: unexpected character at position 1: " $"'),
        bad_input("relator-trailing-token", ["pres", "abel"], relator_doc("a ] a"), EXIT_USAGE,
                  'error: {f}: trailing token "]"'),
        bad_input("relator-end", ["pres", "abel"], relator_doc("[a"), EXIT_USAGE,
                  "error: {f}: unexpected end of word"),
        bad_input("relator-commutator-comma", ["pres", "abel"], relator_doc("[a b]"), EXIT_USAGE,
                  "error: {f}: expected ',' in commutator"),
        bad_input("relator-commutator-close", ["pres", "abel"], relator_doc("[a,b,a]"), EXIT_USAGE,
                  "error: {f}: expected ']' closing commutator"),
        # a power needs a base: these used to read as the unknown generators '^2' and '^3'
        bad_input("relator-power-no-base", ["pres", "abel"], relator_doc("^2"), EXIT_USAGE,
                  'error: {f}: expected a generator or "[", got "^2"'),
        bad_input("relator-power-of-power", ["pres", "abel"], relator_doc("a^2^3"), EXIT_USAGE,
                  'error: {f}: expected a generator or "[", got "^3"'),
        bad_input("braid-lk-not-pure", ["braid", "lk", "--n", "3", "s1"], None, EXIT_USAGE,
                  "error: linking numbers of the closure need a pure braid"),
        # raag bound checks its cliques against the graph
        bad_input("cliques-overlap", ["raag", "bound", "--k1", "1", "--k2", "1"], PATH_1_2, EXIT_USAGE,
                  "error: cliques must be disjoint"),
        bad_input("k1-not-a-clique", ["raag", "bound", "--k1", "1,3", "--k2", "2"], PATH_1_2, EXIT_USAGE,
                  "error: K1 = [1, 3] is not a clique"),
        bad_input("k2-not-a-clique", ["raag", "bound", "--k1", "2", "--k2", "1,3"], PATH_1_2, EXIT_USAGE,
                  "error: K2 = [1, 3] is not a clique"),
        bad_input("clique-vertex-range", ["raag", "bound", "--k1", "9", "--k2", "2"], PATH_1_2, EXIT_USAGE,
                  "error: vertex 9 out of range"),
        # the split-extension verifier's own checks
        bad_input("scenario-pa-trivial", ["tc-report"],
                  presentation_scenario({**BORROMEAN_IMAGES, "a": ""}), EXIT_VERIFICATION,
                  "verification failure: p(a) is trivial; the cyclic subgroup <a> dies"),
        bad_input("scenario-beta-trivial", ["tc-report"],
                  {**presentation_scenario(BORROMEAN_IMAGES), "beta": ""}, EXIT_VERIFICATION,
                  "verification failure: beta must be nontrivial"),
    ])
    def test_one_line(self, capsys, tmp_path, argv, doc, code, line):
        f = tmp_path / "input.json"
        if doc is not None:
            f.write_text(json.dumps(doc))
            argv = [*argv, str(f)]
        assert run(capsys, *argv) == (code, "", line.format(f=f) + "\n")


EXPR_NODES = {
    "trivial": {"kind": "trivial"}, "free": {"kind": "free", "rank": 2},
    "free_abelian": {"kind": "free_abelian", "rank": 1}, "pure_braid": {"kind": "pure_braid", "n": 3},
    "bs12": {"kind": "bs12"}, "surface": {"kind": "surface", "genus": 2},
    "raag": {"kind": "raag", "n": 2, "edges": [[1, 2]]}, "opaque": {"kind": "opaque", "chd": 1},
    "product": {"kind": "product", "left": {"kind": "bs12"}, "right": {"kind": "trivial"}},
    "free_product": {"kind": "free_product", "left": {"kind": "bs12"}, "right": {"kind": "trivial"}},
}
ZZ = {"zz": 1}


def unknown_key(name, argv, doc):
    return pytest.param(argv, doc, id=name)


class TestFieldReader:
    """Every JSON object of outside input is read by words.Fields: a key
    outside its loader's key set is refused with one line."""

    @pytest.mark.parametrize("argv, doc", [
        unknown_key("raag-z", ["raag", "z"], {"n": 2, "edges": [], **ZZ}),
        unknown_key("raag-bound", ["raag", "bound", "--k1", "1", "--k2", "2"], {"n": 2, **ZZ}),
        *(unknown_key(f"expr-{kind}", ["chd"], {**node, **ZZ}) for kind, node in EXPR_NODES.items()),
        *(unknown_key(f"expr-{kind}-in-product", ["chd"],
                      {"kind": "product", "left": {"kind": "bs12"}, "right": {**node, **ZZ}})
          for kind, node in EXPR_NODES.items()),
        unknown_key("scenario-case-study", ["tc-report"], {"kind": "case-study", "case": "higman", **ZZ}),
        unknown_key("scenario-braid", ["tc-report"], {"kind": "braid", "n": 3, **ZZ}),
        unknown_key("scenario-raag", ["tc-report"], {"kind": "raag", "n": 2, "edges": [], **ZZ}),
        unknown_key("scenario-expr", ["tc-report"], {"kind": "expr", "expr": {"kind": "bs12"}, **ZZ}),
        unknown_key("scenario-presentation", ["tc-report"], {**presentation_scenario(BORROMEAN_IMAGES), **ZZ}),
        unknown_key("case-raag", ["tc-report", "--case", "raag"], {"n": 2, "edges": [], **ZZ}),
        unknown_key("pres-abel", ["pres", "abel"], {**BORROMEAN, **ZZ}),
        unknown_key("hom-check", ["pres", "hom-check"], {**hom_check_doc("x", "x^-1"), **ZZ}),
        unknown_key("hom-check-presentation", ["pres", "hom-check"],
                    {**hom_check_doc("x", "x^-1"), "presentation": {"generators": ["a", "b"],
                                                                     "relators": ["a b"], **ZZ}}),
        unknown_key("scenario-hom", ["tc-report"],
                    {**presentation_scenario(BORROMEAN_IMAGES),
                     "hom": {"target_generators": ["u", "v"], "images": BORROMEAN_IMAGES, **ZZ}}),
    ])
    def test_unknown_key(self, capsys, tmp_path, argv, doc):
        err = run_bad_file(capsys, tmp_path, doc, *argv)
        assert err.endswith(': unknown field "zz"\n')

    @pytest.mark.parametrize("argv", [
        ["raag", "z"], ["raag", "bound", "--k1", "1", "--k2", "2"], ["tc-report", "--case", "raag"],
    ])
    def test_huge_vertex_count_refused_at_once(self, tmp_path, argv):
        # raag bound used to build one image per vertex, and never finished
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"n": 10**20, "edges": [[1, 2]]}))
        start = time.perf_counter()
        proc = subprocess.run([*CLI, *argv, str(f)], env=CLI_ENV, capture_output=True, text=True,
                              timeout=60)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
        assert proc.stderr == f"resource cap exceeded: graph has {10**20} vertices, limit is 64\n"

    def test_null_optional_dimension_reads_as_absent(self, capsys, tmp_path):
        f = tmp_path / "expr.json"
        f.write_text(json.dumps({"kind": "opaque", "chd": 2, "geom_dim": None, "duality_dim": None}))
        with_null = run_json(capsys, "chd", str(f))
        f.write_text(json.dumps({"kind": "opaque", "chd": 2}))
        assert with_null == run_json(capsys, "chd", str(f))


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
        # every free-group image starts as one letter, so a cap below 1 is no cap
        (["--max-word", "0", "braid", "equal", "--n", "3", "s1", "s1"],
         "argument --max-word: must be at least 1, got 0"),
        (["--max-word", "-5", "braid", "equal", "--n", "3", "s1", "s1"],
         "argument --max-word: must be at least 1, got -5"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith("usage: tcbounds")
        assert err.endswith(f"error: {message}\n")

    def test_global_options(self):
        parser = build_parser()
        assert [a.option_strings[0] for a in parser._actions if a.option_strings] == \
            ["-h", "--json", "--max-word"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["braid", "perm", "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: tcbounds braid perm")

    @pytest.mark.parametrize("usage", [
        "raag z [-h] file",
        "raag bound [-h] --k1 K1 --k2 K2 file",
        "braid perm [-h] --n N word",
        "braid lk [-h] --n N word",
        "braid equal [-h] --n N word other",
        "braid tc-bound [-h] --n N",
        "pres abel [-h] file",
        "pres hom-check [-h] file",
        "chd [-h] file",
        "tree ball [-h] [--radius RADIUS] [--cap CAP] [--kind {free,free_abelian}] [--rank RANK] [--dot]",
        "tree verify-lemma [-h] [--k K] [--cap CAP] [--radius RADIUS]",
        "tc-report [-h] [--case CASE [CASE ...]] [file]",
    ])
    def test_usage_line(self, capsys, monkeypatch, usage):
        # wide enough that no usage line wraps
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([*usage.split(" [-h]")[0].split(), "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"usage: tcbounds {usage}"


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
