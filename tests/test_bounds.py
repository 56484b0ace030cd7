import functools
import itertools
import random
import re

import pytest

from tcbounds import braids, freeprod, groupexpr, presentations
from tcbounds.bounds import (
    MAX_PURE_BRAID_STRANDS,
    borromean_case_study,
    borromean_presentation,
    clique_pair_bound,
    higman_case_study,
    higman_presentation,
    pure_braid_report,
    raag_report,
    tc_report,
    verify_retraction_certificate,
    verify_split_extension_certificate,
)
from tcbounds.certificates import (
    BoundReport,
    CertStep,
    CertificateError,
    DisjointnessCertificate,
    Provenance,
)
from tcbounds.cli import scenario_report
from tcbounds.presentations import AbelianInvariants, FreeHom, Presentation
from tcbounds.raag import SimpleGraph, z_number
from tcbounds.words import MAX_EXPANDED_LENGTH, InputError, ResourceCapError, generator, identity, parse_word

from oracles import first_noncommuting_alphas, status_counts


PATH3 = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
C4 = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
K4 = SimpleGraph.from_edges(4, itertools.combinations(range(1, 5), 2))
TWO_POINTS = SimpleGraph.from_edges(2, [])

PRESENTATION_SCENARIO = {
    "kind": "presentation",
    "generators": ["a", "b", "c"], "relators": ["[a,[b^-1,c]]", "[b,[c^-1,a]]"],
    "hom": {"target_generators": ["u", "v"], "images": {"a": "u", "b": "v", "c": ""}},
    "a_generator": "a", "beta": "v",
    "a_expr": {"kind": "free_abelian", "rank": 1},
    "b_expr": {"kind": "opaque", "name": "B", "chd": 2, "justification": "not free"},
    "group_expr": {"kind": "opaque", "name": "G", "chd": 2, "geom_dim": 2},
}


@functools.lru_cache(maxsize=None)
def built_certificates():
    # the records store what they are given, so every builder, on a few
    # inputs each, must keep the invariants the tests below assert
    reports = [
        borromean_case_study(),
        higman_case_study(),
        *(pure_braid_report(n) for n in range(2, 7)),
        *(raag_report(g)[1] for g in (PATH3, C4, K4, TWO_POINTS)),
        scenario_report(PRESENTATION_SCENARIO, "scenario"),
    ]
    pairs = [(PATH3, [1], [2, 3]), (C4, [1, 2], [3, 4]), (K4, [1], [2, 3, 4]),
             (TWO_POINTS, [], [1])]
    return tuple([cert for report in reports for cert in report.certificates]
                 + [clique_pair_bound(g, k1, k2)[1] for g, k1, k2 in pairs])


class TestCertificateRecords:
    def test_cited_step_needs_citation(self):
        for cert in built_certificates():
            for step in cert.steps:
                assert step.status != "cited" or step.citation, step

    def test_unknown_status(self):
        for cert in built_certificates():
            for step in cert.steps:
                assert step.status in ("machine-verified", "cited"), step

    def test_unknown_variant(self):
        assert {c.variant for c in built_certificates()} == {
            "retraction", "split-extension", "linking", "trusted-chain"}

    def test_empty_steps_rejected(self):
        for cert in built_certificates():
            assert cert.steps, cert

    def test_fully_machine_verified(self):
        # a certificate is fully machine-verified when it has no other status
        mv = CertStep("ok", "machine-verified")
        cited = CertStep("fact", "cited", "somewhere")
        assert status_counts(DisjointnessCertificate("retraction", "A", "B", (mv,))) == {
            "machine-verified": 1}
        assert status_counts(DisjointnessCertificate("trusted-chain", "A", "B", (mv, cited))) == {
            "machine-verified": 1, "cited": 1}

    def test_report_interval_validated(self):
        with pytest.raises(CertificateError):
            BoundReport("G", 5, 4, (), ())



class TestRetractionVerifier:
    def test_raag_coordinate_retraction(self):
        _, cert = clique_pair_bound(PATH3, [1], [2, 3])
        assert cert.variant == "retraction"
        assert status_counts(cert) == {"machine-verified": 3}

    def test_non_homomorphism_rejected(self):
        # the map x -> 1, y -> e_1 does not kill the relator x y x^-1 y^-2,
        # which the message prints in the presentation's names
        pres = Presentation.from_strings(["x", "y"], ["x y x^-1 y^-2"])
        with pytest.raises(CertificateError) as exc:
            verify_retraction_certificate(pres, [1], [2], [(0,), (1,)])
        assert str(exc.value) == ('candidate retraction is not a homomorphism: relator '
                                  '"x y x^-1 y^-2" maps to (-1,)')

    def test_not_identity_on_b(self):
        pres = Presentation(("x", "y"), ())
        with pytest.raises(CertificateError) as exc:
            verify_retraction_certificate(pres, [1], [2], [(0,), (2,)])
        assert str(exc.value) == 'retraction is not the identity on B generator "y"'

    def test_does_not_kill_a(self):
        pres = Presentation(("x", "y"), ())
        with pytest.raises(CertificateError) as exc:
            verify_retraction_certificate(pres, [1], [2], [(1,), (1,)])
        assert str(exc.value) == 'retraction does not kill A generator "x"'


def borromean_p(c_image=identity(2)):
    """The strand-forgetting map a -> u, b -> v and c -> 1 (or c_image)."""
    return FreeHom(borromean_presentation(), ("u", "v"), (generator(1, 2), generator(2, 2), c_image))


class TestSplitExtensionVerifier:
    def test_borromean_certificate(self):
        cert = verify_split_extension_certificate(borromean_p(), "a", generator(2, 2))
        assert cert.variant == "split-extension"
        assert status_counts(cert) == {"machine-verified": 4}

    def test_non_homomorphism_rejected(self):
        # the verifier runs check_hom itself: a -> u, b -> v, c -> u does not
        # kill the first relator, and FreeHom stores the map unchecked
        with pytest.raises(CertificateError, match=r'^not a homomorphism: relator '
                           r'"a b\^-1 c b c\^-1 a\^-1 c b\^-1 c\^-1 b" does not map to 1$'):
            verify_split_extension_certificate(borromean_p(generator(1, 2)), "a", generator(2, 2))

    def test_conjugate_powers_rejected(self):
        # beta = p(a) makes the powers trivially conjugate
        with pytest.raises(CertificateError, match="conjugate"):
            verify_split_extension_certificate(borromean_p(), "a", generator(1, 2))

    def test_inverse_conjugate_rejected(self):
        with pytest.raises(CertificateError, match="conjugate"):
            verify_split_extension_certificate(borromean_p(), "a", generator(1, 2).inverse())

    def test_trivial_image_rejected(self):
        with pytest.raises(CertificateError, match="trivial"):
            verify_split_extension_certificate(borromean_p(), "c", generator(2, 2))

    def test_trivial_beta_rejected(self):
        with pytest.raises(CertificateError):
            verify_split_extension_certificate(borromean_p(), "a", identity(2))


class TestCliquePairBound:
    def test_path3(self):
        bound, cert = clique_pair_bound(PATH3, [1], [2, 3])
        assert bound == 3
        assert cert.variant == "retraction"
        assert status_counts(cert) == {"machine-verified": 3}

    def test_overlapping_cliques_rejected(self):
        with pytest.raises(InputError, match="^cliques must be disjoint$"):
            clique_pair_bound(PATH3, [1, 2], [2, 3])

    def test_non_clique_rejected(self):
        path4 = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        with pytest.raises(InputError, match=re.escape("K2 = [2, 4] is not a clique")):
            clique_pair_bound(path4, [1], [2, 4])

    def test_matches_z_witness(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(2, 6)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            g = SimpleGraph.from_edges(n, edges)
            z, pair = z_number(g)
            k1 = sorted(set(pair.k1) - set(pair.k2))
            k2 = sorted(pair.k2)
            if not k1:
                continue  # witness cliques coincide
            bound, cert = clique_pair_bound(g, k1, k2)
            assert bound == z
            assert status_counts(cert) == {"machine-verified": 3}

    def test_raag_report_lower_is_z(self):
        # raag z prints witness.union_size as z and report.lower as the
        # certified bound; both are z, on graphs with and without edges
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(1, 6)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            g = SimpleGraph.from_edges(n, edges)
            witness, report = raag_report(g)
            assert witness.union_size == report.lower == z_number(g)[0]


class TestPureBraidReport:
    def test_values(self):
        for n in range(2, 7):
            report = pure_braid_report(n)
            assert report.lower == 2 * n - 3
            assert report.certificates[0].variant == "linking"

    def test_certificate_has_cited_step(self):
        (cert,) = pure_braid_report(4).certificates
        assert status_counts(cert) == {"machine-verified": 2, "cited": 1}
        assert any(s.status == "cited" and "conjugation by pure braids" in s.description
                   for s in cert.steps)

    def test_n_too_small(self):
        with pytest.raises(InputError, match="^need at least 2 strands$"):
            pure_braid_report(1)

    @pytest.mark.parametrize("n, error, message", [
        (1, InputError, "need at least 2 strands"),
        (1001, ResourceCapError, "braid on 1001 strands exceeds the cap of {} strands"),
    ])
    def test_strands_follow_parse_braid(self, n, error, message):
        # one strand rule, braids.check_strands, for the report and the
        # parser, each with its own strand limit
        for build, limit in ((lambda: pure_braid_report(n), MAX_PURE_BRAID_STRANDS),
                             (lambda: braids.parse_braid("", n), braids.MAX_BRAID_STRANDS)):
            with pytest.raises(error) as exc:
                build()
            assert str(exc.value) == message.format(limit)

    @pytest.mark.parametrize("n", [*range(2, 13), 31, 40])
    def test_cached_check_agrees_with_pairwise_check(self, n):
        # from n = 31 on, the images pass the default --max-word of 64
        assert first_noncommuting_alphas(n, MAX_EXPANDED_LENGTH) is None
        assert pure_braid_report(n).lower == 2 * n - 3

    @pytest.mark.parametrize("n, k, position", [
        (3, 1, 0), (4, 2, 1), (6, 1, 3), (7, 4, 0), (9, 2, 5), (12, 6, 2), (12, 10, 1),
    ])
    def test_mutant_alpha_fails_at_the_pairwise_pair(self, monkeypatch, n, k, position):
        # flip the sign of one letter of alpha_k
        alpha_generator = braids.alpha_generator

        def mutant(n, j):
            b = alpha_generator(n, j)
            if j != k:
                return b
            letters = list(b.letters)
            i, s = letters[position]
            letters[position] = (i, -s)
            return braids.BraidWord(n, tuple(letters))

        monkeypatch.setattr(braids, "alpha_generator", mutant)
        pair = first_noncommuting_alphas(n, 64)
        assert pair is not None
        with pytest.raises(CertificateError) as exc:
            pure_braid_report(n)
        assert str(exc.value) == "alpha_{}, alpha_{} do not commute".format(*pair)


class TestReportAssembly:
    def test_baseline_only(self):
        report = tc_report(groupexpr.SurfaceGroup(2), [])
        assert report.lower == 2  # cat = chd
        assert report.upper == 4  # 2 * dim
        assert not report.certificates

    def test_certificate_raises_lower(self):
        _, cert = clique_pair_bound(PATH3, [1], [2, 3])
        g = groupexpr.Raag(PATH3)
        a = groupexpr.FreeAbelian(1)
        b = groupexpr.FreeAbelian(2)
        report = tc_report(g, [(a, b, cert)])
        assert report.lower == 3
        assert report.upper == 4
        assert len(report.lower_provenance) == 2

    def test_eilenberg_ganea_caveat_note(self):
        g = groupexpr.Opaque("G", 2, 2, "assumed")
        report = tc_report(g, [])
        assert any("Eilenberg-Ganea" in n for n in report.notes)

    def test_json_shape(self):
        report = tc_report(groupexpr.Free(2), [])
        data = report.to_json()
        assert data["schema"] == "tcbounds/1"
        assert data["tc_lower"] == 1 and data["tc_upper"] == 2
        assert data["exact"] is False


class TestBorromeanCaseStudy:
    def test_interval(self):
        report = borromean_case_study()
        assert (report.lower, report.upper) == (3, 4)
        assert not report.exact

    def test_certificate_fully_verified(self):
        report = borromean_case_study()
        (cert,) = report.certificates
        assert cert.variant == "split-extension"
        assert status_counts(cert) == {"machine-verified": 4}

    def test_presentation_scenario_shares_the_builder(self):
        # a presentation scenario holding Borromean's data, target names
        # included: same interval, same certificate; only the group's label
        # and the notes differ
        data = {**PRESENTATION_SCENARIO, "beta": "b",
                "hom": {"target_generators": ["a", "b"], "images": {"a": "a", "b": "b", "c": ""}}}
        case, scenario = borromean_case_study(), scenario_report(data, "scenario")
        assert (scenario.lower, scenario.upper) == (case.lower, case.upper) == (3, 4)
        assert scenario.certificates == case.certificates

    def test_presentation(self):
        pres = borromean_presentation()
        assert pres.generators == ("a", "b", "c")
        r1 = parse_word("[a,[b^-1,c]]", pres.generators)
        r2 = parse_word("[b,[c^-1,a]]", pres.generators)
        assert pres.relators == (r1, r2)

    def test_commutator_in_b_maps_to_one(self):
        # B's chd of 2 rests on b and [c^-1,a] commuting inside B, which
        # needs p([c^-1,a]) = 1; p sends c to 1, so the image is trivial
        assert borromean_p()(parse_word("[c^-1,a]", ("a", "b", "c"))).is_identity


@pytest.fixture(scope="module")
def higman_report():
    return higman_case_study()


class TestHigmanCaseStudy:
    def test_exactly_four(self, higman_report):
        report = higman_report
        assert (report.lower, report.upper) == (4, 4)
        assert report.exact

    def test_certificate_mixes_statuses(self, higman_report):
        (cert,) = higman_report.certificates
        assert cert.variant == "trusted-chain"
        machine = [s for s in cert.steps if s.status == "machine-verified"]
        cited = [s for s in cert.steps if s.status == "cited"]
        assert len(machine) == 2
        assert len(cited) == 5
        assert all(s.citation for s in cited)
        # the BFS check states the count that ran; the hyperbolicity of
        # alternating words and the elliptic-element fact are cited
        assert "4368 words" in machine[1].description
        assert not any("69904" in s.description for s in machine)
        assert any("translation length" in s.description for s in cited)
        assert not any("elliptic" in s.description for s in machine)
        assert any("elliptic" in s.description for s in cited)

    def test_acyclicity_note(self, higman_report):
        assert any("acyclic" in n for n in higman_report.notes)

    def test_presentation(self):
        pres = higman_presentation()
        assert pres.generators == ("x", "y", "z", "w")
        assert len(pres.relators) == 4


class TestChecksThatOnlySeeEngineData:
    """Each check below only ever sees correct engine data, so each test
    feeds it a wrong value through the module attribute it reads and
    expects the check to refuse it."""

    def test_pure_braid_linking_row(self, monkeypatch):
        def linking_matrix(b):
            return braids.LinkingMatrix(b.n, tuple((0,) * b.n for _ in range(b.n)))

        monkeypatch.setattr(braids, "linking_matrix", linking_matrix)
        with pytest.raises(CertificateError, match=r"^alpha_1 has unexpected linking row \(0, 0, 0\)$"):
            pure_braid_report(4)

    @staticmethod
    def higman_abelianization(monkeypatch, full=None, vertex_group=None):
        """Replace the abelianization of the four-generator presentation by
        full, and of each three-generator vertex group by vertex_group."""
        abelianization = presentations.abelianization

        def mutant(p):
            wrong = full if len(p.generators) == 4 else vertex_group
            return wrong or abelianization(p)

        monkeypatch.setattr(presentations, "abelianization", mutant)

    def test_higman_full_group_nontrivial(self, monkeypatch):
        self.higman_abelianization(monkeypatch, full=AbelianInvariants(1, (), ((1,), (0,), (0,), (0,))))
        with pytest.raises(CertificateError, match="^full presentation abelianization is not trivial"):
            higman_case_study()

    def test_higman_second_generator_survives(self, monkeypatch):
        self.higman_abelianization(monkeypatch, vertex_group=AbelianInvariants(1, (), ((1,), (1,), (0,))))
        with pytest.raises(CertificateError,
                           match="^abelianization of H_xyz: generator y survives unexpectedly$"):
            higman_case_study()

    def test_higman_vertex_group_not_z(self, monkeypatch):
        self.higman_abelianization(monkeypatch,
                                   vertex_group=AbelianInvariants(1, (2,), ((0, 1), (0, 0), (0, 0))))
        with pytest.raises(CertificateError, match="^abelianization of H_xyz is not Z"):
            higman_case_study()

    def test_higman_bfs_failure(self, monkeypatch):
        monkeypatch.setattr(freeprod, "verify_tree_lemma", lambda k, cap, radius: (4368, [[1, -2]]))
        with pytest.raises(CertificateError, match=r"^BFS distances wrong for \(1, -2\)$"):
            higman_case_study()
