import itertools
import random

import pytest

from tcbounds import braids, groupexpr
from tcbounds.bounds import (
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
from tcbounds.braids import BraidError
from tcbounds.presentations import FreeHom, Presentation
from tcbounds.raag import GraphError, SimpleGraph, z_number
from tcbounds.words import ResourceCapError, generator, identity, parse_word


class TestCertificateRecords:
    def test_cited_step_needs_citation(self):
        with pytest.raises(CertificateError):
            CertStep("some fact", "cited")

    def test_unknown_status(self):
        with pytest.raises(CertificateError):
            CertStep("some fact", "assumed")

    def test_unknown_variant(self):
        step = CertStep("ok", "machine-verified")
        with pytest.raises(CertificateError):
            DisjointnessCertificate("vibes", "A", "B", (step,))

    def test_empty_steps_rejected(self):
        with pytest.raises(CertificateError):
            DisjointnessCertificate("retraction", "A", "B", ())

    def test_fully_machine_verified(self):
        mv = CertStep("ok", "machine-verified")
        cited = CertStep("fact", "cited", "somewhere")
        assert DisjointnessCertificate("retraction", "A", "B", (mv,)).fully_machine_verified
        assert not DisjointnessCertificate(
            "trusted-chain", "A", "B", (mv, cited)
        ).fully_machine_verified

    def test_report_interval_validated(self):
        with pytest.raises(CertificateError):
            BoundReport("G", 5, 4, (), ())


PATH3 = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])


class TestRetractionVerifier:
    def test_raag_coordinate_retraction(self):
        _, cert = clique_pair_bound(PATH3, [1], [2, 3])
        assert cert.variant == "retraction"
        assert cert.fully_machine_verified
        assert len(cert.steps) == 3

    def test_non_homomorphism_rejected(self):
        # the map x -> 1, y -> e_1 does not kill the relator x y x^-1 y^-2
        pres = Presentation.from_strings(["x", "y"], ["x y x^-1 y^-2"])
        with pytest.raises(CertificateError, match="not a homomorphism"):
            verify_retraction_certificate(pres, ["x"], ["y"],
                                          {"x": (0,), "y": (1,)})

    def test_not_identity_on_b(self):
        pres = Presentation(("x", "y"), ())
        with pytest.raises(CertificateError, match="identity on B"):
            verify_retraction_certificate(pres, ["x"], ["y"],
                                          {"x": (0,), "y": (2,)})

    def test_does_not_kill_a(self):
        pres = Presentation(("x", "y"), ())
        with pytest.raises(CertificateError, match="kill A"):
            verify_retraction_certificate(pres, ["x"], ["y"],
                                          {"x": (1,), "y": (1,)})

    def test_missing_image(self):
        pres = Presentation(("x", "y"), ())
        with pytest.raises(CertificateError, match="no image"):
            verify_retraction_certificate(pres, ["x"], ["y"], {"x": (0,)})


def borromean_p():
    pres = borromean_presentation()
    return pres, FreeHom(pres, 2, (generator(1, 2), generator(2, 2), identity(2)))


class TestSplitExtensionVerifier:
    def test_borromean_certificate(self):
        pres, p = borromean_p()
        cert = verify_split_extension_certificate(pres, p, "a", generator(2, 2))
        assert cert.variant == "split-extension"
        assert cert.fully_machine_verified
        assert len(cert.steps) == 4

    def test_conjugate_powers_rejected(self):
        # beta = p(a) makes the powers trivially conjugate
        pres, p = borromean_p()
        with pytest.raises(CertificateError, match="conjugate"):
            verify_split_extension_certificate(pres, p, "a", generator(1, 2))

    def test_inverse_conjugate_rejected(self):
        pres, p = borromean_p()
        with pytest.raises(CertificateError, match="conjugate"):
            verify_split_extension_certificate(pres, p, "a",
                                               generator(1, 2).inverse())

    def test_trivial_image_rejected(self):
        pres, p = borromean_p()
        with pytest.raises(CertificateError, match="trivial"):
            verify_split_extension_certificate(pres, p, "c", generator(2, 2))

    def test_trivial_beta_rejected(self):
        pres, p = borromean_p()
        with pytest.raises(CertificateError):
            verify_split_extension_certificate(pres, p, "a", identity(2))


class TestCliquePairBound:
    def test_path3(self):
        bound, cert = clique_pair_bound(PATH3, [1], [2, 3])
        assert bound == 3
        assert cert.variant == "retraction"
        assert cert.fully_machine_verified

    def test_overlapping_cliques_rejected(self):
        with pytest.raises(GraphError):
            clique_pair_bound(PATH3, [1, 2], [2, 3])

    def test_non_clique_rejected(self):
        path4 = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        with pytest.raises(GraphError):
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
            assert cert.fully_machine_verified

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
        assert not cert.fully_machine_verified
        assert any(s.status == "cited" and "conjugation by pure braids" in s.description
                   for s in cert.steps)
        assert sum(1 for s in cert.steps if s.status == "machine-verified") == 2

    def test_n_too_small(self):
        with pytest.raises(BraidError):
            pure_braid_report(1)

    def test_image_cap_is_met_before_the_linking_loop(self, monkeypatch):
        # at n = 800 the commuting check meets the 64-letter image cap; the
        # linking loop, quadratic in n per alpha, must not have run by then
        def linking_matrix(b):
            raise AssertionError("the linking loop ran before the commuting check")

        monkeypatch.setattr(braids, "linking_matrix", linking_matrix)
        with pytest.raises(ResourceCapError, match="image length 65 exceeds cap 64"):
            pure_braid_report(800)


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
        assert cert.fully_machine_verified

    def test_presentation(self):
        pres = borromean_presentation()
        assert pres.generators == ("a", "b", "c")
        r1 = parse_word("[a,[b^-1,c]]", pres.generators)
        r2 = parse_word("[b,[c^-1,a]]", pres.generators)
        assert pres.relators == (r1, r2)

    def test_commutator_in_b_maps_to_one(self):
        # B's chd of 2 rests on b and [c^-1,a] commuting inside B, which
        # needs p([c^-1,a]) = 1; p sends c to 1, so the image is trivial
        pres = borromean_presentation()
        p = FreeHom(pres, 2, (generator(1, 2), generator(2, 2), identity(2)))
        assert p(parse_word("[c^-1,a]", pres.generators)).is_identity


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
