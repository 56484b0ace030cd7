"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check is exact; the timed criteria assert
their wall-clock budgets.
"""

import itertools
import random
import time

from tcbounds import freeprod, groupexpr
from tcbounds.bounds import borromean_case_study, higman_case_study, pure_braid_report
from tcbounds.braids import BraidWord, alpha_generator, braid_equal, linking_matrix
from tcbounds.presentations import (
    FreeHom,
    Presentation,
    abelianization,
    check_hom,
    smith_normal_form,
)
from tcbounds.raag import SimpleGraph, z_number
from tcbounds.words import (
    conjugate_in_free,
    generator,
    identity,
    reduce as free_reduce,
)

from oracles import braid_power, braid_product, brute_force_z, conjugate_by_search, naive_smith


def _report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {summary}")


def _all_labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def test_criterion_1_raag_oracle():
    # Exhaustive labeled edge sets on <= 5 vertices cover every graph on
    # <= 5 vertices up to isomorphism (their 156 isomorphism classes
    # included); 6 vertices are swept over all 2^15 edge sets as stated.
    start = time.time()
    checked = 0
    for n in range(1, 7):
        for g in _all_labeled_graphs(n):
            masks = g.adjacency_masks()
            assert z_number(g)[0] == brute_force_z(n, masks[1:]), g
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(1, f"z_number matches subset-pair brute force on {checked} graphs "
               f"(all edge sets, <= 6 vertices) in {elapsed:.1f}s")


def test_criterion_2_z_values():
    for n in range(1, 8):
        g = SimpleGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))
        assert z_number(g)[0] == n
    for n in range(2, 8):
        assert z_number(SimpleGraph(n, frozenset()))[0] == 2
    _report(2, "z(K_n) = n for n <= 7 and z(empty graph) = 2 for 2 <= n <= 7")


def test_criterion_3_braids():
    start = time.time()
    for n in range(2, 7):
        report = pure_braid_report(n)
        assert report.lower == report.to_json()["tc_lower"] == 2 * n - 3, (n, report.lower)
    for n in range(2, 7):
        alphas = [alpha_generator(n, j) for j in range(1, n)]
        for a, b in itertools.combinations(alphas, 2):
            assert braid_equal(braid_product(a, b), braid_product(b, a), 64)
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 5)
        exps = [rng.randint(-3, 3) for _ in range(n - 1)]
        braid = braid_product(BraidWord(n, ()), *(braid_power(alpha_generator(n, j), k)
                                                  for j, k in enumerate(exps, start=1)))
        assert linking_matrix(braid).last_column() == tuple(exps), exps
    elapsed = time.time() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(3, "pure_braid_report(n) bound = tc_lower = 2n-3 (n = 2..6), alphas commute (n <= 6), "
               f"100 linking round-trips recovered in {elapsed:.1f}s")


def test_criterion_4_tree_lemma():
    start = time.time()
    # 4^2 + 4^4 + 4^6 + 4^8 alternating words, exponents +-1, +-2
    assert freeprod.verify_tree_lemma(4, 2, 10) == (69904, [])
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(4, "d(gw, v) = 2k-1 and d(gw, w) = 2k for all 69904 alternating "
               f"words (k <= 4, exponents +-1, +-2) on the radius-10 ball in {elapsed:.1f}s")


def test_criterion_5_higman_pipeline():
    full = abelianization(Presentation.from_strings(
        ["x", "y", "z", "w"],
        ["x y x^-1 y^-2", "y z y^-1 z^-2", "z w z^-1 w^-2", "w x w^-1 x^-2"],
    ))
    assert full.is_trivial
    h_xyz = abelianization(Presentation.from_strings(
        ["x", "y", "z"], ["x y x^-1 y^-2", "y z y^-1 z^-2"]
    ))
    assert h_xyz.survives(1)
    assert not h_xyz.survives(2) and not h_xyz.survives(3)
    report = higman_case_study()
    assert (report.lower, report.upper) == (4, 4)
    (cert,) = report.certificates
    amalgam_steps = [s for s in cert.steps
                     if s.status == "cited" and "amalgam" in s.description]
    assert len(amalgam_steps) == 2
    assert all(s.citation for s in amalgam_steps)
    _report(5, "full presentation abelianizes to 1, H_xyz keeps x and kills y, z; "
               "report [4, 4] with both amalgam lemmas flagged as cited")


def test_criterion_6_borromean_pipeline():
    pres = Presentation.from_strings(["a", "b", "c"],
                                     ["[a,[b^-1,c]]", "[b,[c^-1,a]]"])
    images = (generator(1, 2), generator(2, 2), identity(2))
    assert check_hom(FreeHom(pres, ("u", "v"), images)) is None
    beta = generator(2, 2)
    for n in range(6):
        total = free_reduce(
            [lt for _ in range(n) for lt in images[1].letters], 2
        )
        assert total == beta**n
    report = borromean_case_study()
    assert (report.lower, report.upper) == (3, 4)
    _report(6, "check_hom accepts p, p(b^n) = beta^n for n <= 5, report [3, 4]")


def test_criterion_7_smith_normal_form():
    rng = random.Random(101)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        ours = smith_normal_form(mat)
        assert ours == naive_smith(mat), mat
        nonzero = [d for d in ours if d]
        for d, e in zip(nonzero, nonzero[1:]):
            assert e % d == 0, (mat, ours)
    _report(7, "100 random matrices up to 5x5 match the elementary-operations "
               "reducer; divisibility chain holds on every output")


def test_criterion_8_conjugacy_oracle():
    rng = random.Random(77)

    def random_word():
        raw = [(rng.randint(1, 2), rng.choice((-1, 1)))
               for _ in range(rng.randint(0, 6))]
        return free_reduce(raw, 2)

    for _ in range(500):
        u, v = random_word(), random_word()
        assert conjugate_in_free(u, v) == conjugate_by_search(u, v, 6), (u, v)
    _report(8, "conjugate_in_free agrees with brute-force conjugator search "
               "(length <= 6) on 500 random pairs in F_2")


def test_criterion_9_chd_calculus():
    both = groupexpr.Product(groupexpr.BaumslagSolitar12(),
                             groupexpr.BaumslagSolitar12())
    res = groupexpr.chd(both)
    assert (res.lower, res.upper) == (4, 4)
    for n in range(2, 9):
        res = groupexpr.chd(groupexpr.PureBraid(n))
        assert (res.lower, res.upper) == (n - 1, n - 1)
    opaque = groupexpr.Opaque("G", 2, 2, "assumed: chd exactly 2, no flags")
    res = groupexpr.chd(groupexpr.Product(groupexpr.FreeAbelian(1), opaque))
    assert res.exact and (res.lower, res.upper) == (3, 3)
    assert any("orientable-PD" in line for line in res.trace)
    _report(9, "chd(B(1,2) x B(1,2)) = 4, chd(PB_n) = n-1 for n <= 8, "
               "chd(Z x Opaque(2)) = 3 via the orientable-PD rule")
