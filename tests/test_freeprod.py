import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    DictTreeBall,
    alternating_words,
    ball_parents,
    factor_inverse,
    fp_inverse,
    fp_multiply,
    hyperbolic_length,
    hyperbolic_length_bfs,
    is_elliptic,
    reference_tree_lemma,
    tree_depth,
    tree_distance,
)
import tcbounds
from tcbounds import freeprod
from tcbounds.words import MAX_EXPANDED_LENGTH, InputError
from tcbounds.freeprod import (
    A_SIDE,
    B_SIDE,
    RANK1_FREE,
    Factor,
    ResourceCapError,
    TreeBall,
    build_tree_ball,
    cyclic_normal_form,
    normal_form,
    verify_tree_lemma,
)

ZZ = (Factor("free_abelian", 1), Factor("free_abelian", 1))
F2A = (Factor("free", 2), Factor("free_abelian", 1))


def zz_word(*exps):
    """Alternating word x^e0 y^e1 x^e2 ... in Z * Z from nonzero exponents."""
    return normal_form(ZZ, [(i % 2, (e,)) for i, e in enumerate(exps)])


class TestFactor:
    def test_bad_kind(self):
        with pytest.raises(InputError, match='^unknown factor kind "cyclic"$'):
            TreeBall((Factor("cyclic", 3), Factor("free", 1)), 1, 1)

    def test_abelian_elements_count(self):
        # nonzero vectors in [-2, 2]^2
        assert len(Factor("free_abelian", 2).elements(2)) == 24

    def test_free_elements_count(self):
        # reduced nonempty words of length <= 2 over 2 generators
        assert len(Factor("free", 2).elements(2)) == 16

    def test_multiply_invert_free(self):
        f = Factor("free", 2)
        a = ((1, 1), (2, 1))
        assert f.multiply(a, factor_inverse(f, a)) == ()

    @pytest.mark.parametrize("kind, rank, cap", [
        ("free", 1, 4), ("free", 2, 3), ("free", 3, 2), ("free_abelian", 1, 3),
        ("free_abelian", 2, 2), ("free_abelian", 3, 1),
    ])
    def test_size_counts_the_built_list(self, kind, rank, cap):
        f = Factor(kind, rank)
        assert f._size(cap) == sum(len(e) for e in f.elements(cap))

    def test_size_cap_is_exact(self):
        # cap c in F_1: 2 words of each length 1..c, c(c + 1) letters
        assert len(Factor("free", 1).elements(999)) == 2 * 999
        with pytest.raises(ResourceCapError, match="exponent cap 1000 exceed 1000000 letters"):
            Factor("free", 1).elements(1000)

    @pytest.mark.parametrize("factor, cap", [
        (Factor("free", 10**9), 1), (Factor("free_abelian", 10**9), 1),
        (Factor("free_abelian", 1), 10**12), (Factor("free", 1), 10**7),
    ])
    def test_oversized_size_counted_cheaply(self, factor, cap):
        # the count stops once it passes the cap; elements() would not fit in memory
        assert factor._size(cap) > MAX_EXPANDED_LENGTH

    def test_elements_all_distinct(self):
        for f in (Factor("free", 2), Factor("free_abelian", 2)):
            els = f.elements(2)
            assert len(set(els)) == len(els)
            assert f.identity() not in els


class TestNormalForm:
    def test_adjacent_merge(self):
        g = normal_form(ZZ, [(0, (1,)), (0, (2,))])
        assert g.syllables == ((0, (3,)),)

    def test_cancellation_collapses(self):
        g = normal_form(ZZ, [(0, (1,)), (1, (1,)), (1, (-1,)), (0, (-1,))])
        assert not g.syllables

    def test_identity_syllables_dropped(self):
        g = normal_form(ZZ, [(0, (0,)), (1, (2,))])
        assert g.syllables == ((1, (2,)),)

    # syllables that are not a normal form are changed by normal_form

    def test_invalid_alternation_rejected(self):
        raw = ((0, (1,)), (0, (1,)))
        assert normal_form(ZZ, raw).syllables != raw

    def test_identity_syllable_rejected(self):
        raw = ((0, (0,)),)
        assert normal_form(ZZ, raw).syllables != raw


def random_fp(max_syllables=6):
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-2, 2)), max_size=max_syllables
    ).map(lambda raw: normal_form(ZZ, [(t, (e,)) for t, e in raw]))


class TestGroupLaws:
    @given(random_fp())
    def test_inverse(self, g):
        assert not fp_multiply(g, fp_inverse(g)).syllables

    @given(random_fp(), random_fp(), random_fp())
    @settings(max_examples=50)
    def test_associative(self, g, h, k):
        assert fp_multiply(fp_multiply(g, h), k) == fp_multiply(g, fp_multiply(h, k))


def random_f2a():
    """Normal forms in F_2 * Z: merges reduce free and add abelian syllables."""
    elements = [f.elements(2) + [f.identity()] for f in F2A]
    syllable = st.integers(0, 1).flatmap(lambda t: st.tuples(st.just(t), st.sampled_from(elements[t])))
    return st.lists(syllable, max_size=6).map(lambda raw: normal_form(F2A, raw))


class TestDerivedWordsAreValid:
    """Words the engine builds directly are fixed by the checked builder."""

    @given(random_f2a(), random_f2a())
    def test_derived_words(self, g, h):
        gh = fp_multiply(g, h)
        for x in (gh, fp_inverse(g), cyclic_normal_form(gh)):
            assert normal_form(x.factors, x.syllables) == x

    def test_alternating_words(self):
        for k in (1, 2):
            for _, g in alternating_words(k, 2):
                assert normal_form(g.factors, g.syllables) == g

    def test_vertex_words(self):
        ball = build_tree_ball(F2A, radius=3, cap=2)
        for vid in range(ball.vertex_count):
            g = ball.vertex_word(vid)
            assert normal_form(g.factors, g.syllables) == g


class TestConjugacyGeometry:
    def test_single_syllable_elliptic(self):
        assert is_elliptic(zz_word(5))
        assert is_elliptic(normal_form(ZZ, ()))

    def test_conjugate_of_syllable_elliptic(self):
        g = fp_multiply(zz_word(1, 1), zz_word(3), fp_inverse(zz_word(1, 1)))
        assert is_elliptic(g)
        assert hyperbolic_length(g) == 0

    def test_alternating_word_hyperbolic(self):
        assert hyperbolic_length(zz_word(1, 1)) == 2
        assert hyperbolic_length(zz_word(1, -2, 3, 1)) == 4

    @given(random_fp(), random_fp(4))
    @settings(max_examples=60)
    def test_length_conjugation_invariant(self, g, h):
        assert hyperbolic_length(g) == hyperbolic_length(fp_multiply(h, g, fp_inverse(h)))

    @given(random_fp())
    def test_cyclic_form_is_shortest(self, g):
        assert len(cyclic_normal_form(g).syllables) <= len(g.syllables)

    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
               st.sampled_from((-2, -1, 1, 2)), min_size=2 * k, max_size=2 * k)),
           st.lists(st.tuples(st.integers(0, 1), st.sampled_from((-2, -1, 1, 2))),
                    min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_conjugated_alternating_word_keeps_its_cyclic_length(self, exps, raw_h):
        # g alternates and has 2k syllables; h g h^-1 has syllables to cancel
        # or merge across its ends, and its cyclic normal form has 2k again
        def rank1(t, e):
            return (t, ((1, 1 if e > 0 else -1),) * abs(e))
        g = normal_form(RANK1_FREE, [rank1(i % 2, e) for i, e in enumerate(exps)])
        h = normal_form(RANK1_FREE, [rank1(t, e) for t, e in raw_h])
        assume(h.syllables)
        conj = fp_multiply(h, g, fp_inverse(h))
        assert len(cyclic_normal_form(conj).syllables) == len(exps)


class TestTreeBall:
    def test_radius_one_counts(self):
        # v and w each gain 2 coset neighbours for cap 1 in Z * Z
        ball = build_tree_ball(ZZ, radius=1, cap=1)
        assert ball.vertex_count == 6
        assert ball.edge_count == 5

    def test_ball_is_a_tree(self):
        # |E| = |V| - 1 and every vertex is reached from v: connected, so a tree
        for factors, radius, cap in [(ZZ, 3, 2), (F2A, 2, 1)]:
            ball = build_tree_ball(factors, radius=radius, cap=cap)
            edges = list(ball.edges())
            assert len(edges) == ball.vertex_count - 1 == ball.edge_count
            adj = {vid: [] for vid in range(ball.vertex_count)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            seen, stack = {ball.v}, [ball.v]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            assert len(seen) == ball.vertex_count

    def test_mixed_factors(self):
        ball = build_tree_ball(F2A, radius=2, cap=1)
        # v has 4 neighbours (a, a^-1, b, b^-1 cosets), w has 2
        dist_v = ball.distance_map(ball.v, 2 * 2 + 1)
        assert sum(1 for d in dist_v.values() if d == 1) == 5  # 4 cosets + w

    def test_vertex_word_round_trip(self):
        ball = build_tree_ball(ZZ, radius=4, cap=2)
        for vid in range(ball.vertex_count):
            rep = ball.vertex_word(vid)
            assert ball.coset_vertex(rep, ball.side(vid)) == vid

    def test_base_edge_distance(self):
        ball = build_tree_ball(ZZ, radius=2, cap=1)
        assert tree_distance(ball_parents(ball), ball.v, ball.w) == 1

    def test_translate_distances(self):
        # d(g.w, v) = 2k - 1 and d(g.w, w) = 2k for alternating g with
        # k syllable pairs; checked here for k = 1, 2 by raw BFS
        ball = build_tree_ball(ZZ, radius=6, cap=2)
        parent = ball_parents(ball)
        for k, g in ((1, zz_word(1, 1)), (2, zz_word(2, -1, 1, 2))):
            gw = ball.coset_vertex(g, B_SIDE)
            assert tree_distance(parent, gw, ball.v) == 2 * k - 1
            assert tree_distance(parent, gw, ball.w) == 2 * k

    @pytest.mark.parametrize("factors, message", [
        ((Factor("cyclic", 0), Factor("free", 1)), 'unknown factor kind "cyclic"'),
        ((Factor("free", 1), Factor("free_abelian", 0)), "factor rank must be >= 1"),
        (RANK1_FREE, "radius must be >= 1"),
    ])
    def test_ball_checks_factors_then_radius(self, factors, message):
        with pytest.raises(InputError) as exc:
            build_tree_ball(factors, 0, 0)
        assert str(exc.value) == message

    def test_cap_exceeded(self):
        ball = build_tree_ball(ZZ, radius=2, cap=1)
        with pytest.raises(InputError) as exc:
            ball.coset_vertex(zz_word(5), B_SIDE)
        assert str(exc.value) == "syllable [5] exceeds the exponent cap 1 of this ball"

    def test_vertex_budget(self, monkeypatch):
        monkeypatch.setattr(freeprod, "MAX_BALL_VERTICES", 100)
        with pytest.raises(ResourceCapError):
            build_tree_ball(ZZ, radius=6, cap=3)

    def test_budget_is_exact(self, monkeypatch):
        # radius 2, cap 1 in Z * Z: 2 + 2 * (2 + 4) = 14 vertices
        monkeypatch.setattr(freeprod, "MAX_BALL_VERTICES", 14)
        assert build_tree_ball(ZZ, radius=2, cap=1).vertex_count == 14
        monkeypatch.setattr(freeprod, "MAX_BALL_VERTICES", 13)
        with pytest.raises(ResourceCapError):
            build_tree_ball(ZZ, radius=2, cap=1)

    def test_build_allocates_no_per_vertex_storage(self):
        # 2 + 2 * sum of 4^d for d = 1..10 vertices, held as a table of blocks
        tracemalloc.start()
        try:
            ball = build_tree_ball(RANK1_FREE, 10, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ball.vertex_count == 2 + 2 * sum(4 ** d for d in range(1, 11)) == 2_796_202
        assert peak < 64 * 1024

    def test_lemma_distance_maps_have_the_block_sizes(self):
        # the default lemma's BFS from v or w reaches v, w, the source's
        # descendants to depth 6 and the other root's to depth 5
        ball = build_tree_ball(RANK1_FREE, 10, 2)
        size = 2 + sum(4 ** d for d in range(1, 7)) + sum(4 ** d for d in range(1, 6))
        assert size == 6_826
        for root in (ball.v, ball.w):
            assert len(ball.distance_map(root, 6)) == size

    @pytest.mark.parametrize("source", [2, 13, -1])
    def test_distance_map_runs_only_from_the_base_edge(self, source):
        ball = build_tree_ball(ZZ, radius=2, cap=1)
        with pytest.raises(IndexError, match=f"not from vertex {source}$"):
            ball.distance_map(source, 3)

    def test_to_dot_smoke(self):
        dot = build_tree_ball(ZZ, radius=1, cap=1).to_dot()
        assert dot.startswith("graph treeball {") and dot.endswith("}")


ORACLE_PAIRS = {
    "free1*free1": (Factor("free", 1), Factor("free", 1)),
    "free2*abelian1": (Factor("free", 2), Factor("free_abelian", 1)),
    "abelian2*free1": (Factor("free_abelian", 2), Factor("free", 1)),
}


@pytest.mark.parametrize("pair", sorted(ORACLE_PAIRS))
@pytest.mark.parametrize("radius,cap", [(1, 1), (3, 2), (4, 1)])
class TestBallAgainstDictOracle:
    """The block-table ball against a BFS over explicit coset keys."""

    def test_same_vertices_and_parents(self, pair, radius, cap):
        factors = ORACLE_PAIRS[pair]
        ball = build_tree_ball(factors, radius, cap)
        oracle = DictTreeBall(factors, radius, cap)
        assert (ball.v, ball.w) == (oracle.v, oracle.w)
        assert list(ball.edges()) == [(oracle.v, oracle.w)] + [
            (parent, vid) for vid, parent in enumerate(oracle.parent) if parent >= 0]
        parent = ball_parents(ball)
        assert [tree_depth(parent, vid) for vid in range(ball.vertex_count)] == oracle.depth
        for vid, (side, _) in enumerate(oracle.keys):
            assert ball.side(vid) == side
            assert ball.vertex_word(vid).syllables == oracle.syllables(vid)
            assert ball.coset_vertex(normal_form(factors, oracle.syllables(vid)), side) == vid

    def test_same_bfs_distances(self, pair, radius, cap):
        factors = ORACLE_PAIRS[pair]
        ball = build_tree_ball(factors, radius, cap)
        oracle = DictTreeBall(factors, radius, cap)
        for source in (ball.v, ball.w):
            full = dict(enumerate(oracle.distance_map(source)))
            for limit in range(2 * radius + 2):
                within = {vid: d for vid, d in full.items() if d <= limit}
                assert ball.distance_map(source, limit) == within
            assert within == full  # no two ball vertices are over 2 radius + 1 apart


@pytest.mark.parametrize("factors", [ZZ, *ORACLE_PAIRS.values()])
def test_lca_distance_matches_bfs(factors):
    ball = build_tree_ball(factors, radius=3, cap=1)
    oracle = DictTreeBall(factors, radius=3, cap=1)
    parent = ball_parents(ball)
    for x in range(ball.vertex_count):
        dist = oracle.distance_map(x)
        assert [tree_distance(parent, x, y) for y in range(ball.vertex_count)] == dist


ORACLE_BALL = build_tree_ball(ZZ, radius=6, cap=2)


class TestLengthOracle:
    @given(random_fp(4))
    @settings(max_examples=40, deadline=None)
    def test_bfs_agrees_with_formula(self, g):
        ball = ORACLE_BALL
        if any(abs(e[0]) > 2 for _, e in g.syllables):
            return  # outside this ball's exponent cap
        assert hyperbolic_length_bfs(ball, g) == hyperbolic_length(g)


def test_lemma_word_count_cap_is_exact(monkeypatch):
    # radius 3, cap 2: a ball of 170 vertices and 16 + 256 = 272 words
    monkeypatch.setattr(freeprod, "MAX_BALL_VERTICES", 272)
    assert verify_tree_lemma(2, 2, 3) == (272, [])
    monkeypatch.setattr(freeprod, "MAX_BALL_VERTICES", 271)
    with pytest.raises(ResourceCapError, match="checks more than 271 words"):
        verify_tree_lemma(2, 2, 3)


@pytest.mark.parametrize("k_max, radius, message", [
    (2, 2, "--radius 2 is too small for --k 2: the deepest checked vertex gw lies at depth 3"),
    # two faults: the radius rule is checked first
    (0, -2, "--radius -2 is too small for --k 0: the deepest checked vertex gw lies at depth -1"),
    (0, 1, "the tree lemma needs k_max >= 1, got 0"),
])
def test_lemma_refuses_radius_below_deepest_word(k_max, radius, message):
    with pytest.raises(InputError) as exc:
        verify_tree_lemma(k_max, 1, radius)
    assert str(exc.value) == message


def test_lemma_fails_when_the_search_stops_short(monkeypatch):
    # a BFS one level shorter than 2 k_max never reaches gw from w for the
    # longest words, and those words, exactly, must fail
    bounded = TreeBall.distance_map
    monkeypatch.setattr(TreeBall, "distance_map",
                        lambda ball, source, max_depth: bounded(ball, source, max_depth - 1))
    total, failures = verify_tree_lemma(2, 1, 3)
    assert total == 2 ** 2 + 2 ** 4  # exponents +-1, k = 1 and k = 2
    assert sorted(map(tuple, failures)) == sorted(product((-1, 1), repeat=4))


def drop_every(n, sources):
    """A distance_map that, from the given sources, loses every n-th vertex
    it finds, in id order, from the (n // 2)-th on."""
    bounded = TreeBall.distance_map

    def dropping(ball, source, max_depth):
        found = bounded(ball, source, max_depth)
        if source not in sources:
            return found
        return {vid: d for i, (vid, d) in enumerate(sorted(found.items())) if i % n != n // 2}
    return dropping


LEMMA_INPUTS = [(1, 1, 1), (1, 3, 2), (2, 1, 3), (2, 3, 4), (3, 2, 5), (3, 1, 10)]


class TestLemmaAgainstReference:
    """verify_tree_lemma walks exponent index paths; the reference builds
    every word and finds its vertex with coset_vertex."""

    @pytest.mark.parametrize("k_max, cap, radius", LEMMA_INPUTS)
    def test_same_count_and_failures(self, k_max, cap, radius):
        assert verify_tree_lemma(k_max, cap, radius) == reference_tree_lemma(k_max, cap, radius) \
            == (sum((2 * cap) ** (2 * k) for k in range(1, k_max + 1)), [])

    @pytest.mark.parametrize("n, sources", [(2, (0, 1)), (7, (0, 1)), (7, (0,)), (7, (1,))],
                             ids=["half", "7th", "7th-from-v", "7th-from-w"])
    @pytest.mark.parametrize("k_max, cap, radius", LEMMA_INPUTS)
    def test_same_failures_on_a_broken_search(self, monkeypatch, k_max, cap, radius, n, sources):
        # sources (0,) and (1,) break the search from v or from w alone
        monkeypatch.setattr(TreeBall, "distance_map", drop_every(n, sources))
        total, failures = verify_tree_lemma(k_max, cap, radius)
        assert failures  # every ball here has a dropped vertex that some gw lands on
        assert (total, failures) == reference_tree_lemma(k_max, cap, radius)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_exponent_index_is_the_position_of_the_element(self, monkeypatch, cap):
        # at k = 1 each path is the one index of x^e1, for e1 in increasing order
        paths = []
        path_vertex = TreeBall.path_vertex

        def recording(ball, path, side):
            paths.append(list(path))
            return path_vertex(ball, path, side)
        monkeypatch.setattr(TreeBall, "path_vertex", recording)
        verify_tree_lemma(1, cap, 1)
        elements = Factor("free", 1).elements(cap)
        exps = [e for e in range(-cap, cap + 1) if e]
        assert paths == [[elements.index(((1, 1 if e > 0 else -1),) * abs(e))] for e in exps]

    def test_path_past_the_radius_is_refused(self):
        ball = build_tree_ball(ZZ, radius=4, cap=2)
        with pytest.raises(InputError, match="coset vertex lies outside this ball"):
            ball.path_vertex([0] * 5, B_SIDE)


@pytest.mark.parametrize("argv", [
    # the largest cap (MAX_EXPANDED_LENGTH letters), and the most words
    # under MAX_BALL_VERTICES at k = 2 and 3; each radius is the only one
    # both the radius rule and the ball's vertex cap admit
    "--k 1 --radius 1 --cap 999", "--k 2 --cap 23 --radius 3", "--k 3 --cap 6 --radius 5",
])
def test_worst_admitted_lemma_finishes_in_time(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(tcbounds.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tcbounds.cli", "--json", "tree", "verify-lemma",
                           *argv.split()], env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
