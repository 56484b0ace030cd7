import pytest
from hypothesis import given, settings, strategies as st

from oracles import DictTreeBall
from tcbounds.freeprod import (
    A_SIDE,
    B_SIDE,
    FPWord,
    Factor,
    FreeProductError,
    ResourceCapError,
    build_tree_ball,
    cyclic_normal_form,
    fp_identity,
    hyperbolic_length,
    hyperbolic_length_bfs,
    is_elliptic,
    normal_form,
    tree_distance,
)

ZZ = (Factor("free_abelian", 1), Factor("free_abelian", 1))
F2A = (Factor("free", 2), Factor("free_abelian", 1))


def zz_word(*exps):
    """Alternating word x^e0 y^e1 x^e2 ... in Z * Z from nonzero exponents."""
    return FPWord(ZZ, tuple((i % 2, (e,)) for i, e in enumerate(exps)))


class TestFactor:
    def test_bad_kind(self):
        with pytest.raises(FreeProductError):
            Factor("cyclic", 3)

    def test_abelian_elements_count(self):
        # nonzero vectors in [-2, 2]^2
        assert len(Factor("free_abelian", 2).elements(2)) == 24

    def test_free_elements_count(self):
        # reduced nonempty words of length <= 2 over 2 generators
        assert len(Factor("free", 2).elements(2)) == 16

    def test_multiply_invert_free(self):
        f = Factor("free", 2)
        a = ((1, 1), (2, 1))
        assert f.multiply(a, f.invert(a)) == ()

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
        assert g.is_identity

    def test_identity_syllables_dropped(self):
        g = normal_form(ZZ, [(0, (0,)), (1, (2,))])
        assert g.syllables == ((1, (2,)),)

    def test_invalid_alternation_rejected(self):
        with pytest.raises(FreeProductError):
            FPWord(ZZ, ((0, (1,)), (0, (1,))))

    def test_identity_syllable_rejected(self):
        with pytest.raises(FreeProductError):
            FPWord(ZZ, ((0, (0,)),))


def random_fp(max_syllables=6):
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-2, 2)), max_size=max_syllables
    ).map(lambda raw: normal_form(ZZ, [(t, (e,)) for t, e in raw]))


class TestGroupLaws:
    @given(random_fp())
    def test_inverse(self, g):
        assert (g * g.inverse()).is_identity

    @given(random_fp(), random_fp(), random_fp())
    @settings(max_examples=50)
    def test_associative(self, g, h, k):
        assert (g * h) * k == g * (h * k)

    @given(random_fp())
    def test_power(self, g):
        assert g**3 == g * g * g
        assert g**-2 == (g.inverse()) ** 2


class TestConjugacyGeometry:
    def test_single_syllable_elliptic(self):
        assert is_elliptic(zz_word(5))
        assert is_elliptic(fp_identity(ZZ))

    def test_conjugate_of_syllable_elliptic(self):
        g = zz_word(1, 1) * zz_word(3) * zz_word(1, 1).inverse()
        assert is_elliptic(g)
        assert hyperbolic_length(g) == 0

    def test_alternating_word_hyperbolic(self):
        assert hyperbolic_length(zz_word(1, 1)) == 2
        assert hyperbolic_length(zz_word(1, -2, 3, 1)) == 4

    @given(random_fp(), random_fp(4))
    @settings(max_examples=60)
    def test_length_conjugation_invariant(self, g, h):
        assert hyperbolic_length(g) == hyperbolic_length(h * g * h.inverse())

    @given(random_fp())
    def test_cyclic_form_is_shortest(self, g):
        assert cyclic_normal_form(g).syllable_length <= g.syllable_length


class TestTreeBall:
    def test_radius_one_counts(self):
        # v and w each gain 2 coset neighbours for cap 1 in Z * Z
        ball = build_tree_ball(ZZ, radius=1, cap=1)
        assert ball.vertex_count == 6
        assert ball.edge_count == 5

    def test_ball_is_a_tree(self):
        ball = build_tree_ball(ZZ, radius=3, cap=2)
        assert ball.edge_count == ball.vertex_count - 1

    def test_mixed_factors(self):
        ball = build_tree_ball(F2A, radius=2, cap=1)
        # v has 4 neighbours (a, a^-1, b, b^-1 cosets), w has 2
        dist_v = ball.distance_map(ball.v)
        assert sum(1 for d in dist_v if d == 1) == 5  # 4 cosets + w

    def test_vertex_word_round_trip(self):
        ball = build_tree_ball(ZZ, radius=4, cap=2)
        for vid in range(ball.vertex_count):
            rep = ball.vertex_word(vid)
            assert ball.coset_vertex(rep, ball.side(vid)) == vid

    def test_base_edge_distance(self):
        ball = build_tree_ball(ZZ, radius=2, cap=1)
        assert tree_distance(ball, ball.v, ball.w) == 1

    def test_translate_distances(self):
        # d(g.w, v) = 2k - 1 and d(g.w, w) = 2k for alternating g with
        # k syllable pairs; checked here for k = 1, 2 by raw BFS
        ball = build_tree_ball(ZZ, radius=6, cap=2)
        for k, g in ((1, zz_word(1, 1)), (2, zz_word(2, -1, 1, 2))):
            gw = ball.coset_vertex(g, B_SIDE)
            assert tree_distance(ball, gw, ball.v) == 2 * k - 1
            assert tree_distance(ball, gw, ball.w) == 2 * k

    def test_cap_exceeded(self):
        ball = build_tree_ball(ZZ, radius=2, cap=1)
        with pytest.raises(FreeProductError):
            ball.coset_vertex(zz_word(5), B_SIDE)

    def test_vertex_budget(self):
        with pytest.raises(ResourceCapError):
            build_tree_ball(ZZ, radius=6, cap=3, max_vertices=100)

    def test_budget_is_exact(self):
        # radius 2, cap 1 in Z * Z: 2 + 2 * (2 + 4) = 14 vertices
        assert build_tree_ball(ZZ, radius=2, cap=1, max_vertices=14).vertex_count == 14
        with pytest.raises(ResourceCapError):
            build_tree_ball(ZZ, radius=2, cap=1, max_vertices=13)

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
    """The array-backed ball against a BFS over explicit coset keys."""

    def test_same_vertices_and_parents(self, pair, radius, cap):
        factors = ORACLE_PAIRS[pair]
        ball = build_tree_ball(factors, radius, cap)
        oracle = DictTreeBall(factors, radius, cap)
        assert (ball.v, ball.w) == (oracle.v, oracle.w)
        assert list(ball._parent) == oracle.parent
        assert list(ball._depth) == oracle.depth
        for vid, (side, _) in enumerate(oracle.keys):
            assert ball.side(vid) == side
            assert ball.vertex_word(vid).syllables == oracle.syllables(vid)
            assert ball.coset_vertex(FPWord(factors, oracle.syllables(vid)), side) == vid

    def test_same_bfs_distances(self, pair, radius, cap):
        factors = ORACLE_PAIRS[pair]
        ball = build_tree_ball(factors, radius, cap)
        oracle = DictTreeBall(factors, radius, cap)
        n = ball.vertex_count
        for source in (ball.v, ball.w, 2, n // 2, n - 1):
            assert ball.distance_map(source) == oracle.distance_map(source)

    def test_child_ranges_point_back(self, pair, radius, cap):
        ball = build_tree_ball(ORACLE_PAIRS[pair], radius, cap)
        first, parent = ball._first, ball._parent
        children = 0
        for vid in range(ball.vertex_count):
            for child in range(first[vid], first[vid + 1]):
                assert parent[child] == vid
                children += 1
        assert children == ball.vertex_count - 2  # everything but v and w


@pytest.mark.parametrize("factors", [ZZ, *ORACLE_PAIRS.values()])
def test_lca_distance_matches_bfs(factors):
    ball = build_tree_ball(factors, radius=3, cap=1)
    oracle = DictTreeBall(factors, radius=3, cap=1)
    for x in range(ball.vertex_count):
        dist = oracle.distance_map(x)
        assert [tree_distance(ball, x, y) for y in range(ball.vertex_count)] == dist


ORACLE_BALL = build_tree_ball(ZZ, radius=6, cap=2)


class TestLengthOracle:
    @given(random_fp(4))
    @settings(max_examples=40, deadline=None)
    def test_bfs_agrees_with_formula(self, g):
        ball = ORACLE_BALL
        if any(abs(e[0]) > 2 for _, e in g.syllables):
            return  # outside this ball's exponent cap
        assert hyperbolic_length_bfs(ball, g) == hyperbolic_length(g)
