import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tcbounds import raag
from tcbounds.raag import (
    CliquePair,
    SimpleGraph,
    maximal_cliques,
    raag_presentation,
    z_number,
)

from tcbounds.words import InputError, ResourceCapError

from oracles import all_pairs_z, brute_force_z, cone, multipartite


def complete(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def empty(n):
    return SimpleGraph(n, frozenset())


def path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return SimpleGraph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def disjoint_cliques(count, size):
    blocks = [range(b * size + 1, (b + 1) * size + 1) for b in range(count)]
    return SimpleGraph.from_edges(count * size, [
        e for block in blocks for e in itertools.combinations(block, 2)])


@st.composite
def dense_graph(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.sampled_from([True, True, True, False]),
                         min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


# graphs with many maximal cliques of equal size, hence many tied pairs
tied_base = st.one_of(
    st.builds(multipartite, st.lists(st.integers(1, 3), min_size=1, max_size=7)),
    st.builds(disjoint_cliques, st.integers(1, 5), st.integers(1, 4)),
    dense_graph(),
)
# and their cones (the apex lies in every maximal clique) and near-cones (it
# lies in some), which the common-vertex bound must not get wrong
tied_graph = st.one_of(tied_base, st.builds(cone, tied_base, st.booleans()))


@st.composite
def random_graph(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


class TestSimpleGraph:
    def test_loop_rejected(self):
        with pytest.raises(InputError, match="loop"):
            SimpleGraph.from_edges(3, [(2, 2)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InputError, match="not of the form"):
            SimpleGraph.from_edges(3, [(1, 4)])

    def test_from_edges_normalizes(self):
        g = SimpleGraph.from_edges(3, [(3, 1)])
        assert g.edges == frozenset({(1, 3)})

    def test_is_clique(self):
        g = path(4)
        assert g.is_clique([2, 3])
        assert g.is_clique([2])
        assert not g.is_clique([1, 2, 3])

    def test_clique_number(self):
        assert complete(5).clique_number() == 5
        assert cycle(5).clique_number() == 2
        assert empty(4).clique_number() == 1
        assert empty(0).clique_number() == 0


class TestMaximalCliques:
    def test_triangle_plus_pendant(self):
        g = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        assert maximal_cliques(g) == [(1, 2, 3), (3, 4)]

    def test_empty_graph(self):
        assert maximal_cliques(empty(3)) == [(1,), (2,), (3,)]

    def test_complete_graph(self):
        assert maximal_cliques(complete(4)) == [(1, 2, 3, 4)]

    def test_vertex_limit(self):
        with pytest.raises(ResourceCapError, match="graph has 65 vertices, limit is 64"):
            maximal_cliques(empty(65))

    def test_clique_cap(self, monkeypatch):
        # the cap is checked before each clique is appended: a graph with
        # exactly MAX_CLIQUES cliques passes, one more is refused
        monkeypatch.setattr(raag, "MAX_CLIQUES", 8)
        assert len(maximal_cliques(multipartite([2, 2, 2]))) == 8
        with pytest.raises(ResourceCapError) as exc:
            maximal_cliques(multipartite([2, 2, 2], isolated=1))
        assert str(exc.value) == "graph has more than 8 maximal cliques"

    def test_every_maximal_clique_found(self):
        # cross-check against direct enumeration on random graphs
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 7)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            g = SimpleGraph.from_edges(n, edges)
            found = set(maximal_cliques(g))
            masks = g.adjacency_masks()
            closed = [masks[v] | (1 << (v - 1)) for v in range(1, n + 1)]
            for c in found:
                assert g.is_clique(c)
                cm = sum(1 << (v - 1) for v in c)
                # no vertex outside c is adjacent to all of c
                for v in range(1, n + 1):
                    if not cm & (1 << (v - 1)):
                        assert cm & ~closed[v - 1], (c, v)


class TestZNumber:
    def test_path3(self):
        z, pair = z_number(path(3))
        assert z == 3
        assert pair == CliquePair((1, 2), (2, 3), 3)

    def test_complete(self):
        for n in range(1, 8):
            z, pair = z_number(complete(n))
            assert z == n
            assert pair.k1 == pair.k2 == tuple(range(1, n + 1))

    def test_empty(self):
        for n in range(2, 7):
            z, pair = z_number(empty(n))
            assert z == 2
            assert len(pair.k1) == len(pair.k2) == 1

    def test_single_vertex(self):
        assert z_number(empty(1))[0] == 1

    def test_cycle5(self):
        z, _ = z_number(cycle(5))
        assert z == 4

    def test_witness_is_clique_pair(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 7)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.4]
            g = SimpleGraph.from_edges(n, edges)
            z, pair = z_number(g)
            assert g.is_clique(pair.k1) and g.is_clique(pair.k2)
            assert len(set(pair.k1) | set(pair.k2)) == z

    @given(random_graph())
    def test_witness_union_size(self, g):
        z, pair = z_number(g)
        assert pair.union_size == len(set(pair.k1) | set(pair.k2)) == z

    def test_oracle_agreement_random(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 7)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            g = SimpleGraph.from_edges(n, edges)
            masks = g.adjacency_masks()
            assert z_number(g)[0] == brute_force_z(n, masks[1:]), g

    # no deadline: the all-pairs oracle takes about 0.2 s on the 2,187-clique
    # graphs of 7 parts of size 3, and z_number about 0.35 s on their
    # near-cones, whose pairs the common-vertex bound cannot prune
    @given(tied_graph)
    @settings(deadline=None)
    def test_value_and_witness_match_all_pairs_scan(self, g):
        z, pair = z_number(g)
        assert (z, (pair.k1, pair.k2)) == all_pairs_z(g)

    @pytest.mark.parametrize("parts", [6, 8, 10])
    def test_complete_multipartite(self, parts):
        # every maximal clique takes one vertex from each part of size 3, so
        # two cliques cover at most 2 * parts vertices, and disjoint ones do;
        # 10 parts give 3^10 = 59,049 cliques, which an all-pairs scan of
        # 1.7e9 pairs could not finish within the limit below
        start = time.perf_counter()
        z, pair = z_number(multipartite([3] * parts))
        assert z == pair.union_size == 2 * parts
        assert time.perf_counter() - start < 10

    def test_cone_over_multipartite(self):
        # the apex lies in all 3^9 = 19,683 maximal cliques; without
        # subtracting it from |K_i| + |K_j| no pair bound falls to the best
        # union, and the search scans about 1.9e8 pairs
        g = cone(multipartite([3] * 9))
        assert len(g.cliques) == 3**9
        start = time.perf_counter()
        z, pair = z_number(g)
        assert z == pair.union_size == 19
        assert time.perf_counter() - start < 1

    def test_bounds_by_clique_number(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 7)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.6]
            g = SimpleGraph.from_edges(n, edges)
            omega = g.clique_number()
            z, _ = z_number(g)
            assert omega <= z <= 2 * omega


class TestPresentation:
    def test_path3_relators(self):
        p = raag_presentation(path(3))
        assert p.generators == ("x1", "x2", "x3")
        from tcbounds.words import commutator, generator

        assert p.relators == (
            commutator(generator(1, 3), generator(2, 3)),
            commutator(generator(2, 3), generator(3, 3)),
        )

    def test_empty_graph_is_free(self):
        p = raag_presentation(empty(3))
        assert p.relators == ()
