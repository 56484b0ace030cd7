"""Right-angled Artin groups: graphs, maximal cliques and the two-clique
number z.

For a simple graph G the associated group has one generator per vertex
and a commuting relation per edge.  The quantity z(G) -- the maximum
number of vertices covered by two cliques -- equals the topological
complexity of the group (Cohen-Pruidze).  This module holds only that
combinatorics; the clique-pair certificate is built in tcbounds.bounds.
``SimpleGraph.from_json`` refuses more than VERTEX_LIMIT vertices, and
``maximal_cliques`` more than MAX_CLIQUES cliques.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property, reduce
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

from .words import Fields, InputError, Record, ResourceCapError, Word, json_int

if TYPE_CHECKING:
    from . import presentations


VERTEX_LIMIT = 64
# Bron-Kerbosch refuses a graph with more maximal cliques than this before
# its list grows past it; a complete multipartite graph with 11 parts of
# size 3 has 3^11 = 177,147.
MAX_CLIQUES = 100_000


class SimpleGraph(Record):
    """A finite simple graph on vertices 1..n, edges (u, v) with u < v; the
    constructor does not check (``from_edges`` checks outside input)."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        if n < 0:
            raise InputError("vertex count must be non-negative")
        for u, v in normalized:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (1 <= u < v <= n):
                raise InputError(f"edge ({u},{v}) not of the form 1 <= u < v <= n")
        return SimpleGraph(n, normalized)

    @staticmethod
    def from_json(data, *extra: str) -> "SimpleGraph":
        """A graph from {"n": int, "edges": [[u, v], ...]}, plus the keys in extra."""
        fields = Fields(data, "", ("n", "edges", *extra))
        n = fields.int("n")
        if n > VERTEX_LIMIT:
            raise ResourceCapError(f"graph has {n} vertices, limit is {VERTEX_LIMIT}")
        edges = fields.get("edges", [])
        if not isinstance(edges, list):
            raise fields.problem("edges", "expected a list of vertex pairs")
        pairs = []
        for i, edge in enumerate(edges, start=1):
            if not isinstance(edge, list) or len(edge) != 2:
                raise fields.problem("edges", f"edge {i} must be a pair of vertices, got {json.dumps(edge)}")
            try:
                pairs.append((json_int(edge[0]), json_int(edge[1])))
            except ValueError:
                raise fields.problem("edges", f"edge {i} has a non-integer vertex: {json.dumps(edge)}") from None
        return SimpleGraph.from_edges(n, pairs)

    def adjacency_masks(self) -> list[int]:
        """adj[v] = bitmask of neighbours of v (bit i <-> vertex i+1)."""
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return adj

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = sorted(set(vertices))
        for v in vs:
            if not 1 <= v <= self.n:
                raise InputError(f"vertex {v} out of range")
        return all((u, v) in self.edges for u, v in combinations(vs, 2))

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """The maximal cliques, enumerated once per graph."""
        return tuple(maximal_cliques(self))

    def clique_number(self) -> int:
        return max((len(c) for c in self.cliques), default=0)


class CliquePair(Record):
    """Two cliques and the size of their vertex union."""

    k1: tuple[int, ...]
    k2: tuple[int, ...]
    union_size: int


def maximal_cliques(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, via Bron-Kerbosch with
    pivot; more than MAX_CLIQUES of them raise ResourceCapError."""
    if graph.n > VERTEX_LIMIT:
        raise ResourceCapError(f"graph has {graph.n} vertices, limit is {VERTEX_LIMIT}")
    nbr = graph.adjacency_masks()[1:]  # nbr[i]: neighbours of vertex i + 1
    out: list[tuple[int, ...]] = []

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            if len(out) == MAX_CLIQUES:
                raise ResourceCapError(f"graph has more than {MAX_CLIQUES} maximal cliques")
            out.append(tuple(i + 1 for i in bits(r)))
            return
        pivot = max(bits(p | x), key=lambda i: (nbr[i] & p).bit_count())
        for i in list(bits(p & ~nbr[pivot])):
            b = 1 << i
            expand(r | b, p & nbr[i], x & nbr[i])
            p &= ~b
            x |= b

    if graph.n:
        expand(0, (1 << graph.n) - 1, 0)
    return sorted(out)


def z_number(graph: SimpleGraph) -> tuple[int, CliquePair]:
    """max |K1 union K2| over clique pairs of a graph with at least one
    vertex, with a lexicographically minimal witness among the
    maximizing pairs of maximal cliques.

    A branch-and-bound search finds the value.  With c the number of
    vertices common to all maximal cliques, |K_i u K_j| <= |K_i| + |K_j| - c:
    cliques are visited by decreasing size, and a pair whose bound is at
    most the best union so far is not scanned.  A second pass then
    rescans the pairs (i, j), i <= j, in index order, skipping those whose
    bound is below the value, and returns the first one that reaches it:
    the pair an all-pairs scan with a strict improvement rule keeps.
    """
    cliques = graph.cliques
    masks = [sum(1 << (v - 1) for v in c) for c in cliques]
    sizes = [len(c) for c in cliques]
    common = reduce(int.__and__, masks).bit_count()
    order = sorted(range(len(cliques)), key=sizes.__getitem__, reverse=True)
    best = sizes[order[0]]
    for a, i in enumerate(order):
        if 2 * sizes[i] - common <= best:
            break
        for b in range(a + 1, len(order)):
            j = order[b]
            if sizes[i] + sizes[j] - common <= best:
                break
            best = max(best, (masks[i] | masks[j]).bit_count())
    # at_least[t]: ascending indices of the cliques with at least t vertices
    at_least: dict[int, list[int]] = {}
    for i in range(len(cliques)):
        t = best - sizes[i] + common
        if t not in at_least:
            at_least[t] = [k for k in range(len(cliques)) if sizes[k] >= t]
        partners = at_least[t]
        for b in range(bisect_left(partners, i), len(partners)):
            j = partners[b]
            if (masks[i] | masks[j]).bit_count() == best:
                return best, CliquePair(cliques[i], cliques[j], best)
    raise AssertionError("the value's own pair was not found again")


def raag_presentation(graph: SimpleGraph) -> presentations.Presentation:
    """One generator per vertex, a commutator relator per edge.  Only the
    clique-pair certificate needs it, so presentations is imported here:
    a chd request reads graphs without loading it."""
    from . import presentations
    names = tuple(f"x{v}" for v in range(1, graph.n + 1))
    rels = tuple(Word(((u, 1), (v, 1), (u, -1), (v, -1)), graph.n) for u, v in sorted(graph.edges))
    return presentations.Presentation(names, rels)
