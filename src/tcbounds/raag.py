"""Right-angled Artin groups: graphs, maximal cliques and the two-clique
number z.

For a simple graph G the associated group has one generator per vertex
and a commuting relation per edge.  The quantity z(G) -- the maximum
number of vertices covered by two cliques -- equals the topological
complexity of the group (Cohen-Pruidze).  This module holds only that
combinatorics; the clique-pair certificate is built in tcbounds.bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

from .words import InputError, Word, commutator, generator, json_int

if TYPE_CHECKING:
    from . import presentations


class GraphError(InputError):
    """Invalid graph data or size limit exceeded."""


VERTEX_LIMIT = 64


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise GraphError(f"edge ({u},{v}) not of the form 1 <= u < v <= n")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return SimpleGraph(n, normalized)

    @staticmethod
    def from_json(data) -> "SimpleGraph":
        """Validate and build a graph from {"n": int, "edges": [[u, v], ...]}."""
        if not isinstance(data, dict):
            raise GraphError("expected a JSON object")
        if "n" not in data:
            raise GraphError("missing field 'n'")
        try:
            n = json_int(data["n"])
        except ValueError as exc:
            raise GraphError(f"n: {exc}") from None
        edges = data.get("edges", [])
        if not isinstance(edges, list):
            raise GraphError("edges: expected a list of vertex pairs")
        pairs = []
        for i, edge in enumerate(edges, start=1):
            if not isinstance(edge, list) or len(edge) != 2:
                raise GraphError(f"edges: edge {i} must be a pair of vertices, got {json.dumps(edge)}")
            try:
                pairs.append((json_int(edge[0]), json_int(edge[1])))
            except ValueError:
                raise GraphError(f"edges: edge {i} has a non-integer vertex: {json.dumps(edge)}") from None
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
                raise GraphError(f"vertex {v} out of range")
        return all((u, v) in self.edges for u, v in combinations(vs, 2))

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        """The maximal cliques, enumerated once per graph."""
        return tuple(maximal_cliques(self))

    def clique_number(self) -> int:
        if self.n == 0:
            return 0
        return max(len(c) for c in self.cliques)


@dataclass(frozen=True)
class CliquePair:
    """Two cliques and the size of their vertex union."""

    k1: tuple[int, ...]
    k2: tuple[int, ...]
    union_size: int


def maximal_cliques(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, via Bron-Kerbosch with pivot."""
    if graph.n > VERTEX_LIMIT:
        raise GraphError(f"graph has {graph.n} vertices, limit is {VERTEX_LIMIT}")
    adj = graph.adjacency_masks()
    nbr = [0] * graph.n
    for v in range(1, graph.n + 1):
        nbr[v - 1] = adj[v]
    out: list[tuple[int, ...]] = []

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
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
    """max |K1 union K2| over clique pairs, with a lexicographically
    minimal witness among the maximizing pairs of maximal cliques."""
    if graph.n < 1:
        raise GraphError("graph must have at least one vertex")
    cliques = graph.cliques
    masks = [sum(1 << (v - 1) for v in c) for c in cliques]
    best = -1
    witness = None
    for i in range(len(cliques)):
        for j in range(i, len(cliques)):
            size = (masks[i] | masks[j]).bit_count()
            if size > best:
                best = size
                witness = (cliques[i], cliques[j])
    assert witness is not None
    return best, CliquePair(witness[0], witness[1], best)


def raag_presentation(graph: SimpleGraph) -> presentations.Presentation:
    """One generator per vertex, a commutator relator per edge.  Only the
    clique-pair certificate needs it, so presentations is imported here:
    a chd request reads graphs without loading it."""
    from . import presentations
    names = tuple(f"x{v}" for v in range(1, graph.n + 1))
    rels: list[Word] = []
    for u, v in sorted(graph.edges):
        rels.append(commutator(generator(u, graph.n), generator(v, graph.n)))
    return presentations.Presentation(names, tuple(rels))
