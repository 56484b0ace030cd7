"""Free products of free / free-abelian factors and their Bass-Serre trees.

Elements are kept in syllable normal form (alternating nontrivial
syllables from the two factors).  ``FPWord(...)`` only stores its
fields: syllables from outside are checked and merged by
``normal_form``, and words the engine derives are built directly.

The tree of the free product A * B has one vertex per coset gA or gB
and one edge per group element; a finite ball around the base edge is
materialized in BFS order as parent and child-range arrays, with factor
elements enumerated up to a generator exponent cap.  Distances inside
the ball are edge counts of the materialized tree (a BFS in
``distance_map``), never the syllable formula, so the tree lemma that
``verify_tree_lemma`` checks on the ball can fail on its own.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .words import MAX_BALL_VERTICES, InputError, ResourceCapError, _free_reduce


class FreeProductError(InputError):
    """Invalid syllable data."""


@dataclass(frozen=True)
class Factor:
    """A free or free-abelian factor of finite rank."""

    kind: str  # "free" | "free_abelian"
    rank: int

    def __post_init__(self) -> None:
        if self.kind not in ("free", "free_abelian"):
            raise FreeProductError(f"unknown factor kind {self.kind!r}")
        if self.rank < 1:
            raise FreeProductError("factor rank must be >= 1")

    # Elements are canonical tuples: reduced letter tuples for free
    # factors, integer vectors for free-abelian ones.

    def identity(self):
        return () if self.kind == "free" else (0,) * self.rank

    def is_identity(self, elem) -> bool:
        return elem == self.identity()

    def validate(self, elem) -> None:
        if self.kind == "free":
            for g, s in elem:
                if not 1 <= g <= self.rank or s not in (-1, 1):
                    raise FreeProductError(f"letter {(g, s)} outside factor of rank {self.rank}")
            if tuple(elem) != _free_reduce(elem):
                raise FreeProductError("free-factor element not reduced")
        else:
            if len(elem) != self.rank:
                raise FreeProductError("abelian element has wrong length")

    def multiply(self, a, b):
        if self.kind == "free":
            return _free_reduce(tuple(a) + tuple(b))
        return tuple(x + y for x, y in zip(a, b))

    def elements(self, cap: int) -> list:
        """Nontrivial elements with letter count / coordinate size <= cap."""
        if self.kind == "free_abelian":
            out = [v for v in product(range(-cap, cap + 1), repeat=self.rank) if any(v)]
            return sorted(out)
        out = []
        frontier: list[tuple] = [()]
        for _ in range(cap):
            nxt = []
            for w in frontier:
                for g in range(1, self.rank + 1):
                    for s in (-1, 1):
                        if w and w[-1] == (g, -s):
                            continue
                        nxt.append(w + ((g, s),))
            out.extend(nxt)
            frontier = nxt
        return sorted(out)


Syllable = tuple[int, object]  # (factor tag 0 or 1, canonical factor element)


@dataclass(frozen=True)
class FPWord:
    """An element of factors[0] * factors[1] in syllable normal form, unchecked."""

    factors: tuple[Factor, Factor]
    syllables: tuple[Syllable, ...]

    @property
    def syllable_length(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables


def normal_form(factors: tuple[Factor, Factor], raw: Sequence[Syllable]) -> FPWord:
    """Merge same-factor neighbours and drop identity syllables."""
    for tag, elem in raw:
        if tag not in (0, 1):
            raise FreeProductError(f"bad factor tag {tag}")
        factors[tag].validate(elem)
    stack: list[Syllable] = []
    for tag, elem in raw:
        if factors[tag].is_identity(elem):
            continue
        while stack and stack[-1][0] == tag:
            merged = factors[tag].multiply(stack.pop()[1], elem)
            if factors[tag].is_identity(merged):
                elem = None
                break
            elem = merged
        if elem is not None:
            stack.append((tag, elem))
    return FPWord(factors, tuple(stack))


def cyclic_normal_form(g: FPWord) -> FPWord:
    """A shortest element in the conjugacy class reachable by cyclic moves."""
    syl = list(g.syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        tag = syl[0][0]
        merged = g.factors[tag].multiply(syl[-1][1], syl[0][1])
        middle = syl[1:-1]
        if g.factors[tag].is_identity(merged):
            syl = middle
        else:
            syl = [(tag, merged)] + middle
    return FPWord(g.factors, tuple(syl))


# ---------------------------------------------------------------------------
# Tree balls

A_SIDE = 0  # vertices gA; canonical rep ends with a B-syllable (or is empty)
B_SIDE = 1  # vertices gB; canonical rep ends with an A-syllable (or is empty)


def _check_ball_size(counts: tuple[int, int], radius: int, max_vertices: int) -> None:
    """Raise ResourceCapError if the ball has more than max_vertices
    vertices, where an A-vertex has counts[0] children and a B-vertex
    counts[1]; nothing is allocated."""
    total = 2
    below_v = below_w = 1  # vertices at the current depth under v and under w
    for d in range(radius):
        below_v *= counts[d % 2]
        below_w *= counts[1 - d % 2]
        total += below_v + below_w
        if total > max_vertices:
            raise ResourceCapError(
                f"tree ball of radius {radius} exceeds {max_vertices} vertices; "
                "lower the radius or exponent cap"
            )


class TreeBall:
    """A radius-R ball around the base edge (v, w) of the Bass-Serre tree.

    Vertices are cosets gA / gB, numbered in BFS order from the base edge.
    A vertex's shortest coset representative is the sequence of factor
    elements along its path from v or w: each vertex of side s has one
    child per element of factor s.  The ball of a tree is a tree, so
    edges are exactly the parent links plus the base edge.

    Storage is columnar and follows the BFS order: ``_parent`` and
    ``_side`` per vertex, and ``_first``, where the children of p are the
    ids ``_first[p]`` to ``_first[p + 1] - 1`` (child i is the coset of
    element i of factor ``_side[p]``).
    """

    def __init__(self, factors: tuple[Factor, Factor], radius: int, cap: int,
                 max_vertices: int):
        if radius < 1:
            raise FreeProductError("radius must be >= 1")
        if cap < 1:
            raise FreeProductError("exponent cap must be >= 1")
        self.factors = factors
        self.radius = radius
        self.cap = cap
        self.elements = (factors[0].elements(cap), factors[1].elements(cap))
        self.element_index = (
            {e: i for i, e in enumerate(self.elements[0])},
            {e: i for i, e in enumerate(self.elements[1])},
        )
        counts = (len(self.elements[0]), len(self.elements[1]))
        _check_ball_size(counts, radius, max_vertices)
        self.v, self.w = 0, 1
        self._build(counts)

    # -- construction -------------------------------------------------------

    def _build(self, counts: tuple[int, int]) -> None:
        # In BFS order each depth is two blocks, the descendants of v and
        # then those of w, and all vertices of a block share one side.
        # The children of a block's vertices form the next depth's block,
        # in their parents' order.
        parent = array("i", (-1, -1))
        side = array("b", (A_SIDE, B_SIDE))
        first = array("i")
        blocks = [(self.v, self.v + 1, A_SIDE), (self.w, self.w + 1, B_SIDE)]
        for _ in range(self.radius):
            next_blocks = []
            for lo, hi, s in blocks:
                c = counts[s]
                start, size = len(parent), (hi - lo) * c
                first.extend(range(start, start + size, c))
                parents, children = array("i", range(lo, hi)), array("i", (0,)) * size
                for i in range(c):
                    children[i::c] = parents  # child i of each vertex in the block
                parent += children
                side += array("b", (1 - s,)) * size
                next_blocks.append((start, start + size, 1 - s))
            blocks = next_blocks
        n = len(parent)
        first += array("i", (n,)) * (n + 1 - len(first))  # leaves, then the end sentinel
        self._parent, self._side, self._first = parent, side, first

    # -- basic queries -------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._parent)

    @property
    def edge_count(self) -> int:
        # parent links (all vertices except the two roots) + base edge
        return len(self._parent) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        yield (self.v, self.w)
        for vid, parent in enumerate(self._parent):
            if parent >= 0:
                yield (parent, vid)

    def side(self, vid: int) -> int:
        return self._side[vid]

    def vertex_word(self, vid: int) -> FPWord:
        """The canonical coset representative as an FPWord."""
        syls = []
        parent = self._parent[vid]
        while parent >= 0:
            tag = self._side[parent]
            syls.append((tag, self.elements[tag][vid - self._first[parent]]))
            vid, parent = parent, self._parent[parent]
        syls.reverse()
        return FPWord(self.factors, tuple(syls))

    def coset_vertex(self, g: FPWord, side: int) -> int:
        """The vertex g*A (side 0) or g*B (side 1)."""
        if g.factors != self.factors:
            raise FreeProductError("element belongs to a different free product")
        syls = g.syllables
        if syls and syls[-1][0] == side:
            syls = syls[:-1]  # trailing syllable is absorbed by the coset
        path = []
        for tag, elem in syls:
            i = self.element_index[tag].get(elem)
            if i is None:
                raise FreeProductError(
                    f"syllable {elem!r} exceeds the exponent cap {self.cap} of this ball"
                )
            path.append(i)
        if len(path) > self.radius:
            raise FreeProductError("coset vertex lies outside this ball")
        # the syllables alternate and end in the factor opposite to side,
        # so the path starts at v exactly when its length has side's parity
        vid = self.v if (len(path) - side) % 2 == 0 else self.w
        for i in path:
            vid = self._first[vid] + i
        return vid

    # -- distances -----------------------------------------------------------

    def distance_map(self, source: int, max_depth: int) -> dict[int, int]:
        """BFS distances (edge counts) from a vertex to the ball vertices at
        most max_depth edges away, keyed by vertex id.

        The search runs depth by depth over the materialized edges: the
        parent link, the child range and the base edge, and stops after
        depth max_depth.  A ball of a tree is convex, so every distance it
        reports is the distance in the whole tree.
        """
        parent, first = self._parent, self._first
        n = len(parent)
        dist = {source: 0}
        frontier = [source]
        for d in range(1, max_depth + 1):
            reached: list[int] = []
            for vid in frontier:
                up = parent[vid]
                if up < 0:
                    up = self.w if vid == self.v else self.v
                if up not in dist:
                    dist[up] = d
                    reached.append(up)
                a = first[vid]
                if a != n:  # every leaf's child range is empty and starts at n
                    for child in range(a, first[vid + 1]):
                        if child not in dist:
                            dist[child] = d
                            reached.append(child)
            frontier = reached
        return dist

    def to_dot(self) -> str:
        """Render the ball as a DOT graph (intended for small balls)."""
        lines = ["graph treeball {"]
        for vid in range(self.vertex_count):
            side = "A" if self.side(vid) == A_SIDE else "B"
            label = str(self.vertex_word(vid).syllables) if vid not in (self.v, self.w) else ("v" if vid == self.v else "w")
            lines.append(f'  n{vid} [label="{side}:{label}"];')
        for x, y in self.edges():
            lines.append(f"  n{x} -- n{y};")
        lines.append("}")
        return "\n".join(lines)


def build_tree_ball(factors: tuple[Factor, Factor], radius: int, cap: int = 2,
                    max_vertices: int = MAX_BALL_VERTICES) -> TreeBall:
    """Materialize the ball of the given radius around the base edge."""
    return TreeBall(factors, radius, cap, max_vertices)


RANK1_FREE = (Factor("free", 1), Factor("free", 1))


def alternating_words(k: int, cap: int) -> Iterator[tuple[tuple[int, ...], FPWord]]:
    """All (exponents, x^e1 y^e2 ... y^e2k) in F(x) * F(y) with 0 < |ei| <= cap."""
    exps = [e for e in range(-cap, cap + 1) if e]
    for combo in product(exps, repeat=2 * k):
        syls = tuple(
            (pos % 2, ((1, 1),) * e if e > 0 else ((1, -1),) * (-e))
            for pos, e in enumerate(combo)
        )
        yield combo, FPWord(RANK1_FREE, syls)


def verify_tree_lemma(k_max: int, cap: int, radius: int,
                      max_vertices: int = MAX_BALL_VERTICES) -> tuple[int, list[list[int]]]:
    """Check d(gw, v) = 2k-1 and d(gw, w) = 2k for every alternating word g
    with 2k <= 2 k_max syllables, by BFS on the F(x) * F(y) tree ball.

    The BFS stops at depth 2 k_max, the largest distance the check reads;
    a vertex it does not reach fails the check.  Returns (words checked,
    exponent lists of the failing words).
    """
    if k_max < 1:
        raise FreeProductError(f"the tree lemma needs k_max >= 1, got {k_max}")
    ball = build_tree_ball(RANK1_FREE, radius, cap, max_vertices)
    dist_v = ball.distance_map(ball.v, 2 * k_max)
    dist_w = ball.distance_map(ball.w, 2 * k_max)
    failures = []
    total = 0
    for k in range(1, k_max + 1):
        for combo, g in alternating_words(k, cap):
            gw = ball.coset_vertex(g, B_SIDE)
            total += 1
            if dist_v.get(gw, -1) != 2 * k - 1 or dist_w.get(gw, -1) != 2 * k:
                failures.append(list(combo))
    return total, failures
