"""Free products of free / free-abelian factors and their Bass-Serre trees.

Elements are kept in syllable normal form (alternating nontrivial
syllables from the two factors).  The tree of the free product A * B
has one vertex per coset gA or gB and one edge per group element; a
finite ball around the base edge is materialized in BFS order as
parent and child-range arrays, with factor elements enumerated up to a
generator exponent cap.  Distances inside the ball are edge counts of
the materialized tree (a BFS in ``distance_map``, parent links to the
lowest common ancestor in ``tree_distance``), never the syllable
formula, which is what makes the ball an independent oracle for
translation-length statements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .words import _free_reduce


class FreeProductError(ValueError):
    """Invalid syllable data or resource cap exceeded."""


class ResourceCapError(FreeProductError):
    """A configured enumeration cap was exceeded."""


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

    def invert(self, a):
        if self.kind == "free":
            return tuple((g, -s) for g, s in reversed(a))
        return tuple(-x for x in a)

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
    """An element of factors[0] * factors[1] in syllable normal form."""

    factors: tuple[Factor, Factor]
    syllables: tuple[Syllable, ...]

    def __post_init__(self) -> None:
        prev = None
        for tag, elem in self.syllables:
            if tag not in (0, 1):
                raise FreeProductError(f"bad factor tag {tag}")
            if tag == prev:
                raise FreeProductError("adjacent syllables from the same factor")
            if self.factors[tag].is_identity(elem):
                raise FreeProductError("identity syllable in normal form")
            self.factors[tag].validate(elem)
            prev = tag

    @property
    def syllable_length(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "FPWord") -> "FPWord":
        if self.factors != other.factors:
            raise FreeProductError("mismatched factor data")
        return normal_form(self.factors, self.syllables + other.syllables)

    def inverse(self) -> "FPWord":
        inv = tuple((t, self.factors[t].invert(e)) for t, e in reversed(self.syllables))
        return FPWord(self.factors, inv)

    def __pow__(self, n: int) -> "FPWord":
        if n < 0:
            return self.inverse() ** (-n)
        result = FPWord(self.factors, ())
        for _ in range(n):
            result = result * self
        return result

    def conjugate_by(self, h: "FPWord") -> "FPWord":
        return h * self * h.inverse()


def fp_identity(factors: tuple[Factor, Factor]) -> FPWord:
    return FPWord(factors, ())


def normal_form(factors: tuple[Factor, Factor], raw: Sequence[Syllable]) -> FPWord:
    """Merge same-factor neighbours and drop identity syllables."""
    stack: list[Syllable] = []
    for tag, elem in raw:
        if tag not in (0, 1):
            raise FreeProductError(f"bad factor tag {tag}")
        factors[tag].validate(elem)
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


def is_elliptic(g: FPWord) -> bool:
    """True iff g is conjugate into one of the factors (fixes a tree vertex)."""
    return cyclic_normal_form(g).syllable_length <= 1


def hyperbolic_length(g: FPWord) -> int:
    """Translation length on the Bass-Serre tree: 0 for elliptic elements,
    otherwise the syllable count of the cyclic normal form."""
    core = cyclic_normal_form(g)
    return 0 if core.syllable_length <= 1 else core.syllable_length


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

    Storage is columnar and follows the BFS order: ``_parent``,
    ``_depth`` and ``_side`` per vertex, and ``_first``, where the
    children of p are the ids ``_first[p]`` to ``_first[p + 1] - 1``
    (child i is the coset of element i of factor ``_side[p]``).
    """

    def __init__(self, factors: tuple[Factor, Factor], radius: int, cap: int,
                 max_vertices: int = 5_000_000):
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
        depth = array("i", (0, 0))
        side = array("b", (A_SIDE, B_SIDE))
        first = array("i")
        blocks = [(self.v, self.v + 1, A_SIDE), (self.w, self.w + 1, B_SIDE)]
        for d in range(1, self.radius + 1):
            next_blocks = []
            for lo, hi, s in blocks:
                c = counts[s]
                start, size = len(parent), (hi - lo) * c
                first.extend(range(start, start + size, c))
                parents, children = array("i", range(lo, hi)), array("i", (0,)) * size
                for i in range(c):
                    children[i::c] = parents  # child i of each vertex in the block
                parent += children
                depth += array("i", (d,)) * size
                side += array("b", (1 - s,)) * size
                next_blocks.append((start, start + size, 1 - s))
            blocks = next_blocks
        n = len(parent)
        first += array("i", (n,)) * (n + 1 - len(first))  # leaves, then the end sentinel
        self._parent, self._depth, self._side, self._first = parent, depth, side, first

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

    def distance_map(self, source: int) -> list[int]:
        """BFS distances (edge counts) from a vertex to every ball vertex.

        The search runs depth by depth over the materialized edges: the
        parent link, the child range and the base edge.
        """
        parent, first = self._parent, self._first
        n = len(parent)
        dist = [-1] * n
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            reached: list[int] = []
            for vid in frontier:
                up = parent[vid]
                if up < 0:
                    up = self.w if vid == self.v else self.v
                if dist[up] < 0:
                    dist[up] = d
                    reached.append(up)
                a = first[vid]
                if a != n:  # every leaf's child range is empty and starts at n
                    for child in range(a, first[vid + 1]):
                        if dist[child] < 0:
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
                    max_vertices: int = 5_000_000) -> TreeBall:
    """Materialize the ball of the given radius around the base edge."""
    return TreeBall(factors, radius, cap, max_vertices)


def tree_distance(ball: TreeBall, x: int, y: int) -> int:
    """Edge count of the geodesic between two ball vertices.

    Climbs the parent links to the lowest common ancestor:
    depth(x) + depth(y) - 2 depth(lca), or depth(x) + depth(y) + 1 when
    x and y hang off different ends of the base edge.
    """
    if not 0 <= x < ball.vertex_count or not 0 <= y < ball.vertex_count:
        raise FreeProductError("vertex outside ball")
    parent, depth = ball._parent, ball._depth
    dx, dy = depth[x], depth[y]
    total = dx + dy
    while dx > dy:
        x, dx = parent[x], dx - 1
    while dy > dx:
        y, dy = parent[y], dy - 1
    while x != y:
        if dx == 0:
            return total + 1
        x, y, dx = parent[x], parent[y], dx - 1
    return total - 2 * dx


def hyperbolic_length_bfs(ball: TreeBall, g: FPWord) -> int:
    """Independent oracle: min over ball vertices x of d(x, g.x).

    Distances are edge counts in the materialized ball (tree_distance),
    not the syllable formula.  Only vertices whose translate stays inside
    the ball participate; the ball must be large enough for the minimum
    to be attained.
    """
    best = None
    for vid in range(ball.vertex_count):
        side = ball.side(vid)
        rep = ball.vertex_word(vid)
        try:
            image = ball.coset_vertex(g * rep, side)
        except FreeProductError:
            continue
        d = tree_distance(ball, vid, image)
        if best is None or d < best:
            best = d
            if best == 0:
                break
    if best is None:
        raise FreeProductError("ball too small to evaluate the length")
    return best
