"""Free products of free / free-abelian factors and their Bass-Serre trees.

Elements are kept in syllable normal form (alternating nontrivial
syllables from the two factors).  ``FPWord(...)`` only stores its
fields; ``normal_form`` merges engine-built syllables.  ``TreeBall``
checks its factors, radius and exponent cap, and ``verify_tree_lemma``
its radius, k and word count.

The tree of the free product A * B has one vertex per coset gA or gB
and one edge per group element.  A finite ball around the base edge,
with factor elements enumerated up to a generator exponent cap, is
numbered in BFS order and stored as a table of per-depth blocks of
consecutive ids, O(radius) ints: edges and coset vertices are
arithmetic on it, so no per-vertex array is built.  Distances inside
the ball are edge counts of the tree (a BFS from an end of the base
edge in ``distance_map``, which visits each depth as whole blocks),
never the syllable formula, so the tree lemma that ``verify_tree_lemma``
checks on the ball can fail on its own.  The lemma builds no words: an
alternating word of F(x) * F(y) is its exponents, and the vertex gw is
the end of their element index path (``path_vertex``).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import product
from typing import Iterator, Sequence

from .words import MAX_EXPANDED_LENGTH, InputError, Record, ResourceCapError, _free_reduce

# Largest tree ball, in vertices, that is built; its size is computed first.
MAX_BALL_VERTICES = 5_000_000

# Largest tree ball, in vertices, that is rendered as DOT text (two lines
# per vertex, all held in memory); checked before the first line is built.
MAX_DOT_VERTICES = 100_000


class Factor(Record):
    """A free or free-abelian factor of finite rank; the constructor does
    not check (``TreeBall`` checks the factors it is given)."""

    kind: str  # "free" | "free_abelian"
    rank: int

    # Elements are canonical tuples: reduced letter tuples for free
    # factors, integer vectors for free-abelian ones.

    def identity(self):
        return () if self.kind == "free" else (0,) * self.rank

    def is_identity(self, elem) -> bool:
        return elem == self.identity()

    def multiply(self, a, b):
        if self.kind == "free":
            return _free_reduce(tuple(a) + tuple(b))
        return tuple(x + y for x, y in zip(a, b))

    def _size(self, cap: int) -> int:
        """The letters (free) or coordinates (free abelian) of elements(cap),
        exact up to MAX_EXPANDED_LENGTH; a larger size is some value past it."""
        if self.kind == "free_abelian":  # as 3^20 > MAX_EXPANDED_LENGTH, rank 20 is past it
            return ((2 * cap + 1) ** min(self.rank, 20) - 1) * self.rank
        size = 0
        for length in range(1, cap + 1):
            size += 2 * self.rank * (2 * self.rank - 1) ** (length - 1) * length
            if size > MAX_EXPANDED_LENGTH:
                break
        return size

    def elements(self, cap: int) -> list:
        """Nontrivial elements with letter count / coordinate size <= cap; a
        list past MAX_EXPANDED_LENGTH letters is refused before it is built."""
        if self._size(cap) > MAX_EXPANDED_LENGTH:
            raise ResourceCapError(
                f"{self.kind} factor elements up to exponent cap {cap} exceed "
                f"{MAX_EXPANDED_LENGTH} letters; lower the exponent cap or rank"
            )
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


class FPWord(Record):
    """An element of factors[0] * factors[1] in syllable normal form, unchecked."""

    factors: tuple[Factor, Factor]
    syllables: tuple[Syllable, ...]


def normal_form(factors: tuple[Factor, Factor], raw: Sequence[Syllable]) -> FPWord:
    """Merge same-factor neighbours and drop identity syllables."""
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


def _block_table(counts: tuple[int, int], radius: int) -> tuple[list[int], list[int]]:
    """(starts, sides) of the blocks of a radius-R ball whose A-vertices
    have counts[0] children and B-vertices counts[1]: block b starts at id
    starts[b] and has side sides[b], and starts[-1] is the vertex count.
    Raise ResourceCapError once the ball has more than MAX_BALL_VERTICES
    vertices; nothing of the ball's size is allocated."""
    starts, sides = [0, 1, 2], [A_SIDE, B_SIDE]
    for b in range(2 * radius):
        starts.append(starts[-1] + (starts[b + 1] - starts[b]) * counts[sides[b]])
        sides.append(1 - sides[b])
        if starts[-1] > MAX_BALL_VERTICES:
            raise ResourceCapError(
                f"tree ball of radius {radius} exceeds {MAX_BALL_VERTICES} vertices; "
                "lower the radius or exponent cap"
            )
    return starts, sides


class TreeBall:
    """A radius-R ball around the base edge (v, w) of the Bass-Serre tree.

    Vertices are cosets gA / gB, numbered in BFS order from the base edge.
    A vertex's shortest coset representative is the sequence of factor
    elements along its path from v or w: each vertex of side s has one
    child per element of factor s.  The ball of a tree is a tree, so
    edges are exactly the links from each vertex to its children plus
    the base edge.

    Storage is a table of blocks, O(radius) ints.  In BFS order each depth
    d is two blocks of consecutive ids, the descendants of v and then
    those of w (blocks 2d and 2d + 1), and every vertex of a block has the
    same side.  Below the last depth, the children of block b form block
    b + 2 in their parents' order: with c children per vertex of block b,
    child i (the coset of element i of that block's factor) of the vertex
    at offset j lies at offset j * c + i.  Sides, edges, coset vertices
    and distances from v and w are arithmetic on the table.
    """

    def __init__(self, factors: tuple[Factor, Factor], radius: int, cap: int):
        for f in factors:
            if f.kind not in ("free", "free_abelian"):
                raise InputError(f"unknown factor kind {json.dumps(f.kind)}")
            if f.rank < 1:
                raise InputError("factor rank must be >= 1")
        if radius < 1:
            raise InputError("radius must be >= 1")
        if cap < 1:
            raise InputError("exponent cap must be >= 1")
        self.factors = factors
        self.radius = radius
        self.cap = cap
        self.elements = (factors[0].elements(cap), factors[1].elements(cap))
        self.element_index = (
            {e: i for i, e in enumerate(self.elements[0])},
            {e: i for i, e in enumerate(self.elements[1])},
        )
        self._counts = (len(self.elements[0]), len(self.elements[1]))
        self._starts, self._sides = _block_table(self._counts, radius)
        self.v, self.w = 0, 1

    # -- basic queries -------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._starts[-1]

    @property
    def edge_count(self) -> int:
        # one edge up from every vertex but the two roots, + the base edge
        return self.vertex_count - 1

    def _block(self, vid: int) -> int:
        if not 0 <= vid < self.vertex_count:
            raise IndexError(f"vertex {vid} is not in this ball")
        return bisect_right(self._starts, vid) - 1

    def side(self, vid: int) -> int:
        return self._sides[self._block(vid)]

    def edges(self) -> Iterator[tuple[int, int]]:
        yield (self.v, self.w)
        starts = self._starts
        for b in range(2, len(self._sides)):
            up, c = starts[b - 2], self._counts[self._sides[b - 2]]
            for offset in range(starts[b + 1] - starts[b]):
                yield (up + offset // c, starts[b] + offset)

    def vertex_word(self, vid: int) -> FPWord:
        """The canonical coset representative as an FPWord."""
        syls = []
        b = self._block(vid)
        offset = vid - self._starts[b]
        while b >= 2:
            b -= 2
            tag = self._sides[b]
            offset, i = divmod(offset, self._counts[tag])
            syls.append((tag, self.elements[tag][i]))
        syls.reverse()
        return FPWord(self.factors, tuple(syls))

    def coset_vertex(self, g: FPWord, side: int) -> int:
        """The vertex g*A (side 0) or g*B (side 1)."""
        if g.factors != self.factors:
            raise InputError("element belongs to a different free product")
        syls = g.syllables
        if syls and syls[-1][0] == side:
            syls = syls[:-1]  # trailing syllable is absorbed by the coset
        path = []
        for tag, elem in syls:
            i = self.element_index[tag].get(elem)
            if i is None:
                raise InputError(
                    f"syllable {json.dumps(elem)} exceeds the exponent cap {self.cap} of this ball"
                )
            path.append(i)
        return self.path_vertex(path, side)

    def path_vertex(self, path: Sequence[int], side: int) -> int:
        """The vertex of side 0 (A) or 1 (B) reached from the base edge by
        the element indices path, one per syllable of a coset
        representative that ends in the factor opposite to side."""
        if len(path) > self.radius:
            raise InputError("coset vertex lies outside this ball")
        # the syllables alternate and end in the factor opposite to side,
        # so the path starts at v exactly when its length has side's parity;
        # each syllable goes one depth down, from block b to block b + 2
        b = 0 if (len(path) - side) % 2 == 0 else 1
        offset = 0
        for i in path:
            offset = offset * self._counts[self._sides[b]] + i
            b += 2
        return self._starts[b] + offset

    # -- distances -----------------------------------------------------------

    def distance_map(self, source: int, max_depth: int) -> dict[int, int]:
        """BFS distances (edge counts) from v or w to the ball vertices at
        most max_depth edges away, keyed by vertex id; any other source
        raises IndexError.

        From a root every depth is whole blocks: the base edge leads to the
        other root, so depth d >= 1 is block 2d - 1 - source on the other
        root's side and block 2d + source on the source's.  A ball of a
        tree is convex, so every distance it reports is the tree's.
        """
        if source not in (self.v, self.w):
            raise IndexError(f"distance_map runs from v or w, not from vertex {source}")
        starts, dist = self._starts, {source: 0}
        for d in range(1, max_depth + 1):
            for b in (2 * d - 1 - source, 2 * d + source):
                if b < len(self._sides):
                    dist.update(dict.fromkeys(range(starts[b], starts[b + 1]), d))
        return dist

    def to_dot(self) -> str:
        """Render the ball as a DOT graph; a ball of more than
        MAX_DOT_VERTICES vertices raises ResourceCapError."""
        if self.vertex_count > MAX_DOT_VERTICES:
            raise ResourceCapError(
                f"DOT output of a ball of {self.vertex_count} vertices exceeds the cap of "
                f"{MAX_DOT_VERTICES}; lower the radius or exponent cap"
            )
        lines = ["graph treeball {"]
        for vid in range(self.vertex_count):
            side = "A" if self.side(vid) == A_SIDE else "B"
            label = str(self.vertex_word(vid).syllables) if vid not in (self.v, self.w) else ("v" if vid == self.v else "w")
            lines.append(f'  n{vid} [label="{side}:{label}"];')
        for x, y in self.edges():
            lines.append(f"  n{x} -- n{y};")
        lines.append("}")
        return "\n".join(lines)


def build_tree_ball(factors: tuple[Factor, Factor], radius: int, cap: int) -> TreeBall:
    """The ball of the given radius around the base edge, as a block table."""
    return TreeBall(factors, radius, cap)


RANK1_FREE = (Factor("free", 1), Factor("free", 1))


def verify_tree_lemma(k_max: int, cap: int, radius: int) -> tuple[int, list[list[int]]]:
    """Check d(gw, v) = 2k-1 and d(gw, w) = 2k for every alternating word
    g = x^e1 y^e2 ... y^e2k in F(x) * F(y), 0 < |ei| <= cap, with
    2k <= 2 k_max syllables, by BFS on the F(x) * F(y) tree ball.

    A word is its exponents: each exponent's element index is read once
    from the ball, and the coset gB absorbs y^e2k, so the index path of
    the first 2k - 1 exponents gives the vertex gw of every e2k.  Each
    word is then counted and its gw looked up in both distance maps.
    The BFS stops at depth 2 k_max, the largest distance the check reads;
    a vertex it does not reach fails the check.  A radius below 2 k_max - 1,
    the depth of the deepest gw, is refused, and more than
    MAX_BALL_VERTICES words raise ResourceCapError before the BFS runs.
    Returns (words checked, exponent lists of the failing words in
    ``itertools.product`` order).
    """
    if radius < 2 * k_max - 1:
        raise InputError(
            f"--radius {radius} is too small for --k {k_max}: the deepest checked "
            f"vertex gw lies at depth {2 * k_max - 1}"
        )
    if k_max < 1:
        raise InputError(f"the tree lemma needs k_max >= 1, got {k_max}")
    ball = build_tree_ball(RANK1_FREE, radius, cap)
    to_check = 0
    for k in range(1, k_max + 1):
        to_check += (2 * cap) ** (2 * k)  # 2k exponents, each in [-cap, cap] minus 0
        if to_check > MAX_BALL_VERTICES:
            raise ResourceCapError(f"the tree lemma for k {k_max} and exponent cap {cap} checks "
                                   f"more than {MAX_BALL_VERTICES} words; lower k or the exponent cap")
    dist_v = ball.distance_map(ball.v, 2 * k_max).get
    dist_w = ball.distance_map(ball.w, 2 * k_max).get
    exps = [e for e in range(-cap, cap + 1) if e]
    # x^e and y^e have the same index, as the two factors are equal
    indices = [ball.element_index[0][((1, 1),) * e if e > 0 else ((1, -1),) * -e] for e in exps]
    failures = []
    total = 0
    for k in range(1, k_max + 1):
        to_v, to_w = 2 * k - 1, 2 * k
        for prefix, path in zip(product(exps, repeat=2 * k - 1), product(indices, repeat=2 * k - 1)):
            gw = ball.path_vertex(path, B_SIDE)
            for last in exps:
                total += 1
                if dist_v(gw, -1) != to_v or dist_w(gw, -1) != to_w:
                    failures.append([*prefix, last])
    return total, failures
