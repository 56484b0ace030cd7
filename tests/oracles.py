"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's optimized code paths: the Smith
reducer below works by blind elementary operations with no pivot
strategy, conjugacy is decided by exhaustive conjugator search, the
two-clique number is maximized over all subset pairs, and tree balls
are grown by BFS over explicit coset keys.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from math import gcd

from tcbounds.words import Word, identity, reduce as free_reduce


# ---------------------------------------------------------------------------
# Free groups

def all_reduced_words(rank: int, max_len: int) -> list[Word]:
    out = [identity(rank)]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in range(1, rank + 1):
                for s in (-1, 1):
                    if w and w[-1] == (g, -s):
                        continue
                    nxt.append(w + ((g, s),))
        out.extend(Word(w, rank) for w in nxt)
        frontier = nxt
    return out


def conjugate_by_search(u: Word, v: Word, max_conjugator_len: int) -> bool:
    """True iff some c with |c| <= max_conjugator_len has c u c^-1 = v."""
    for c in all_reduced_words(u.rank, max_conjugator_len):
        if (c * u * c.inverse()).letters == v.letters:
            return True
    return False


# ---------------------------------------------------------------------------
# Smith normal form

def naive_smith(matrix) -> tuple[int, ...]:
    """Textbook recursion: gcd into the corner, clear, recurse."""
    a = [list(row) for row in matrix]
    m, n = len(a), len(a[0]) if a else 0
    diag: list[int] = []
    top = 0
    left = 0
    while top < m and left < n:
        # find any nonzero entry
        found = None
        for i in range(top, m):
            for j in range(left, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[left], row[j] = row[j], row[left]
        # grind until a[top][left] divides its whole row and column
        while True:
            pivot = a[top][left]
            off = None
            for i in range(top + 1, m):
                if a[i][left] % pivot:
                    off = ("row", i)
                    break
            if off is None:
                for j in range(left + 1, n):
                    if a[top][j] % pivot:
                        off = ("col", j)
                        break
            if off is None:
                break
            kind, idx = off
            if kind == "row":
                q = a[idx][left] // pivot
                a[idx] = [x - q * y for x, y in zip(a[idx], a[top])]
                a[top], a[idx] = a[idx], a[top]
            else:
                q = a[top][idx] // pivot
                for row in a:
                    row[idx] -= q * row[left]
                for row in a:
                    row[left], row[idx] = row[idx], row[left]
        pivot = a[top][left]
        for i in range(top + 1, m):
            q = a[i][left] // pivot
            a[i] = [x - q * y for x, y in zip(a[i], a[top])]
        for j in range(left + 1, n):
            q = a[top][j] // pivot
            for row in a:
                row[j] -= q * row[left]
        diag.append(abs(pivot))
        top += 1
        left += 1
    # enforce the divisibility chain by gcd/lcm folding
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            d, e = diag[i], diag[j]
            g = gcd(d, e)
            diag[i], diag[j] = g, d * e // g if g else 0
    size = min(m, n)
    return tuple(diag + [0] * (size - len(diag)))


def determinantal_divisors(matrix) -> tuple[int, ...]:
    """Invariant factors from gcds of k x k minors (a second, independent route)."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    size = min(m, n)

    def minor(rows, cols):
        sub = [[matrix[i][j] for j in cols] for i in rows]
        return _det(sub)

    invariants = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, minor(rows, cols))
        if g == 0:
            invariants.extend([0] * (size - len(invariants)))
            break
        invariants.append(g // prev)
        prev = g
    return tuple(invariants + [0] * (size - len(invariants)))


def _det(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            sub = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(sub)
    return total


# ---------------------------------------------------------------------------
# Graphs

def brute_force_z(n: int, edge_masks: list[int]) -> int:
    """max |S1 union S2| over all pairs of clique subsets, by enumeration.

    edge_masks[v-1] = bitmask of neighbours of vertex v.
    """
    closed = [edge_masks[v] | (1 << v) for v in range(n)]
    cliques = []
    for s in range(1, 1 << n):
        mask = s
        ok = True
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            if s & ~closed[v]:
                ok = False
                break
            t ^= low
        if ok:
            cliques.append(mask)
    best = 0
    for i, c1 in enumerate(cliques):
        for c2 in cliques[i:]:
            u = (c1 | c2).bit_count()
            if u > best:
                best = u
    return best


# ---------------------------------------------------------------------------
# Bass-Serre tree balls

class DictTreeBall:
    """A tree ball grown by BFS over coset keys interned in a dict.

    A vertex key is (side, element indices of its shortest coset
    representative); ids are BFS discovery order from the base edge
    (v, w) = (0, 1), and distances are BFS over explicit children lists.
    """

    def __init__(self, factors, radius: int, cap: int):
        self.elements = (factors[0].elements(cap), factors[1].elements(cap))
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.depth: list[int] = []
        self.parent: list[int] = []
        self.v = self._intern((0, ()), 0, -1)
        self.w = self._intern((1, ()), 0, -1)
        queue = deque([self.v, self.w])
        while queue:
            vid = queue.popleft()
            if self.depth[vid] >= radius:
                continue
            side, idxs = self.keys[vid]
            # an A-vertex gA neighbours g a B for each element a of A, and
            # the coset one syllable shorter toward the base edge
            neighbours = [(1 - side, idxs + (i,)) for i in range(len(self.elements[side]))]
            neighbours.append((1 - side, idxs[:-1]))
            for key in neighbours:
                if key not in self.ids:
                    queue.append(self._intern(key, self.depth[vid] + 1, vid))
        self.children: list[list[int]] = [[] for _ in self.keys]
        for vid, parent in enumerate(self.parent):
            if parent >= 0:
                self.children[parent].append(vid)

    def _intern(self, key, depth: int, parent: int) -> int:
        self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.depth.append(depth)
        self.parent.append(parent)
        return self.ids[key]

    def syllables(self, vid: int) -> tuple:
        """The coset representative's syllables: tags alternate backwards
        from the factor opposite the vertex's side."""
        side, idxs = self.keys[vid]
        t = (len(idxs) - side) % 2
        out = []
        for i in idxs:
            out.append((t, self.elements[t][i]))
            t = 1 - t
        return tuple(out)

    def distance_map(self, source: int) -> list[int]:
        dist = [-1] * len(self.keys)
        dist[source] = 0
        queue = deque([source])
        while queue:
            vid = queue.popleft()
            parent = self.parent[vid]
            if parent < 0:
                parent = self.w if vid == self.v else self.v
            for nb in self.children[vid] + [parent]:
                if dist[nb] < 0:
                    dist[nb] = dist[vid] + 1
                    queue.append(nb)
        return dist
