"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's optimized code paths: the Smith
reducer below works by blind elementary operations with no pivot
strategy, conjugacy is decided by exhaustive conjugator search, the
two-clique number is maximized over all subset pairs (and, with its
witness, over all maximal-clique pairs), tree balls are
grown by BFS over explicit coset keys, the tree lemma is checked on
whole words and their coset vertices, braid images are measured all
at once after every letter, commuting alphas are checked pair by pair
from the identity, and the chd calculus is evaluated by four
mutually recursive dispatches on the node kind.  Free-product and braid
products, inverses and powers, which no report needs, are built here:
free-product ones through the checked builder ``normal_form``, braid
ones as plain ``BraidWord`` records of already valid letters.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cache
from itertools import combinations, islice, product
from math import gcd
from typing import Iterator, NamedTuple, Optional

from tcbounds import braids
from tcbounds.braids import BraidWord
from tcbounds.freeprod import (
    B_SIDE, RANK1_FREE, Factor, FPWord, build_tree_ball, cyclic_normal_form, normal_form,
)
from tcbounds.groupexpr import (
    BaumslagSolitar12, Free, FreeAbelian, FreeProduct, GroupExpr,
    Opaque, Product, PureBraid, Raag, SurfaceGroup, Trivial,
)
from tcbounds.raag import SimpleGraph
from tcbounds.words import InputError, ResourceCapError, Word, identity, reduce as free_reduce


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
        out.extend(free_reduce(w, rank) for w in nxt)
        frontier = nxt
    return out


@cache
def _conjugators(rank: int, max_len: int) -> tuple[tuple[tuple, tuple], ...]:
    """Each reduced word of length <= max_len as (its letters, its inverse's)."""
    return tuple((c.letters, _inverse(c.letters)) for c in all_reduced_words(rank, max_len))


def _reduced_product(a: tuple, b: tuple) -> tuple:
    """The reduced product of two reduced letter tuples: cancel at the seam."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == (b[k][0], -b[k][1]):
        k += 1
    return a[:len(a) - k] + b[k:]


def conjugate_by_search(u: Word, v: Word, max_conjugator_len: int) -> bool:
    """True iff some c with |c| <= max_conjugator_len has c u c^-1 = v.  The
    conjugators are built once per rank and length, and the products are
    taken on letter tuples."""
    return any(_reduced_product(_reduced_product(c, u.letters), c_inv) == v.letters
               for c, c_inv in _conjugators(u.rank, max_conjugator_len))


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
        return bareiss_det([[matrix[i][j] for j in cols] for i in rows])

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


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so entries stay minors."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def abelian_images_error(exponents, free_rank: int, torsion, images) -> str:
    """What is wrong with generator images as a presentation of
    H_1 = Z/t_1 x ... x Z/t_k x Z^free_rank; "" when nothing is.

    exponents has one row per relator and one column per generator;
    images[i] lists generator i's coordinates, torsion ones first.  The
    images must kill every relator and generate the group; a surjection
    between isomorphic finitely generated abelian groups is an
    isomorphism, so with the right invariants this pins the images down.
    """
    moduli = list(torsion) + [0] * free_rank
    k = len(moduli)
    if any(len(v) != k for v in images):
        return "generator images have the wrong shape"
    for row in exponents:
        for c, m in enumerate(moduli):
            s = sum(e * img[c] for e, img in zip(row, images))
            if s % m if m else s:
                return f"relator {row} does not die under the generator images"
    if k:
        lattice = [[img[c] for img in images] + [m * (c == r) for r, m in enumerate(moduli)]
                   for c in range(k)]
        if any(d != 1 for d in naive_smith(lattice)):
            return "generator images do not generate the reported group"
    return ""


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


def multipartite(parts, isolated=0):
    """The complete multipartite graph with the given part sizes, then
    `isolated` vertices with no edges; it has prod(parts) + isolated
    maximal cliques."""
    labels = [k for k, size in enumerate(parts) for _ in range(size)]
    return SimpleGraph.from_edges(len(labels) + isolated, [
        (u + 1, v + 1) for u, v in combinations(range(len(labels)), 2)
        if labels[u] != labels[v]])


def cone(graph, drop_first=False):
    """graph plus an apex vertex n + 1 joined to every vertex (to every
    vertex but 1 if drop_first): the apex lies in every maximal clique of a
    cone, and only in those without vertex 1 of a near-cone."""
    apex = graph.n + 1
    return SimpleGraph.from_edges(apex, [*graph.edges, *((v, apex) for v in range(
        2 if drop_first else 1, apex))])


def all_pairs_z(graph) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """raag.z_number by scanning every pair (i, j), i <= j, of the graph's
    sorted maximal cliques and keeping the first strictly larger union."""
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
    return best, witness


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


def factor_inverse(factor: Factor, a):
    """The inverse of a canonical element of a free or free-abelian factor."""
    if factor.kind == "free":
        return tuple((g, -s) for g, s in reversed(a))
    return tuple(-x for x in a)


def fp_multiply(*ws: FPWord) -> FPWord:
    """The product of FPWords over the same factors, in normal form."""
    return normal_form(ws[0].factors, [syl for g in ws for syl in g.syllables])


def fp_inverse(g: FPWord) -> FPWord:
    return normal_form(g.factors, [(t, factor_inverse(g.factors[t], e))
                                   for t, e in reversed(g.syllables)])


def hyperbolic_length(g: FPWord) -> int:
    """Translation length on the Bass-Serre tree: 0 for elliptic elements,
    otherwise the syllable count of the cyclic normal form."""
    core = cyclic_normal_form(g)
    return 0 if len(core.syllables) <= 1 else len(core.syllables)


def is_elliptic(g) -> bool:
    """True iff the FPWord g is conjugate into one of the factors (fixes a
    tree vertex)."""
    return len(cyclic_normal_form(g).syllables) <= 1


def ball_parents(ball) -> list[int]:
    """Each TreeBall vertex's parent, -1 at v and w, read from the ball's
    edge list: every edge but the first, the base edge, is (parent, child)."""
    parent = [-1] * ball.vertex_count
    for up, vid in islice(ball.edges(), 1, None):
        parent[vid] = up
    return parent


def tree_depth(parent: list[int], x: int) -> int:
    """Edges from ball vertex x up its parent links (ball_parents) to v or w."""
    d = 0
    while parent[x] >= 0:
        x, d = parent[x], d + 1
    return d


def tree_distance(parent: list[int], x: int, y: int) -> int:
    """Edge count of the geodesic between two vertices of a TreeBall.

    Climbs the parent links (ball_parents) to the lowest common ancestor:
    depth(x) + depth(y) - 2 depth(lca), or depth(x) + depth(y) + 1 when
    x and y hang off different ends of the base edge.
    """
    dx, dy = tree_depth(parent, x), tree_depth(parent, y)
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


def hyperbolic_length_bfs(ball, g) -> int:
    """min over ball vertices x of d(x, g.x), for an FPWord g.

    Distances are edge counts in the ball (tree_distance over its edge
    list), not the syllable formula.  Only vertices whose translate stays inside
    the ball participate; the ball must be large enough for the minimum
    to be attained.
    """
    best, parent = None, ball_parents(ball)
    for vid in range(ball.vertex_count):
        side = ball.side(vid)
        try:
            image = ball.coset_vertex(fp_multiply(g, ball.vertex_word(vid)), side)
        except InputError:
            continue
        d = tree_distance(parent, vid, image)
        if best is None or d < best:
            best = d
            if best == 0:
                break
    if best is None:
        raise InputError("ball too small to evaluate the length")
    return best


def alternating_words(k: int, cap: int) -> Iterator[tuple[tuple[int, ...], FPWord]]:
    """All (exponents, x^e1 y^e2 ... y^e2k) in F(x) * F(y) with 0 < |ei| <= cap."""
    exps = [e for e in range(-cap, cap + 1) if e]
    for combo in product(exps, repeat=2 * k):
        syls = tuple(
            (pos % 2, ((1, 1),) * e if e > 0 else ((1, -1),) * (-e))
            for pos, e in enumerate(combo)
        )
        yield combo, FPWord(RANK1_FREE, syls)


def reference_tree_lemma(k_max: int, cap: int, radius: int) -> tuple[int, list[list[int]]]:
    """verify_tree_lemma's (words checked, failing exponent lists), word by
    word: each alternating word is built whole and its vertex gw found by
    coset_vertex; distances come from the ball's own distance_map."""
    ball = build_tree_ball(RANK1_FREE, radius, cap)
    dist_v = ball.distance_map(ball.v, 2 * k_max)
    dist_w = ball.distance_map(ball.w, 2 * k_max)
    total, failures = 0, []
    for k in range(1, k_max + 1):
        for combo, g in alternating_words(k, cap):
            gw = ball.coset_vertex(g, B_SIDE)
            total += 1
            if dist_v.get(gw, -1) != 2 * k - 1 or dist_w.get(gw, -1) != 2 * k:
                failures.append(list(combo))
    return total, failures


# ---------------------------------------------------------------------------
# Braids

def braid_inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.n, tuple((i, -s) for i, s in reversed(b.letters)))


def braid_product(*factors: BraidWord) -> BraidWord:
    """The braids' letters concatenated, on the strands of the first."""
    return BraidWord(factors[0].n, tuple(lt for b in factors for lt in b.letters))


def braid_power(b: BraidWord, k: int) -> BraidWord:
    return BraidWord(b.n, (b if k >= 0 else braid_inverse(b)).letters * abs(k))


def _inverse(letters: tuple) -> tuple:
    return tuple((g, -t) for g, t in reversed(letters))


def free_group_action_all_images(b, word_cap: int) -> tuple[Word, ...]:
    """braids.free_group_action with the cap checked against the longest
    of all n images after every letter, and each rewritten image reduced
    as a whole rather than across its junctions."""
    images = [((k, 1),) for k in range(1, b.n + 1)]
    for i, s in b.letters:
        x, y = images[i - 1], images[i]
        if s == 1:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            images[i - 1:i + 1] = [free_reduce(x + y + _inverse(x), b.n).letters, x]
        else:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            images[i - 1:i + 1] = [y, free_reduce(_inverse(y) + x + y, b.n).letters]
        longest = max(len(w) for w in images)
        if longest > word_cap:
            raise ResourceCapError(f"free-group image length {longest} exceeds cap {word_cap}")
    return tuple(Word(w, b.n) for w in images)


def first_noncommuting_alphas(n: int, word_cap: int) -> Optional[tuple[int, int]]:
    """The first pair (i, j), i < j, with alpha_i alpha_j != alpha_j alpha_i
    by a pairwise braid_equal from the identity, or None; an image past
    word_cap raises ResourceCapError.  Alphas are read from
    braids.alpha_generator at call time, so a patched one is seen."""
    for i, j in combinations(range(1, n), 2):
        a, b = braids.alpha_generator(n, i), braids.alpha_generator(n, j)
        if not braids.braid_equal(braid_product(a, b), braid_product(b, a), word_cap):
            return i, j
    return None


# ---------------------------------------------------------------------------
# Group expressions

def is_orientable_pd(e: GroupExpr) -> Optional[int]:
    """Dimension if e is derivably an orientable Poincare duality group."""
    match e:
        case Trivial():
            return 0
        case Free(rank=0) | FreeAbelian(rank=0):
            return 0
        case Free(rank=1):
            return 1
        case FreeAbelian(rank=r):
            return r
        case PureBraid(n=2):
            return 1  # PB_2 is infinite cyclic
        case SurfaceGroup():
            return 2
        case Raag(graph=g):
            # complete graph: the group is Z^n
            if g.n * (g.n - 1) // 2 == len(g.edges):
                return g.n
            return None
        case Opaque():
            return e.orientable_pd_dim
        case Product(left=l, right=r):
            dl, dr = is_orientable_pd(l), is_orientable_pd(r)
            if dl is not None and dr is not None:
                return dl + dr
            return None
    return None


def is_duality(e: GroupExpr) -> Optional[int]:
    """Dimension if e is derivably a duality group; None means unknown
    (never a false positive)."""
    opd = is_orientable_pd(e)
    if opd is not None:
        return opd
    match e:
        case Free(rank=r) if r >= 1:
            return 1
        case PureBraid(n=n):
            # iterated extension of free groups, one per strand beyond the
            # first; duality dimension adds along extensions (Bieri-Eckmann)
            return n - 1
        case BaumslagSolitar12():
            return 2  # Bieri-Eckmann: B(1,2) is a duality group of dim 2
        case Opaque():
            return e.duality_dim
        case Product(left=l, right=r):
            dl, dr = is_duality(l), is_duality(r)
            if dl is not None and dr is not None:
                return dl + dr
            return None
    return None


class ChdResult(NamedTuple):
    """The reference's own result: chd in [lower, upper] with the rule trace."""

    lower: int
    upper: int
    trace: tuple[str, ...]


def chd(e: GroupExpr) -> ChdResult:
    """Evaluate cohomological dimension, exactly where a rule applies."""
    match e:
        case Trivial():
            return ChdResult(0, 0, ("chd(1) = 0",))
        case Free(rank=r):
            if r == 0:
                return ChdResult(0, 0, ("chd(1) = 0",))
            return ChdResult(1, 1, (f"free group of rank {r}: chd = 1",))
        case FreeAbelian(rank=r):
            return ChdResult(r, r, (f"Z^{r} is an orientable PD_{r} group: chd = {r}",))
        case PureBraid(n=n):
            return ChdResult(
                n - 1, n - 1,
                (f"chd(PB_{n}) = {n - 1} (configuration-space model, Arnold)",),
            )
        case BaumslagSolitar12():
            return ChdResult(2, 2, ("B(1,2) is a duality group of dimension 2 (Bieri-Eckmann)",))
        case SurfaceGroup(genus=g):
            return ChdResult(2, 2, (f"genus-{g} surface group is an orientable PD_2 group",))
        case Raag(graph=graph):
            omega = graph.clique_number()
            return ChdResult(
                omega, omega,
                (f"chd of a graph group = clique number = {omega} (Salvetti complex)",),
            )
        case Opaque(name=name):
            trace = (f"{name}: chd in [{e.chd_lower}, {e.chd_upper}] ({e.justification})",)
            return ChdResult(e.chd_lower, e.chd_upper, trace)
        case Product(left=l, right=r):
            return _chd_product(e, l, r)
        case FreeProduct(left=l, right=r):
            cl, cr = chd(l), chd(r)
            lo = max(cl.lower, cr.lower)
            hi = max(cl.upper, cr.upper)
            trace = cl.trace + cr.trace + (
                "free product: chd = max of the (torsion-free) factors",
            )
            return ChdResult(lo, hi, trace)
    raise InputError(f"cannot evaluate chd of {e!r}")


def _chd_product(e: Product, l: GroupExpr, r: GroupExpr) -> ChdResult:
    cl, cr = chd(l), chd(r)
    trace = cl.trace + cr.trace
    pd_l, pd_r = is_orientable_pd(l), is_orientable_pd(r)
    if pd_l is not None or pd_r is not None:
        # one factor orientable PD: chd adds exactly, so the rule shifts
        # the other factor's interval by the PD dimension
        pd_dim = pd_l if pd_l is not None else pd_r
        other = cr if pd_l is not None else cl
        return ChdResult(
            pd_dim + other.lower, pd_dim + other.upper,
            trace + ("orientable-PD product rule: chd(AxB) = chd(A) + chd(B)",),
        )
    du_l, du_r = is_duality(l), is_duality(r)
    if du_l is not None and du_r is not None:
        total = du_l + du_r
        return ChdResult(
            total, total,
            trace + (
                f"duality product rule (Bieri-Eckmann): both factors duality, chd = {du_l} + {du_r} = {total}",
            ),
        )
    return ChdResult(
        max(cl.lower, cr.lower), cl.upper + cr.upper,
        trace + (
            "no duality rule applies: interval [max of factors, sum of factors] "
            "(subadditivity can be strict)",
        ),
    )


def geometric_dimension(e: GroupExpr) -> tuple[int, bool]:
    """(upper bound for the geometric dimension, caveat flag).

    The caveat flag is set when the value rests on chd = 2 without an
    explicit aspherical 2-complex (the Eilenberg-Ganea problem leaves
    geometric dimension 3 conceivable in that range).
    """
    match e:
        case Opaque():
            if e.geom_dim is not None:
                return e.geom_dim, False
            c = chd(e)
            return c.upper, c.upper == 2
        case Product(left=l, right=r):
            gl, cl = geometric_dimension(l)
            gr, cr = geometric_dimension(r)
            return gl + gr, cl or cr
        case FreeProduct(left=l, right=r):
            gl, cl = geometric_dimension(l)
            gr, cr = geometric_dimension(r)
            return max(gl, gr), cl or cr
        case _:
            # base kinds carry explicit aspherical complexes (graph, torus,
            # configuration space, surface, Salvetti complex, one-relator
            # presentation complex), so chd is realized geometrically
            return chd(e).upper, False


# ---------------------------------------------------------------------------
# Certificates

def status_counts(cert) -> Counter:
    """How many steps of a certificate carry each status."""
    return Counter(step.status for step in cert.steps)
