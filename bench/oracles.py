"""Reference answers for the benchmark's requests, computed without tcbounds.

Nothing here imports the package under test, so a wrong report cannot be
confirmed by the code that produced it:

- Smith invariants by plain elementary reduction (abelianization checks);
- maximal cliques by a bitset Bron-Kerbosch with Tomita pivoting, written
  here, and the two-clique number z from them (``raag z`` checks);
- cohomological dimension of expression trees built only from rules that
  are theorems for the node kinds generated (``chd`` checks);
- braid pairs that are equal by construction (relation moves) or unequal
  by construction (different exponent sum, the abelianization B_n -> Z).
"""

from __future__ import annotations

import random
from math import gcd


# ---------------------------------------------------------------------------
# Smith normal form

def smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, zeros included.

    Pivot on the smallest nonzero entry, reduce its row and column modulo
    it, and repeat with the smallest remainder until the pivot's row and
    column are clear.  The diagonal that results has the same cokernel, and
    folding it pairwise into gcd / lcm gives the divisibility chain.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, rows) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, cols) if a[t][j]]
            if not rest:
                break
            _, i, j = min(rest)
            if i != t:
                a[t], a[i] = a[i], a[t]
            else:
                for row in a:
                    row[t], row[j] = row[j], row[t]
        diag.append(abs(a[t][t]))
        t += 1
    diag += [0] * (min(rows, cols) - len(diag))
    # divisibility chain: d_i <- gcd, d_j <- lcm
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            d, e = diag[i], diag[j]
            g = gcd(d, e)
            diag[i], diag[j] = g, (d * e // g if g else 0)
    return diag


def check_abelianization(generators: list[str], exponents: list[list[int]], doc: dict) -> str:
    """Check a ``pres abel`` report against the relator exponent matrix.

    Returns "" when the report is right, else what is wrong.  Besides the
    invariants, the generator images must kill every relator and generate
    the reported group; a surjection between isomorphic finitely
    generated abelian groups is an isomorphism, so this pins the images.
    """
    g = len(exponents[0])
    inv = smith_invariants(exponents)
    rank = sum(1 for d in inv if d)
    torsion = [d for d in inv if d > 1]
    free_rank = g - rank
    if doc.get("free_rank") != free_rank or doc.get("torsion") != torsion:
        return (f"H_1 should be free rank {free_rank}, torsion {torsion}; "
                f"got {doc.get('free_rank')}, {doc.get('torsion')}")
    if doc.get("trivial") != (free_rank == 0 and not torsion):
        return "wrong 'trivial' flag"
    image_map = doc.get("generator_images", {})
    images = [image_map.get(name, ()) for name in generators]
    k = len(torsion) + free_rank
    if len(images) != g or any(len(v) != k for v in images):
        return "generator images have the wrong shape"
    moduli = torsion + [0] * free_rank
    for row in exponents:
        for c, m in enumerate(moduli):
            s = sum(e * img[c] for e, img in zip(row, images))
            if (s % m if m else s):
                return f"a relator does not die under the generator images: {row}"
    if k:
        lattice = [list(col) for col in zip(*images)]
        for c, m in enumerate(moduli):
            lattice[c].append(m)
        if any(d != 1 for d in smith_invariants(lattice)):
            return "generator images do not generate the reported group"
    return ""


# ---------------------------------------------------------------------------
# Graphs

def maximal_cliques(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Bitmasks of the maximal cliques (bit v-1 <-> vertex v)."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u - 1] |= 1 << (v - 1)
        nbr[v - 1] |= 1 << (u - 1)
    out: list[int] = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        px = p | x
        pivot, best = -1, -1
        while px:
            low = px & -px
            u = low.bit_length() - 1
            c = (p & nbr[u]).bit_count()
            if c > best:
                pivot, best = u, c
            px ^= low
        cand = p & ~nbr[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            stack.append((r | low, p & nbr[v], x & nbr[v]))
            p &= ~low
            x |= low
            cand ^= low
    return out


def z_and_omega(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(z, clique number): z is the most vertices two cliques can cover."""
    sizes = sorted(((c.bit_count(), c) for c in maximal_cliques(n, edges)), reverse=True)
    omega = sizes[0][0]
    best = omega
    for i, (si, ci) in enumerate(sizes):
        if 2 * si <= best:
            break
        for sj, cj in sizes[i:]:
            if si + sj <= best:
                break
            best = max(best, (ci | cj).bit_count())
    return best, omega


def is_clique(vertices: list[int], edges: set[tuple[int, int]]) -> bool:
    vs = sorted(set(vertices))
    return all((u, v) in edges for i, u in enumerate(vs) for v in vs[i + 1:])


def random_graph(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < density]


# ---------------------------------------------------------------------------
# Expression trees with a forced chd

def random_expr(rng: random.Random, depth: int, n: int, density: float) -> dict:
    """A JSON expression tree: one raag leaf (``n`` vertices, edge density
    ``density``) under ``depth`` product or free-product nodes, each pairing
    it with Z^k, a surface group or F_r."""
    if depth == 0:
        edges = random_graph(rng, n, density)
        return {"kind": "raag", "n": n, "edges": [list(e) for e in edges]}
    inner = random_expr(rng, depth - 1, n, density)
    other = rng.choice((
        {"kind": "free_abelian", "rank": rng.randint(1, 4)},
        {"kind": "surface", "genus": rng.randint(1, 3)},
        {"kind": "free", "rank": rng.randint(1, 3)},
    ))
    op = "free_product" if other["kind"] == "free" else rng.choice(("product", "free_product"))
    left, right = (other, inner) if rng.random() < 0.5 else (inner, other)
    return {"kind": op, "left": left, "right": right}


def expected_chd(node: dict) -> int:
    """chd of a tree from ``random_expr``, by rules that are theorems here.

    A graph group has chd = clique number (Salvetti complex); Z^k and
    closed orientable surface groups are orientable Poincare duality
    groups, so a product with one adds k or 2; a free product of
    nontrivial torsion-free groups has the larger chd; free groups have 1.
    """
    kind = node["kind"]
    if kind == "raag":
        return z_and_omega(node["n"], [tuple(e) for e in node["edges"]])[1]
    if kind == "free_abelian":
        return node["rank"]
    if kind == "surface":
        return 2
    if kind == "free":
        return 1
    left, right = expected_chd(node["left"]), expected_chd(node["right"])
    return left + right if kind == "product" else max(left, right)


# ---------------------------------------------------------------------------
# Braids

def planted_braid_pair(rng: random.Random, n: int, length: int,
                       equal: bool) -> tuple[str, str]:
    """Two braid words in B_n that are equal, or unequal, by construction.

    Equal pairs: the second word is the first rewritten by moves that keep
    the braid: inserting s_i^e s_i^-e, inserting the relator
    s_i s_j s_i s_j^-1 s_i^-1 s_j^-1 for |i-j| = 1, and swapping adjacent
    letters s_i, s_j with |i-j| >= 2.  Needs n >= 3.  Unequal pairs additionally flip
    the sign of one letter, changing the exponent sum by 2.
    """
    u = [(rng.randint(1, n - 1), rng.choice((-1, 1))) for _ in range(length)]
    v = list(u)
    for _ in range(length):
        move = rng.randrange(3)
        pos = rng.randrange(len(v) + 1)
        i = rng.randint(1, n - 1)
        if move == 0:
            e = rng.choice((-1, 1))
            v[pos:pos] = [(i, e), (i, -e)]
        elif move == 1:
            j = rng.choice([j for j in (i - 1, i + 1) if 1 <= j <= n - 1])
            # s_i s_j s_i (s_j s_i s_j)^-1 = 1
            v[pos:pos] = [(i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)]
        elif pos + 1 < len(v) and abs(v[pos][0] - v[pos + 1][0]) >= 2:
            v[pos], v[pos + 1] = v[pos + 1], v[pos]
    if not equal:
        pos = rng.randrange(len(v))
        i, e = v[pos]
        v[pos] = (i, -e)
    return braid_text(u), braid_text(v)


def braid_text(letters: list[tuple[int, int]]) -> str:
    return " ".join(f"s{i}" if e == 1 else f"s{i}^-1" for i, e in letters)
