"""Finite group presentations, abelianization, and maps to free groups.

Abelianization goes through the Smith normal form of the relator
exponent matrix, computed over arbitrary-precision integers by one loop
that repivots on the smallest remainder and keeps the divisibility
chain as an invariant.  The result carries generator images in the
abelianized group, so claims like "powers of x survive while powers of
y are trivial" are directly checkable.  A map to a free group is one
``FreeHom`` record, with the names of its target's generators, from the
loader to the verifier: calling it on a word substitutes the images
letter by letter and reduces once, and
``check_hom`` is the one check that the map is well defined.
"""

from __future__ import annotations

import json
from typing import Sequence

from .words import (MAX_EXPANDED_LENGTH, InputError, Letter, Record, ResourceCapError, Word,
                    _free_reduce, check_expanded_length, check_names, exponent_sum, parse_word)


class Presentation(Record):
    """A finite presentation: distinct named generators plus nonempty relator
    words of their rank; the constructor does not check (``from_strings``
    checks outside input: the relators, then the name rule of
    ``words.check_names``, then that no relator is empty)."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def generator_index(self, name: str) -> int:
        try:
            return self.generators.index(name) + 1
        except ValueError:
            raise InputError(f"unknown generator {json.dumps(name)}") from None

    def exponent_matrix(self) -> list[list[int]]:
        """Rows indexed by relators, columns by generators."""
        return [[exponent_sum(r, j + 1) for j in range(self.rank)] for r in self.relators]

    @staticmethod
    def from_strings(generators: Sequence[str], relators: Sequence[str]) -> "Presentation":
        gens = tuple(generators)
        rels = tuple(parse_word(r, gens) for r in relators)
        check_names(gens)
        if any(r.is_identity for r in rels):
            raise InputError("empty relator not allowed")
        return Presentation(gens, rels)


# ---------------------------------------------------------------------------
# Smith normal form

def _snf_with_left_transform(matrix: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer matrix by elementary row/column operations.

    Returns (diagonal, U) where diag(d_1, d_2, ...) = U * M * V for
    unimodular U, V (V is not tracked), with d_1 | d_2 | ... and all
    d_i >= 0.

    One pass per diagonal position k.  The pivot is the smallest nonzero
    |entry| of the trailing block (ties by row-major position).  Its
    column and row are reduced by floor quotients; while a remainder is
    left, the smallest one becomes the pivot.  Once both are clear, a
    trailing entry the pivot does not divide has its row added into row
    k, which leaves a smaller remainder.  So on leaving position k the
    pivot divides every trailing entry, and the divisibility chain holds
    as an invariant with no separate pass.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    for k in range(min(m, n)):
        nonzero = [(abs(a[i][j]), i, j) for i in range(k, m) for j in range(k, n) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        while True:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            p = a[k][k]
            for i in range(k + 1, m):
                q = a[i][k] // p
                if q:
                    add_row(i, k, -q)
            for j in range(k + 1, n):
                q = a[k][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[k]
            rest = [(abs(a[i][k]), i, k) for i in range(k + 1, m) if a[i][k]]
            rest += [(abs(a[k][j]), k, j) for j in range(k + 1, n) if a[k][j]]
            if rest:
                _, pi, pj = min(rest)
                continue
            bad = next((i for i in range(k + 1, m) for x in a[i][k + 1:] if x % p), None)
            if bad is None:
                break
            add_row(k, bad, 1)
            pi = pj = k
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]

    diag = [a[i][i] for i in range(min(m, n))]
    return diag, u


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (with d_i >= 0) of an integer matrix."""
    diag, _ = _snf_with_left_transform(matrix)
    return tuple(diag)


# ---------------------------------------------------------------------------
# Abelianization

class AbelianInvariants(Record):
    """H_1 of a presented group: free rank, torsion chain, generator images.

    generator_images[i] gives the image of generator i in the canonical
    decomposition Z/t_1 x ... x Z/t_k x Z^free_rank (torsion coordinates
    first, reduced modulo their torsion order).
    """

    free_rank: int
    torsion: tuple[int, ...]
    generator_images: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise InputError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise InputError("torsion coefficients must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def survives(self, i: int) -> bool:
        """True if generator i (1-based) has nonzero image in H_1."""
        return any(self.generator_images[i - 1])


def abelianization(p: Presentation) -> AbelianInvariants:
    """Abelianize via Smith normal form of the exponent matrix.  Its g x g
    transform and the g images of up to g coordinates are counted against
    MAX_EXPANDED_LENGTH entries before any is built."""
    g, r = p.rank, len(p.relators)
    if g * max(g, r) > MAX_EXPANDED_LENGTH:
        raise ResourceCapError(f"abelianization of {g} generators and {r} relators needs {g * max(g, r)} "
                               f"matrix entries, more than the cap of {MAX_EXPANDED_LENGTH}")
    # columns of `cols` are the relator vectors: Z^r -> Z^g, coker = H_1
    rows = p.exponent_matrix()
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(g)]
    diag, u = _snf_with_left_transform(cols)
    d = list(diag) + [0] * (g - len(diag))
    torsion_coords = [j for j in range(g) if d[j] > 1]
    free_coords = [j for j in range(g) if d[j] == 0]
    images = []
    for i in range(g):
        # image of generator e_i in coker(diag) is column i of U
        col = [u[j][i] for j in range(g)]
        images.append(tuple([col[j] % d[j] for j in torsion_coords] + [col[j] for j in free_coords]))
    return AbelianInvariants(
        free_rank=len(free_coords),
        torsion=tuple(d[j] for j in torsion_coords),
        generator_images=tuple(images),
    )


# ---------------------------------------------------------------------------
# Homomorphisms into free groups

class FreeHom(Record):
    """A candidate homomorphism from a presented group into the free group
    on the target names, one image per source generator.  It only stores;
    ``check_hom`` checks that every relator maps to the identity."""

    source: Presentation
    target: tuple[str, ...]
    images: tuple[Word, ...]

    def __call__(self, w: Word) -> Word:
        """The images substituted into w, freely reduced once; an image past
        MAX_EXPANDED_LENGTH letters unreduced raises ResourceCapError first."""
        letters: list[Letter] = []
        for g, s in w.letters:
            img = self.images[g - 1].letters
            check_expanded_length(len(letters) + len(img), "image")
            letters += img if s == 1 else [(h, -t) for h, t in reversed(img)]
        return Word(_free_reduce(letters), len(self.target))


def check_hom(p: FreeHom) -> Word | None:
    """The first relator of p's source that p does not map to 1, or None
    when p kills every relator and so is a homomorphism."""
    return next((r for r in p.source.relators if not p(r).is_identity), None)
