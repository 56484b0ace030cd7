"""Braid words, their word problem, and closure linking numbers.

The word problem is decided through the faithful action on the free
group (sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i);
image words are compared after free reduction, so everything is exact.
Linking numbers of the braid closure come from signed crossing counts
with running position tracking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .words import (
    DEFAULT_WORD_CAP,
    InputError,
    ResourceCapError,
    Word,
    _free_reduce,
    check_expanded_length,
)


class BraidError(InputError):
    """Invalid braid data."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators sigma_i^{+-1} of B_n."""

    n: int
    letters: tuple[tuple[int, int], ...]  # (index 1..n-1, sign)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise BraidError("need at least 2 strands")
        for i, s in self.letters:
            if not 1 <= i <= self.n - 1:
                raise BraidError(f"generator index {i} out of range for B_{self.n}")
            if s not in (-1, 1):
                raise BraidError("letter sign must be +1 or -1")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise BraidError("strand counts differ")
        return BraidWord(self.n, self.letters + other.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in self.letters)


_BRAID_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse "s1 s2^-1 s3" into a braid word in B_n."""
    letters: list[tuple[int, int]] = []
    for token in text.split():
        m = _BRAID_TOKEN.match(token)
        if m is None:
            raise BraidError(f"bad braid token {token!r}; expected like s2 or s2^-1")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        check_expanded_length(len(letters) + abs(e), "braid word")
        letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
    return BraidWord(n, tuple(letters))


def permutation(b: BraidWord) -> tuple[int, ...]:
    """The underlying permutation: position p ends holding strand perm[p].

    Returned as a tuple perm with perm[p-1] = strand at position p after
    the braid; homomorphic under concatenation.
    """
    pos = list(range(1, b.n + 1))
    for i, _ in b.letters:
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return tuple(pos)


def is_pure(b: BraidWord) -> bool:
    return permutation(b) == tuple(range(1, b.n + 1))


def alpha_generator(n: int, j: int) -> BraidWord:
    """The pure braid taking strand j in front of strands j+1..n and back
    behind them: sigma_j ... sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} ... sigma_j."""
    if not 1 <= j <= n - 1:
        raise BraidError(f"alpha index {j} out of range for {n} strands")
    ascending = list(range(j, n - 1))
    letters = [(i, 1) for i in ascending]
    letters += [(n - 1, 1), (n - 1, 1)]
    letters += [(i, 1) for i in reversed(ascending)]
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# Word problem via the action on the free group

def _act_letter(images: list[tuple], i: int, s: int) -> None:
    """Apply sigma_i^{s} on the right of the automorphism given by images."""
    # Compose: new images = old images with x_i, x_{i+1} rewritten.
    a, b = images[i - 1], images[i]
    if s == 1:
        # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
        inv_a = tuple((g, -t) for g, t in reversed(a))
        images[i - 1] = _free_reduce(a + b + inv_a)
        images[i] = a
    else:
        # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
        inv_b = tuple((g, -t) for g, t in reversed(b))
        images[i - 1] = b
        images[i] = _free_reduce(inv_b + a + b)


def free_group_action(b: BraidWord, word_cap: int = DEFAULT_WORD_CAP) -> tuple[Word, ...]:
    """Images of the free generators x_1..x_n under the braid automorphism."""
    images: list[tuple] = [((k, 1),) for k in range(1, b.n + 1)]
    for i, s in b.letters:
        _act_letter(images, i, s)
        # only x_i and x_{i+1} changed, and every other image is within the cap
        longest = max(len(images[i - 1]), len(images[i]))
        if longest > word_cap:
            raise ResourceCapError(
                f"free-group image length {longest} exceeds cap {word_cap}"
            )
    return tuple(Word(w, b.n) for w in images)


def braid_equal(u: BraidWord, v: BraidWord, word_cap: int = DEFAULT_WORD_CAP) -> bool:
    """Equality in B_n, decided via the faithful free-group action."""
    if u.n != v.n:
        raise BraidError("strand counts differ")
    return free_group_action(u, word_cap) == free_group_action(v, word_cap)


# ---------------------------------------------------------------------------
# Linking numbers of the closure

@dataclass(frozen=True)
class LinkingMatrix:
    """Pairwise linking numbers of the closure's ordered components.

    Component i is the closure of the strand that starts at position i, so
    lk(i, j) is indexed by starting positions.  Conjugating the braid by c
    relabels the components: lk(c b c^-1)(i, j) = lk(b)(q(i), q(j)), where
    q(i) is the position that strand i reaches under c (the p with
    permutation(c)[p-1] == i).  A pure c leaves every entry unchanged.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def lk(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def last_column(self) -> tuple[int, ...]:
        """(lk(1, n), ..., lk(n-1, n))."""
        return tuple(self.entries[i][self.n - 1] for i in range(self.n - 1))


def linking_matrix(b: BraidWord) -> LinkingMatrix:
    """Signed crossing counts, halved, of the closure of a pure braid.

    Entries are indexed by each strand's starting position; see
    LinkingMatrix for how conjugation by a non-pure braid permutes them.
    """
    if not is_pure(b):
        raise BraidError("linking numbers of the closure need a pure braid")
    pos = list(range(1, b.n + 1))  # pos[p-1] = strand currently at position p
    counts: dict[tuple[int, int], int] = {}
    for i, s in b.letters:
        a, c = pos[i - 1], pos[i]
        pair = (min(a, c), max(a, c))
        counts[pair] = counts.get(pair, 0) + s
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    entries = [[0] * b.n for _ in range(b.n)]
    for (a, c), total in counts.items():
        if total % 2:
            raise BraidError("internal error: odd crossing count for a pure braid")
        entries[a - 1][c - 1] = entries[c - 1][a - 1] = total // 2
    return LinkingMatrix(b.n, tuple(tuple(row) for row in entries))
