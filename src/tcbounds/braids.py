"""Braid words, their word problem, and closure linking numbers.

The word problem is decided through the faithful action on the free
group (sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i);
image words are compared after free reduction, so everything is exact.
The images stay reduced, so a rewritten image is reduced by the one
product of reduced words, ``words._join``, across its two junctions only.
Linking numbers of the braid closure come from signed crossing counts
with running position tracking.  ``check_strands`` is the one strand
rule; the action functions take their image-length cap from the caller.
``act`` is the one action loop: it continues a state (the images as raw
letter tuples) by further letters, so a caller can act a braid once and
continue from its state, as the pure-braid commuting check does.
"""

from __future__ import annotations

import json
import re

from .words import InputError, Record, ResourceCapError, Word, _join, check_expanded_length

# Most strands of a parsed braid; its linking matrix has an entry per pair.
MAX_BRAID_STRANDS = 1000


class BraidWord(Record):
    """A word in the Artin generators sigma_i^{+-1} of B_n; the constructor
    does not check (``parse_braid`` checks outside input)."""

    n: int
    letters: tuple[tuple[int, int], ...]  # (index 1..n-1, sign +-1)


_BRAID_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


def check_strands(n: int, limit: int) -> None:
    """The strand rule of parse_braid (limit MAX_BRAID_STRANDS) and
    bounds.pure_braid_report (limit MAX_PURE_BRAID_STRANDS)."""
    if n < 2:
        raise InputError("need at least 2 strands")
    if n > limit:
        raise ResourceCapError(f"braid on {n} strands exceeds the cap of {limit} strands")


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse "s1 s2^-1 s3" into a braid word in B_n."""
    letters: list[tuple[int, int]] = []
    for token in text.split():
        m = _BRAID_TOKEN.match(token)
        if m is None:
            raise InputError(f"bad braid token {json.dumps(token)}; expected like s2 or s2^-1")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        check_expanded_length(len(letters) + abs(e), "braid word")
        letters.extend([(i, 1 if e > 0 else -1)] * abs(e))
    check_strands(n, MAX_BRAID_STRANDS)
    for i, _ in letters:
        if not 1 <= i <= n - 1:
            raise InputError(f"generator index {i} out of range for B_{n}")
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
    """The pure braid taking strand j (1 <= j < n) in front of strands j+1..n
    and back behind them: sigma_j ... sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} ... sigma_j."""
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
        images[i - 1] = _join(_join(a, b), inv_a)
        images[i] = a
    else:
        # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
        inv_b = tuple((g, -t) for g, t in reversed(b))
        images[i - 1] = b
        images[i] = _join(_join(inv_b, a), b)


def free_basis(n: int) -> tuple[tuple, ...]:
    """The identity automorphism's images x_1..x_n, as raw letter tuples."""
    return tuple(((k, 1),) for k in range(1, n + 1))


def act(images: tuple[tuple, ...], letters: tuple[tuple[int, int], ...],
        word_cap: int) -> tuple[tuple, ...]:
    """The images after acting further by the braid letters, each reduced;
    an image longer than word_cap after any letter raises ResourceCapError.
    This is the one action loop: free_group_action runs it from the free
    basis, and the pure-braid check continues each alpha's state with it."""
    out = list(images)
    for i, s in letters:
        _act_letter(out, i, s)
        # only x_i and x_{i+1} changed, and every other image is within the cap
        longest = max(len(out[i - 1]), len(out[i]))
        if longest > word_cap:
            raise ResourceCapError(
                f"free-group image length {longest} exceeds cap {word_cap}"
            )
    return tuple(out)


def free_group_action(b: BraidWord, word_cap: int) -> tuple[Word, ...]:
    """Images of the free generators x_1..x_n under the braid automorphism."""
    return tuple(Word(w, b.n) for w in act(free_basis(b.n), b.letters, word_cap))


def braid_equal(u: BraidWord, v: BraidWord, word_cap: int) -> bool:
    """Equality in B_n, decided via the faithful free-group action."""
    return free_group_action(u, word_cap) == free_group_action(v, word_cap)


# ---------------------------------------------------------------------------
# Linking numbers of the closure

class LinkingMatrix(Record):
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
    pos = list(range(1, b.n + 1))  # pos[p-1] = strand currently at position p
    counts: dict[tuple[int, int], int] = {}
    for i, s in b.letters:
        a, c = pos[i - 1], pos[i]
        pair = (min(a, c), max(a, c))
        counts[pair] = counts.get(pair, 0) + s
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    if pos != list(range(1, b.n + 1)):
        raise InputError("linking numbers of the closure need a pure braid")
    entries = [[0] * b.n for _ in range(b.n)]
    for (a, c), total in counts.items():
        # two strands of a pure braid cross an even number of times
        entries[a - 1][c - 1] = entries[c - 1][a - 1] = total // 2
    return LinkingMatrix(b.n, tuple(tuple(row) for row in entries))
