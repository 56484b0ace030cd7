"""Exact word algebra in finitely generated free groups.

Words are stored as tuples of (generator index, sign) letters, always
freely reduced.  Generator indices are 1-based; rank 0 (the trivial
group) is allowed.  All values are immutable and all operations pure.
``Word(...)`` only stores its fields: letters are checked where they
enter (``generator``, ``reduce``, ``parse_word``), and words derived
from checked words are built directly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

Letter = tuple[int, int]  # (generator index >= 1, sign in {+1, -1})


class InputError(ValueError):
    """Malformed input; every module's input error subclasses it."""


class WordError(InputError):
    """Raised for malformed letters, rank mismatches, or parse errors."""


class ResourceCapError(ValueError):
    """A configured size cap was exceeded."""


# Longest word, in letters before free reduction, that the word and braid
# parsers expand an exponent or commutator into.
MAX_EXPANDED_LENGTH = 1_000_000

# Longest free-group image, in letters, that the braid action builds; the
# default of --max-word.
DEFAULT_WORD_CAP = 64

# Largest tree ball, in vertices, that is built; its size is computed first.
# The default of --max-ball.
MAX_BALL_VERTICES = 5_000_000


def check_expanded_length(length: int, what: str) -> None:
    if length > MAX_EXPANDED_LENGTH:
        raise ResourceCapError(
            f"{what} expands to {length} letters, more than the cap of {MAX_EXPANDED_LENGTH}"
        )


def json_int(value) -> int:
    """An integer field of JSON input: an int that is not a bool, or a string
    matching -?[0-9]+.  Anything else raises ValueError naming it as JSON."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise ValueError("expected an integer, got " + json.dumps(value))


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word of the given rank; the constructor does not check."""

    letters: tuple[Letter, ...]
    rank: int

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise WordError("cannot multiply words of different rank")
        return Word(_free_reduce(self.letters + other.letters), self.rank)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(_free_reduce(self.letters * n), self.rank)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_word(self)


def identity(rank: int) -> Word:
    return Word((), rank)


def generator(i: int, rank: int, sign: int = 1) -> Word:
    return reduce(((i, sign),), rank)


def reduce(raw: Sequence[Letter], rank: int) -> Word:
    """Freely reduce an arbitrary letter sequence.  Idempotent."""
    for gen, sign in raw:
        if not 1 <= gen <= rank:
            raise WordError(f"generator index {gen} out of range for rank {rank}")
        if sign not in (-1, 1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
    return Word(_free_reduce(raw), rank)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1.

    The core is cyclically reduced: its first and last letters do not
    cancel each other.
    """
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] and letters[i][1] == -letters[j - 1][1]:
        i, j = i + 1, j - 1
    return Word(letters[i:j], w.rank), Word(letters[:i], w.rank)


def conjugate_in_free(u: Word, v: Word) -> bool:
    """Decide conjugacy in the free group.

    Both words are cyclically reduced; they are conjugate iff one
    cyclic core is a rotation of the other (tested by doubling).
    """
    if u.rank != v.rank:
        raise WordError("conjugacy test requires words of equal rank")
    cu, _ = cyclically_reduce(u)
    cv, _ = cyclically_reduce(v)
    if len(cu) != len(cv):
        return False
    if not cu.letters:
        return True
    doubled = cu.letters + cu.letters
    n = len(cv.letters)
    return any(doubled[i : i + n] == cv.letters for i in range(n))


def exponent_sum(w: Word, i: int) -> int:
    """Signed count of occurrences of generator i; additive under products."""
    if not 1 <= i <= w.rank:
        raise WordError(f"generator index {i} out of range for rank {w.rank}")
    return sum(s for g, s in w.letters if g == i)


def primitive_root(w: Word) -> Word:
    """Primitive root of the cyclic core of w.

    Returns the shortest cyclic word r such that the core of w is a
    positive power of r.  The identity is its own root.
    """
    core, _ = cyclically_reduce(w)
    n = len(core.letters)
    for d in range(1, n + 1):
        if n % d:
            continue
        candidate = core.letters[:d]
        if candidate * (n // d) == core.letters:
            return Word(candidate, w.rank)
    return core


# ---------------------------------------------------------------------------
# Text format: "a b^-1 a^2", with commutator shorthand "[u,v]" = u v u^-1 v^-1.

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\^-?\d+|[\[\],])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise WordError(f"unexpected character at position {pos}: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], alphabet: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.index = {name: i + 1 for i, name in enumerate(alphabet)}
        self.rank = len(alphabet)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise WordError("unexpected end of word")
        self.pos += 1
        return tok

    def parse_word(self) -> Word:
        w = identity(self.rank)
        while self.peek() is not None and self.peek() not in (",", "]"):
            term = self.parse_term()
            check_expanded_length(len(w) + len(term), "word")
            w = w * term
        return w

    def parse_term(self) -> Word:
        tok = self.next()
        if tok == "[":
            u = self.parse_word()
            if self.next() != ",":
                raise WordError("expected ',' in commutator")
            v = self.parse_word()
            if self.next() != "]":
                raise WordError("expected ']' closing commutator")
            check_expanded_length(2 * (len(u) + len(v)), "commutator")
            atom = commutator(u, v)
        else:
            if tok not in self.index:
                raise WordError(f"unknown generator {tok!r}")
            atom = generator(self.index[tok], self.rank)
        if self.peek() is not None and self.peek().startswith("^"):
            exp = int(self.next()[1:])
            check_expanded_length(len(atom) * abs(exp), "power")
            atom = atom**exp
        return atom


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Parse a word like "x y x^-1 y^-2" or "[a,[b^-1,c]]" over named generators."""
    if not isinstance(text, str):
        raise WordError(f"expected a word, got {text!r}")
    parser = _Parser(_tokenize(text), alphabet)
    w = parser.parse_word()
    if parser.peek() is not None:
        raise WordError(f"trailing token {parser.peek()!r}")
    return w


_DEFAULT_ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz")


def format_word(w: Word, alphabet: Sequence[str] | None = None) -> str:
    """Render a word as "a b^-1 a^2", merging adjacent equal letters."""
    if alphabet is None:
        alphabet = _DEFAULT_ALPHABET[: w.rank] if w.rank <= 26 else tuple(f"x{i}" for i in range(1, w.rank + 1))
    if w.is_identity:
        return "1"
    runs: list[tuple[int, int]] = []
    for g, s in w.letters:
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (s > 0):
            runs[-1] = (g, runs[-1][1] + s)
        else:
            runs.append((g, s))
    parts = []
    for g, e in runs:
        name = alphabet[g - 1]
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)
