"""Exact word algebra in finitely generated free groups.

Words are stored as tuples of (generator index, sign) letters, always
freely reduced.  Generator indices are 1-based; rank 0 (the trivial
group) is allowed.  All values are immutable and all operations pure.
``Word(...)`` only stores its fields: letters are checked where they
enter (``generator``, ``reduce``, ``parse_word``), and words derived
from checked words are built directly.  ``_join`` is the one product of
reduced words, which cancels across the junction only; a word built
from many pieces collects their letters and is reduced once.  A word
holds indices, not names: ``parse_word`` reads it and ``format_word``
prints it over the names of the generators it is written in.
``Fields`` reads every JSON object of outside input against its key set.
"""

from __future__ import annotations

import json
import re
from typing import Collection, Iterable, Sequence

Letter = tuple[int, int]  # (generator index >= 1, sign in {+1, -1})


class Record:
    """A frozen record as ``@dataclass(frozen=True)`` made one, set up once per
    class without generating code, since start-up is most of a request.  The
    fields are the class's own annotations in order, a class attribute is a
    default, and ``__post_init__`` runs if the class has one.  Equality needs
    the same class and compares the field tuples; the hash is the tuple's."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__annotations__)  # the class's own, from Python 3.10 on

    def __init__(self, *args, **kwargs) -> None:
        fields, own = self.__match_args__, vars(type(self))
        if len(args) < len(fields):  # Record stands for a field with no value
            args += tuple(kwargs.pop(field, own.get(field, Record)) for field in fields[len(args):])
        if kwargs or len(args) != len(fields) or Record in args:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class InputError(ValueError):
    """Malformed input, from any module: the one class the CLI reports with exit 1."""


class ResourceCapError(ValueError):
    """A configured size cap was exceeded."""


class CertificateError(ValueError):
    """A certificate check failed; the message names the failing witness."""


SCHEMA = "tcbounds/1"  # the schema of every JSON document the CLI writes


# Longest word, in letters before free reduction, that the word and braid
# parsers expand an exponent or commutator into, and that a relator's image
# under a free-group homomorphism expands into.
MAX_EXPANDED_LENGTH = 1_000_000

# The default of --max-word: the longest free-group image, in letters, that
# braid equal builds.
DEFAULT_WORD_CAP = 64


def check_expanded_length(length: int, what: str) -> None:
    if length > MAX_EXPANDED_LENGTH:
        raise ResourceCapError(
            f"{what} expands to {length} letters, more than the cap of {MAX_EXPANDED_LENGTH}"
        )


def json_int(value) -> int:
    """An integer field of JSON input: an int that is not a bool, or a string
    matching -?[0-9]+.  Anything else raises InputError naming it as JSON; a
    string past Python's digit limit raises int()'s ValueError, so callers
    catch ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise InputError("expected an integer, got " + json.dumps(value))


class Fields:
    """One JSON object of outside input.  Its keys must be in keys (None
    admits any, to read first the field a loader dispatches on), and a field
    whose default is ... must be present.  Each error is one error line,
    "where: field: problem", the value as JSON; an empty where is the caller's."""

    def __init__(self, data, where: str, keys: Collection[str] | None):
        self.data, self.where = data, where
        if not isinstance(data, dict):
            raise self.problem("expected a JSON object")
        for key in data if keys is not None else ():
            if key not in keys:
                raise self.problem(f"unknown field {json.dumps(key)}")

    def problem(self, *parts: str) -> InputError:
        return InputError(": ".join(filter(None, (self.where, *parts))))

    def get(self, name: str, default=...):
        if default is ... and name not in self.data:
            raise self.problem(f"missing field {json.dumps(name)}")
        return self.data.get(name, default)

    def int(self, name: str, default=...):
        """By the json_int rule; if the default is None, so is a null value."""
        value = self.get(name, default)
        if value is None and default is None:
            return None
        try:
            return json_int(value)
        except ValueError as exc:
            raise self.problem(name, str(exc)) from None

    def str(self, name: str, default=...) -> str:
        value = self.get(name, default)
        if not isinstance(value, str):
            raise self.problem(name, "expected a string, got " + json.dumps(value))
        return value

    def strings(self, name: str) -> list[str]:
        value = self.get(name)
        if not isinstance(value, list):
            raise self.problem(name, "expected a list of strings")
        for i, item in enumerate(value, start=1):
            if not isinstance(item, str):
                raise self.problem(name, f"entry {i} must be a string, got {json.dumps(item)}")
        return value


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def _join(u: tuple, v: tuple) -> tuple:
    """The free reduction of u v for reduced u and v: letters cancel only
    across the junction, so only the cancelling letters are compared."""
    k, m = 0, min(len(u), len(v))
    while k < m and u[-1 - k][0] == v[k][0] and u[-1 - k][1] == -v[k][1]:
        k += 1
    return u[:len(u) - k] + v[k:]


class Word(Record):
    """A freely reduced word of the given rank; the constructor does not check."""

    __slots__ = ("letters", "rank")
    letters: tuple[Letter, ...]
    rank: int

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_join(self.letters, other.letters), self.rank)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(_free_reduce(self.letters * n), self.rank)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def identity(rank: int) -> Word:
    return Word((), rank)


def generator(i: int, rank: int) -> Word:
    return reduce(((i, 1),), rank)


def reduce(raw: Sequence[Letter], rank: int) -> Word:
    """Freely reduce an arbitrary letter sequence.  Idempotent."""
    for gen, sign in raw:
        if not 1 <= gen <= rank:
            raise InputError(f"generator index {gen} out of range for rank {rank}")
        if sign not in (-1, 1):
            raise InputError(f"letter sign must be +1 or -1, got {sign}")
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
    cu, _ = cyclically_reduce(u)
    cv, _ = cyclically_reduce(v)
    return len(cu) == len(cv) and _delimited(cv.letters) in _delimited(cu.letters * 2)


def _delimited(letters: Sequence[Letter]) -> str:
    """The letters as signed indices, each closed by a comma and the first
    opened by one, so a match of one such text in another starts and ends
    on letter boundaries (",1," is not inside ",11,"); str search is linear."""
    return "," + "".join(f"{g * s}," for g, s in letters)


def exponent_sum(w: Word, i: int) -> int:
    """Signed count of occurrences of generator i; additive under products."""
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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"  # a generator name, the one name token
_TOKEN_RE = re.compile(rf"\s*({_NAME}|\^-?\d+|[\[\],])")


def check_names(names: Sequence[str]) -> None:
    """The generator name rule: each name is one name token, and no two are equal."""
    for name in names:
        if not re.fullmatch(_NAME, name):
            raise InputError(f"invalid generator name {json.dumps(name)}")
    if len(set(names)) != len(names):
        raise InputError("duplicate generator names")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise InputError(f"unexpected character at position {pos}: {json.dumps(text[pos:])}")
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
            raise InputError("unexpected end of word")
        self.pos += 1
        return tok

    def parse_word(self) -> Word:
        letters: list[Letter] = []
        while self.peek() is not None and self.peek() not in (",", "]"):
            term = self.parse_term()
            check_expanded_length(len(letters) + len(term), "word")
            letters += term.letters
        return Word(_free_reduce(letters), self.rank)

    def parse_term(self) -> Word:
        tok = self.next()
        if tok == "[":
            u = self.parse_word()
            if self.next() != ",":
                raise InputError("expected ',' in commutator")
            v = self.parse_word()
            if self.next() != "]":
                raise InputError("expected ']' closing commutator")
            check_expanded_length(2 * (len(u) + len(v)), "commutator")
            atom = commutator(u, v)
        elif tok in self.index:
            atom = generator(self.index[tok], self.rank)
        elif tok.startswith("^"):  # a power with no base
            raise InputError(f'expected a generator or "[", got {json.dumps(tok)}')
        else:
            raise InputError(f"unknown generator {json.dumps(tok)}")
        if self.peek() is not None and self.peek().startswith("^"):
            exp = int(self.next()[1:])
            check_expanded_length(len(atom) * abs(exp), "power")
            atom = atom**exp
        return atom


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Parse a word like "x y x^-1 y^-2" or "[a,[b^-1,c]]" over named generators."""
    if not isinstance(text, str):
        raise InputError(f"expected a word, got {json.dumps(text)}")
    parser = _Parser(_tokenize(text), alphabet)
    w = parser.parse_word()
    if parser.peek() is not None:
        raise InputError(f"trailing token {json.dumps(parser.peek())}")
    return w


def format_word(w: Word, names: Sequence[str]) -> str:
    """Render w as "a b^-1 a^2" over the names of the generators it is
    written in (generator g is names[g - 1]), merging adjacent equal
    letters; the identity is "1"."""
    if w.is_identity:
        return "1"
    runs: list[tuple[int, int]] = []
    for g, s in w.letters:
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (s > 0):
            runs[-1] = (g, runs[-1][1] + s)
        else:
            runs.append((g, s))
    return " ".join(names[g - 1] if e == 1 else f"{names[g - 1]}^{e}" for g, e in runs)
