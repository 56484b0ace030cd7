import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tcbounds
from tcbounds.words import (
    MAX_EXPANDED_LENGTH,
    Fields,
    InputError,
    ResourceCapError,
    Word,
    commutator,
    conjugate_in_free,
    cyclically_reduce,
    exponent_sum,
    format_word,
    generator,
    identity,
    json_int,
    parse_word,
    primitive_root,
    reduce,
)

from oracles import all_reduced_words, conjugate_by_search

AB = ("a", "b")


def w(text, alphabet=AB):
    return parse_word(text, alphabet)


raw_letters = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from([-1, 1])), max_size=20
)


def random_word(rank=2, max_len=12):
    return st.lists(
        st.tuples(st.integers(1, rank), st.sampled_from([-1, 1])), max_size=max_len
    ).map(lambda ls: reduce(ls, rank))


class TestReduce:
    def test_cancellation(self):
        assert reduce([(1, 1), (1, -1)], 1).is_identity

    def test_single_cancellation(self):
        assert reduce([(1, 1), (2, 1), (2, -1), (1, 1)], 2) == w("a a")

    def test_prefix_cancellation(self):
        assert reduce([(1, -1), (1, 1), (2, 1)], 2) == w("b")

    def test_index_out_of_range(self):
        with pytest.raises(InputError, match="^generator index 3 out of range for rank 2$"):
            reduce([(3, 1)], 2)

    @given(raw_letters)
    def test_idempotent(self, letters):
        once = reduce(letters, 2)
        assert reduce(once.letters, 2) == once

    @given(random_word(), random_word(), random_word())
    def test_product_reduces_the_concatenation(self, u, v, c):
        # c then c^-1 at the junction cancels deeply
        for x, y in ((u, v), (u * c, c.inverse() * v)):
            assert x * y == reduce(x.letters + y.letters, 2)

    @given(random_word())
    def test_inverse_cancels(self, u):
        assert (u * u.inverse()).is_identity


class TestCyclicReduce:
    def test_conjugate_of_generator(self):
        core, conj = cyclically_reduce(w("a b a^-1"))
        assert core == w("b")
        assert conj == w("a")

    def test_already_cyclically_reduced(self):
        core, conj = cyclically_reduce(w("a b"))
        assert core == w("a b")
        assert conj.is_identity

    def test_negative_conjugator(self):
        core, conj = cyclically_reduce(w("a^-1 b a a"))
        # x^-1 (b a) x form: core starts after stripping the matched ends
        assert conj * core * conj.inverse() == w("a^-1 b a a")

    @given(random_word())
    def test_decomposition(self, u):
        core, conj = cyclically_reduce(u)
        assert conj * core * conj.inverse() == u


class TestConjugacy:
    def test_rotation(self):
        assert conjugate_in_free(w("a b"), w("b a"))

    def test_distinct_generators(self):
        assert not conjugate_in_free(w("a"), w("b"))

    def test_powers_of_distinct_generators(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                expected = m == 0 and n == 0
                assert conjugate_in_free(w("a") ** m, w("b") ** n) is expected

    @given(random_word(), random_word(max_len=6))
    def test_conjugation_invariance(self, u, c):
        assert conjugate_in_free(u, c * u * c.inverse())

    @given(random_word(max_len=6), random_word(max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_conjugator_search(self, u, v):
        assert conjugate_in_free(u, v) == conjugate_by_search(u, v, 6)

    def test_index_is_matched_whole(self):
        x1, x11 = generator(1, 12), generator(11, 12)
        for u, v in ((x1, x11), (x1.inverse(), x1), (x1 * x1, x11 * x1)):
            assert not conjugate_in_free(u, v) and not conjugate_in_free(v, u)

    @given(random_word(max_len=6), random_word(max_len=6), random_word(max_len=6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_search_on_indices_1_and_11(self, u, v, c, conjugate):
        """a -> x_1, b -> x_11 embeds F(a, b) in F_12 as a free factor, and the
        retraction onto it keeps conjugacy both ways, so the search over F(a, b)
        decides it; a conjugator of length <= 6 always exists here."""
        if conjugate:
            v = c * u * c.inverse()

        def to_rank_12(x):
            return Word(tuple((1 if g == 1 else 11, s) for g, s in x.letters), 12)

        expected = conjugate_by_search(u, v, 6)
        assert conjugate_in_free(to_rank_12(u), to_rank_12(v)) == expected
        assert conjugate_in_free(to_rank_12(v), to_rank_12(u)) == expected


class TestExponentSum:
    def test_relator_y(self):
        assert exponent_sum(w("x y x^-1 y^-2", ("x", "y")), 2) == -1

    def test_relator_x(self):
        assert exponent_sum(w("x y x^-1 y^-2", ("x", "y")), 1) == 0

    @given(random_word())
    def test_inverse_pair(self, u):
        prod = u * u.inverse()
        assert exponent_sum(prod, 1) == 0 and exponent_sum(prod, 2) == 0

    @given(random_word(), random_word())
    def test_additive(self, u, v):
        for i in (1, 2):
            assert exponent_sum(u * v, i) == exponent_sum(u, i) + exponent_sum(v, i)


class TestParseFormat:
    def test_commutator_shorthand(self):
        assert w("[a,b]") == commutator(w("a"), w("b"))

    def test_nested_commutator(self):
        expected = commutator(w("a"), commutator(w("b").inverse(), w("a") * w("b")))
        assert w("[a,[b^-1,a b]]") == expected

    def test_exponents(self):
        assert w("a^3 b^-2") == w("a a a b^-1 b^-1")

    def test_unknown_generator(self):
        with pytest.raises(InputError, match='^unknown generator "c"$'):
            w("c")

    def test_roundtrip(self):
        for text in ("a b^-1 a^2", "b^-3", "1"):
            word = w(text) if text != "1" else identity(2)
            assert w(format_word(word, AB)) == word if text != "1" else word.is_identity

    def test_rank_zero(self):
        assert parse_word("", ()).is_identity

    @pytest.mark.parametrize("text", [
        f"a^{MAX_EXPANDED_LENGTH + 1}",
        f"[a^{MAX_EXPANDED_LENGTH // 4 + 1}, b^{MAX_EXPANDED_LENGTH // 4}]",
        f"a^{MAX_EXPANDED_LENGTH // 2} b^{MAX_EXPANDED_LENGTH // 2 + 1}",
    ])
    def test_expansion_cap(self, text):
        with pytest.raises(ResourceCapError):
            w(text)

    def test_cap_counts_letters_before_reduction(self):
        # 1,200,000 letters that reduce to 400,000
        half = MAX_EXPANDED_LENGTH * 2 // 5
        with pytest.raises(ResourceCapError, match=f"word expands to {3 * half} letters"):
            w(f"a^{half} a^-{half} a^{half}")

    @given(random_word(), st.integers(-4, 4))
    def test_power_is_repeated_product(self, u, n):
        expected = identity(2)
        for _ in range(abs(n)):
            expected = expected * (u if n > 0 else u.inverse())
        assert u**n == expected


class TestPrimitiveRoot:
    def test_power(self):
        assert primitive_root(w("a b a b a b")) == w("a b")

    def test_primitive(self):
        assert primitive_root(w("a b")) == w("a b")

    def test_identity(self):
        assert primitive_root(identity(2)).is_identity


class TestDerivedWordsAreValid:
    """Words the engine builds directly are fixed by the checked builder."""

    @given(random_word(), random_word(), st.integers(-4, 4))
    def test_derived_words(self, u, v, n):
        derived = (u * v, u.inverse(), u**n, *cyclically_reduce(u * v),
                   primitive_root(u), primitive_root(u**n))
        for x in derived:
            assert reduce(x.letters, x.rank) == x


def test_reduce_rejects_bad_sign():
    with pytest.raises(InputError, match="^letter sign must be \\+1 or -1, got 2$"):
        reduce([(1, 2)], 2)


@pytest.mark.parametrize("value", [2.9, 4.0, True, False, "2.5", None, [1],
                                   "1_0", " 4 ", "+4", "4\n", "", "-", "\u0664"])
def test_json_int_rejects_non_integers(value):
    with pytest.raises((TypeError, ValueError)):
        json_int(value)


@pytest.mark.parametrize("value, shown", [(True, "true"), (None, "null"), ("1_0", '"1_0"'),
                                          ([1], "[1]"), (2.5, "2.5")])
def test_json_int_error_shows_the_json_value(value, shown):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {shown}")):
        json_int(value)


def test_json_int_accepts_ints_and_digit_strings():
    assert (json_int(4), json_int("4"), json_int(-2)) == (4, 4, -2)


def test_generator_out_of_range():
    with pytest.raises(InputError, match="^generator index 2 out of range for rank 1$"):
        generator(2, 1)


def test_word_count_sanity():
    # 1 + 4 + 4*3 reduced words of length <= 2 in F_2
    assert len(all_reduced_words(2, 2)) == 17


# 100,000 letters each; a loop that rescans what it has built takes minutes
LONG_WORD_RUNS = {
    "parse": "w = parse_word('a b ' * 50_000, 'ab'); assert len(w) == 100_000",
    "images": "r = reduce([(1, 1), (2, 1)] * 50_000, 2); p = Presentation(('a', 'b'), ()); "
              "assert len(FreeHom(p, ('a', 'b'), (generator(2, 2), generator(1, 2)))(r)) == 100_000",
    "conjugacy": "u = reduce([(1, 1)] * 99_999 + [(2, 1)], 2); v = reduce([(1, 1)] * 99_999 + [(2, -1)], 2); "
                 "assert not conjugate_in_free(u, v); assert conjugate_in_free(u, u ** 2 * u.inverse())",
}


@pytest.mark.parametrize("name", LONG_WORD_RUNS)
def test_long_words_take_linear_time(name):
    code = ("from tcbounds.words import conjugate_in_free, generator, parse_word, reduce; "
            "from tcbounds.presentations import FreeHom, Presentation; " + LONG_WORD_RUNS[name])
    env = dict(os.environ, PYTHONPATH=str(Path(tcbounds.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=30)



class TestFields:
    def test_reads_each_field_kind(self):
        fields = Fields({"n": "7", "s": "x", "names": ["a", "b"], "dim": None}, "file", ("n", "s", "names", "dim"))
        assert (fields.int("n"), fields.str("s"), fields.strings("names")) == (7, "x", ["a", "b"])
        assert (fields.int("dim", None), fields.int("absent", 3), fields.str("absent", "d")) == (None, 3, "d")
        assert fields.get("absent", []) == []

    @pytest.mark.parametrize("data, keys, read, message", [
        ([1], (), None, "expected a JSON object"),
        ({"a": 1, "b": 2}, ("a",), None, 'unknown field "b"'),
        ({}, (), lambda f: f.get("a"), 'missing field "a"'),
        ({"a": None}, ("a",), lambda f: f.int("a", 0), "a: expected an integer, got null"),
        ({"a": 1.0}, ("a",), lambda f: f.str("a"), "a: expected a string, got 1.0"),
        ({"a": "x"}, ("a",), lambda f: f.strings("a"), "a: expected a list of strings"),
        ({"a": ["x", False]}, ("a",), lambda f: f.strings("a"), "a: entry 2 must be a string, got false"),
    ])
    @pytest.mark.parametrize("where", ["", "file: node"])
    def test_one_line_errors(self, data, keys, read, message, where):
        with pytest.raises(InputError) as exc:
            read(Fields(data, where, keys)) if read else Fields(data, where, keys)
        assert str(exc.value) == (f"{where}: {message}" if where else message)

    def test_any_keys_and_the_default_error(self):
        assert Fields({"kind": "k", "other": 1}, "", None).str("kind") == "k"
        with pytest.raises(InputError) as exc:
            Fields({"kind": 1}, "f", None).str("kind")
        assert type(exc.value) is InputError and str(exc.value) == "f: kind: expected a string, got 1"
