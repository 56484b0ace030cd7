import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import braid_inverse, braid_power, braid_product, free_group_action_all_images
from tcbounds.braids import (
    BraidWord,
    alpha_generator,
    braid_equal,
    free_group_action,
    is_pure,
    linking_matrix,
    parse_braid,
    permutation,
)
from tcbounds.words import MAX_EXPANDED_LENGTH, InputError, ResourceCapError, reduce as free_reduce


def braid(text, n=4):
    return parse_braid(text, n)


def random_braid(n=4, max_len=8):
    return st.lists(
        st.tuples(st.integers(1, n - 1), st.sampled_from([-1, 1])), max_size=max_len
    ).map(lambda ls: BraidWord(n, tuple(ls)))


def random_pure_braid(n=4, max_factors=3, max_conj_len=3):
    """Products of conjugates u s_i^{+-2} u^-1, which generate PB_n."""
    factor = st.builds(
        lambda u, i, s: braid_product(u, BraidWord(n, ((i, s),) * 2), braid_inverse(u)),
        random_braid(n, max_conj_len), st.integers(1, n - 1), st.sampled_from([-1, 1]),
    )
    return st.lists(factor, max_size=max_factors).map(
        lambda fs: braid_product(BraidWord(n, ()), *fs)
    )


class TestParsing:
    def test_basic(self):
        b = braid("s1 s2^-1 s3")
        assert b.letters == ((1, 1), (2, -1), (3, 1))

    def test_exponent_expansion(self):
        assert braid("s2^3").letters == ((2, 1),) * 3
        assert braid("s2^-2").letters == ((2, -1),) * 2

    def test_bad_token(self):
        with pytest.raises(InputError, match='^bad braid token "t1"; expected like s2 or s2\\^-1$'):
            braid("t1")

    def test_out_of_range(self):
        with pytest.raises(InputError, match="^generator index 5 out of range for B_4$"):
            braid("s5")

    def test_round_trip_str(self):
        b = braid("s1 s3^-1 s2")
        text = " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in b.letters)
        assert parse_braid(text, 4) == b

    @pytest.mark.parametrize("text", [
        f"s1^-{MAX_EXPANDED_LENGTH + 1}",
        f"s1^{MAX_EXPANDED_LENGTH // 2} s2^{MAX_EXPANDED_LENGTH // 2 + 1}",
    ])
    def test_expansion_cap(self, text):
        with pytest.raises(ResourceCapError):
            braid(text)


class TestPermutation:
    def test_single_generator(self):
        assert permutation(braid("s1")) == (2, 1, 3, 4)

    def test_identity(self):
        assert permutation(BraidWord(4, ())) == (1, 2, 3, 4)

    @given(random_braid(), random_braid())
    @settings(max_examples=50)
    def test_homomorphic(self, u, v):
        pu, pv = permutation(u), permutation(v)
        composed = tuple(pu[pv[p - 1] - 1] for p in range(1, 5))
        assert permutation(braid_product(u, v)) == composed

    def test_squares_are_pure(self):
        for i in (1, 2, 3):
            assert is_pure(braid(f"s{i}^2"))
            assert not is_pure(braid(f"s{i}"))


class TestFreeGroupAction:
    def test_sigma1_images(self):
        x1, x2, x3, x4 = free_group_action(braid("s1"), 64)
        assert x1.letters == ((1, 1), (2, 1), (1, -1))
        assert x2.letters == ((1, 1),)
        assert x3.letters == ((3, 1),)
        assert x4.letters == ((4, 1),)

    def test_inverse_action(self):
        x1, x2, _, _ = free_group_action(braid("s1^-1"), 64)
        assert x1.letters == ((2, 1),)
        assert x2.letters == ((2, -1), (1, 1), (2, 1))

    @given(random_braid(max_len=6))
    @settings(max_examples=40, deadline=None)
    def test_inverse_word_inverts_action(self, b):
        # b b^-1 has up to 12 letters, and each at most triples a length:
        # (s1^-1 s2)^3 and its inverse pass 64 letters on the way
        assert braid_equal(braid_product(b, braid_inverse(b)), BraidWord(4, ()), 3**12)

    @given(random_braid(max_len=8))
    def test_images_are_reduced_words(self, b):
        for x in free_group_action(b, word_cap=3**8):  # each letter at most triples a length
            assert free_reduce(x.letters, x.rank) == x

    def test_braid_relations(self):
        # far commutation and the braid relation, via the faithful action
        assert braid_equal(braid("s1 s3"), braid("s3 s1"), 64)
        assert braid_equal(braid("s1 s2 s1"), braid("s2 s1 s2"), 64)
        assert not braid_equal(braid("s1"), braid("s2"), 64)

    def test_word_cap(self):
        with pytest.raises(ResourceCapError):
            free_group_action(braid_power(braid("s1 s2^-1"), 30), word_cap=16)

    @given(st.integers(2, 6).flatmap(lambda n: random_braid(n, max_len=20)), st.integers(0, 24))
    @settings(max_examples=200, deadline=None)
    def test_cap_check_matches_all_images(self, b, cap):
        # the two rewritten images alone decide the cap: the same images,
        # or the same error message
        try:
            want = free_group_action_all_images(b, cap)
        except ResourceCapError as exc:
            with pytest.raises(ResourceCapError) as got:
                free_group_action(b, cap)
            assert str(got.value) == str(exc)
        else:
            assert free_group_action(b, cap) == want


class TestAlphaGenerators:
    def test_alpha1_in_pb4(self):
        assert alpha_generator(4, 1) == braid("s1 s2 s3^2 s2 s1")

    def test_alpha_last(self):
        assert alpha_generator(4, 3) == braid("s3^2")

    def test_alphas_pure_and_commute(self):
        for n in range(2, 7):
            alphas = [alpha_generator(n, j) for j in range(1, n)]
            for a in alphas:
                assert is_pure(a)
            for i in range(len(alphas)):
                for j in range(i + 1, len(alphas)):
                    assert braid_equal(braid_product(alphas[i], alphas[j]),
                                       braid_product(alphas[j], alphas[i]), 64)


class TestLinking:
    def test_needs_pure_braid(self):
        for word in ("s1", "s1 s2 s1^-1", "s2^2 s1"):
            with pytest.raises(InputError, match="linking numbers of the closure need a pure braid"):
                linking_matrix(braid(word))

    def test_sigma1_squared(self):
        lk = linking_matrix(braid("s1^2"))
        assert lk.lk(1, 2) == 1
        assert lk.lk(1, 3) == lk.lk(2, 3) == 0

    def test_alpha1_row(self):
        lk = linking_matrix(alpha_generator(4, 1))
        assert (lk.lk(1, 2), lk.lk(1, 3), lk.lk(1, 4)) == (1, 1, 1)

    def test_combination_last_column(self):
        b = braid_product(braid_power(alpha_generator(4, 1), 2), braid_power(alpha_generator(4, 3), -1))
        assert linking_matrix(b).last_column() == (2, 0, -1)

    def test_alpha_product_exponent_recovery(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 5)
            exps = [rng.randint(-3, 3) for _ in range(n - 1)]
            b = braid_product(BraidWord(n, ()), *(braid_power(alpha_generator(n, j), k)
                                                  for j, k in enumerate(exps, start=1)))
            assert linking_matrix(b).last_column() == tuple(exps)

    @given(random_pure_braid())
    def test_symmetric_with_zero_diagonal(self, b):
        e = linking_matrix(b).entries
        assert all(e[i][i] == 0 for i in range(b.n))
        assert all(e[i][j] == e[j][i] for i in range(b.n) for j in range(b.n))

    @given(random_pure_braid(), random_braid(max_len=4))
    @example(b=BraidWord(4, ((1, -1),) * 2), c=BraidWord(4, ((2, -1),)))
    @settings(max_examples=40)
    def test_conjugation_invariance(self, b, c):
        # Strand i of c b c^-1 runs through b as the strand that c carries to
        # position q(i); the crossings of c and c^-1 cancel.  So conjugation
        # permutes rows and columns by q, and a pure c leaves the matrix alone.
        q = {strand: p for p, strand in enumerate(permutation(c), start=1)}
        before = linking_matrix(b)
        after = linking_matrix(braid_product(c, b, braid_inverse(c)))
        strands = range(1, b.n + 1)
        assert after.entries == tuple(
            tuple(before.lk(q[i], q[j]) for j in strands) for i in strands
        )
