import os
import random
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import tcbounds
from tcbounds.bounds import borromean_presentation, higman_presentation
from tcbounds.presentations import (
    AbelianInvariants,
    FreeHom,
    Presentation,
    _snf_with_left_transform,
    abelianization,
    check_hom,
    smith_normal_form,
)
from tcbounds.words import InputError, ResourceCapError, generator, identity, parse_word, reduce

from oracles import abelian_images_error, bareiss_det, determinantal_divisors, naive_smith

# A seeded 10 x 10 matrix with entries in [-3, 3]: a reducer that swaps in
# each remainder as soon as it appears lets entries grow without bound on it.
BLOWUP_CASE = ("import random; from tcbounds.presentations import smith_normal_form as s; "
               "r = random.Random(0); "
               "print(s([[r.randint(-3, 3) for _ in range(10)] for _ in range(10)]))")


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)

    def test_empty_shapes(self):
        for matrix in ([], [[]], [[], []]):
            assert smith_normal_form(matrix) == ()

    def test_already_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]) == (2, 4)

    def test_coprime_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_rectangular(self):
        assert smith_normal_form([[2, 4, 4]]) == (2,)
        assert smith_normal_form([[2], [4], [4]]) == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)

    def test_divisibility_chain_holds(self):
        diag = smith_normal_form([[6, 4], [4, 6]])
        assert diag == (2, 10)

    def test_determinant_preserved(self):
        m = [[3, 1, 2], [0, 2, 5], [1, 1, 1]]
        det = 3 * (2 - 5) - 1 * (0 - 5) + 2 * (0 - 2)
        diag = smith_normal_form(m)
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det)

    def test_oracle_equivalence_random(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            ours = smith_normal_form(mat)
            assert ours == naive_smith(mat), mat
            assert ours == determinantal_divisors(mat), mat
            nonzero = [d for d in ours if d]
            for d, e in zip(nonzero, nonzero[1:]):
                assert e % d == 0

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_oracle_equivalence_hypothesis(self, mat):
        assert smith_normal_form(mat) == naive_smith(mat)

    def test_large_random_matrices(self):
        rng = random.Random(11)
        for _ in range(12):
            m, n = rng.randint(12, 20), rng.randint(12, 20)
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            diag, u = _snf_with_left_transform(mat)
            assert tuple(diag) == naive_smith(mat), mat
            assert bareiss_det(u) in (1, -1)
            # U M = D V^-1 and a row of a unimodular matrix has gcd 1, so
            # row i of U M has gcd d_i, and the rows past the diagonal vanish
            um = [[sum(x * mat[k][j] for k, x in enumerate(row)) for j in range(n)] for row in u]
            for i, row in enumerate(um):
                assert gcd(*row) == (diag[i] if i < len(diag) else 0)

    def test_blowup_case_finishes_in_small_memory(self):
        def limit():
            resource.setrlimit(resource.RLIMIT_DATA, (64 * 2**20,) * 2)

        env = dict(os.environ, PYTHONPATH=str(Path(tcbounds.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", BLOWUP_CASE], env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        r = random.Random(0)
        mat = [[r.randint(-3, 3) for _ in range(10)] for _ in range(10)]
        assert proc.stdout == f"{naive_smith(mat)}\n"


HIGMAN = higman_presentation()
BORROMEAN = borromean_presentation()


class TestAbelianization:
    def test_higman_trivial(self):
        inv = abelianization(HIGMAN)
        assert inv.is_trivial

    def test_higman_exponent_matrix(self):
        assert HIGMAN.exponent_matrix() == [
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
            [-1, 0, 0, 0],
        ]

    def test_borromean_free_rank_3(self):
        inv = abelianization(BORROMEAN)
        assert inv.free_rank == 3
        assert inv.torsion == ()
        # both relators are commutators, so the exponent matrix vanishes
        assert all(e == 0 for row in BORROMEAN.exponent_matrix() for e in row)

    def test_baumslag_solitar_x_survives_y_dies(self):
        p = Presentation.from_strings(["x", "y"], ["x y x^-1 y^-2"])
        inv = abelianization(p)
        assert inv.free_rank == 1
        assert inv.torsion == ()
        assert inv.survives(1)  # x maps to a generator
        assert not inv.survives(2)  # y maps to 0

    def test_torsion(self):
        p = Presentation.from_strings(["x"], ["x^4"])
        inv = abelianization(p)
        assert inv.free_rank == 0
        assert inv.torsion == (4,)

    def test_relator_order_invariance(self):
        p1 = Presentation.from_strings(["x", "y"], ["x y x^-1 y^-2", "y^6"])
        p2 = Presentation.from_strings(["x", "y"], ["y^6", "x y x^-1 y^-2"])
        a1, a2 = abelianization(p1), abelianization(p2)
        assert (a1.free_rank, a1.torsion) == (a2.free_rank, a2.torsion)

    def test_conjugate_relator_invariance(self):
        base = ["x y x^-1 y^-2", "y^6"]
        conj = ["x y x^-1 y^-2", "x y^6 x^-1"]
        a1 = abelianization(Presentation.from_strings(["x", "y"], base))
        a2 = abelianization(Presentation.from_strings(["x", "y"], conj))
        assert (a1.free_rank, a1.torsion) == (a2.free_rank, a2.torsion)

    def test_no_relators(self):
        p = Presentation(("x", "y"), ())
        inv = abelianization(p)
        assert inv.free_rank == 2
        assert inv.generator_images == ((1, 0), (0, 1))

    def test_no_generators(self):
        assert abelianization(Presentation((), ())) == AbelianInvariants(0, (), ())


class TestAbelianizationCap:
    """g * max(g, relators) entries are counted before exponent_matrix, which
    is stubbed out here so that a broken count cannot build the matrices."""

    class Reached(Exception):
        pass

    @pytest.fixture(autouse=True)
    def stub_matrix(self, monkeypatch):
        def exponent_matrix(p):
            raise self.Reached

        monkeypatch.setattr(Presentation, "exponent_matrix", exponent_matrix)

    @staticmethod
    def presentation(g, r):
        return Presentation(tuple(f"x{i}" for i in range(1, g + 1)),
                            (generator(1, g) * generator(2, g),) * r)

    @pytest.mark.parametrize("g, r", [(1000, 1), (1000, 1000), (10, 100_000)])
    def test_at_the_cap_passes(self, g, r):
        with pytest.raises(self.Reached):
            abelianization(self.presentation(g, r))

    @pytest.mark.parametrize("g, r, entries", [(1001, 1, 1_002_001), (10, 100_001, 1_000_010)])
    def test_past_the_cap_refused(self, g, r, entries):
        with pytest.raises(ResourceCapError, match=f"abelianization of {g} generators and {r} "
                                                   f"relators needs {entries} matrix entries"):
            abelianization(self.presentation(g, r))


@st.composite
def presentations(draw):
    g = draw(st.integers(2, 8))
    relators = []
    for _ in range(draw(st.integers(1, 8))):
        letters = draw(st.lists(st.tuples(st.integers(1, g), st.integers(-4, 4).filter(bool)),
                                min_size=1, max_size=6))
        w = identity(g)
        for i, e in letters:
            w = w * generator(i, g) ** e
        assume(not w.is_identity)
        relators.append(w)
    return Presentation(tuple(f"x{i}" for i in range(1, g + 1)), tuple(relators))


class TestAbelianizationImages:
    @given(presentations())
    @settings(max_examples=60, deadline=None)
    def test_images_present_h1(self, p):
        inv = abelianization(p)
        exponents = p.exponent_matrix()
        # H_1 = Z^g / (row space): invariants of the transposed exponent matrix
        cols = [list(c) for c in zip(*exponents)]
        diag = naive_smith(cols)
        assert inv.torsion == tuple(d for d in diag if d > 1)
        assert inv.free_rank == p.rank - sum(1 for d in diag if d)
        assert abelian_images_error(exponents, inv.free_rank, inv.torsion,
                                    inv.generator_images) == ""


class TestValidation:
    def test_empty_relator_rejected(self):
        with pytest.raises(InputError, match="empty relator"):
            Presentation.from_strings(["x"], ["x x^-1"])

    def test_bad_torsion_chain_rejected(self):
        with pytest.raises(InputError, match="^torsion coefficients must form a divisibility chain$"):
            AbelianInvariants(0, (4, 6), ())


def borromean_p() -> FreeHom:
    return FreeHom(BORROMEAN, ("u", "v"), (generator(1, 2), generator(2, 2), identity(2)))


class TestHomomorphisms:
    def test_borromean_p_well_defined(self):
        p = borromean_p()
        assert check_hom(p) is None

    def test_p_of_b_powers(self):
        p = borromean_p()
        beta = generator(2, 2)
        for n in range(6):
            assert p(generator(2, 3) ** n) == beta**n

    def test_p_kills_commutator(self):
        p = borromean_p()
        comm = parse_word("[c^-1,a]", BORROMEAN.generators)
        assert p(comm).is_identity

    def test_all_to_alpha_accepted(self):
        # all three generators land in the cyclic subgroup <alpha>, so both
        # commutator relators reduce to the identity and the map is a hom
        alpha = generator(1, 2)
        assert check_hom(FreeHom(BORROMEAN, ("u", "v"), (alpha, alpha, alpha))) is None

    def test_bad_images_rejected(self):
        alpha, beta = generator(1, 2), generator(2, 2)
        p = FreeHom(BORROMEAN, ("u", "v"), (alpha, beta, alpha))
        witness = check_hom(p)
        assert witness in BORROMEAN.relators
        # the witness relator's image genuinely fails to reduce to 1; FreeHom
        # only stores the map, and the split-extension verifier refuses it
        assert not p(witness).is_identity

    def test_no_relators_always_ok(self):
        p = Presentation(("x", "y"), ())
        assert check_hom(FreeHom(p, ("u",), (generator(1, 1), generator(1, 1) ** 5))) is None

    def test_hom_applied_to_identity(self):
        p = borromean_p()
        assert p(identity(3)).is_identity

    def test_relators_die_under_any_constructed_hom(self):
        p = borromean_p()
        for r in BORROMEAN.relators:
            assert p(r).is_identity


def rank_words(rank, max_len):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from([-1, 1])),
                    max_size=max_len).map(lambda ls: reduce(ls, rank))


class TestApplyImages:
    @given(rank_words(3, 12), st.lists(rank_words(2, 5), min_size=3, max_size=3))
    def test_is_substitute_then_reduce(self, w, images):
        substituted = []
        for g, s in w.letters:
            img = images[g - 1] if s == 1 else images[g - 1].inverse()
            substituted += img.letters
        p = FreeHom(Presentation(("a", "b", "c"), ()), ("u", "v"), tuple(images))
        assert p(w) == reduce(substituted, 2)
