import time

import pytest
from hypothesis import given, settings, strategies as st

from tcbounds.groupexpr import (
    BaumslagSolitar12,
    Evaluation,
    Free,
    FreeAbelian,
    FreeProduct,
    Opaque,
    Product,
    PureBraid,
    Raag,
    SurfaceGroup,
    Trivial,
    chd,
    evaluate,
    expr_from_json,
    leaves,
)
from tcbounds.raag import SimpleGraph
from tcbounds.words import InputError

import oracles


def interval(e):
    """chd(e) as (lower, upper)."""
    res = chd(e)
    return res.lower, res.upper


def opaque2(**kw):
    return Opaque("G", 2, 2, "assumed for the test", **kw)


BASE = [
    Trivial(),
    Free(2),
    FreeAbelian(3),
    PureBraid(4),
    BaumslagSolitar12(),
    SurfaceGroup(2),
    Raag(SimpleGraph.from_edges(3, [(1, 2), (2, 3)])),
]


class TestBaseCases:
    def test_trivial(self):
        assert interval(Trivial()) == (0, 0)

    def test_free(self):
        assert interval(Free(0)) == (0, 0)
        assert interval(Free(1)) == (1, 1)
        assert interval(Free(5)) == (1, 1)

    def test_free_abelian(self):
        for r in range(5):
            assert interval(FreeAbelian(r)) == (r, r)

    def test_pure_braid(self):
        for n in range(2, 9):
            assert interval(PureBraid(n)) == (n - 1, n - 1)

    def test_bs12(self):
        assert interval(BaumslagSolitar12()) == (2, 2)

    def test_surface(self):
        assert interval(SurfaceGroup(3)) == (2, 2)

    def test_raag_is_clique_number(self):
        g = SimpleGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        assert interval(Raag(g)) == (3, 3)

    def test_every_base_exact_with_trace(self):
        for e in BASE:
            res = chd(e)
            assert res.exact
            assert res.trace


class TestFlags:
    def test_orientable_pd(self):
        assert evaluate(FreeAbelian(3)).pd_dim == 3
        assert evaluate(SurfaceGroup(2)).pd_dim == 2
        assert evaluate(PureBraid(2)).pd_dim == 1
        assert evaluate(Free(2)).pd_dim is None
        assert evaluate(BaumslagSolitar12()).pd_dim is None

    def test_complete_graph_raag_is_pd(self):
        k3 = SimpleGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert evaluate(Raag(k3)).pd_dim == 3
        path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        assert evaluate(Raag(path)).pd_dim is None

    def test_duality(self):
        assert evaluate(Free(2)).duality_dim == 1
        assert evaluate(PureBraid(4)).duality_dim == 3
        assert evaluate(BaumslagSolitar12()).duality_dim == 2
        assert evaluate(opaque2()).duality_dim is None
        assert evaluate(opaque2(duality_dim=2)).duality_dim == 2

    def test_product_flags(self):
        p = Product(FreeAbelian(2), SurfaceGroup(1))
        assert evaluate(p).pd_dim == 4
        q = Product(Free(2), BaumslagSolitar12())
        assert evaluate(q).pd_dim is None
        assert evaluate(q).duality_dim == 3

    # Opaque stores what it is given; expr_from_json refuses impossible data
    def test_opaque_flag_consistency(self):
        with pytest.raises(InputError, match="duality flag"):
            expr_from_json({"kind": "opaque", "chd_lower": 1, "chd_upper": 2, "duality_dim": 2})

    @pytest.mark.parametrize("lo, hi, geom_dim", [(-3, -3, None), (-1, 2, None), (3, 3, 1)])
    def test_opaque_impossible_dimensions(self, lo, hi, geom_dim):
        message = ("chd lower bound must be >= 0" if lo < 0
                   else "geometric dimension is below the chd lower bound")
        with pytest.raises(InputError, match=f"^{message}$"):
            expr_from_json({"kind": "opaque", "chd_lower": lo, "chd_upper": hi,
                            "geom_dim": geom_dim})


class TestProducts:
    def test_bs12_squared(self):
        res = chd(Product(BaumslagSolitar12(), BaumslagSolitar12()))
        assert (res.lower, res.upper) == (4, 4)
        assert any("duality" in line for line in res.trace)

    def test_pd_shift_rule(self):
        # Z x G for interval-valued G stays an interval, shifted by 1
        g = Opaque("G", 2, 3, "assumed")
        res = chd(Product(FreeAbelian(1), g))
        assert (res.lower, res.upper) == (3, 4)
        assert not res.exact

    def test_z_times_opaque2(self):
        res = chd(Product(FreeAbelian(1), opaque2()))
        assert (res.lower, res.upper) == (3, 3)

    def test_no_rule_interval(self):
        res = chd(Product(opaque2(), opaque2()))
        assert (res.lower, res.upper) == (2, 4)

    def test_interval_value_raises(self):
        # an interval has no single value to read
        res = chd(Product(opaque2(), opaque2()))
        assert not res.exact
        with pytest.raises(AttributeError):
            res.value

    def test_free_times_free(self):
        assert interval(Product(Free(2), Free(3))) == (2, 2)

    @given(st.sampled_from(BASE), st.sampled_from(BASE))
    @settings(max_examples=49)
    def test_commutative_and_subadditive(self, a, b):
        ab, ba = chd(Product(a, b)), chd(Product(b, a))
        assert (ab.lower, ab.upper) == (ba.lower, ba.upper)
        ca, cb = chd(a), chd(b)
        assert ab.lower >= max(ca.lower, cb.lower)
        assert ab.upper <= ca.upper + cb.upper


class TestFreeProducts:
    def test_max_rule(self):
        assert interval(FreeProduct(Free(1), Free(1))) == (1, 1)
        assert interval(FreeProduct(BaumslagSolitar12(), BaumslagSolitar12())) == (2, 2)

    def test_interval_propagates(self):
        g = Opaque("G", 1, 3, "assumed")
        res = chd(FreeProduct(g, FreeAbelian(2)))
        assert (res.lower, res.upper) == (2, 3)


class TestGeometricDimension:
    def test_base_no_caveat(self):
        for e in BASE:
            ev = evaluate(e)
            assert interval(e) == (ev.geom_dim, ev.geom_dim)
            assert ev.caveat is False

    def test_opaque_dim2_caveat(self):
        ev = evaluate(opaque2())
        assert (ev.geom_dim, ev.caveat) == (2, True)

    def test_opaque_explicit_complex(self):
        ev = evaluate(opaque2(geom_dim=2))
        assert (ev.geom_dim, ev.caveat) == (2, False)

    def test_product_sums(self):
        ev = evaluate(Product(FreeAbelian(1), opaque2()))
        assert (ev.geom_dim, ev.caveat) == (3, True)


GRAPHS = [
    SimpleGraph.from_edges(1, []),
    SimpleGraph.from_edges(2, [(1, 2)]),
    SimpleGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]),
    SimpleGraph.from_edges(2, []),
    SimpleGraph.from_edges(3, [(1, 2), (2, 3)]),
    SimpleGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
]


@st.composite
def opaque_groups(draw):
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, lo + 2))
    flag = st.sampled_from([None, lo]) if lo == hi else st.none()
    return Opaque("G", lo, hi, "drawn", duality_dim=draw(flag),
                  orientable_pd_dim=draw(flag),
                  geom_dim=draw(st.none() | st.integers(hi, hi + 1)))


LEAVES = st.one_of(
    st.just(Trivial()),
    st.builds(Free, st.integers(0, 3)),
    st.builds(FreeAbelian, st.integers(0, 4)),
    st.builds(PureBraid, st.integers(2, 6)),
    st.just(BaumslagSolitar12()),
    st.builds(SurfaceGroup, st.integers(1, 3)),
    st.builds(Raag, st.sampled_from(GRAPHS)),
    opaque_groups(),
)


def trees(depth):
    """Expressions of at most depth nested Product / FreeProduct nodes."""
    if depth == 0:
        return LEAVES
    sub = trees(depth - 1)
    return st.one_of(LEAVES, st.builds(Product, sub, sub), st.builds(FreeProduct, sub, sub))


class TestAgainstOracle:
    """evaluate against the four recursive functions it replaced."""

    @staticmethod
    def assert_matches(e):
        ev, ref = evaluate(e), oracles.chd(e)
        assert (ev.lower, ev.upper, ev.trace) == (ref.lower, ref.upper, ref.trace)
        assert ev.pd_dim == oracles.is_orientable_pd(e)
        assert ev.duality_dim == oracles.is_duality(e)
        assert (ev.geom_dim, ev.caveat) == oracles.geometric_dimension(e)

    @given(trees(6))
    @settings(max_examples=300, deadline=None)
    def test_random_trees(self, e):
        self.assert_matches(e)

    @given(trees(3), trees(3))
    @settings(max_examples=50, deadline=None)
    def test_shared_subtree(self, a, b):
        x = Product(a, b)
        self.assert_matches(Product(x, x))

    @given(trees(4))
    @settings(max_examples=50, deadline=None)
    def test_chd_is_evaluate(self, e):
        # chd is evaluate under the name the CLI, tc_report and the traced bench call
        assert chd(e) == evaluate(e)

    @given(trees(6))
    @settings(max_examples=100, deadline=None)
    def test_leaves_left_to_right(self, e):
        def oracle(node):
            if isinstance(node, (Product, FreeProduct)):
                return oracle(node.left) + oracle(node.right)
            return [node]

        assert [id(leaf) for leaf in leaves(e)] == [id(leaf) for leaf in oracle(e)]


def test_deep_chain_trace_is_linear():
    # the root's trace is assembled once: a subtree's trace is never copied
    e = Free(2)
    for _ in range(20_000):
        e = Product(e, Free(2))
    start = time.perf_counter()
    result = chd(e)
    elapsed = time.perf_counter() - start
    assert (result.lower, result.upper, len(result.trace)) == (20_001, 20_001, 40_001)
    assert elapsed < 2, f"took {elapsed:.2f} s"


class TestJson:
    def test_round_trip_kinds(self):
        cases = [
            ({"kind": "trivial"}, Trivial()),
            ({"kind": "free", "rank": 2}, Free(2)),
            ({"kind": "free_abelian", "rank": 3}, FreeAbelian(3)),
            ({"kind": "pure_braid", "n": 5}, PureBraid(5)),
            ({"kind": "bs12"}, BaumslagSolitar12()),
            ({"kind": "surface", "genus": 2}, SurfaceGroup(2)),
        ]
        for data, expected in cases:
            assert expr_from_json(data) == expected

    def test_nested_product(self):
        data = {
            "kind": "product",
            "left": {"kind": "free_abelian", "rank": 1},
            "right": {"kind": "opaque", "name": "H", "chd": 2,
                      "justification": "test"},
        }
        e = expr_from_json(data)
        assert interval(e) == (3, 3)

    def test_raag_node(self):
        e = expr_from_json({"kind": "raag", "n": 3, "edges": [[1, 2], [2, 3]]})
        assert interval(e) == (2, 2)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match='^unknown expression kind "dihedral"$'):
            expr_from_json({"kind": "dihedral"})

    def test_missing_field(self):
        with pytest.raises(InputError, match='^free: missing field "rank"$'):
            expr_from_json({"kind": "free"})

    def test_not_a_dict(self):
        with pytest.raises(InputError, match="^expected a JSON object$"):
            expr_from_json(["free", 2])


@pytest.mark.parametrize("leaf, shown", [("x", '"x"'), (None, "null"), ({1}, '"{1}"')])
def test_leaf_without_a_rule_is_named_in_json(leaf, shown):
    # a value with no JSON spelling is shown by its quoted repr
    with pytest.raises(InputError) as exc:
        evaluate(Product(Free(1), leaf))
    assert str(exc.value) == f"cannot evaluate chd of {shown}"


def test_invalid_interval():
    with pytest.raises(InputError, match="^invalid interval$"):
        Evaluation(3, 2, (), None, None, 2, False)
