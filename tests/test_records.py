"""Every record keeps the frozen-record contract of words.Record.

The records used to be frozen dataclasses; words.Record gives them the
same semantics without generating code per class.  Each test below runs
over every Record subclass, so a new record without a sample here fails.
"""

import pytest

from tcbounds import bounds, braids, certificates, freeprod, groupexpr, presentations, raag, words
from tcbounds.words import Record

BORROMEAN = bounds.borromean_case_study()
PATH3 = raag.SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
PRES = presentations.Presentation.from_strings(["a", "b"], ["[a,b]"])
U = words.generator(1, 1)
SAMPLES = {
    words.Word: U,
    braids.BraidWord: braids.parse_braid("s1 s2^-1", 3),
    braids.LinkingMatrix: braids.linking_matrix(braids.parse_braid("s1^2", 2)),
    certificates.CertStep: BORROMEAN.certificates[0].steps[0],
    certificates.DisjointnessCertificate: BORROMEAN.certificates[0],
    certificates.Provenance: BORROMEAN.lower_provenance[0],
    certificates.BoundReport: BORROMEAN,
    freeprod.Factor: freeprod.Factor("free", 2),
    freeprod.FPWord: freeprod.normal_form(freeprod.RANK1_FREE, [(0, ((1, 1),)), (1, ((1, -1),))]),
    groupexpr.GroupExpr: groupexpr.GroupExpr(),
    groupexpr.Trivial: groupexpr.Trivial(),
    groupexpr.Free: groupexpr.Free(2),
    groupexpr.FreeAbelian: groupexpr.FreeAbelian(2),
    groupexpr.PureBraid: groupexpr.PureBraid(4),
    groupexpr.BaumslagSolitar12: groupexpr.BaumslagSolitar12(),
    groupexpr.SurfaceGroup: groupexpr.SurfaceGroup(2),
    groupexpr.Raag: groupexpr.Raag(PATH3),
    groupexpr.Opaque: groupexpr.Opaque("G", 1, 2, "given", geom_dim=2),
    groupexpr.Product: groupexpr.Product(groupexpr.Free(2), groupexpr.Trivial()),
    groupexpr.FreeProduct: groupexpr.FreeProduct(groupexpr.Free(2), groupexpr.Trivial()),
    groupexpr.Evaluation: groupexpr.evaluate(groupexpr.Free(2)),
    presentations.Presentation: PRES,
    presentations.AbelianInvariants: presentations.abelianization(PRES),
    presentations.FreeHom: presentations.FreeHom(PRES, ("u",), (U, words.identity(1))),
    raag.SimpleGraph: PATH3,
    raag.CliquePair: raag.z_number(PATH3)[1],
}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = sorted(set(subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))


def fields(r):
    return tuple(getattr(r, name) for name in type(r).__match_args__)


def test_every_record_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
class TestContract:
    def test_assigning_or_deleting_raises(self, cls):
        r = SAMPLES[cls]
        for name in cls.__match_args__ or ("anything",):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert fields(r) == fields(SAMPLES[cls])

    def test_equal_and_hashed_by_field_tuple(self, cls):
        r = SAMPLES[cls]
        copy = cls(*fields(r))
        assert copy == r and not copy != r and copy is not r
        assert hash(r) == hash(copy) == hash(fields(r))
        assert r != fields(r) and r != object()

    def test_keyword_construction(self, cls):
        r = SAMPLES[cls]
        assert cls(**dict(zip(cls.__match_args__, fields(r)))) == r

    def test_repr(self, cls):
        r = SAMPLES[cls]
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, fields(r)))
        assert repr(r) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("left, right", [
    (groupexpr.Free(2), groupexpr.FreeAbelian(2)),
    (groupexpr.Product(groupexpr.Free(1), groupexpr.Trivial()),
     groupexpr.FreeProduct(groupexpr.Free(1), groupexpr.Trivial())),
    (groupexpr.Trivial(), groupexpr.BaumslagSolitar12()),
], ids=["Free-FreeAbelian", "Product-FreeProduct", "Trivial-BaumslagSolitar12"])
def test_equality_needs_the_same_class(left, right):
    assert fields(left) == fields(right)
    assert left != right and not left == right
    assert len({left, right}) == 2


FIELDS = (1, 2, (), None, None, 2, False)  # an Evaluation's seven fields


def test_defaults_and_keywords():
    opaque = groupexpr.Opaque(name="G", chd_lower=1, chd_upper=2, justification="given")
    assert (opaque.duality_dim, opaque.orientable_pd_dim, opaque.geom_dim) == (None, None, None)
    assert certificates.CertStep("d", "machine-verified").citation == ""
    report = certificates.BoundReport("G", 1, 2, lower_provenance=(), upper_provenance=())
    assert (report.certificates, report.notes) == ((), ())
    keywords = dict(upper=2, lower=1, trace=(), pd_dim=None, duality_dim=None, geom_dim=2, caveat=False)
    assert groupexpr.Evaluation(**keywords) == groupexpr.Evaluation(*FIELDS)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),  # upper and the rest missing
    ((*FIELDS, 8), {}),  # too many
    (FIELDS, {"bogus": 3}),
    (FIELDS, {"lower": 1}),  # lower given twice
])
def test_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        groupexpr.Evaluation(*args, **kwargs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: certificates.BoundReport("G", 3, 2, (), ()), words.CertificateError,
     "report for G: lower bound 3 exceeds upper 2"),
    (lambda: groupexpr.Evaluation(3, 2, *FIELDS[2:]), words.InputError, "invalid interval"),
    (lambda: presentations.AbelianInvariants(0, (2, 3), ()), words.InputError,
     "torsion coefficients must form a divisibility chain"),
    (lambda: presentations.AbelianInvariants(0, (1,), ()), words.InputError,
     "torsion coefficients must be >= 2"),
    # a FreeHom only stores: the split-extension verifier runs check_hom
    # a Factor only stores; the ball it is built into checks kind and rank
    (lambda: freeprod.TreeBall((freeprod.Factor("cyclic", 1),) * 2, 1, 1), words.InputError,
     'unknown factor kind "cyclic"'),
    (lambda: freeprod.TreeBall((freeprod.Factor("free", 0),) * 2, 1, 1), words.InputError,
     "factor rank must be >= 1"),
], ids=["BoundReport", "Evaluation", "AbelianInvariants-chain", "AbelianInvariants-small",
        "Factor-kind", "Factor-rank"])
def test_post_init_checks_still_raise(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_match_args_allow_positional_patterns():
    match groupexpr.Product(groupexpr.Free(3), groupexpr.Trivial()):
        case groupexpr.Product(groupexpr.Free(rank), groupexpr.Trivial()):
            assert rank == 3
        case _:
            pytest.fail("positional pattern did not match")


def test_word_keeps_its_slots():
    assert not hasattr(U, "__dict__")
    assert words.Word.__slots__ == ("letters", "rank")


def test_simple_graph_cliques_are_computed_once(monkeypatch):
    calls = []
    real = raag.maximal_cliques
    monkeypatch.setattr(raag, "maximal_cliques", lambda g: calls.append(g) or real(g))
    graph = raag.SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
    assert graph.cliques is graph.cliques
    assert graph.clique_number() == 2
    raag.z_number(graph)
    assert calls == [graph]
