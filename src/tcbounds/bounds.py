"""The bound engine: every disjointness certificate and report, including
the packaged case studies (Borromean rings group, Higman's group) and
the ``expr`` and ``presentation`` scenarios with their notes.

Lower bounds all flow through one criterion: if conjugates of A always
meet B trivially inside G, then TC(G) >= chd(A x B) (Grant-Lupton-
Oprea).  Upper bounds come from TC <= 2 * (geometric dimension), and
cat(G) = chd(G) (Eilenberg-Ganea / Stallings / Swan) supplies the
baseline lower bound cat <= TC.

braids, freeprod, presentations and raag are imported inside the
functions that call them, so no report loads a module it does not run:
``braid tc-bound`` loads neither presentations nor raag.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from . import groupexpr, words
from .certificates import (
    BoundReport,
    CertStep,
    CertificateError,
    DisjointnessCertificate,
    Provenance,
)
from .groupexpr import GroupExpr
from .words import InputError, Word, conjugate_in_free, format_word, primitive_root

if TYPE_CHECKING:
    from . import presentations, raag

THEOREM_CITE = "conjugate-disjointness criterion (Grant-Lupton-Oprea)"
CAT_CITE = "cat(G) = chd(G) (Eilenberg-Ganea, Stallings, Swan)"
DIM_CITE = "TC <= 2 * dim of an aspherical complex"

# Most strands of pure_braid_report: its commuting check is quartic in n,
# and braid tc-bound --n 64 takes about 0.7 s end to end (2-vCPU x86 VM).
MAX_PURE_BRAID_STRANDS = 64


# ---------------------------------------------------------------------------
# Certificate verifiers

def verify_retraction_certificate(
    source: presentations.Presentation,
    a: Sequence[int],
    b: Sequence[int],
    images: Sequence[tuple[int, ...]],
) -> DisjointnessCertificate:
    """Check a retraction of the presented group onto the free abelian
    subgroup spanned by the B generators.

    A and B are lists of 1-based generator indices, and the retraction
    is an integer vector per generator, in order (its image in Z^{|B|}).
    Checks: every relator dies, the map is the identity on B
    generators, and it kills every A generator.  Since a
    conjugate g a g^-1 then maps where a does, a nontrivial element of
    B in a conjugate of A would be its own nonzero image -- impossible.
    """
    names = source.generators
    # relator r maps to the sum of its letters' signed images
    for r in source.relators:
        total = [0] * len(b)
        for g, s in r.letters:
            total = [t + s * x for t, x in zip(total, images[g - 1])]
        if any(total):
            raise CertificateError(f"candidate retraction is not a homomorphism: relator "
                                   f"{json.dumps(format_word(r, names))} maps to {tuple(total)}")
    for pos, g in enumerate(b):
        if tuple(images[g - 1]) != tuple(int(q == pos) for q in range(len(b))):
            raise CertificateError(f"retraction is not the identity on B generator {json.dumps(names[g - 1])}")
    for g in a:
        if any(images[g - 1]):
            raise CertificateError(f"retraction does not kill A generator {json.dumps(names[g - 1])}")
    steps = (
        CertStep("candidate map kills every relator (exponent-sum check)", "machine-verified"),
        CertStep("map restricts to the identity on the B generators", "machine-verified"),
        CertStep("map kills every A generator, so conjugates of A land in the kernel "
                 "while B injects; hence gAg^-1 meets B trivially", "machine-verified"),
    )
    return DisjointnessCertificate(
        variant="retraction",
        a_label="<" + ", ".join(names[g - 1] for g in a) + ">" if a else "1",
        b_label="<" + ", ".join(names[g - 1] for g in b) + ">" if b else "1",
        steps=steps,
    )


def clique_pair_bound(graph: raag.SimpleGraph, k1: Sequence[int], k2: Sequence[int]
                      ) -> tuple[int, DisjointnessCertificate]:
    """(|K1| + |K2| = chd(Z^m x Z^n), certificate) for disjoint cliques.

    The certificate machine-checks the coordinate retraction onto the
    free abelian subgroup spanned by K2, which kills every other generator.
    """
    from . import raag
    s1, s2 = sorted(set(k1)), sorted(set(k2))
    if set(s1) & set(s2):
        raise InputError("cliques must be disjoint")
    if not graph.is_clique(s1):
        raise InputError(f"K1 = {s1} is not a clique")
    if not graph.is_clique(s2):
        raise InputError(f"K2 = {s2} is not a clique")
    images = [tuple(int(v == u) for u in s2) for v in range(1, graph.n + 1)]
    cert = verify_retraction_certificate(raag.raag_presentation(graph), s1, s2, images)
    return len(s1) + len(s2), cert


def verify_split_extension_certificate(
    p: presentations.FreeHom,
    a_gen: str,
    beta: Word,
) -> DisjointnessCertificate:
    """Certificate for A = <a> and B = p^-1<beta> inside p's source group.

    Machine checks: p kills every relator (``check_hom``), p(a) is
    nontrivial, and no nonzero powers of p(a) and beta are conjugate in
    the free target (primitive-root comparison on cyclic words).  The
    remaining step -- a^n in ker(p) forces n = 0 because p(a)^n != 1 --
    is pure normality logic applied to those checks.
    """
    from . import presentations
    witness = presentations.check_hom(p)
    if witness is not None:
        raise CertificateError(
            f"not a homomorphism: relator {json.dumps(format_word(witness, p.source.generators))} "
            "does not map to 1")
    pa = p(words.generator(p.source.generator_index(a_gen), p.source.rank))
    pa_text = format_word(pa, p.target)
    if pa.is_identity:
        raise CertificateError(f"p({a_gen}) is trivial; the cyclic subgroup <{a_gen}> dies")
    if beta.is_identity:
        raise CertificateError("beta must be nontrivial")
    root_a = primitive_root(pa)
    root_b = primitive_root(beta)
    if conjugate_in_free(root_a, root_b) or conjugate_in_free(root_a, root_b.inverse()):
        raise CertificateError(
            f"nonzero powers of p({a_gen}) = {json.dumps(pa_text)} and "
            f"beta = {json.dumps(format_word(beta, p.target))} "
            "are conjugate in the free target; the disjointness hypothesis fails"
        )
    steps = (
        CertStep("p kills every relator, so it is a well-defined homomorphism "
                 "onto the free target", "machine-verified"),
        CertStep(f"p({a_gen}) = '{pa_text}' is a nontrivial reduced word, hence of infinite order",
                 "machine-verified"),
        CertStep("no nonzero power of p(a) is conjugate to a power of beta in the free "
                 "target (primitive roots of the cyclic words are non-conjugate)",
                 "machine-verified"),
        CertStep("an element of gAg^-1 and B maps under p into a conjugate of <p(a)> "
                 "meeting <beta>, hence to 1; so it is g a^n g^-1 in ker(p), and "
                 "normality of the kernel forces a^n in ker(p), so p(a)^n = 1 and n = 0",
                 "machine-verified"),
    )
    return DisjointnessCertificate(
        variant="split-extension",
        a_label=f"<{a_gen}>",
        b_label="p^-1<beta>",
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Report assembly

def tc_report(
    group: GroupExpr,
    certs: Sequence[tuple[GroupExpr, GroupExpr, DisjointnessCertificate]],
    notes: Sequence[str] = (),
) -> BoundReport:
    """Fold certificates and dimension data into a TC bound interval.

    lower = max(chd(G) [since cat <= TC and cat = chd], chd(A x B) over
    certificates); upper = 2 * geometric dimension, flagged when it
    rests on chd = 2 without an explicit aspherical 2-complex.
    """
    ev = groupexpr.evaluate(group)
    lower = ev.lower
    lower_prov = [Provenance(f"cat(G) <= TC(G) with {CAT_CITE}", lower)]
    cert_list = []
    for a_expr, b_expr, cert in certs:
        pair = groupexpr.chd(groupexpr.Product(a_expr, b_expr))
        lower_prov.append(Provenance(
            f"TC(G) >= chd({a_expr.label()} x {b_expr.label()}) via {THEOREM_CITE}",
            pair.lower,
        ))
        lower = max(lower, pair.lower)
        cert_list.append(cert)

    upper = 2 * ev.geom_dim
    upper_prov = [Provenance(DIM_CITE, upper)]
    all_notes = list(notes)
    if ev.caveat:
        all_notes.append(
            "geometric dimension taken as chd = 2 without an explicit aspherical "
            "2-complex; exactness of dimension 2 is the Eilenberg-Ganea problem"
        )
    return BoundReport(
        group=group.label(),
        lower=lower,
        upper=upper,
        lower_provenance=tuple(lower_prov),
        upper_provenance=tuple(upper_prov),
        certificates=tuple(cert_list),
        notes=tuple(all_notes),
    )


def expr_report(expr: GroupExpr) -> BoundReport:
    """The report for an ``expr`` scenario: no certificate, and one note
    for each Opaque leaf, whose dimension data is the input's claim."""
    return tc_report(expr, [], notes=[
        f"chd({leaf.name}) in [{leaf.chd_lower}, {leaf.chd_upper}] taken from the "
        f"scenario's expr, not verified ({leaf.justification})"
        for leaf in groupexpr.leaves(expr) if isinstance(leaf, groupexpr.Opaque)])


def split_extension_report(p: presentations.FreeHom, a_gen: str, beta: Word, b_expr: GroupExpr,
                           group: GroupExpr, notes: Sequence[str]) -> BoundReport:
    """The report whose one certificate is the split extension's: A = <a>
    is infinite cyclic (Z^1), and B = p^-1<beta> has chd given by b_expr."""
    cert = verify_split_extension_certificate(p, a_gen, beta)
    return tc_report(group, [(groupexpr.FreeAbelian(1), b_expr, cert)], notes)


def presentation_scenario_report(p: presentations.FreeHom, a_gen: str, beta: Word,
                                 b_expr: GroupExpr, group: GroupExpr) -> BoundReport:
    """The split-extension report of a ``presentation`` scenario.  Its
    b_expr and group_expr are claims about the presented group that
    nothing checks, and the report says so in one note each."""
    return split_extension_report(p, a_gen, beta, b_expr, group, notes=(
        f"chd(B) taken from the scenario's b_expr ({b_expr.label()}), not verified",
        f"chd(G) and the geometric dimension taken from the scenario's group_expr "
        f"({group.label()}), not verified",
    ))


def raag_report(graph: raag.SimpleGraph) -> tuple[raag.CliquePair, BoundReport]:
    """(maximizing clique pair, report) for a graph group; z is the pair's
    union_size, and the certified bound report.lower equals it.

    The certificate uses the coordinate retraction for a disjoint clique
    pair with the same union as the maximizing pair.
    """
    from . import raag
    z, witness = raag.z_number(graph)
    k1, k2 = _disjoint_cliques(witness)
    _, cert = clique_pair_bound(graph, k1, k2)
    report = tc_report(
        groupexpr.Raag(graph),
        [(groupexpr.FreeAbelian(len(k1)), groupexpr.FreeAbelian(len(k2)), cert)],
        notes=(f"TC equals z = {z} for graph groups (Cohen-Pruidze); the upper half "
               "is cited, not recomputed",),
    )
    return witness, report


def _disjoint_cliques(witness: raag.CliquePair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shrink a clique pair to disjoint cliques with the same union."""
    k2 = tuple(witness.k2)
    k1 = tuple(v for v in witness.k1 if v not in set(k2))
    if not k1:  # identical cliques: split one vertex off
        k1 = (k2[0],)
        k2 = k2[1:]
    if not k2:
        k2 = (k1[0],)
        k1 = k1[1:]
    return k1, k2


def pure_braid_report(n: int) -> BoundReport:
    """The report for the pure braid group PB_n; its lower bound is 2n-3.

    TC(PB_n) >= chd(Z^{n-1} x PB_{n-1}) = 2n-3.  A is the free abelian
    subgroup generated by the strand-looping braids alpha_1..alpha_{n-1};
    B is PB_{n-1} included by adding a final inert strand.  A conjugate
    of A meeting B forces all linking numbers with the last closure
    component to vanish, which pins the alpha-exponents to zero.

    n passes braids.check_strands first, under MAX_PURE_BRAID_STRANDS.
    The commuting check then acts each alpha on the free group once and
    continues pair (i, j) by alpha_j from alpha_i's state and by alpha_i
    from alpha_j's; every image stays within 2n + 3 letters.
    """
    from . import braids
    braids.check_strands(n, MAX_PURE_BRAID_STRANDS)
    alpha = {j: braids.alpha_generator(n, j) for j in range(1, n)}
    basis, cap = braids.free_basis(n), words.MAX_EXPANDED_LENGTH
    state = {j: braids.act(basis, alpha[j].letters, cap) for j in alpha}
    for i, j in combinations(alpha, 2):
        if braids.act(state[i], alpha[j].letters, cap) != braids.act(state[j], alpha[i].letters, cap):
            raise CertificateError(f"alpha_{i}, alpha_{j} do not commute")
    for j in alpha:
        lk = braids.linking_matrix(alpha[j])  # raises InputError unless alpha_j is pure
        expected = tuple(1 if i > j else 0 for i in range(1, n + 1) if i != j)
        row = tuple(lk.lk(j, i) for i in range(1, n + 1) if i != j)
        if row != expected:
            raise CertificateError(f"alpha_{j} has unexpected linking row {row}")
    steps = (
        CertStep(f"alpha_1..alpha_{n-1} are pure and lk(alpha_j: j, i) = 1 exactly for i > j",
                 "machine-verified"),
        CertStep("the alpha_j commute pairwise (free-group action), so A = "
                 "<alpha_1..alpha_{n-1}> is free abelian of rank n-1 in the torsion-free "
                 "group PB_n", "machine-verified"),
        CertStep("conjugation by pure braids preserves the ordered-link isotopy class of the "
                 "closure, hence all linking numbers, and the conjugators here lie in PB_n; "
                 "an element of B has trivial linking with component n, "
                 "while alpha_1^{k_1}..alpha_{n-1}^{k_{n-1}} has lk(L_i, L_n) = k_i; so "
                 "conjugates of A meet B = PB_{n-1} only in 1",
                 "cited", "ordered-link invariance of conjugate pure braids (standard)"),
    )
    a_expr = groupexpr.FreeAbelian(n - 1)
    b_expr = groupexpr.PureBraid(n - 1) if n >= 3 else groupexpr.Trivial()
    cert = DisjointnessCertificate("linking", a_expr.label(), b_expr.label(), steps)
    return tc_report(
        groupexpr.PureBraid(n),
        [(a_expr, b_expr, cert)],
        notes=(f"TC(PB_{n}) = {2 * n - 3} exactly (Farber-Yuzvinsky); shown as a cited "
               "annotation, the interval above is what is certified here",),
    )


# ---------------------------------------------------------------------------
# Case studies

def borromean_presentation() -> presentations.Presentation:
    from . import presentations
    return presentations.Presentation.from_strings(["a", "b", "c"], ["[a,[b^-1,c]]", "[b,[c^-1,a]]"])


def borromean_case_study() -> BoundReport:
    """TC of the Borromean rings link group: certified interval [3, 4].

    The strand-forgetting map p (a -> alpha, b -> beta, c -> 1) splits;
    with A = <a> and B = p^-1<beta> the split-extension certificate
    applies, and chd(A x B) = 1 + chd(B) = 3 since B is not free.
    """
    from . import presentations
    beta = words.generator(2, 2)
    # the target generators alpha and beta print as a and b
    p = presentations.FreeHom(borromean_presentation(), ("a", "b"),
                              (words.generator(1, 2), beta, words.identity(2)))
    # chd(B) = 2: b and [c^-1, a] lie in B and commute (second relator),
    # yet generate a non-cyclic subgroup since p(b^n) = beta^n differs
    # from p([c^-1, a]) = 1 for n != 0; a group with such a relation is
    # not free, and B sits in a 2-dimensional group.
    b_sub = groupexpr.Opaque(
        name="B = p^-1<beta>",
        chd_lower=2,
        chd_upper=2,
        justification="B contains the commuting, non-powers pair b and [c^-1,a], so B is "
        "not free (chd >= 2); B embeds in the 2-dimensional link group (chd <= 2)",
    )
    g = groupexpr.Opaque(
        name="Borromean rings group",
        chd_lower=2,
        chd_upper=2,
        justification="the link complement deformation retracts to an aspherical "
        "2-complex and the group is not free",
        geom_dim=2,
    )
    return split_extension_report(p, "a", beta, b_sub, g, notes=(
        "zero-divisor methods top out at 2 here; the conjugate-disjointness bound reaches 3",))


HIGMAN_GENERATORS = ("x", "y", "z", "w")
# relator i reads g_i g_{i+1} g_i^-1 g_{i+1}^-2, indices mod 4
HIGMAN_RELATORS = ("x y x^-1 y^-2", "y z y^-1 z^-2", "z w z^-1 w^-2", "w x w^-1 x^-2")


def higman_presentation() -> presentations.Presentation:
    from . import presentations
    return presentations.Presentation.from_strings(HIGMAN_GENERATORS, HIGMAN_RELATORS)


# Step (2) of the Higman pipeline: alternating words of at most this many
# syllables, with exponents up to the cap, are located on a tree ball of
# that radius.
HIGMAN_SAMPLE_CAP = 2
HIGMAN_BFS_RADIUS = 6


def higman_case_study() -> BoundReport:
    """TC of Higman's acyclic four-generator group: exactly 4.

    Machine-verified: (1) the full presentation abelianizes to 1, and in
    each vertex group H_i = <g_i, g_{i+1}, g_{i+2} | r_i, r_{i+1}> only
    g_i survives abelianization; (2) BFS on a materialized ball of the
    Bass-Serre tree of F(x) * F(y) puts every short alternating word at
    the distances its syllable count predicts.  Cited: an alternating
    word of 2k syllables is hyperbolic with translation length 2k, an
    elliptic element is conjugate into a factor, the two amalgam
    conjugacy-reduction lemmas, and that B(1,2) is a duality group of
    dimension 2, so chd(H_xy x H_zw) = 4.  The upper bound 4 comes from
    the aspherical presentation 2-complex.
    """
    from . import freeprod, presentations
    steps: list[CertStep] = []

    # (1) abelianization facts
    full = presentations.abelianization(higman_presentation())
    if not full.is_trivial:
        raise CertificateError(f"full presentation abelianization is not trivial: {full}")
    for i in range(4):
        gens = [HIGMAN_GENERATORS[(i + j) % 4] for j in range(3)]
        inv = presentations.abelianization(presentations.Presentation.from_strings(
            gens, (HIGMAN_RELATORS[i], HIGMAN_RELATORS[(i + 1) % 4])))
        label = "H_" + "".join(gens)
        for j, name in enumerate(gens, start=1):
            if inv.survives(j) != (j == 1):
                raise CertificateError(
                    f"abelianization of {label}: generator {name} "
                    f"{'dies' if j == 1 else 'survives'} unexpectedly"
                )
        if inv.free_rank != 1 or inv.torsion:
            raise CertificateError(f"abelianization of {label} is not Z: {inv}")
    steps.append(CertStep(
        "the four-relator presentation abelianizes to the trivial group, and in each "
        "three-generator vertex group exactly the leading generator survives "
        "abelianization (so x^m ~ y^n in H_xyz forces m = 0, etc.)",
        "machine-verified",
    ))

    # (2) hyperbolicity of alternating words in the rank-1 free products
    steps.append(CertStep(
        "a cyclically reduced element of syllable length n >= 2 in a free product acts "
        "hyperbolically on its Bass-Serre tree with translation length n; so every "
        "cyclically alternating word of 2k syllables in F(y) * F(w) or F(x) * F(z) is "
        "hyperbolic, not elliptic",
        "cited", "hyperbolic elements of a free product (Serre, Trees, ch. I)",
    ))
    bfs_checked, failures = freeprod.verify_tree_lemma(
        HIGMAN_BFS_RADIUS // 2, HIGMAN_SAMPLE_CAP, HIGMAN_BFS_RADIUS)
    if failures:
        raise CertificateError(f"BFS distances wrong for {tuple(failures[0])}")
    steps.append(CertStep(
        f"BFS on the materialized radius-{HIGMAN_BFS_RADIUS} ball of the F(x) * F(y) tree "
        "gives d(gw, v) = 2k-1 and d(gw, w) = 2k for every alternating word g of 2k <= "
        f"{HIGMAN_BFS_RADIUS} syllables (exponents up to {HIGMAN_SAMPLE_CAP}; "
        f"{bfs_checked} words)",
        "machine-verified",
    ))
    steps.append(CertStep(
        "the vertex stabilizers of the Bass-Serre tree of a free product are the "
        "conjugates of its factors, so an element of F(y,w) = F(y) * F(w) elliptic on "
        "the tree is conjugate into F(y) or F(w); F(x,z) = F(x) * F(z) is isomorphic to "
        "F(y,w) (both are free products of two infinite cyclic groups), so the same "
        "holds for F(x,z) with F(x) and F(z)",
        "cited", "vertex stabilizers of the Bass-Serre tree (Serre, Trees, I.4)",
    ))

    # (3) the amalgam conjugacy-reduction lemmas, used twice each
    steps.append(CertStep(
        "in an amalgam, an element of a vertex group conjugate to an element of the "
        "other vertex group is conjugate to an element of the edge group",
        "cited", "amalgam structure theorem (Serre, Trees)",
    ))
    steps.append(CertStep(
        "in an amalgam, an element of a vertex group conjugate to an element of the "
        "edge group is already conjugate to it inside that vertex group",
        "cited", "amalgam structure theorem (Serre, Trees)",
    ))

    # (4) the duality computation for the bounding pair
    steps.append(CertStep(
        "H_xy and H_zw carry the one-relator presentation of B(1,2), a duality group "
        "of dimension 2",
        "cited", "Baumslag-Solitar groups are duality groups (Bieri-Eckmann)",
    ))

    cert = DisjointnessCertificate(
        variant="trusted-chain",
        a_label="H_xy = <x, y>",
        b_label="H_zw = <z, w>",
        steps=tuple(steps),
    )
    g = groupexpr.Opaque(
        name="Higman group",
        chd_lower=2,
        chd_upper=2,
        justification="the presentation 2-complex is aspherical (Dyer-Vasquez) and the "
        "group is not free",
        geom_dim=2,
    )
    return tc_report(
        g,
        [(groupexpr.BaumslagSolitar12(), groupexpr.BaumslagSolitar12(), cert)],
        notes=("the group is acyclic, so every cohomological lower bound with finitely "
               "generated coefficients collapses; the subgroup bound still reaches 4",),
    )
