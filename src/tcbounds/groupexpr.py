"""Symbolic cohomological-dimension calculus.

A small expression language of groups with duality / Poincare-duality
flags.  evaluate applies the rules in one post-order walk over the nodes
and returns one Evaluation: chd, exact or a certified interval and never
a silent guess, with its rule trace and dimension data.  Products only
collapse to an exact sum when a duality rule forces it (one factor
orientable PD, or both factors duality groups), since subadditivity
chd(AxB) <= chd(A) + chd(B) can be strict in general.  Expression nodes
only store their fields; expr_from_json reads each with words.Fields
against its kind's EXPR_KEYS and checks ranks, strand counts, genera and
opaque data.  raag is imported only where it reads a raag node.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Optional

from .words import Fields, InputError, Record

if TYPE_CHECKING:
    from .raag import SimpleGraph


class GroupExpr(Record):
    """Base class for group expressions."""

    def label(self) -> str:
        raise NotImplementedError


class Trivial(GroupExpr):
    def label(self) -> str:
        return "1"


class Free(GroupExpr):
    rank: int

    def label(self) -> str:
        return f"F{self.rank}"


class FreeAbelian(GroupExpr):
    rank: int

    def label(self) -> str:
        return f"Z^{self.rank}"


class PureBraid(GroupExpr):
    n: int

    def label(self) -> str:
        return f"PB_{self.n}"


class BaumslagSolitar12(GroupExpr):
    """B(1,2) = <x, y | x y x^-1 = y^2>, a duality group of dimension 2."""

    def label(self) -> str:
        return "B(1,2)"


class SurfaceGroup(GroupExpr):
    genus: int

    def label(self) -> str:
        return f"Surface_{self.genus}"


class Raag(GroupExpr):
    graph: SimpleGraph

    def label(self) -> str:
        return f"RAAG(n={self.graph.n})"


class Opaque(GroupExpr):
    """A group known only through externally supplied dimension data.

    Every use must carry a justification string, which is propagated
    into rule traces.  The data must be consistent (see ``_check_opaque``);
    ``expr_from_json`` checks it, the constructor does not.
    """

    name: str
    chd_lower: int
    chd_upper: int
    justification: str
    duality_dim: Optional[int] = None
    orientable_pd_dim: Optional[int] = None
    geom_dim: Optional[int] = None

    def label(self) -> str:
        return self.name


class Product(GroupExpr):
    left: GroupExpr
    right: GroupExpr

    def label(self) -> str:
        return f"({self.left.label()} x {self.right.label()})"


class FreeProduct(GroupExpr):
    left: GroupExpr
    right: GroupExpr

    def label(self) -> str:
        return f"({self.left.label()} * {self.right.label()})"


class Evaluation(Record):
    """What the rules derive about one expression: chd in [lower, upper],
    its rule trace, pd_dim / duality_dim (the dimension if derivably an
    orientable PD / duality group, else None: never a false positive) and
    geom_dim, an upper bound for the geometric dimension.  caveat: geom_dim
    rests on chd = 2 with no explicit aspherical 2-complex (Eilenberg-Ganea)."""

    lower: int
    upper: int
    trace: tuple[str, ...]
    pd_dim: Optional[int]
    duality_dim: Optional[int]
    geom_dim: int
    caveat: bool

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InputError("invalid interval")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def _postorder(e: GroupExpr) -> list[GroupExpr]:
    """The nodes of e: left subtree, right subtree, then the node itself."""
    order, stack = [], [e]
    while stack:  # pops node, right subtree, left subtree: the reverse order
        order.append(node := stack.pop())
        if isinstance(node, (Product, FreeProduct)):
            stack += [node.left, node.right]
    return order[::-1]


def evaluate(e: GroupExpr) -> Evaluation:
    """Apply the rules to the nodes of e in post-order, a shared subtree at
    each occurrence.  The stack holds each uncombined subtree's Evaluation
    fields but its trace; the root's trace is every node's line in order."""
    stack: list[tuple] = []
    lines: list[str] = []
    for node in _postorder(e):
        if isinstance(node, (Product, FreeProduct)):
            line, values = _combine(node, stack.pop(-2), stack.pop())  # left, right
        else:
            line, values = _base(node)
        lines.append(line)
        stack.append(values)
    lower, upper, *dims = stack.pop()
    return Evaluation(lower, upper, tuple(lines), *dims)


def chd(e: GroupExpr) -> Evaluation:
    """Evaluate cohomological dimension, exactly where a rule applies."""
    return evaluate(e)


def leaves(e: GroupExpr) -> Iterator[GroupExpr]:
    """The leaves of e, left to right."""
    return (node for node in _postorder(e) if not isinstance(node, (Product, FreeProduct)))


def _base(e: GroupExpr) -> tuple[str, tuple]:
    """The rules for one leaf: its trace line and evaluate's values, with
    the duality dimension equal to the PD dimension for a PD group."""
    pd = du = geom = None
    match e:
        case Trivial() | Free(rank=0):
            lo = hi = pd = 0
            line = "chd(1) = 0"
        case Free(rank=r):
            lo = hi = du = 1
            pd = 1 if r == 1 else None
            line = f"free group of rank {r}: chd = 1"
        case FreeAbelian(rank=r):
            lo = hi = pd = r
            line = f"Z^{r} is an orientable PD_{r} group: chd = {r}"
        case PureBraid(n=n):
            # PB_2 = Z; PB_n is n-1 extensions by free groups, duality adds (Bieri-Eckmann)
            lo = hi = du = n - 1
            pd = 1 if n == 2 else None
            line = f"chd(PB_{n}) = {n - 1} (configuration-space model, Arnold)"
        case BaumslagSolitar12():
            lo = hi = du = 2
            line = "B(1,2) is a duality group of dimension 2 (Bieri-Eckmann)"
        case SurfaceGroup(genus=g):
            lo = hi = pd = 2
            line = f"genus-{g} surface group is an orientable PD_2 group"
        case Raag(graph=graph):
            lo = hi = graph.clique_number()
            if graph.n * (graph.n - 1) // 2 == len(graph.edges):  # complete: Z^n
                pd = graph.n
            line = f"chd of a graph group = clique number = {lo} (Salvetti complex)"
        case Opaque(name=name):
            lo, hi, pd, du = e.chd_lower, e.chd_upper, e.orientable_pd_dim, e.duality_dim
            line = f"{name}: chd in [{lo}, {hi}] ({e.justification})"
            geom = (e.geom_dim, False) if e.geom_dim is not None else (hi, hi == 2)
        case _:
            raise InputError(f"cannot evaluate chd of {json.dumps(e, default=repr)}")
    # the other base kinds carry explicit aspherical complexes (graph, torus,
    # configuration space, surface, Salvetti, one-relator presentation
    # complex), so chd is realized geometrically
    return line, (lo, hi, pd, du if pd is None else pd, *(geom or (hi, False)))


def _combine(e: GroupExpr, left: tuple, right: tuple) -> tuple[str, tuple]:
    """The product rules, or the free-product max rule, for one inner node
    whose subtrees have evaluate's values left and right."""
    lo_l, hi_l, pd_l, du_l, geom_l, caveat_l = left
    lo_r, hi_r, pd_r, du_r, geom_r, caveat_r = right
    if isinstance(e, FreeProduct):
        pd = du = None
        lo, hi = max(lo_l, lo_r), max(hi_l, hi_r)
        line = "free product: chd = max of the (torsion-free) factors"
        geom_dim = max(geom_l, geom_r)
    else:
        pd = pd_l + pd_r if None not in (pd_l, pd_r) else None
        du = du_l + du_r if None not in (du_l, du_r) else None
        if pd_l is not None or pd_r is not None:
            # one factor orientable PD: chd adds exactly, so the rule shifts
            # the other factor's interval by the PD dimension
            lo, hi = (pd_l + lo_r, pd_l + hi_r) if pd_l is not None else (pd_r + lo_l, pd_r + hi_l)
            line = "orientable-PD product rule: chd(AxB) = chd(A) + chd(B)"
        elif du is not None:
            lo = hi = du
            line = f"duality product rule (Bieri-Eckmann): both factors duality, chd = {du_l} + {du_r} = {du}"
        else:
            lo, hi = max(lo_l, lo_r), hi_l + hi_r
            line = ("no duality rule applies: interval [max of factors, sum of factors] "
                    "(subadditivity can be strict)")
        geom_dim = geom_l + geom_r
    return line, (lo, hi, pd, du, geom_dim, caveat_l or caveat_r)


# ---------------------------------------------------------------------------
# JSON trees

# Each expression kind's fields besides "kind"; a raag node's are its graph's.
EXPR_KEYS = {"trivial": (), "bs12": (), "free": ("rank",), "free_abelian": ("rank",), "pure_braid": ("n",),
             "surface": ("genus",), "product": ("left", "right"), "free_product": ("left", "right"),
             "opaque": ("name", "chd", "chd_lower", "chd_upper", "justification", "duality_dim",
                        "orientable_pd_dim", "geom_dim")}
# The kinds of one integer field: the node class, the field's least value and the error below it
COUNTED = {"free": (Free, 0, "free rank must be >= 0"),
           "free_abelian": (FreeAbelian, 0, "free abelian rank must be >= 0"),
           "pure_braid": (PureBraid, 2, "pure braid group needs n >= 2 strands"),
           "surface": (SurfaceGroup, 1, "surface genus must be >= 1")}


def expr_from_json(data) -> GroupExpr:
    """Parse {"kind": ..., ...} trees into expressions."""
    kind = Fields(data, "", None).str("kind")
    if kind == "raag":
        from . import raag
        try:
            return Raag(raag.SimpleGraph.from_json(data, "kind"))
        except InputError as exc:
            raise InputError(f"raag: {exc}") from None
    if kind not in EXPR_KEYS:
        raise InputError(f"unknown expression kind {json.dumps(kind)}")
    node = Fields(data, kind, ("kind", *EXPR_KEYS[kind]))
    if kind in COUNTED:
        node_class, low, message = COUNTED[kind]
        if (value := node.int(EXPR_KEYS[kind][0])) < low:
            raise InputError(message)
        return node_class(value)
    if kind == "opaque":
        lo = node.int("chd_lower", node.int("chd", 0))
        return _check_opaque(Opaque(
            name=node.str("name", "opaque"),
            chd_lower=lo,
            chd_upper=node.int("chd_upper", node.int("chd", lo)),
            justification=node.str("justification", "externally supplied"),
            duality_dim=node.int("duality_dim", None),
            orientable_pd_dim=node.int("orientable_pd_dim", None),
            geom_dim=node.int("geom_dim", None),
        ))
    if kind in ("product", "free_product"):
        pair = Product if kind == "product" else FreeProduct
        return pair(expr_from_json(node.get("left")), expr_from_json(node.get("right")))
    return Trivial() if kind == "trivial" else BaumslagSolitar12()


def _check_opaque(leaf: Opaque) -> Opaque:
    """leaf, if its dimension data is possible; an InputError if not."""
    if leaf.chd_lower < 0:
        raise InputError("chd lower bound must be >= 0")
    if leaf.chd_lower > leaf.chd_upper:
        raise InputError("chd lower bound exceeds upper bound")
    if leaf.geom_dim is not None and leaf.geom_dim < leaf.chd_lower:
        raise InputError("geometric dimension is below the chd lower bound")
    for dim in (leaf.duality_dim, leaf.orientable_pd_dim):
        if dim is not None and (dim != leaf.chd_lower or dim != leaf.chd_upper):
            raise InputError("a duality flag forces chd to equal the flagged dimension")
    return leaf
