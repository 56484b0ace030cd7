"""Symbolic cohomological-dimension calculus.

A small expression language of groups with duality / Poincare-duality
flags.  evaluate applies the rules in one bottom-up pass, each node once,
and returns an exact value or a certified interval, never a silent
guess: products only collapse to an exact sum when a duality rule
forces it (one factor orientable PD, or both factors duality groups),
since subadditivity chd(AxB) <= chd(A) + chd(B) can be strict in
general.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .raag import GraphError, SimpleGraph
from .words import InputError, json_int


class ExprError(InputError):
    """Invalid expression or missing dimension data."""


class GroupExpr:
    """Base class for group expressions."""

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Trivial(GroupExpr):
    def label(self) -> str:
        return "1"


@dataclass(frozen=True)
class Free(GroupExpr):
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ExprError("free rank must be >= 0")

    def label(self) -> str:
        return f"F{self.rank}"


@dataclass(frozen=True)
class FreeAbelian(GroupExpr):
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ExprError("free abelian rank must be >= 0")

    def label(self) -> str:
        return f"Z^{self.rank}"


@dataclass(frozen=True)
class PureBraid(GroupExpr):
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ExprError("pure braid group needs n >= 2 strands")

    def label(self) -> str:
        return f"PB_{self.n}"


@dataclass(frozen=True)
class BaumslagSolitar12(GroupExpr):
    """B(1,2) = <x, y | x y x^-1 = y^2>, a duality group of dimension 2."""

    def label(self) -> str:
        return "B(1,2)"


@dataclass(frozen=True)
class SurfaceGroup(GroupExpr):
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ExprError("surface genus must be >= 1")

    def label(self) -> str:
        return f"Surface_{self.genus}"


@dataclass(frozen=True)
class Raag(GroupExpr):
    graph: SimpleGraph

    def label(self) -> str:
        return f"RAAG(n={self.graph.n})"


@dataclass(frozen=True)
class Opaque(GroupExpr):
    """A group known only through externally supplied dimension data.

    Every use must carry a justification string, which is propagated
    into rule traces.
    """

    name: str
    chd_lower: int
    chd_upper: int
    justification: str
    duality_dim: Optional[int] = None
    orientable_pd_dim: Optional[int] = None
    geom_dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chd_lower < 0:
            raise ExprError("chd lower bound must be >= 0")
        if self.chd_lower > self.chd_upper:
            raise ExprError("chd lower bound exceeds upper bound")
        if self.geom_dim is not None and self.geom_dim < self.chd_lower:
            raise ExprError("geometric dimension is below the chd lower bound")
        for dim in (self.duality_dim, self.orientable_pd_dim):
            if dim is not None and (dim != self.chd_lower or dim != self.chd_upper):
                raise ExprError("a duality flag forces chd to equal the flagged dimension")

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class Product(GroupExpr):
    left: GroupExpr
    right: GroupExpr

    def label(self) -> str:
        return f"({self.left.label()} x {self.right.label()})"


@dataclass(frozen=True)
class FreeProduct(GroupExpr):
    left: GroupExpr
    right: GroupExpr

    def label(self) -> str:
        return f"({self.left.label()} * {self.right.label()})"


@dataclass(frozen=True)
class ChdResult:
    """An exact value or interval for chd, with the applied rule trace."""

    lower: int
    upper: int
    trace: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ExprError("invalid interval")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ExprError(f"chd is only bounded in [{self.lower}, {self.upper}]")
        return self.lower


@dataclass(frozen=True)
class Evaluation:
    """What the rules derive about one expression.  pd_dim / duality_dim:
    the dimension if derivably an orientable PD / duality group, else None
    (never a false positive).  caveat: geom_dim, an upper bound for the
    geometric dimension, rests on chd = 2 without an explicit aspherical
    2-complex (the Eilenberg-Ganea problem leaves dimension 3 conceivable)."""

    chd: ChdResult
    pd_dim: Optional[int]
    duality_dim: Optional[int]
    geom_dim: int
    caveat: bool


def evaluate(e: GroupExpr) -> Evaluation:
    """Apply the rules to every node of e once, children before parents.  A
    node's record holds only its own trace line; the root's is built last."""
    done: dict[int, Evaluation] = {}  # keyed by id(): nodes hash recursively
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        if not isinstance(node, (Product, FreeProduct)):
            done[id(node)] = _base(node)
        elif pending := [c for c in (node.left, node.right) if id(c) not in done]:
            stack += [node, *pending]
        else:
            done[id(node)] = _combine(node, done[id(node.left)], done[id(node.right)])
    # node, right subtree, left subtree; reversed, that is the post-order
    lines, stack = [], [e]
    while stack:
        node = stack.pop()
        lines += done[id(node)].chd.trace
        if isinstance(node, (Product, FreeProduct)):
            stack += [node.left, node.right]
    root = done[id(e)]
    return replace(root, chd=replace(root.chd, trace=tuple(reversed(lines))))


def chd(e: GroupExpr) -> ChdResult:
    """Evaluate cohomological dimension, exactly where a rule applies."""
    return evaluate(e).chd


def leaves(e: GroupExpr) -> Iterator[GroupExpr]:
    """The leaves of e, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Product, FreeProduct)):
            stack += [node.right, node.left]
        else:
            yield node


def _base(e: GroupExpr) -> Evaluation:
    """The rules for one leaf: chd with its trace line, the orientable-PD
    dimension and, for groups not known to be PD, the duality dimension."""
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
            raise ExprError(f"cannot evaluate chd of {e!r}")
    # the other base kinds carry explicit aspherical complexes (graph, torus,
    # configuration space, surface, Salvetti, one-relator presentation
    # complex), so chd is realized geometrically
    return Evaluation(ChdResult(lo, hi, (line,)), pd, du if pd is None else pd,
                      *(geom or (hi, False)))


def _combine(e: GroupExpr, left: Evaluation, right: Evaluation) -> Evaluation:
    """The product rules, or the free-product max rule, for one inner node."""
    cl, cr = left.chd, right.chd
    if isinstance(e, FreeProduct):
        pd = du = None
        lo, hi = max(cl.lower, cr.lower), max(cl.upper, cr.upper)
        line = "free product: chd = max of the (torsion-free) factors"
        geom_dim = max(left.geom_dim, right.geom_dim)
    else:
        pd_l, pd_r = left.pd_dim, right.pd_dim
        du_l, du_r = left.duality_dim, right.duality_dim
        pd = pd_l + pd_r if None not in (pd_l, pd_r) else None
        du = du_l + du_r if None not in (du_l, du_r) else None
        if pd_l is not None or pd_r is not None:
            # one factor orientable PD: chd adds exactly, so the rule shifts
            # the other factor's interval by the PD dimension
            shift, other = (pd_l, cr) if pd_l is not None else (pd_r, cl)
            lo, hi = shift + other.lower, shift + other.upper
            line = "orientable-PD product rule: chd(AxB) = chd(A) + chd(B)"
        elif du is not None:
            lo = hi = du
            line = f"duality product rule (Bieri-Eckmann): both factors duality, chd = {du_l} + {du_r} = {du}"
        else:
            lo, hi = max(cl.lower, cr.lower), cl.upper + cr.upper
            line = ("no duality rule applies: interval [max of factors, sum of factors] "
                    "(subadditivity can be strict)")
        geom_dim = left.geom_dim + right.geom_dim
    return Evaluation(ChdResult(lo, hi, (line,)), pd, du,
                      geom_dim, left.caveat or right.caveat)


# ---------------------------------------------------------------------------
# JSON trees

def expr_from_json(data) -> GroupExpr:
    """Parse {"kind": ..., ...} trees into expressions."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ExprError("expression node must be an object with a 'kind' field")
    kind = data["kind"]

    def num(name, default=None):
        value = data[name] if default is None else data.get(name, default)
        try:
            return json_int(value)
        except ValueError as exc:
            raise ExprError(f"{kind}: {name}: {exc}") from None

    def optional_num(name):
        return num(name) if data.get(name) is not None else None

    try:
        match kind:
            case "trivial":
                return Trivial()
            case "free":
                return Free(num("rank"))
            case "free_abelian":
                return FreeAbelian(num("rank"))
            case "pure_braid":
                return PureBraid(num("n"))
            case "bs12":
                return BaumslagSolitar12()
            case "surface":
                return SurfaceGroup(num("genus"))
            case "raag":
                return Raag(SimpleGraph.from_json(data))
            case "opaque":
                lo = num("chd_lower", num("chd", 0))
                return Opaque(
                    name=str(data.get("name", "opaque")),
                    chd_lower=lo,
                    chd_upper=num("chd_upper", num("chd", lo)),
                    justification=str(data.get("justification", "externally supplied")),
                    duality_dim=optional_num("duality_dim"),
                    orientable_pd_dim=optional_num("orientable_pd_dim"),
                    geom_dim=optional_num("geom_dim"),
                )
            case "product":
                return Product(expr_from_json(data["left"]), expr_from_json(data["right"]))
            case "free_product":
                return FreeProduct(expr_from_json(data["left"]), expr_from_json(data["right"]))
    except KeyError as exc:
        raise ExprError(f"expression node {kind!r} missing field {exc}") from None
    except GraphError as exc:
        raise ExprError(f"raag: {exc}") from None
    raise ExprError(f"unknown expression kind {kind!r}")
