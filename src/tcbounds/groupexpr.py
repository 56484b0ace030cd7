"""Symbolic cohomological-dimension calculus.

A small expression language of groups with duality / Poincare-duality
flags.  Evaluation returns an exact value or a certified interval,
never a silent guess: products only collapse to an exact sum when a
duality rule forces it (one factor orientable PD, or both factors
duality groups), since subadditivity chd(AxB) <= chd(A) + chd(B) can
be strict in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .raag import GraphError, SimpleGraph


class ExprError(ValueError):
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
        if self.chd_lower > self.chd_upper:
            raise ExprError("chd lower bound exceeds upper bound")
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


def is_orientable_pd(e: GroupExpr) -> Optional[int]:
    """Dimension if e is derivably an orientable Poincare duality group."""
    match e:
        case Trivial():
            return 0
        case Free(rank=0) | FreeAbelian(rank=0):
            return 0
        case Free(rank=1):
            return 1
        case FreeAbelian(rank=r):
            return r
        case PureBraid(n=2):
            return 1  # PB_2 is infinite cyclic
        case SurfaceGroup():
            return 2
        case Raag(graph=g):
            # complete graph: the group is Z^n
            if g.n * (g.n - 1) // 2 == len(g.edges):
                return g.n
            return None
        case Opaque():
            return e.orientable_pd_dim
        case Product(left=l, right=r):
            dl, dr = is_orientable_pd(l), is_orientable_pd(r)
            if dl is not None and dr is not None:
                return dl + dr
            return None
    return None


def is_duality(e: GroupExpr) -> Optional[int]:
    """Dimension if e is derivably a duality group; None means unknown
    (never a false positive)."""
    opd = is_orientable_pd(e)
    if opd is not None:
        return opd
    match e:
        case Free(rank=r) if r >= 1:
            return 1
        case PureBraid(n=n):
            # iterated extension of free groups, one per strand beyond the
            # first; duality dimension adds along extensions (Bieri-Eckmann)
            return n - 1
        case BaumslagSolitar12():
            return 2  # Bieri-Eckmann: B(1,2) is a duality group of dim 2
        case Opaque():
            return e.duality_dim
        case Product(left=l, right=r):
            dl, dr = is_duality(l), is_duality(r)
            if dl is not None and dr is not None:
                return dl + dr
            return None
    return None


def chd(e: GroupExpr) -> ChdResult:
    """Evaluate cohomological dimension, exactly where a rule applies."""
    match e:
        case Trivial():
            return ChdResult(0, 0, ("chd(1) = 0",))
        case Free(rank=r):
            if r == 0:
                return ChdResult(0, 0, ("chd(1) = 0",))
            return ChdResult(1, 1, (f"free group of rank {r}: chd = 1",))
        case FreeAbelian(rank=r):
            return ChdResult(r, r, (f"Z^{r} is an orientable PD_{r} group: chd = {r}",))
        case PureBraid(n=n):
            return ChdResult(
                n - 1, n - 1,
                (f"chd(PB_{n}) = {n - 1} (configuration-space model, Arnold)",),
            )
        case BaumslagSolitar12():
            return ChdResult(2, 2, ("B(1,2) is a duality group of dimension 2 (Bieri-Eckmann)",))
        case SurfaceGroup(genus=g):
            return ChdResult(2, 2, (f"genus-{g} surface group is an orientable PD_2 group",))
        case Raag(graph=graph):
            omega = graph.clique_number()
            return ChdResult(
                omega, omega,
                (f"chd of a graph group = clique number = {omega} (Salvetti complex)",),
            )
        case Opaque(name=name):
            trace = (f"{name}: chd in [{e.chd_lower}, {e.chd_upper}] ({e.justification})",)
            return ChdResult(e.chd_lower, e.chd_upper, trace)
        case Product(left=l, right=r):
            return _chd_product(e, l, r)
        case FreeProduct(left=l, right=r):
            cl, cr = chd(l), chd(r)
            lo = max(cl.lower, cr.lower)
            hi = max(cl.upper, cr.upper)
            trace = cl.trace + cr.trace + (
                "free product: chd = max of the (torsion-free) factors",
            )
            return ChdResult(lo, hi, trace)
    raise ExprError(f"cannot evaluate chd of {e!r}")


def _chd_product(e: Product, l: GroupExpr, r: GroupExpr) -> ChdResult:
    cl, cr = chd(l), chd(r)
    trace = cl.trace + cr.trace
    pd_l, pd_r = is_orientable_pd(l), is_orientable_pd(r)
    if pd_l is not None or pd_r is not None:
        # one factor orientable PD: chd adds exactly, so the rule shifts
        # the other factor's interval by the PD dimension
        pd_dim = pd_l if pd_l is not None else pd_r
        other = cr if pd_l is not None else cl
        return ChdResult(
            pd_dim + other.lower, pd_dim + other.upper,
            trace + ("orientable-PD product rule: chd(AxB) = chd(A) + chd(B)",),
        )
    du_l, du_r = is_duality(l), is_duality(r)
    if du_l is not None and du_r is not None:
        total = du_l + du_r
        return ChdResult(
            total, total,
            trace + (
                f"duality product rule (Bieri-Eckmann): both factors duality, chd = {du_l} + {du_r} = {total}",
            ),
        )
    return ChdResult(
        max(cl.lower, cr.lower), cl.upper + cr.upper,
        trace + (
            "no duality rule applies: interval [max of factors, sum of factors] "
            "(subadditivity can be strict)",
        ),
    )


def geometric_dimension(e: GroupExpr) -> tuple[int, bool]:
    """(upper bound for the geometric dimension, caveat flag).

    The caveat flag is set when the value rests on chd = 2 without an
    explicit aspherical 2-complex (the Eilenberg-Ganea problem leaves
    geometric dimension 3 conceivable in that range).
    """
    match e:
        case Opaque():
            if e.geom_dim is not None:
                return e.geom_dim, False
            c = chd(e)
            return c.upper, c.upper == 2
        case Product(left=l, right=r):
            gl, cl = geometric_dimension(l)
            gr, cr = geometric_dimension(r)
            return gl + gr, cl or cr
        case FreeProduct(left=l, right=r):
            gl, cl = geometric_dimension(l)
            gr, cr = geometric_dimension(r)
            return max(gl, gr), cl or cr
        case _:
            # base kinds carry explicit aspherical complexes (graph, torus,
            # configuration space, surface, Salvetti complex, one-relator
            # presentation complex), so chd is realized geometrically
            return chd(e).upper, False


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
            return int(value)
        except (TypeError, ValueError):
            raise ExprError(f"{kind}: {name}: expected an integer, got {value!r}") from None

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
