"""Command-line front end.

Subcommands: raag z|bound, braid perm|lk|equal|tc-bound, pres
abel|hom-check, chd, tree ball|verify-lemma, tc-report.  JSON output
(--json) is byte-deterministic for identical inputs; human-readable
text is rendered from the same JSON document, never computed
separately.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Any

from . import bounds, braids, freeprod, groupexpr, presentations, raag, words
from .certificates import CertificateError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3


class ScenarioError(ValueError):
    """Malformed scenario input, with location information where known."""


@dataclass
class Scenario:
    kind: str
    payload: Any
    options: dict


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
            return json.loads(text)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _require(data: dict, field: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    if field not in data:
        raise ScenarioError(f"{where}: missing field {field!r}")
    return data[field]


def _int_field(data: dict, field: str, where: str) -> int:
    value = _require(data, field, where)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: {field}: expected an integer, got {value!r}") from None


def _string_list(data: dict, field: str, where: str) -> list[str]:
    value = _require(data, field, where)
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: {field}: expected a list of strings")
    for i, item in enumerate(value, start=1):
        if not isinstance(item, str):
            raise ScenarioError(f"{where}: {field}: entry {i} must be a string, got {item!r}")
    return value


def load_graph(data, where: str = "graph") -> raag.SimpleGraph:
    n = _int_field(data, "n", where)
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ScenarioError(f"{where}: edges: expected a list of vertex pairs")
    pairs = []
    for i, edge in enumerate(edges, start=1):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ScenarioError(f"{where}: edges: edge {i} must be a pair of vertices, got {edge!r}")
        try:
            pairs.append((int(edge[0]), int(edge[1])))
        except (TypeError, ValueError):
            raise ScenarioError(f"{where}: edges: edge {i} has a non-integer vertex: {edge!r}") from None
    try:
        return raag.SimpleGraph.from_edges(n, pairs)
    except raag.GraphError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def load_presentation(data, where: str = "presentation") -> presentations.Presentation:
    gens = _string_list(data, "generators", where)
    rels = _string_list(data, "relators", where)
    try:
        return presentations.Presentation.from_strings(gens, rels)
    except (words.WordError, presentations.PresentationError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario(path: str) -> Scenario:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    kind = _require(data, "kind", path)
    options = data.get("options", {})
    if kind == "raag":
        return Scenario("raag", load_graph(data, path), options)
    if kind == "braid":
        return Scenario("braid", _int_field(data, "n", path), options)
    if kind == "expr":
        try:
            expr = groupexpr.expr_from_json(_require(data, "expr", path))
        except groupexpr.ExprError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
        return Scenario("expr", expr, options)
    if kind == "case-study":
        case = _require(data, "case", path)
        if case not in ("borromean", "higman"):
            raise ScenarioError(f"{path}: unknown case study {case!r}")
        return Scenario("case-study", case, options)
    if kind == "presentation":
        pres = load_presentation(data, path)
        return Scenario("presentation", (pres, data), options)
    raise ScenarioError(f"{path}: unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# Output

def emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in _render_text(doc):
            print(line)


def _render_text(doc: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_render_text(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  - {item}")
            if lines and lines[-1] == "":
                lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_raag_z(args) -> int:
    graph = load_graph(_load_json(args.file), args.file)
    z, witness = raag.z_number(graph)
    expr = groupexpr.Raag(graph)
    disjoint_k1, disjoint_k2 = _disjoint_witness(graph, witness)
    bound, cert = raag.clique_pair_bound(graph, disjoint_k1, disjoint_k2)
    report = bounds.tc_report(
        expr,
        [(groupexpr.FreeAbelian(len(disjoint_k1)), groupexpr.FreeAbelian(len(disjoint_k2)), cert)],
        notes=(f"TC equals z = {z} for graph groups (Cohen-Pruidze); the upper half "
               "is cited, not recomputed",),
    )
    doc = {
        "schema": "tcbounds/1",
        "z": z,
        "witness": {"k1": list(witness.k1), "k2": list(witness.k2)},
        "certified_lower_bound": bound,
        "report": report.to_json(),
    }
    emit(doc, args.json)
    return EXIT_OK


def _disjoint_witness(graph, witness):
    """Shrink a maximizing clique pair to disjoint cliques with the same union."""
    k2 = tuple(witness.k2)
    k1 = tuple(v for v in witness.k1 if v not in set(k2))
    if not k1:  # identical cliques: split one vertex off
        k1 = (k2[0],)
        k2 = k2[1:]
    if not k2:
        k2 = (k1[0],)
        k1 = k1[1:]
    return k1, k2


def cmd_raag_bound(args) -> int:
    graph = load_graph(_load_json(args.file), args.file)
    k1 = [int(x) for x in args.k1.split(",") if x]
    k2 = [int(x) for x in args.k2.split(",") if x]
    bound, cert = raag.clique_pair_bound(graph, k1, k2)
    doc = {
        "schema": "tcbounds/1",
        "k1": sorted(set(k1)),
        "k2": sorted(set(k2)),
        "tc_lower_bound": bound,
        "certificate": cert.to_json(),
    }
    emit(doc, args.json)
    return EXIT_OK


def cmd_braid_perm(args) -> int:
    b = braids.parse_braid(args.word, args.n)
    doc = {"schema": "tcbounds/1", "n": args.n, "permutation": list(braids.permutation(b)),
           "pure": braids.is_pure(b)}
    emit(doc, args.json)
    return EXIT_OK


def cmd_braid_lk(args) -> int:
    b = braids.parse_braid(args.word, args.n)
    lk = braids.linking_matrix(b)
    doc = {"schema": "tcbounds/1", "n": args.n,
           "linking_matrix": [list(r) for r in lk.entries],
           "last_column": list(lk.last_column())}
    emit(doc, args.json)
    return EXIT_OK


def cmd_braid_equal(args) -> int:
    u = braids.parse_braid(args.word, args.n)
    v = braids.parse_braid(args.other, args.n)
    doc = {"schema": "tcbounds/1", "n": args.n,
           "equal": braids.braid_equal(u, v, word_cap=args.max_word)}
    emit(doc, args.json)
    return EXIT_OK


def cmd_braid_tc_bound(args) -> int:
    bound, cert = braids.pb_tc_lower_bound(args.n)
    report = _pbn_report(args.n, bound, cert)
    doc = {"schema": "tcbounds/1", "n": args.n, "tc_lower_bound": bound,
           "report": report.to_json()}
    emit(doc, args.json)
    return EXIT_OK


def _pbn_report(n: int, bound: int, cert) -> "bounds.BoundReport":
    expr = groupexpr.PureBraid(n)
    a_expr = groupexpr.FreeAbelian(n - 1)
    b_expr = groupexpr.PureBraid(n - 1) if n >= 3 else groupexpr.Trivial()
    return bounds.tc_report(
        expr,
        [(a_expr, b_expr, cert)],
        notes=(f"TC(PB_{n}) = {bound} exactly (Farber-Yuzvinsky); shown as a cited "
               "annotation, the interval above is what is certified here",),
    )


def cmd_pres_abel(args) -> int:
    pres = load_presentation(_load_json(args.file), args.file)
    inv = presentations.abelianization(pres)
    doc = {
        "schema": "tcbounds/1",
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "trivial": inv.is_trivial,
        "generator_images": {
            name: list(inv.generator_images[i])
            for i, name in enumerate(pres.generators)
        },
    }
    emit(doc, args.json)
    return EXIT_OK


def cmd_pres_hom_check(args) -> int:
    data = _load_json(args.file)
    pres = load_presentation(_require(data, "presentation", args.file), f"{args.file}: presentation")
    target = _require(data, "target_generators", args.file)
    image_map = _require(data, "images", args.file)
    images = []
    for name in pres.generators:
        if name not in image_map:
            raise ScenarioError(f"{args.file}: no image for generator {name!r}")
        images.append(words.parse_word(image_map[name], target))
    ok, witness = presentations.check_hom(pres, len(target), images)
    doc = {"schema": "tcbounds/1", "well_defined": ok}
    if not ok:
        doc["failing_relator"] = str(witness)
    emit(doc, args.json)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_chd(args) -> int:
    expr = groupexpr.expr_from_json(_load_json(args.file))
    result = groupexpr.chd(expr)
    doc = {
        "schema": "tcbounds/1",
        "group": expr.label(),
        "chd_lower": result.lower,
        "chd_upper": result.upper,
        "exact": result.exact,
        "trace": list(result.trace),
    }
    emit(doc, args.json)
    return EXIT_OK


def cmd_tree_ball(args) -> int:
    factors = (freeprod.Factor(args.kind, args.rank), freeprod.Factor(args.kind, args.rank))
    ball = freeprod.build_tree_ball(factors, args.radius, args.cap,
                                    max_vertices=args.max_ball)
    if args.dot:
        print(ball.to_dot())
        return EXIT_OK
    doc = {
        "schema": "tcbounds/1",
        "radius": args.radius,
        "cap": args.cap,
        "vertices": ball.vertex_count,
        "edges": ball.edge_count,
        "acyclic": ball.edge_count == ball.vertex_count - 1,
    }
    emit(doc, args.json)
    return EXIT_OK


def cmd_tree_verify_lemma(args) -> int:
    """Check d(gw, v) = 2k-1 and d(gw, w) = 2k for all alternating words."""
    if args.radius < 2 * args.k - 1:
        raise ScenarioError(
            f"--radius {args.radius} is too small for --k {args.k}: the deepest checked "
            f"vertex gw lies at depth {2 * args.k - 1}"
        )
    factors = (freeprod.Factor("free", 1), freeprod.Factor("free", 1))
    ball = freeprod.build_tree_ball(factors, args.radius, args.cap,
                                    max_vertices=args.max_ball)
    dist_v = ball.distance_map(ball.v)
    dist_w = ball.distance_map(ball.w)
    exps = [e for e in range(-args.cap, args.cap + 1) if e]
    failures = []
    total = 0
    for k in range(1, args.k + 1):
        for combo in iter_product(exps, repeat=2 * k):
            syls = tuple(
                (pos % 2, ((1, 1),) * e if e > 0 else ((1, -1),) * (-e))
                for pos, e in enumerate(combo)
            )
            g = freeprod.FPWord(factors, syls)
            gw = ball.coset_vertex(g, freeprod.B_SIDE)
            total += 1
            if dist_v[gw] != 2 * k - 1 or dist_w[gw] != 2 * k:
                failures.append(list(combo))
    doc = {
        "schema": "tcbounds/1",
        "k_max": args.k,
        "cap": args.cap,
        "radius": args.radius,
        "words_checked": total,
        "failures": failures,
        "verified": not failures,
    }
    emit(doc, args.json)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_tc_report(args) -> int:
    if args.case:
        parts = args.case
        name = parts[0]
        if name == "borromean":
            report = bounds.borromean_case_study()
        elif name == "higman":
            report = bounds.higman_case_study()
        elif name == "pbn":
            if len(parts) < 2:
                raise ScenarioError("--case pbn needs a strand count, e.g. --case pbn 4")
            n = int(parts[1])
            bound, cert = braids.pb_tc_lower_bound(n)
            report = _pbn_report(n, bound, cert)
        elif name == "raag":
            if len(parts) < 2:
                raise ScenarioError("--case raag needs a graph file")
            graph = load_graph(_load_json(parts[1]), parts[1])
            z, witness = raag.z_number(graph)
            k1, k2 = _disjoint_witness(graph, witness)
            _, cert = raag.clique_pair_bound(graph, k1, k2)
            report = bounds.tc_report(
                groupexpr.Raag(graph),
                [(groupexpr.FreeAbelian(len(k1)), groupexpr.FreeAbelian(len(k2)), cert)],
                notes=(f"TC = z = {z} exactly for graph groups (Cohen-Pruidze)",),
            )
        else:
            raise ScenarioError(f"unknown case {name!r}")
        emit(report.to_json(), args.json)
        return EXIT_OK

    if not args.file:
        raise ScenarioError("tc-report needs --case or a scenario file")
    scenario = parse_scenario(args.file)
    if scenario.kind == "case-study":
        report = (bounds.borromean_case_study() if scenario.payload == "borromean"
                  else bounds.higman_case_study())
    elif scenario.kind == "raag":
        graph = scenario.payload
        z, witness = raag.z_number(graph)
        k1, k2 = _disjoint_witness(graph, witness)
        _, cert = raag.clique_pair_bound(graph, k1, k2)
        report = bounds.tc_report(
            groupexpr.Raag(graph),
            [(groupexpr.FreeAbelian(len(k1)), groupexpr.FreeAbelian(len(k2)), cert)],
        )
    elif scenario.kind == "braid":
        n = scenario.payload
        bound, cert = braids.pb_tc_lower_bound(n)
        report = _pbn_report(n, bound, cert)
    elif scenario.kind == "expr":
        expr = scenario.payload
        report = bounds.tc_report(expr, [])
    elif scenario.kind == "presentation":
        report = _presentation_report(scenario)
    else:
        raise ScenarioError(f"unsupported scenario kind {scenario.kind!r}")
    emit(report.to_json(), args.json)
    return EXIT_OK


def _presentation_report(scenario: Scenario):
    pres, data = scenario.payload
    hom = _require(data, "hom", "presentation scenario")
    target = _require(hom, "target_generators", "hom")
    image_map = _require(hom, "images", "hom")
    images = tuple(
        words.parse_word(image_map.get(name, ""), target) if image_map.get(name) else words.identity(len(target))
        for name in pres.generators
    )
    p = presentations.FreeHom(pres, len(target), images)
    a_gen = _require(data, "a_generator", "presentation scenario")
    beta = words.parse_word(_require(data, "beta", "presentation scenario"), target)
    cert = bounds.verify_split_extension_certificate(pres, p, a_gen, beta)
    a_expr = groupexpr.expr_from_json(_require(data, "a_expr", "presentation scenario"))
    b_expr = groupexpr.expr_from_json(_require(data, "b_expr", "presentation scenario"))
    g_expr = groupexpr.expr_from_json(_require(data, "group_expr", "presentation scenario"))
    return bounds.tc_report(g_expr, [(a_expr, b_expr, cert)])


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbounds",
        description="Certified topological-complexity bounds for aspherical groups",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--max-ball", type=int, default=5_000_000,
                        help="tree ball vertex cap")
    parser.add_argument("--max-word", type=int, default=braids.DEFAULT_WORD_CAP,
                        help="braid free-group image length cap")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled property runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_raag = sub.add_parser("raag", help="right-angled Artin group computations")
    raag_sub = p_raag.add_subparsers(dest="subcommand", required=True)
    p = raag_sub.add_parser("z", help="two-clique number and TC report")
    p.add_argument("file", help="graph JSON file")
    p.set_defaults(func=cmd_raag_z)
    p = raag_sub.add_parser("bound", help="certified bound from a disjoint clique pair")
    p.add_argument("file")
    p.add_argument("--k1", required=True, help="comma-separated vertices")
    p.add_argument("--k2", required=True)
    p.set_defaults(func=cmd_raag_bound)

    p_braid = sub.add_parser("braid", help="braid computations")
    braid_sub = p_braid.add_subparsers(dest="subcommand", required=True)
    p = braid_sub.add_parser("perm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word", help='braid word like "s1 s2^-1"')
    p.set_defaults(func=cmd_braid_perm)
    p = braid_sub.add_parser("lk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(func=cmd_braid_lk)
    p = braid_sub.add_parser("equal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("word")
    p.add_argument("other")
    p.set_defaults(func=cmd_braid_equal)
    p = braid_sub.add_parser("tc-bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_braid_tc_bound)

    p_pres = sub.add_parser("pres", help="presentation computations")
    pres_sub = p_pres.add_subparsers(dest="subcommand", required=True)
    p = pres_sub.add_parser("abel")
    p.add_argument("file")
    p.set_defaults(func=cmd_pres_abel)
    p = pres_sub.add_parser("hom-check")
    p.add_argument("file")
    p.set_defaults(func=cmd_pres_hom_check)

    p = sub.add_parser("chd", help="evaluate a group expression")
    p.add_argument("file", help="expression JSON file")
    p.set_defaults(func=cmd_chd)

    p_tree = sub.add_parser("tree", help="Bass-Serre tree balls")
    tree_sub = p_tree.add_subparsers(dest="subcommand", required=True)
    p = tree_sub.add_parser("ball")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--kind", choices=["free", "free_abelian"], default="free")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--dot", action="store_true", help="emit DOT graph")
    p.set_defaults(func=cmd_tree_ball)
    p = tree_sub.add_parser("verify-lemma")
    p.add_argument("--k", type=int, default=3, help="max half-syllable count")
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--radius", type=int, default=10)
    p.set_defaults(func=cmd_tree_verify_lemma)

    p = sub.add_parser("tc-report", help="assemble a certified bound report")
    p.add_argument("file", nargs="?", help="scenario JSON file")
    p.add_argument("--case", nargs="+", metavar="CASE",
                   help="borromean | higman | pbn N | raag FILE")
    p.set_defaults(func=cmd_tc_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, words.WordError, presentations.PresentationError,
            groupexpr.ExprError, raag.GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (braids.BraidResourceError, freeprod.ResourceCapError) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CertificateError,) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (braids.BraidError, freeprod.FreeProductError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
