"""Command-line front end.

Subcommands: raag z|bound, braid perm|lk|equal|tc-bound, pres
abel|hom-check, chd, tree ball|verify-lemma, tc-report.  JSON output
(--json) is byte-deterministic for identical inputs; human-readable
text is rendered from the same JSON document, never computed
separately.

Exit codes: 0 success, 1 usage or parse error (or stdout closed before
the report was written), 2 verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds, braids, freeprod, groupexpr, presentations, raag, words
from .certificates import CertificateError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3


class ScenarioError(ValueError):
    """Malformed scenario input, with location information where known."""


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
    except RecursionError:
        raise ScenarioError(f"{path}: input nested too deeply") from None


def _require(data: dict, field: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    if field not in data:
        raise ScenarioError(f"{where}: missing field {field!r}")
    return data[field]


def _int_field(data: dict, field: str, where: str) -> int:
    value = _require(data, field, where)
    try:
        return words.json_int(value)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {field}: {exc}") from None


def _string_list(data: dict, field: str, where: str) -> list[str]:
    value = _require(data, field, where)
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: {field}: expected a list of strings")
    for i, item in enumerate(value, start=1):
        if not isinstance(item, str):
            raise ScenarioError(f"{where}: {field}: entry {i} must be a string, got {item!r}")
    return value


def _parsed(where: str, parse, *args):
    """parse(*args), with a malformed-input error reported at where."""
    try:
        return parse(*args)
    except (raag.GraphError, groupexpr.ExprError, words.WordError,
            presentations.PresentationError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: input nested too deeply") from None


def load_graph(data, where: str) -> raag.SimpleGraph:
    return _parsed(where, raag.SimpleGraph.from_json, data)


def load_expr(data, where: str) -> groupexpr.GroupExpr:
    return _parsed(where, groupexpr.expr_from_json, data)


def load_presentation(data, where: str) -> presentations.Presentation:
    gens = _string_list(data, "generators", where)
    rels = _string_list(data, "relators", where)
    return _parsed(where, presentations.Presentation.from_strings, gens, rels)


def load_hom(data, source: presentations.Presentation,
             where: str) -> tuple[list[str], tuple[words.Word, ...]]:
    """Target generator names and the images of the source generators from
    {"target_generators": [names], "images": {generator: word}}.  Every
    source generator needs an entry; "" is the identity."""
    target = _string_list(data, "target_generators", where)
    image_map = _require(data, "images", where)
    if not isinstance(image_map, dict):
        raise ScenarioError(f"{where}: images: expected an object mapping generators to words")
    images = []
    for name in source.generators:
        if name not in image_map:
            raise ScenarioError(f"{where}: images: no image for generator {name!r}")
        images.append(_parsed(f"{where}: images: {name}", words.parse_word, image_map[name], target))
    return target, tuple(images)


# ---------------------------------------------------------------------------
# Reports

def scenario_report(data, where: str) -> bounds.BoundReport:
    """The report for one scenario object; --case arguments are mapped onto
    scenario objects by case_scenario and dispatched here too."""
    kind = _require(data, "kind", where)
    if kind == "case-study":
        case = _require(data, "case", where)
        if case == "borromean":
            return bounds.borromean_case_study()
        if case == "higman":
            return bounds.higman_case_study()
        raise ScenarioError(f"{where}: unknown case study {case!r}")
    if kind == "braid":
        return bounds.pure_braid_report(_int_field(data, "n", where))[1]
    if kind == "raag":
        return bounds.raag_report(load_graph(data, where))[3]
    if kind == "expr":
        return bounds.tc_report(load_expr(_require(data, "expr", where), where), [])
    if kind == "presentation":
        return _presentation_report(data, where)
    raise ScenarioError(f"{where}: unknown scenario kind {kind!r}")


CASE_USAGE = "borromean | higman | pbn N | raag FILE"


def case_scenario(case: list[str]) -> tuple[dict, str]:
    """(scenario object, error location) for the arguments of --case."""
    name, rest = case[0], case[1:]
    arity = {"borromean": 0, "higman": 0, "pbn": 1, "raag": 1}.get(name)
    if arity is None or len(rest) != arity:
        raise ScenarioError(f"--case {' '.join(case)}: expected --case {CASE_USAGE}")
    if arity == 0:
        return {"kind": "case-study", "case": name}, "--case"
    if name == "pbn":
        return {"kind": "braid", "n": rest[0]}, "--case pbn"
    graph = _load_json(rest[0])
    return ({**graph, "kind": "raag"} if isinstance(graph, dict) else graph), rest[0]


def _presentation_report(data, where: str) -> bounds.BoundReport:
    pres = load_presentation(data, where)
    target, images = load_hom(_require(data, "hom", where), pres, f"{where}: hom")
    p = presentations.FreeHom(pres, len(target), images)
    beta = _parsed(f"{where}: beta", words.parse_word, _require(data, "beta", where), target)
    cert = bounds.verify_split_extension_certificate(pres, p, _require(data, "a_generator", where), beta)
    a_expr, b_expr, g_expr = (load_expr(_require(data, field, where), f"{where}: {field}")
                              for field in ("a_expr", "b_expr", "group_expr"))
    return bounds.tc_report(g_expr, [(a_expr, b_expr, cert)])


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
    z, witness, bound, report = bounds.raag_report(load_graph(_load_json(args.file), args.file))
    doc = {
        "schema": "tcbounds/1",
        "z": z,
        "witness": {"k1": list(witness.k1), "k2": list(witness.k2)},
        "certified_lower_bound": bound,
        "report": report.to_json(),
    }
    emit(doc, args.json)
    return EXIT_OK


def _vertex_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ScenarioError(f"{flag}: expected comma-separated vertices, got {text!r}") from None


def cmd_raag_bound(args) -> int:
    k1, k2 = _vertex_list(args.k1, "--k1"), _vertex_list(args.k2, "--k2")
    graph = load_graph(_load_json(args.file), args.file)
    bound, cert = bounds.clique_pair_bound(graph, k1, k2)
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
    bound, report = bounds.pure_braid_report(args.n)
    doc = {"schema": "tcbounds/1", "n": args.n, "tc_lower_bound": bound,
           "report": report.to_json()}
    emit(doc, args.json)
    return EXIT_OK


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
    target, images = load_hom(data, pres, args.file)
    ok, witness = presentations.check_hom(pres, len(target), images)
    doc = {"schema": "tcbounds/1", "well_defined": ok}
    if not ok:
        doc["failing_relator"] = str(witness)
    emit(doc, args.json)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_chd(args) -> int:
    expr = load_expr(_load_json(args.file), args.file)
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
    total, failures = freeprod.verify_tree_lemma(args.k, args.cap, args.radius, args.max_ball)
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
        data, where = case_scenario(args.case)
    else:
        data, where = _load_json(args.file), args.file
    emit(scenario_report(data, where).to_json(), args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE, not 2; subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tcbounds",
        description="Certified topological-complexity bounds for aspherical groups",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--max-ball", type=int, default=freeprod.MAX_BALL_VERTICES,
                        help="tree ball vertex cap")
    parser.add_argument("--max-word", type=int, default=braids.DEFAULT_WORD_CAP,
                        help="braid free-group image length cap")
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="scenario JSON file")
    source.add_argument("--case", nargs="+", metavar="CASE",
                        help=CASE_USAGE)
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
    except words.ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (CertificateError,) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (braids.BraidError, freeprod.FreeProductError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The command-line entry: exit with main()'s code, or with 1 and no
    traceback when the reader of stdout goes away early (``| head``)."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
