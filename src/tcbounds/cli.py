"""Command-line front end: a thin input boundary with one output path.

Subcommands: raag z|bound, braid perm|lk|equal|tc-bound, pres
abel|hom-check, chd, tree ball|verify-lemma, tc-report.  Each cmd_*
handler validates its input and returns a document without a schema
key (``tree ball --dot`` returns its DOT text).  ``main`` alone stamps
the schema, renders the document as JSON (--json, byte-deterministic
for identical inputs) or as text derived from the same document, and
picks the exit code.

Handlers and loaders import the modules they call on dispatch, inside
the function, so a request compiles and imports only what its
subcommand runs: each request is a fresh process, and for a short one
start-up is most of its wall time.  They use ``from . import module``
and attribute access, so a wrapper installed on a module attribute (as
the benchmark's traced runner does) sees every call.

Exit codes: 0 success; 1 malformed input (any ``words.InputError``),
a command-line usage error, or stdout closed before the report was
written; 2 a failed check: a ``CertificateError``, or a document whose
``well_defined`` or ``verified`` is false; 3 a resource cap exceeded
(``ResourceCapError`` or out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .certificates import SCHEMA, CertificateError
from .words import (
    DEFAULT_WORD_CAP,
    MAX_BALL_VERTICES,
    InputError,
    ResourceCapError,
    json_int,
)

if TYPE_CHECKING:
    from . import bounds, groupexpr, presentations, raag, words

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
            return json.loads(text)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # bytes that are not text, an integer past Python's digit limit
        raise InputError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: input nested too deeply") from None


def _require(data: dict, field: str, where: str):
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected a JSON object")
    if field not in data:
        raise InputError(f"{where}: missing field {field!r}")
    return data[field]


def _int_field(data: dict, field: str, where: str) -> int:
    value = _require(data, field, where)
    try:
        return json_int(value)
    except ValueError as exc:
        raise InputError(f"{where}: {field}: {exc}") from None


def _string_list(data: dict, field: str, where: str) -> list[str]:
    value = _require(data, field, where)
    if not isinstance(value, list):
        raise InputError(f"{where}: {field}: expected a list of strings")
    for i, item in enumerate(value, start=1):
        if not isinstance(item, str):
            raise InputError(f"{where}: {field}: entry {i} must be a string, got {item!r}")
    return value


def _parsed(where: str, parse, *args):
    """parse(*args), with a malformed-input error reported at where."""
    try:
        return parse(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    except RecursionError:
        raise InputError(f"{where}: input nested too deeply") from None


def load_graph(data, where: str) -> raag.SimpleGraph:
    from . import raag
    return _parsed(where, raag.SimpleGraph.from_json, data)


def load_expr(data, where: str) -> groupexpr.GroupExpr:
    from . import groupexpr
    return _parsed(where, groupexpr.expr_from_json, data)


def load_presentation(data, where: str) -> presentations.Presentation:
    from . import presentations
    gens = _string_list(data, "generators", where)
    rels = _string_list(data, "relators", where)
    return _parsed(where, presentations.Presentation.from_strings, gens, rels)


def load_hom(data, source: presentations.Presentation,
             where: str) -> tuple[list[str], tuple[words.Word, ...]]:
    """Target generator names and the images of the source generators from
    {"target_generators": [names], "images": {generator: word}}.  Every
    source generator needs an entry; "" is the identity."""
    from . import words
    target = _string_list(data, "target_generators", where)
    image_map = _require(data, "images", where)
    if not isinstance(image_map, dict):
        raise InputError(f"{where}: images: expected an object mapping generators to words")
    images = []
    for name in source.generators:
        if name not in image_map:
            raise InputError(f"{where}: images: no image for generator {name!r}")
        images.append(_parsed(f"{where}: images: {name}", words.parse_word, image_map[name], target))
    return target, tuple(images)


# ---------------------------------------------------------------------------
# Reports

def scenario_report(data, where: str) -> bounds.BoundReport:
    """The report for one scenario object; --case arguments are mapped onto
    scenario objects by case_scenario and dispatched here too."""
    from . import bounds
    kind = _require(data, "kind", where)
    if kind == "case-study":
        case = _require(data, "case", where)
        if case == "borromean":
            return bounds.borromean_case_study()
        if case == "higman":
            return bounds.higman_case_study()
        raise InputError(f"{where}: unknown case study {case!r}")
    if kind == "braid":
        return bounds.pure_braid_report(_int_field(data, "n", where))
    if kind == "raag":
        _, report = bounds.raag_report(load_graph(data, where))
        return report
    if kind == "expr":
        expr = load_expr(_require(data, "expr", where), where)
        return bounds.tc_report(expr, [], notes=_opaque_notes(expr))
    if kind == "presentation":
        return _presentation_report(data, where)
    raise InputError(f"{where}: unknown scenario kind {kind!r}")


CASE_USAGE = "borromean | higman | pbn N | raag FILE"


def case_scenario(case: list[str]) -> tuple[dict, str]:
    """(scenario object, error location) for the arguments of --case."""
    name, rest = case[0], case[1:]
    arity = {"borromean": 0, "higman": 0, "pbn": 1, "raag": 1}.get(name)
    if arity is None or len(rest) != arity:
        raise InputError(f"--case {' '.join(case)}: expected --case {CASE_USAGE}")
    if arity == 0:
        return {"kind": "case-study", "case": name}, "--case"
    if name == "pbn":
        return {"kind": "braid", "n": rest[0]}, "--case pbn"
    graph = _load_json(rest[0])
    return ({**graph, "kind": "raag"} if isinstance(graph, dict) else graph), rest[0]


def _opaque_notes(expr: groupexpr.GroupExpr) -> list[str]:
    """One note for each Opaque leaf of an expression read from a scenario:
    its dimension data is the input's claim, and nothing here checks it."""
    from . import groupexpr
    return [f"chd({leaf.name}) in [{leaf.chd_lower}, {leaf.chd_upper}] taken from the "
            f"scenario's expr, not verified ({leaf.justification})"
            for leaf in groupexpr.leaves(expr) if isinstance(leaf, groupexpr.Opaque)]


def _presentation_report(data, where: str) -> bounds.BoundReport:
    """The split-extension report.  Its certificate proves that <a> is
    infinite cyclic, so a_expr must be Z^1; b_expr and group_expr are
    claims about the presented group that nothing checks, and the report
    says so in one note each."""
    from . import bounds, groupexpr, presentations, words
    a_expr, b_expr, g_expr = (load_expr(_require(data, field, where), f"{where}: {field}")
                              for field in ("a_expr", "b_expr", "group_expr"))
    if a_expr != groupexpr.FreeAbelian(1):
        raise InputError(f'{where}: a_expr: expected {{"kind": "free_abelian", "rank": 1}}, '
                         f"the infinite cyclic <a> the certificate proves, got {a_expr.label()}")
    pres = load_presentation(data, where)
    target, images = load_hom(_require(data, "hom", where), pres, f"{where}: hom")
    p = presentations.FreeHom(pres, len(target), images)
    beta = _parsed(f"{where}: beta", words.parse_word, _require(data, "beta", where), target)
    cert = bounds.verify_split_extension_certificate(pres, p, _require(data, "a_generator", where), beta)
    return bounds.tc_report(g_expr, [(a_expr, b_expr, cert)], notes=(
        f"chd(B) taken from the scenario's b_expr ({b_expr.label()}), not verified",
        f"chd(G) and the geometric dimension taken from the scenario's group_expr "
        f"({g_expr.label()}), not verified",
    ))


# ---------------------------------------------------------------------------
# Output

def _render(doc: dict | str, as_json: bool) -> str:
    """stdout for a handler's result: DOT text as it is, and a document
    stamped with the schema, as JSON or as text."""
    if isinstance(doc, str):
        return doc
    doc = {"schema": SCHEMA, **doc}
    return json.dumps(doc, indent=2, sort_keys=True) if as_json else "\n".join(_render_text(doc))


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

def cmd_raag_z(args) -> dict:
    from . import bounds
    witness, report = bounds.raag_report(load_graph(_load_json(args.file), args.file))
    return {
        "z": witness.union_size,
        "witness": {"k1": list(witness.k1), "k2": list(witness.k2)},
        "certified_lower_bound": report.lower,
        "report": report.to_json(),
    }


def _vertex_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated vertices, got {text!r}") from None


def cmd_raag_bound(args) -> dict:
    from . import bounds
    k1, k2 = _vertex_list(args.k1, "--k1"), _vertex_list(args.k2, "--k2")
    graph = load_graph(_load_json(args.file), args.file)
    bound, cert = bounds.clique_pair_bound(graph, k1, k2)
    return {
        "k1": sorted(set(k1)),
        "k2": sorted(set(k2)),
        "tc_lower_bound": bound,
        "certificate": cert.to_json(),
    }


def cmd_braid_perm(args) -> dict:
    from . import braids
    b = braids.parse_braid(args.word, args.n)
    return {"n": args.n, "permutation": list(braids.permutation(b)), "pure": braids.is_pure(b)}


def cmd_braid_lk(args) -> dict:
    from . import braids
    lk = braids.linking_matrix(braids.parse_braid(args.word, args.n))
    return {"n": args.n, "linking_matrix": [list(r) for r in lk.entries],
            "last_column": list(lk.last_column())}


def cmd_braid_equal(args) -> dict:
    from . import braids
    u = braids.parse_braid(args.word, args.n)
    v = braids.parse_braid(args.other, args.n)
    return {"n": args.n, "equal": braids.braid_equal(u, v, word_cap=args.max_word)}


def cmd_braid_tc_bound(args) -> dict:
    from . import bounds
    report = bounds.pure_braid_report(args.n)
    return {"n": args.n, "tc_lower_bound": report.lower, "report": report.to_json()}


def cmd_pres_abel(args) -> dict:
    from . import presentations
    pres = load_presentation(_load_json(args.file), args.file)
    inv = presentations.abelianization(pres)
    return {
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "trivial": inv.is_trivial,
        "generator_images": {
            name: list(inv.generator_images[i])
            for i, name in enumerate(pres.generators)
        },
    }


def cmd_pres_hom_check(args) -> dict:
    from . import presentations
    data = _load_json(args.file)
    pres = load_presentation(_require(data, "presentation", args.file), f"{args.file}: presentation")
    target, images = load_hom(data, pres, args.file)
    ok, witness = presentations.check_hom(pres, len(target), images)
    return {"well_defined": True} if ok else {"well_defined": False, "failing_relator": str(witness)}


def cmd_chd(args) -> dict:
    from . import groupexpr
    expr = load_expr(_load_json(args.file), args.file)
    result = groupexpr.chd(expr)
    return {
        "group": expr.label(),
        "chd_lower": result.lower,
        "chd_upper": result.upper,
        "exact": result.exact,
        "trace": list(result.trace),
    }


def cmd_tree_ball(args) -> dict | str:
    from . import freeprod
    factors = (freeprod.Factor(args.kind, args.rank), freeprod.Factor(args.kind, args.rank))
    ball = freeprod.build_tree_ball(factors, args.radius, args.cap,
                                    max_vertices=args.max_ball)
    if args.dot:
        return ball.to_dot()
    return {
        "radius": args.radius,
        "cap": args.cap,
        "vertices": ball.vertex_count,
        "edges": ball.edge_count,
        "acyclic": ball.edge_count == ball.vertex_count - 1,
    }


def cmd_tree_verify_lemma(args) -> dict:
    """Check d(gw, v) = 2k-1 and d(gw, w) = 2k for all alternating words."""
    from . import freeprod
    if args.radius < 2 * args.k - 1:
        raise InputError(
            f"--radius {args.radius} is too small for --k {args.k}: the deepest checked "
            f"vertex gw lies at depth {2 * args.k - 1}"
        )
    total, failures = freeprod.verify_tree_lemma(args.k, args.cap, args.radius, args.max_ball)
    return {
        "k_max": args.k,
        "cap": args.cap,
        "radius": args.radius,
        "words_checked": total,
        "failures": failures,
        "verified": not failures,
    }


def cmd_tc_report(args) -> dict:
    if args.case:
        data, where = case_scenario(args.case)
    else:
        data, where = _load_json(args.file), args.file
    return scenario_report(data, where).to_json()


# ---------------------------------------------------------------------------
# Argument parsing

def _int_arg(text: str) -> int:
    """An integer flag, read by the JSON integer rule of words.json_int."""
    try:
        return json_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
    parser.add_argument("--max-ball", type=_int_arg, default=MAX_BALL_VERTICES,
                        help="tree ball vertex cap")
    parser.add_argument("--max-word", type=_int_arg, default=DEFAULT_WORD_CAP,
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
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("word", help='braid word like "s1 s2^-1"')
    p.set_defaults(func=cmd_braid_perm)
    p = braid_sub.add_parser("lk")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("word")
    p.set_defaults(func=cmd_braid_lk)
    p = braid_sub.add_parser("equal")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("word")
    p.add_argument("other")
    p.set_defaults(func=cmd_braid_equal)
    p = braid_sub.add_parser("tc-bound")
    p.add_argument("--n", type=_int_arg, required=True)
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
    p.add_argument("--radius", type=_int_arg, default=4)
    p.add_argument("--cap", type=_int_arg, default=2)
    p.add_argument("--kind", choices=["free", "free_abelian"], default="free")
    p.add_argument("--rank", type=_int_arg, default=1)
    p.add_argument("--dot", action="store_true", help="emit DOT graph")
    p.set_defaults(func=cmd_tree_ball)
    p = tree_sub.add_parser("verify-lemma")
    p.add_argument("--k", type=_int_arg, default=3, help="max half-syllable count")
    p.add_argument("--cap", type=_int_arg, default=2)
    p.add_argument("--radius", type=_int_arg, default=10)
    p.set_defaults(func=cmd_tree_verify_lemma)

    p = sub.add_parser("tc-report", help="assemble a certified bound report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="scenario JSON file")
    source.add_argument("--case", nargs="+", metavar="CASE",
                        help=CASE_USAGE)
    p.set_defaults(func=cmd_tc_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.func(args)
        print(_render(doc, args.json))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceCapError, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"resource cap exceeded: {reason}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if isinstance(doc, dict) and False in (doc.get("well_defined"), doc.get("verified")):
        return EXIT_VERIFICATION  # the document records a failed check
    return EXIT_OK


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
