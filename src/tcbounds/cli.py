"""Command-line front end: a thin input boundary with one output path.

Each subcommand is declared once, as a row of ``COMMANDS`` that
``build_parser`` adds.  Its cmd_* handler reads its input, dispatches
(``bounds`` builds every report and its notes) and returns a document,
or DOT text for ``tree ball --dot``.  A loader reads JSON objects with
``words.Fields`` and the key sets declared next to it, and returns the
one record the engine takes, such as ``load_hom``'s ``FreeHom``.
``main`` stamps the schema on the document (``BoundReport.to_json``
stamps the reports nested in ``raag z`` and ``braid tc-bound``), renders
it as JSON (--json, byte-deterministic) or as text, and picks the exit code.

Handlers and loaders import the modules they call on dispatch, inside
the function, so a request compiles and imports only what its
subcommand runs: each request is a fresh process, and for a short one
start-up is most of its wall time.  They use ``from . import module``
and attribute access, so a wrapper installed on a module attribute (as
the benchmark's traced runner does) sees every call.  ``bounds`` and
``groupexpr`` import the algebra modules below them the same way.

Exit codes: 0 success; 1 malformed input (a ``words.InputError``),
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

from .words import DEFAULT_WORD_CAP, SCHEMA, CertificateError, Fields, InputError, ResourceCapError, json_int

if TYPE_CHECKING:
    from . import bounds, groupexpr, presentations, raag, words

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3


def _load_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
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


def _parsed(where: str, parse, *args):
    """parse(*args), with a malformed-input error reported at where."""
    try:
        return parse(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
    except RecursionError:
        raise InputError(f"{where}: input nested too deeply") from None


def load_graph(data, where: str, *extra: str) -> raag.SimpleGraph:
    """A graph for the ``raag`` commands and scenarios, which need a vertex."""
    from . import raag
    graph = _parsed(where, raag.SimpleGraph.from_json, data, *extra)
    if graph.n < 1:
        raise InputError(f"{where}: graph must have at least one vertex")
    return graph


def load_expr(data, where: str) -> groupexpr.GroupExpr:
    from . import groupexpr
    return _parsed(where, groupexpr.expr_from_json, data)


PRESENTATION_KEYS = ("generators", "relators")
HOM_KEYS = ("target_generators", "images")


def load_presentation(fields: Fields) -> presentations.Presentation:
    from . import presentations
    return _parsed(fields.where, presentations.Presentation.from_strings,
                   fields.strings("generators"), fields.strings("relators"))


def load_hom(fields: Fields, source: presentations.Presentation) -> presentations.FreeHom:
    """The map from {"target_generators": [names], "images": {generator:
    word}}: the names follow the name rule, and each source generator, and
    no other, has an image ("" is the identity)."""
    from . import presentations, words
    target = fields.strings("target_generators")
    _parsed(f"{fields.where}: target_generators", words.check_names, target)
    image_map = fields.get("images")
    if not isinstance(image_map, dict):
        raise fields.problem("images", "expected an object mapping generators to words")
    images, rest = [], dict(image_map)
    for name in source.generators:
        if name not in rest:
            raise fields.problem("images", f"no image for generator {json.dumps(name)}")
        images.append(_parsed(f"{fields.where}: images: {name}", words.parse_word, rest.pop(name), target))
    if rest:
        raise fields.problem("images", f"unknown generator {json.dumps(next(iter(rest)))}")
    return presentations.FreeHom(source, tuple(target), tuple(images))


# ---------------------------------------------------------------------------
# Reports

# Each scenario kind's fields besides "kind"; a raag scenario is a graph.
SCENARIO_KEYS = {"case-study": ("case",), "braid": ("n",), "expr": ("expr",),
                 "presentation": (*PRESENTATION_KEYS, "hom", "a_generator", "beta",
                                  "a_expr", "b_expr", "group_expr")}


def scenario_report(data, where: str) -> bounds.BoundReport:
    """The report for one scenario object; case_report maps the --case
    case studies and pbn N onto scenario objects and dispatches them here."""
    from . import bounds
    kind = Fields(data, where, None).str("kind")
    if kind == "raag":
        return bounds.raag_report(load_graph(data, where, "kind"))[1]
    if kind not in SCENARIO_KEYS:
        raise InputError(f"{where}: unknown scenario kind {json.dumps(kind)}")
    fields = Fields(data, where, ("kind", *SCENARIO_KEYS[kind]))
    if kind == "case-study":
        studies = {"borromean": bounds.borromean_case_study, "higman": bounds.higman_case_study}
        if (case := fields.str("case")) not in studies:
            raise InputError(f"{where}: unknown case study {json.dumps(case)}")
        return studies[case]()
    if kind == "braid":
        return bounds.pure_braid_report(fields.int("n"))
    if kind == "expr":
        return bounds.expr_report(load_expr(fields.get("expr"), where))
    return _presentation_report(fields)


CASE_USAGE = "borromean | higman | pbn N | raag FILE"


def case_report(case: list[str]) -> bounds.BoundReport:
    """The report for the arguments of --case: a scenario object, or for
    raag FILE the graph file, read as ``raag z`` reads it."""
    from . import bounds
    name, rest = case[0], case[1:]
    arity = {"borromean": 0, "higman": 0, "pbn": 1, "raag": 1}.get(name)
    if arity is None or len(rest) != arity:
        raise InputError(f"--case {' '.join(case)}: expected --case {CASE_USAGE}")
    if arity == 0:
        return scenario_report({"kind": "case-study", "case": name}, "--case")
    if name == "pbn":
        return scenario_report({"kind": "braid", "n": rest[0]}, "--case pbn")
    return bounds.raag_report(load_graph(_load_json(rest[0]), rest[0]))[1]


def _presentation_report(fields: Fields) -> bounds.BoundReport:
    """Load a ``presentation`` scenario and hand it to bounds.  The
    certificate proves that <a> is infinite cyclic, so a_expr must be Z^1."""
    from . import bounds, groupexpr, words
    where = fields.where
    a_expr, b_expr, g_expr = (load_expr(fields.get(field), f"{where}: {field}")
                              for field in ("a_expr", "b_expr", "group_expr"))
    if a_expr != groupexpr.FreeAbelian(1):
        raise InputError(f'{where}: a_expr: expected {{"kind": "free_abelian", "rank": 1}}, '
                         f"the infinite cyclic <a> the certificate proves, got {a_expr.label()}")
    pres = load_presentation(fields)
    p = load_hom(Fields(fields.get("hom"), f"{where}: hom", HOM_KEYS), pres)
    a_gen = fields.str("a_generator")
    _parsed(f"{where}: a_generator", pres.generator_index, a_gen)
    beta = _parsed(f"{where}: beta", words.parse_word, fields.get("beta"), p.target)
    return bounds.presentation_scenario_report(p, a_gen, beta, b_expr, g_expr)


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
    """Comma-separated vertices, each by the json_int rule; "" is the empty clique."""
    try:
        return [json_int(x.strip()) for x in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated vertices, got {json.dumps(text)}") from None


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
    pres = load_presentation(Fields(_load_json(args.file), args.file, PRESENTATION_KEYS))
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
    from . import presentations, words
    fields = Fields(_load_json(args.file), args.file, ("presentation", *HOM_KEYS))
    pres = load_presentation(Fields(fields.get("presentation"), f"{args.file}: presentation",
                                    PRESENTATION_KEYS))
    witness = presentations.check_hom(load_hom(fields, pres))
    if witness is None:
        return {"well_defined": True}
    return {"well_defined": False, "failing_relator": words.format_word(witness, pres.generators)}


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
    ball = freeprod.build_tree_ball(factors, args.radius, args.cap)
    if args.dot:
        return ball.to_dot()
    return {
        "radius": args.radius,
        "cap": args.cap,
        "vertices": ball.vertex_count,
        "edges": ball.edge_count,
        # every vertex but v and w has exactly one parent link, and v-w is the base edge: a tree
        "acyclic": True,
    }


def cmd_tree_verify_lemma(args) -> dict:
    """Check d(gw, v) = 2k-1 and d(gw, w) = 2k for all alternating words."""
    from . import freeprod
    total, failures = freeprod.verify_tree_lemma(args.k, args.cap, args.radius)
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
        return case_report(args.case).to_json()
    return scenario_report(_load_json(args.file), args.file).to_json()


# ---------------------------------------------------------------------------
# Argument parsing

def _int_arg(text: str) -> int:
    """An integer flag, read by the JSON integer rule of words.json_int."""
    try:
        return json_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _word_cap_arg(text: str) -> int:
    """--max-word: every free-group image starts as one letter, so at least 1."""
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE, not 2; subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_N = ("--n", dict(type=_int_arg, required=True))

# One row per subcommand: its words, handler, help or None, and arguments as
# (name, add_argument keywords); a group's help is GROUP_HELP's.  tc-report's
# file | --case pair is one mutually exclusive group, added by build_parser.
COMMANDS = [
    ("raag z", cmd_raag_z, "two-clique number and TC report", [("file", dict(help="graph JSON file"))]),
    ("raag bound", cmd_raag_bound, "certified bound from a disjoint clique pair",
     [("file", {}), ("--k1", dict(required=True, help="comma-separated vertices")),
      ("--k2", dict(required=True))]),
    ("braid perm", cmd_braid_perm, None, [_N, ("word", dict(help='braid word like "s1 s2^-1"'))]),
    ("braid lk", cmd_braid_lk, None, [_N, ("word", {})]),
    ("braid equal", cmd_braid_equal, None, [_N, ("word", {}), ("other", {})]),
    ("braid tc-bound", cmd_braid_tc_bound, None, [_N]),
    ("pres abel", cmd_pres_abel, None, [("file", {})]),
    ("pres hom-check", cmd_pres_hom_check, None, [("file", {})]),
    ("chd", cmd_chd, "evaluate a group expression", [("file", dict(help="expression JSON file"))]),
    ("tree ball", cmd_tree_ball, None, [
        ("--radius", dict(type=_int_arg, default=4)), ("--cap", dict(type=_int_arg, default=2)),
        ("--kind", dict(choices=["free", "free_abelian"], default="free")),
        ("--rank", dict(type=_int_arg, default=1)),
        ("--dot", dict(action="store_true", help="emit DOT graph"))]),
    ("tree verify-lemma", cmd_tree_verify_lemma, None, [
        ("--k", dict(type=_int_arg, default=3, help="max half-syllable count")),
        ("--cap", dict(type=_int_arg, default=2)), ("--radius", dict(type=_int_arg, default=10))]),
    ("tc-report", cmd_tc_report, "assemble a certified bound report", []),
]
GROUP_HELP = {"raag": "right-angled Artin group computations", "braid": "braid computations",
              "pres": "presentation computations", "tree": "Bass-Serre tree balls"}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tcbounds",
        description="Certified topological-complexity bounds for aspherical groups",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--max-word", type=_word_cap_arg, default=DEFAULT_WORD_CAP,
                        help="braid free-group image length cap")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, func, help_text, arguments in COMMANDS:
        group, _, name = command.rpartition(" ")
        if group not in groups:  # a group's parser comes before its first subcommand's
            groups[group] = groups[""].add_parser(group, help=GROUP_HELP[group]).add_subparsers(
                dest="subcommand", required=True)
        # argparse lists a subcommand added with help=None, blank, so pass help only when given
        p = groups[group].add_parser(name, **({"help": help_text} if help_text else {}))
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    source = groups[""].choices["tc-report"].add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?", help="scenario JSON file")
    source.add_argument("--case", nargs="+", metavar="CASE", help=CASE_USAGE)
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
