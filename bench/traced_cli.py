"""Run one tcbounds CLI request with spans around the calls into each layer.

    python3 bench/traced_cli.py SPANS_OUT REQUEST_ID CLI_ARG...

Before calling ``tcbounds.cli.main(CLI_ARG...)`` this wraps each public
function or constructor listed in ``LAYERS`` (and every ``from x import f``
copy of it inside tcbounds) so that a call records a span: name, start,
end, parent span and request id.  Spans stay in memory; at exit the
request's spans and their per-name totals are written to SPANS_OUT as
JSON.  A span's self time is its duration minus the part covered by its
direct child spans; a name's inclusive time counts only spans with no
ancestor of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# names with more spans than this in one request are written as totals only
RAW_SPAN_LIMIT = 1000


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]; written with the request id
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def summary(self) -> dict:
        """Per name: span count, inclusive and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "incl_ns": 0, "self_ns": 0})
            entry["count"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                entry["incl_ns"] += end - start
        return out

    def dump(self, path: str) -> None:
        summary = self.summary()
        raw = [s + [self.request_id] for s in self.spans
               if summary[s[0]]["count"] <= RAW_SPAN_LIMIT]
        doc = {"request_id": self.request_id, "summary": summary,
               "counters": dict(self.counters), "spans": raw}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- counters taken from return values ---------------------------------------

def _ball_built(tracer, args, ball):
    tracer.counters["freeprod.ball_vertices"] += ball.vertex_count


def _distance_map(tracer, args, result):
    ball = args[0]
    entries = len(getattr(ball, "_dist_cache", ()))
    tracer.counters["freeprod.dist_cache_entries"] = max(
        tracer.counters["freeprod.dist_cache_entries"], entries)


def _free_group_action(tracer, args, images):
    longest = max((len(w) for w in images), default=0)
    tracer.counters["braids.max_image_len"] = max(tracer.counters["braids.max_image_len"], longest)


def _maximal_cliques(tracer, args, cliques):
    c = len(cliques)
    tracer.counters["raag.cliques_found"] += c
    if tracer.parent_name() == "raag.z_number":
        tracer.counters["raag.clique_pairs_scanned"] += c * (c + 1) // 2


# (module, attribute path, span name, result hook); a path with a dot is a
# method or constructor on a class.
LAYERS = [
    ("cli", "main", "cli", None),
    ("bounds", "higman_case_study", "bounds.case_study", None),
    ("bounds", "borromean_case_study", "bounds.case_study", None),
    ("bounds", "tc_report", "bounds.tc_report", None),
    ("freeprod", "FPWord.__init__", "freeprod.fpword", None),
    ("freeprod", "normal_form", "freeprod.normal_form", None),
    ("freeprod", "cyclic_normal_form", "freeprod.cyclic_normal_form", None),
    ("freeprod", "build_tree_ball", "freeprod.ball_build", _ball_built),
    ("freeprod", "TreeBall.distance_map", "freeprod.distance_map", _distance_map),
    ("freeprod", "TreeBall.coset_vertex", "freeprod.coset_vertex", None),
    ("braids", "free_group_action", "braids.free_group_action", _free_group_action),
    ("braids", "braid_equal", "braids.braid_equal", None),
    ("braids", "linking_matrix", "braids.linking_matrix", None),
    ("raag", "maximal_cliques", "raag.maximal_cliques", _maximal_cliques),
    ("raag", "z_number", "raag.z_number", None),
    ("presentations", "abelianization", "presentations.abelianization", None),
    ("presentations", "check_hom", "presentations.check_hom", None),
    ("words", "parse_word", "words.parse_word", None),
    ("groupexpr", "chd", "groupexpr.chd", None),
    ("certificates", "BoundReport.to_json", "certificates.to_json", None),
    ("certificates", "DisjointnessCertificate.to_json", "certificates.to_json", None),
    ("certificates", "CertStep.to_json", "certificates.to_json", None),
]
COUNTED = [("words", "Word.__init__", "words.word.constructed")]


def install(tracer: Tracer):
    """Wrap every listed layer entry; returns the wrapped ``cli.main``."""
    import importlib

    modules = {name: importlib.import_module(f"tcbounds.{name}")
               for name in ("cli", "bounds", "freeprod", "braids", "raag", "presentations",
                            "words", "groupexpr", "certificates")}
    targets = []
    for m, path, name, hook in LAYERS:
        original = _lookup(modules[m], path)
        targets.append((m, path, original, tracer.wrap(name, original, hook)))
    for m, path, name in COUNTED:
        original = _lookup(modules[m], path)
        targets.append((m, path, original, tracer.count(name, original)))
    for m, path, original, wrapper in targets:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            setattr(getattr(modules[m], owner_name), attr, wrapper)
            continue
        for module in modules.values():  # the module and its by-name importers
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    return modules["cli"].main


def _lookup(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def main(argv: list[str]) -> int:
    spans_out, request_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(request_id)
    cli_main = install(tracer)
    try:
        code = cli_main(cli_args)
        sys.stdout.flush()
    finally:
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
