"""Seeded request streams for the three workloads, with their output checks.

Each request is one ``tcbounds --json ...`` invocation.  Its ``check``
takes the parsed JSON report and returns "" if the report is right, or
what is wrong; every reference comes from ``oracles`` or from a closed
formula, never from tcbounds.  Every request is expected to exit 0.

Why these workloads (the last two are in BENCHMARK.json):

- ``higman``: the paper's headline TC = 4.  Nearly all of its time is
  free-product normal-form algebra (FPWord construction and
  re-validation); the tree ball it builds is small.  It is left out of
  BENCHMARK.json: this pure-Python arithmetic changed speed up to 2x
  between runs a minute apart on a shared 2-vCPU VM, far past any bound.
  Run it by name to measure a change to normal forms.
- ``tree-lemma``: ``tree verify-lemma`` at the CLI defaults.  The same
  free-product layer used the opposite way: a 2.8 M-vertex ball and two
  full BFS passes, but only 4,368 normal-form words.
- ``report-mix``: short, distinct certification requests over braids,
  RAAGs, presentations, the chd calculus and the CLI, never touching
  free products; interpreter start-up competes with layer work.  It
  carries the known defects in ``defects.json`` and counts them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import islice, product
from pathlib import Path
from typing import Callable, Iterator

import oracles

MAX_WORD = "100000"  # passed as --max-word so the cap is never the limit

# Per-request deadlines in seconds: several times the slowest correct
# request of each kind at this benchmark's input sizes (2-core x86 VM,
# Python 3.11).  A request past its deadline is killed and counted failed.
DEADLINE_S = {
    "higman": 30.0,        # 2.4 s
    "tree-lemma": 75.0,    # 21 s; two of these plus set-up fit in 180 s
    "tc-bound": 5.0,       # 0.9 s at n = 30
    "raag-z": 20.0,        # 4 s at 64 vertices, density 0.6
    "pres-abel": 10.0,     # 1.1 s; past the data limit within 3.5 s
    "braid-equal": 5.0,    # 0.2 s
    "borromean": 5.0,      # 0.2 s
    "chd": 10.0,           # 1 s at 64 vertices, density 0.6
}

# Per-request data limits (RLIMIT_DATA) in MiB.  pres-abel needs one because
# of the Smith normal form blow-up (defects.json): a correct request stays
# under 11 MiB, a blow-up passes 14 MiB within a few seconds and exits with
# MemoryError.  Memory use does not depend on the machine's speed, so the
# same requests fail on every run; a deadline alone would flip the few
# requests whose time falls near it.
DATA_LIMIT_MB = {"pres-abel": 14}

HIGMAN_AMALGAM_CITE = "amalgam structure theorem (Serre, Trees)"
TREE_K, TREE_CAP, TREE_RADIUS = 3, 2, 10


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[dict], str]
    files: dict[Path, object] = field(default_factory=dict)
    # how many words of useful normal-form work a correct report certifies
    words_checked: Callable[[dict], int] = lambda doc: 0

    @property
    def deadline(self) -> float:
        return DEADLINE_S[self.kind]

    @property
    def data_limit_mb(self) -> int | None:
        return DATA_LIMIT_MB.get(self.kind)


# Nominal wall time of one request, as measured on a 2-vCPU x86 VM with
# Python 3.11.  A run is a fixed number of requests: as many as these costs
# fit into --seconds, so the same seed and --seconds always give the same
# requests, and the same requests fail.
NOMINAL_S = {"higman": 2.6, "tree-lemma": 21.3, "report-mix": 0.25}
ROUND = 6  # report-mix requests per round, one of each kind


def request_count(workload: str, seconds: float) -> int:
    """Requests in a run of about ``seconds``; report-mix runs whole rounds."""
    if workload == "report-mix":
        return ROUND * max(1, round(seconds / (ROUND * NOMINAL_S[workload])))
    return max(1, int(seconds / NOMINAL_S[workload]))


def requests(workload: str, seed: int, seconds: float, workdir: Path) -> list[Request]:
    """The run's requests, in order; see ``request_count``."""
    return list(islice(stream(workload, seed, workdir), request_count(workload, seconds)))


def stream(workload: str, seed: int, workdir: Path) -> Iterator[Request]:
    """Endless request stream for a workload; the same seed gives the same
    requests.  Input file contents are held by each request until
    ``write_files``."""
    if workload == "higman":
        while True:
            yield higman_request()
    elif workload == "tree-lemma":
        while True:
            yield tree_lemma_request()
    elif workload == "report-mix":
        yield from report_mix(random.Random(seed), workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# higman and tree-lemma: one fixed request each

def higman_request() -> Request:
    def check(doc):
        if (doc.get("tc_lower"), doc.get("tc_upper")) != (4, 4):
            return f"TC interval is [{doc.get('tc_lower')}, {doc.get('tc_upper')}], not [4, 4]"
        cited = [s for c in doc.get("certificates", []) for s in c.get("steps", [])
                 if s.get("status") == "cited" and s.get("citation") == HIGMAN_AMALGAM_CITE]
        if len(cited) != 2:
            return f"{len(cited)} cited amalgam steps, expected 2"
        return ""

    def words(doc):
        text = " ".join(s["description"] for c in doc["certificates"] for s in c["steps"])
        marker = text.find(" words)")
        return int(text[:marker].rsplit(" ", 1)[1]) if marker >= 0 else 0

    return Request("higman", ["tc-report", "--case", "higman"], check, words_checked=words)


def tree_lemma_request() -> Request:
    expected = sum(4 ** (2 * k) for k in range(1, TREE_K + 1))  # 4 nonzero exponents per syllable

    def check(doc):
        if doc.get("verified") is not True or doc.get("failures"):
            return "lemma not verified"
        if doc.get("words_checked") != expected:
            return f"words_checked {doc.get('words_checked')}, expected {expected}"
        return ""

    argv = ["tree", "verify-lemma", "--k", str(TREE_K), "--cap", str(TREE_CAP),
            "--radius", str(TREE_RADIUS)]
    return Request("tree-lemma", argv, check, words_checked=lambda doc: doc["words_checked"])


# ---------------------------------------------------------------------------
# report-mix

class Strata:
    """Stratified draws over integer ranges ``(lo, hi, k)``: each range is
    cut into ``k`` equal slices, and every block of draws takes each
    combination of slices once, in shuffled order, so short runs see the
    whole input space in the same proportions."""

    def __init__(self, rng: random.Random, *ranges: tuple[int, int, int]):
        self.rng = rng
        self.cells = list(product(*(_slices(*r) for r in ranges)))
        self.pending: list[tuple] = []

    def draw(self) -> tuple[int, ...]:
        if not self.pending:
            self.pending = list(self.cells)
            self.rng.shuffle(self.pending)
        return tuple(self.rng.randint(lo, hi) for lo, hi in self.pending.pop())


def _slices(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    width = (hi - lo + 1) / k
    return [(lo + round(i * width), lo + round((i + 1) * width) - 1) for i in range(k)]


def report_mix(rng: random.Random, workdir: Path) -> Iterator[Request]:
    """Rounds of six requests, one of each kind, in a seeded order.  Sizes
    are stratified: strand counts 2-40, generator counts 2-12, and graph
    vertex counts 8-64 crossed with edge densities 20-60 %."""
    braid_n = Strata(rng, (2, 40, 4))
    pres_g = Strata(rng, (2, 12, 4))
    graph = Strata(rng, (8, 64, 4), (20, 60, 4))
    chd_graph = Strata(rng, (8, 64, 4), (20, 60, 4))
    makers = [
        lambda i: tc_bound_request(*braid_n.draw()),
        lambda i: raag_z_request(rng, *graph.draw(), workdir / f"graph-{i}.json"),
        lambda i: pres_abel_request(rng, *pres_g.draw(), workdir / f"pres-{i}.json"),
        lambda i: braid_equal_request(rng, equal=(i // ROUND) % 2 == 0),
        lambda i: borromean_request(),
        lambda i: chd_request(rng, *chd_graph.draw(), workdir / f"expr-{i}.json"),
    ]
    i = 0
    while True:
        order = list(range(len(makers)))
        rng.shuffle(order)
        for m in order:
            yield makers[m](i)
            i += 1


def tc_bound_request(n: int) -> Request:
    def check(doc):
        want = 2 * n - 3
        got = (doc.get("tc_lower_bound"), doc.get("report", {}).get("tc_lower"))
        return "" if got == (want, want) else f"TC(PB_{n}) lower bound {got}, expected 2n-3 = {want}"

    argv = ["--max-word", MAX_WORD, "braid", "tc-bound", "--n", str(n)]
    return Request("tc-bound", argv, check)


def raag_z_request(rng: random.Random, n: int, density_pct: int, path: Path) -> Request:
    edges = oracles.random_graph(rng, n, density_pct / 100)

    def check(doc):
        z, omega = oracles.z_and_omega(n, edges)
        edge_set = set(edges)
        k1, k2 = doc.get("witness", {}).get("k1", []), doc.get("witness", {}).get("k2", [])
        if doc.get("z") != z:
            return f"z = {doc.get('z')}, expected {z}"
        if not (oracles.is_clique(k1, edge_set) and oracles.is_clique(k2, edge_set)
                and len(set(k1) | set(k2)) == z):
            return "witness is not a clique pair covering z vertices"
        report = doc.get("report", {})
        if doc.get("certified_lower_bound") != z or report.get("tc_lower") != z:
            return f"certified lower bound {doc.get('certified_lower_bound')}, expected z = {z}"
        if report.get("tc_upper") != 2 * omega:
            return f"upper bound {report.get('tc_upper')}, expected 2 * clique number = {2 * omega}"
        return ""

    return Request("raag-z", ["raag", "z", str(path)], check,
                   files={path: {"n": n, "edges": [list(e) for e in edges]}})


def pres_abel_request(rng: random.Random, g: int, path: Path) -> Request:
    """g >= 2 generators and g relators, each 4-30 letters long, written as
    powers x^e, 1 <= |e| <= 3, of generators that differ from their
    neighbours, so every relator is freely reduced and nontrivial."""
    gens = [f"g{j}" for j in range(1, g + 1)]
    relators, exponents = [], []
    for _ in range(g):
        length = rng.randint(4, 30)
        tokens, row, prev = [], [0] * g, None
        while length:
            j = rng.choice([j for j in range(g) if j != prev])
            e = min(rng.randint(1, 3), length)
            length -= e
            e *= rng.choice((-1, 1))
            tokens.append(f"{gens[j]}^{e}")
            row[j] += e
            prev = j
        relators.append(" ".join(tokens))
        exponents.append(row)

    def check(doc):
        return oracles.check_abelianization(gens, exponents, doc)

    return Request("pres-abel", ["pres", "abel", str(path)], check,
                   files={path: {"generators": gens, "relators": relators}})


def braid_equal_request(rng: random.Random, equal: bool) -> Request:
    n = rng.randint(3, 12)
    u, v = oracles.planted_braid_pair(rng, n, rng.randint(4, 30), equal)

    def check(doc):
        return "" if doc.get("equal") is equal else f"equal = {doc.get('equal')}, planted {equal}"

    argv = ["--max-word", MAX_WORD, "braid", "equal", "--n", str(n), u, v]
    return Request("braid-equal", argv, check)


def borromean_request() -> Request:
    def check(doc):
        got = (doc.get("tc_lower"), doc.get("tc_upper"))
        return "" if got == (3, 4) else f"Borromean TC interval {got}, expected (3, 4)"

    return Request("borromean", ["tc-report", "--case", "borromean"], check)


def chd_request(rng: random.Random, n: int, density_pct: int, path: Path) -> Request:
    expr = oracles.random_expr(rng, rng.randint(1, 3), n, density_pct / 100)

    def check(doc):
        want = oracles.expected_chd(expr)
        got = (doc.get("chd_lower"), doc.get("chd_upper"), doc.get("exact"))
        return "" if got == (want, want, True) else f"chd {got}, expected exactly {want}"

    return Request("chd", ["chd", str(path)], check, files={path: expr})


def write_files(req: Request) -> None:
    for path, content in req.files.items():
        Path(path).write_text(json.dumps(content))
