"""tcbounds benchmark: how long a user waits for a certified report.

    python3 bench/run.py --workload {higman,tree-lemma,report-mix} \\
        --seed N --seconds S --trace {0,1}

One client in a closed loop: every request is its own
``python -m tcbounds.cli --json ...`` subprocess, started only after the
previous one has exited, so interpreter start-up is part of each request.
Requests come from a seeded stream (``workloads.py``).  A run is a fixed
number of them, as many as fit into ``--seconds`` at each workload's
nominal cost per request, so that two runs with the same seed attempt the
same requests and fail the same ones.  Every report is then checked
against a reference that does not use tcbounds (``oracles.py``).  A
request fails if it exits non-zero (pres-abel also when it passes its data
limit), passes its deadline, or reports a wrong result; only the last
makes ``correct`` false.  Failures that match ``defects.json`` are counted
under that defect.

--trace 0 reports the end-to-end metrics:
  latency_p50_s, latency_p90_s  wall time spawn-to-exit of the requests
                                that returned a correct report
  requests_per_s                correct requests per second of loop time
  peak_rss_mb                   largest child peak RSS (os.wait4) among the
                                requests that exited by themselves
  correct_ratio                 correct requests / requests attempted
  setup_s                       median time to start python, import
                                tcbounds.cli and exit, measured SETUP_RUNS
                                times spread between the requests (and
                                left out of the loop time)
--trace 1 runs the same requests again through ``traced_cli.py`` and
reports per-layer metrics: each count and time is a mean per request,
except ``*.max_image_len`` (a maximum) and ``fpword_per_word_checked`` (a
ratio); ``import.*`` comes from ``python -X importtime``; trace.overhead_s
is the traced minus the untraced wall time, per request.

The last line of stdout is the result as one JSON object; the line before
it holds the run's metadata (Python version, git SHA, nproc, seed, request
count, sha256 of all its ``--json`` reports, in order).  Both also go to
bench/out/<workload>-<seed>-trace<0|1>.json, and a traced run's spans to
bench/out/spans-<workload>-<seed>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
IMPORTTIME_RUNS = 5

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_ratio": "ratio",
    "setup_s": "s",
}

TCBOUNDS_MODULES = ["tcbounds", "tcbounds.cli", "tcbounds.bounds", "tcbounds.braids",
                    "tcbounds.certificates", "tcbounds.freeprod", "tcbounds.groupexpr",
                    "tcbounds.presentations", "tcbounds.raag", "tcbounds.words"]

# per-layer metric -> (span name, which total: count, inclusive or self time)
SPAN_METRICS = {
    "cli.self_s": ("cli", "self"),
    "bounds.case_study_s": ("bounds.case_study", "incl"),
    "bounds.tc_report_s": ("bounds.tc_report", "incl"),
    "freeprod.fpword.constructed": ("freeprod.fpword", "count"),
    "freeprod.fpword.self_s": ("freeprod.fpword", "self"),
    "freeprod.normal_form.calls": ("freeprod.normal_form", "count"),
    "freeprod.normal_form.self_s": ("freeprod.normal_form", "self"),
    "freeprod.cyclic_normal_form.self_s": ("freeprod.cyclic_normal_form", "self"),
    "freeprod.ball_build_s": ("freeprod.ball_build", "incl"),
    "freeprod.distance_map.runs": ("freeprod.distance_map", "count"),
    "freeprod.distance_map.s": ("freeprod.distance_map", "incl"),
    "freeprod.coset_vertex.s": ("freeprod.coset_vertex", "incl"),
    "braids.free_group_action.calls": ("braids.free_group_action", "count"),
    "braids.free_group_action.s": ("braids.free_group_action", "incl"),
    "braids.braid_equal.calls": ("braids.braid_equal", "count"),
    "braids.linking_matrix.s": ("braids.linking_matrix", "incl"),
    "raag.maximal_cliques.calls_per_request": ("raag.maximal_cliques", "count"),
    "raag.maximal_cliques.s": ("raag.maximal_cliques", "incl"),
    "raag.z_number.s": ("raag.z_number", "incl"),
    "presentations.abelianization.s": ("presentations.abelianization", "incl"),
    "presentations.check_hom.s": ("presentations.check_hom", "incl"),
    "words.parse_word.s": ("words.parse_word", "incl"),
    "groupexpr.chd.s": ("groupexpr.chd", "incl"),
    "certificates.to_json.s": ("certificates.to_json", "incl"),
}
COUNTER_METRICS = ["freeprod.ball_vertices", "freeprod.dist_cache_entries",
                   "raag.cliques_found", "raag.clique_pairs_scanned", "words.word.constructed"]


# every per-layer metric the traced run prints, with its unit
PER_LAYER = {name: "count" if field == "count" else "s" for name, (_, field) in SPAN_METRICS.items()}
PER_LAYER.update({name: "count" for name in COUNTER_METRICS})
PER_LAYER.update({
    "cli.output_bytes": "bytes",
    "freeprod.fpword_per_word_checked": "ratio",
    "braids.max_image_len": "letters",
    "presentations.abelianization.failures": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "import.tcbounds_s": "s",
    "import.site_s": "s",
    "import.stdlib_for_tcbounds_s": "s",
})
PER_LAYER.update({f"import.self.{module}_s": "s" for module in TCBOUNDS_MODULES})


@dataclass
class Outcome:
    wall_s: float
    exit_code: int | None  # None: killed at the deadline
    rss_mb: float
    stdout: bytes


def spawn(argv: list[str], deadline: float, env: dict, out: Path,
          data_limit_mb: int | None = None) -> Outcome:
    """Run ``sys.executable argv`` to completion or its deadline, with at
    most ``data_limit_mb`` MiB of data (RLIMIT_DATA) if that is given.

    stdout goes to ``out`` (stderr too, to ``out`` + ".err"); the child's
    own peak RSS comes from os.wait4.
    """
    with open(out, "wb") as fo, open(f"{out}.err", "wb") as fe:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=[
            (os.POSIX_SPAWN_DUP2, fo.fileno(), 1), (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
        if data_limit_mb:
            # the child is still importing, far below the limit, when it is set
            resource.prlimit(pid, resource.RLIMIT_DATA,
                             (data_limit_mb << 20, resource.RLIM_INFINITY))
        state = {"done": False, "killed": False}

        def on_alarm(signum, frame):
            if not state["done"]:
                state["killed"] = True
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            _, status, usage = os.wait4(pid, 0)
            state["done"] = True
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    code = None if state["killed"] else os.waitstatus_to_exitcode(status)
    return Outcome(wall, code, usage.ru_maxrss / 1024, out.read_bytes())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, workdir: Path) -> float:
    """Seconds to start the interpreter, ``import tcbounds.cli`` and exit."""
    o = spawn(["-c", "import tcbounds.cli"], 60, env, workdir / "setup.out")
    if o.exit_code != 0:
        raise RuntimeError("import tcbounds.cli failed: "
                           + Path(f"{workdir / 'setup.out'}.err").read_text())
    return o.wall_s


def import_times(env: dict) -> dict[str, float]:
    """Median per-module self and cumulative import seconds from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tcbounds.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        table = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            table[name.strip()] = (int(self_us) / 1e6, int(cum_us) / 1e6)
        runs.append(table)
    med = lambda key, i: statistics.median(r.get(key, (0.0, 0.0))[i] for r in runs)
    total = med("tcbounds", 1) + med("tcbounds.cli", 1)
    own = {m: med(m, 0) for m in TCBOUNDS_MODULES}
    out = {"import.tcbounds_s": total, "import.site_s": med("site", 1),
           "import.stdlib_for_tcbounds_s": total - sum(own.values())}
    out.update({f"import.self.{m}_s": v for m, v in own.items()})
    return out


def run_loop(requests: list, env: dict, workdir: Path) -> tuple[list, float, list[float]]:
    """Closed loop: each request starts once the previous one has exited.

    ``SETUP_RUNS`` set-up measurements are spread evenly between the
    requests, so that their median covers the whole run; the loop time
    returned leaves them out."""
    measure_setup(env, workdir)  # writes the bytecode cache
    setup_before = Counter(len(requests) * k // SETUP_RUNS for k in range(SETUP_RUNS))
    done, setup = [], []
    start = time.perf_counter()
    for req in requests:
        for _ in range(setup_before[len(done)]):
            setup.append(measure_setup(env, workdir))
        workloads.write_files(req)
        outcome = spawn(["-m", "tcbounds.cli", "--json", *req.argv], req.deadline, env,
                        workdir / f"out-{len(done)}", req.data_limit_mb)
        done.append((req, outcome))
    return done, time.perf_counter() - start - sum(setup), setup


def verdict(req: workloads.Request, o: Outcome) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", detail)."""
    if o.exit_code is None:
        return "failed", "timeout"
    if o.exit_code != 0:
        return "failed", f"exit {o.exit_code}"
    try:
        doc = json.loads(o.stdout)
    except json.JSONDecodeError:
        return "wrong", "stdout is not a JSON report"
    problem = req.check(doc)
    return ("wrong", problem) if problem else ("ok", "")


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(done: list, verdicts: list, loop_s: float, setup: list[float]) -> dict:
    exited = [o for _, o in done if o.exit_code is not None]
    # a failed request delivers no report, and how soon it fails is set by
    # this benchmark's deadlines and data limits, so it has no latency
    latencies = [o.wall_s for (_, o), (v, _) in zip(done, verdicts) if v == "ok"]
    correct = len(latencies)
    return {
        "latency_p50_s": statistics.median(latencies) if latencies else float("nan"),
        "latency_p90_s": quantile(latencies, 0.9) if latencies else float("nan"),
        "requests_per_s": correct / loop_s,
        "peak_rss_mb": max((o.rss_mb for o in exited), default=float("nan")),
        "correct_ratio": correct / len(done),
        "setup_s": statistics.median(setup),
    }


def traced_layers(done: list, env: dict, workdir: Path, spans_dir: Path) -> dict:
    """Re-run the same requests through traced_cli.py; per-request means.
    Each request's spans are kept in ``spans_dir``."""
    n = len(done)
    totals: dict[str, float] = {name: 0.0 for name in SPAN_METRICS}
    counters: dict[str, float] = {name: 0.0 for name in COUNTER_METRICS}
    max_image = 0
    out_bytes = words = 0
    pres_failures = 0
    traced_wall = 0.0
    for i, (req, untraced) in enumerate(done):
        spans_path = spans_dir / f"r{i}.json"
        o = spawn([str(BENCH / "traced_cli.py"), str(spans_path), f"r{i}", "--json", *req.argv],
                  req.deadline, env, workdir / f"traced-{i}", req.data_limit_mb)
        traced_wall += o.wall_s
        out_bytes += len(o.stdout)
        pres_failures += req.kind == "pres-abel" and o.exit_code != 0
        if o.exit_code is None:
            continue
        if verdict(req, o)[0] == "ok":
            words += req.words_checked(json.loads(o.stdout))
        if not spans_path.exists():
            continue
        doc = json.loads(spans_path.read_text())
        summary = doc["summary"]
        for metric, (span, field) in SPAN_METRICS.items():
            entry = summary.get(span)
            if entry:
                totals[metric] += entry["count"] if field == "count" else entry[f"{field}_ns"] / 1e9
        for name in COUNTER_METRICS:
            counters[name] += doc["counters"].get(name, 0)
        max_image = max(max_image, doc["counters"].get("braids.max_image_len", 0))
    untraced_wall = sum(o.wall_s for _, o in done)
    layers = {name: value / n for name, value in totals.items()}
    layers.update({name: value / n for name, value in counters.items()})
    constructed = totals["freeprod.fpword.constructed"]
    layers.update({
        "cli.output_bytes": out_bytes / n,
        "freeprod.fpword_per_word_checked": constructed / words if words else 0.0,
        "braids.max_image_len": max_image,
        "presentations.abelianization.failures": pres_failures / n,
        "trace.overhead_s": (traced_wall - untraced_wall) / n,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1,
    })
    return layers


def metadata(args, done: list, verdicts: list) -> dict:
    sha = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or sha
    digest = hashlib.sha256()
    for _, o in done:
        digest.update(o.stdout)
    defects = json.loads((BENCH / "defects.json").read_text())
    by_defect: dict[str, int] = {}
    for (req, _), (v, detail) in zip(done, verdicts):
        if v == "ok":
            continue
        match = next((d["id"] for d in defects
                      if d["kind"] == req.kind and d["outcome"] == detail), "unclassified")
        by_defect[match] = by_defect.get(match, 0) + 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": sha,
        "nproc": os.cpu_count(), "requests": len(done),
        "latency_samples": sum(1 for v, _ in verdicts if v == "ok"),
        "failed_ratio": sum(1 for v, _ in verdicts if v != "ok") / len(done),
        "failures_by_defect": by_defect,
        "report_sha256": digest.hexdigest(),
        "deadlines_s": {k: workloads.DEADLINE_S[k] for k in sorted({r.kind for r, _ in done})},
        "data_limits_mb": workloads.DATA_LIMIT_MB,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["higman", "tree-lemma", "report-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind as on an exception: spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tcbounds" / "cli.py").is_file():
        print(f"error: no tcbounds sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        requests = workloads.requests(args.workload, args.seed, args.seconds, workdir)
        done, loop_s, setup = run_loop(requests, env, workdir)
        verdicts = [verdict(req, o) for req, o in done]
        if args.trace:
            units = PER_LAYER
            spans_dir = BENCH / "out" / f"spans-{args.workload}-{args.seed}"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            values = traced_layers(done, env, workdir, spans_dir)
            values.update(import_times(env))
        else:
            units = END_TO_END
            values = end_to_end(done, verdicts, loop_s, setup)
        meta = metadata(args, done, verdicts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (req, o), (v, detail) in zip(done, verdicts):
        if v != "ok":
            print(f"# {v}: {req.kind} {' '.join(req.argv)}: {detail}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": all(v != "wrong" for v, _ in verdicts),
        "attempted": len(done),
        "failed": sum(1 for v, _ in verdicts if v != "ok"),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "requests": [
            {"kind": req.kind, "argv": req.argv, "wall_s": o.wall_s, "exit": o.exit_code,
             "rss_mb": o.rss_mb, "verdict": v, "detail": detail}
            for (req, o), (v, detail) in zip(done, verdicts)]}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
