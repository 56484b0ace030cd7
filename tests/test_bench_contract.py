"""The benchmark's checks still accept the engine's reports.

bench/workloads.py checks a ``tc-report --case higman`` report for
[4, 4] and two cited amalgam steps, and reads the words the certificate
checked out of its step text.  Rewording a step can break that reading,
so each fixed request of the benchmark runs here with its own arguments
and its check reads the engine's report.  The checks run in a subprocess
because bench/oracles.py and tests/oracles.py share a module name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# runs the request that workloads.<argv[1]>() builds, as the benchmark does,
# and prints [check result, words checked] for its report
CHECK = """
import json, subprocess, sys
import workloads
request = getattr(workloads, sys.argv[1])()
report = subprocess.run([sys.executable, "-m", "tcbounds.cli", "--json", *request.argv],
                        capture_output=True, text=True, timeout=60, check=True).stdout
doc = json.loads(report)
print(json.dumps([request.check(doc), request.words_checked(doc)]))
"""


def check_request(factory: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", CHECK, factory], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bench_higman_check_accepts_the_report():
    assert check_request("higman_request") == ["", 4368]


def test_bench_tree_lemma_check_accepts_the_report():
    assert check_request("tree_lemma_request") == ["", 4368]
