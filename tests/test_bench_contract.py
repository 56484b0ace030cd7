"""The benchmark's Higman check still accepts the engine's Higman report.

bench/workloads.py checks a ``tc-report --case higman`` report for
[4, 4] and two cited amalgam steps, and reads the words the certificate
checked out of its step text.  Rewording a step can break that reading,
so the check runs here on the engine's own report.  It runs in a
subprocess because bench/oracles.py and tests/oracles.py share a module
name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

CHECK = """
import json, sys
from workloads import higman_request
doc = json.load(sys.stdin)
request = higman_request()
print(json.dumps([request.check(doc), request.words_checked(doc)]))
"""


def test_bench_higman_check_accepts_the_report():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    report = subprocess.run([sys.executable, "-m", "tcbounds.cli", "--json", "tc-report",
                             "--case", "higman"], env=env, capture_output=True, text=True,
                            timeout=60, check=True).stdout
    proc = subprocess.run([sys.executable, "-c", CHECK], input=report, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["", 4368]
