"""The benchmark's own test: its smoke mode runs every workload at tiny size,
traced and untraced, and fails unless every metric in BENCHMARK.json is
printed with its unit and no item failed.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_prints_every_metric():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke ok")
