"""Each demo runs as a script and prints exactly its golden output.

The goldens in tests/golden/demo-0N.txt are the demos' stdout; every demo
is deterministic, so a changed line is a changed result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 6
    assert sorted(p.name for p in (ROOT / "tests" / "golden").glob("demo-*.txt")) == [
        f"demo-{demo.name[:2]}.txt" for demo in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "golden" / f"demo-{demo.name[:2]}.txt"
    assert run.stdout == golden.read_text()
