"""The demos print the bytes pinned in demos/expected/<stem>.out.

Demo 03 prints the screen's events, so this pins the order in which
`screen_rays` applies its rules as well as every count the demos show.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    assert DEMOS
    assert sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.out")) == [
        p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_expected_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.out").read_bytes()
    assert proc.stdout == expected
