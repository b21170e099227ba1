"""The quick demos run to completion against the current library.

`reduce_sbm.py`, about 10 s on a 2-core machine, runs as its own CI step
instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "action_regimes.py",
        "coarsen_lattice.py",
        "contraction_and_lifting.py",
        "sketch_accuracy.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
