"""Every demo runs to exit 0 against this tree's package.

Demos 05 and 06 cross-check two routes and exit 1 on a mismatch; they run
at small dimensions here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["01_classification_table.py"],
    ["02_spin_census_dim5.py"],
    ["03_bieberbach_groups.py"],
    ["04_cohomological_rigidity.py"],
    ["05_lift_vs_w2.py", "--dim", "5"],
    ["06_ring_invariants_closed_form.py", "--dim", "4"],
], ids=lambda argv: argv[0].split("_")[0])
def test_demo_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
