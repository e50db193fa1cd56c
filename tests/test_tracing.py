"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces module attributes such as
``laserfleet.deflection.solve_kepler`` and ``kepler_propagate`` by timed
copies, and ``Tracer.patch`` raises when a name is gone. A refactor that
moves one of them would otherwise break only the traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import laserfleet.cli
import laserfleet as lf
from perfbench.tracing import Operations, install
install(lf, Operations(), traced=True)
"""


def test_traced_install_finds_every_name():
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
