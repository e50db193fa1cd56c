"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces module attributes such as
``laserfleet.deflection.solve_kepler`` and ``kepler_propagate`` by timed
copies, and ``Tracer.patch`` raises when a name is gone. A refactor that
moves one of them would otherwise break only the traced benchmark run.
A refactor that calls them otherwise, or not at all, would make the
benchmark's per-layer ``plume.*`` figures count less work than runs.
"""

import json
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


PLUME_CALLS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import laserfleet.cli
import laserfleet as lf
from laserfleet.constants import YEAR
from laserfleet.formation import ShapedControlContext, ShapedOrbit
from laserfleet.scenario import load_scenario
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import mass_flow_rate
from perfbench.tracing import Operations, install

scenario = load_scenario(sys.argv[3])
ast = scenario.asteroid
design = design_from_option(20.0, scenario.experiments["shaped_design"]["concentration_ratio"],
                            n_spacecraft=10, option="66/45")
r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design,
                           m_sc=mass_budget(design, r_peri).m_total, isp=scenario.isp,
                           mdot=mass_flow_rate(design, ast, r_peri, 1.0, 10))
shape = ShapedOrbit(np.array(json.loads(sys.argv[4])))
lf.formation.shaped_objectives(shape, ctx, YEAR, 512)  # builds the cached grid untraced
tracer = install(lf, Operations(), traced=True)
lf.formation.shaped_objectives(shape, ctx, YEAR, 512)
print(tracer.calls["plume"])
"""


def test_traced_shaped_evaluation_counts_six_plume_calls():
    """One shaped evaluation whose plume reaches the optics makes six traced
    plume calls: steering, radiation pressure, occlusion, density, view
    factor and plume force. That is 577 over the 96 evaluations of a traced
    ``shaped-design`` round, with the one spot of its cached grid."""
    from tests.test_golden import PLUME_ON

    proc = subprocess.run([sys.executable, "-c", PLUME_CALLS, str(ROOT / "src"), str(ROOT),
                           str(ROOT / "scenarios" / "apophis_nominal.json"),
                           json.dumps(PLUME_ON)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 6
