"""Golden outputs of the shaped-formation objectives.

J1, J2, J3, C1 and C2 of six fixed shapes, recorded from the per-sample
control inversion (one scalar call per time sample) that the time-grid
version replaced. Together the shapes take every branch of the inversion:
plume on the optics, occluded or averted optics, samples outside the
expansion cone, samples inside the body and its bounding sphere, and the
plume and coupling switches off.

J2, C1 and C2 come from the shape alone and must match exactly. J1 and J3
integrate the control over the grid; numpy's arctan2, arccos and power may
differ from libm by an ulp, and the nearly cancelling frame terms of the
Hill-frame acceleration amplify that, so they match to 1e-11.
"""

from dataclasses import replace

import numpy as np
import pytest

from laserfleet.constants import YEAR
from laserfleet.formation import ShapedControlContext, ShapedOrbit, shaped_objectives
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import mass_flow_rate
from tests.conftest import SCENARIO_DIR

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PLUME_ON = [300.0, 200.0, 400.0, 200.0, 100.0, 1500.0, 100.0, 50.0]
BEHIND = [50.0, -80.0, -900.0, 60.0, 40.0, -700.0, 70.0, -30.0]

# name: (coefficients, context switches, (J1, J2, J3, C1, C2))
GOLDEN = {
    # the plume reaches the optics on 220 of 512 samples
    "plume_on": (PLUME_ON, {}, (
        0.0010238388397684206, 1886.599043507801, 1.146706312674622e-06,
        760.5551275463989, 1723.606797749979)),
    # below and behind: the body hides the spot, or the optics face away
    "occluded_or_averted": (BEHIND, {}, (
        0.002307164615221402, 1228.2332900316542, 1.7135619125631394e-06,
        -805.660188679434, -627.8889744907202)),
    # ahead and behind the spot: every visible sample is outside the cone
    "outside_cone": ([200.0, 100.0, 1000.0, 100.0, 50.0, -1500.0, 50.0, 0.0], {}, (
        0.0010247067906347107, 1851.0299128843676, 6.675793252935269e-07,
        1223.606797749979, -1388.1966011250106)),
    # 42 of 512 samples inside the ellipsoid, 100 inside the bounding sphere
    "inside_body": ([300.0, 0.0, -150.0, 0.0, 300.0, -100.0, 0.0, 150.0], {}, (
        0.04097837805462967, 489.71808487246636, 9.210321932397143e-05,
        150.0, 200.0)),
    "no_plume": (PLUME_ON, {"include_plume": False}, (
        0.0013897205468171858, 1886.599043507801, 1.146706312674622e-06,
        760.5551275463989, 1723.606797749979)),
    "no_couplings": (BEHIND, {"include_couplings": False}, (
        9.54353140958375e-09, 1228.2332900316542, 1.281073758321268e-11,
        -805.660188679434, -627.8889744907202)),
}


@pytest.fixture(scope="module")
def shaped_ctx():
    """The shaped-design study's context on the nominal scenario."""
    from laserfleet.scenario import load_scenario

    scenario = load_scenario(SCENARIO_DIR / "apophis_nominal.json")
    ast = scenario.asteroid
    design = design_from_option(20.0, scenario.design.concentration_ratio,
                                n_spacecraft=10, option="66/45")
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    return ShapedControlContext(ast=ast, k_a=ast.elements0, design=design,
                                m_sc=mass_budget(design, r_peri).m_total,
                                isp=scenario.isp,
                                mdot=mass_flow_rate(design, ast, r_peri, 1.0, 10))


@pytest.mark.parametrize("name", GOLDEN)
def test_shaped_objectives_golden(shaped_ctx, name):
    coeffs, switches, (j1, j2, j3, c1, c2) = GOLDEN[name]
    res = shaped_objectives(ShapedOrbit(np.array(coeffs)), replace(shaped_ctx, **switches),
                            YEAR, 512)
    assert (res["J2"], res["C1"], res["C2"]) == (j2, c1, c2)
    assert res["J1"] == pytest.approx(j1, rel=1e-11, abs=0.0)
    assert res["J3"] == pytest.approx(j3, rel=1e-11, abs=0.0)
