import math

import numpy as np
import pytest

from laserfleet.constants import AU, YEAR
from laserfleet.deflection import (
    DeflectionScenario,
    MdotTable,
    peak_spot_power,
    simulate_deflection,
)
from laserfleet.formation import NaturalOrbit, ShapedOrbit
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import ellipse_radius, mass_flow_from_power

NATURAL = NaturalOrbit(dk=np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]))
SHAPED = ShapedOrbit(np.array([0.0, 0.0, -1000.0, 0.0, 0.0, -50.0, 0.0, 0.0]))


def scenario(ast, earth, design, m_sc, warning, formation=NATURAL, **kw):
    return DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=m_sc,
                              t_start=0.0, t_moid=warning, formation=formation,
                              **kw)


def test_mdot_table_matches_direct_quadrature(ast):
    design = design_from_option(10.0, 5000.0, option="60/40")
    table = MdotTable.build(design, ast, p_max=peak_spot_power(design, ast, ast.elements0),
                            n_phases=16)
    spot_radius = design.spot_diameter / 2.0
    angles = (np.arange(16) + 0.5) * math.pi / 16

    def direct(p):
        return float(np.mean([
            mass_flow_from_power(p, ast, float(ast.spin_rate * ellipse_radius(ast, a)),
                                 spot_radius) for a in angles]))

    assert direct(8e5) == 0.0 and table(8e5) == 0.0  # below the dwell threshold
    for p in (1.1e6, 1.3e6, 1.6e6):
        want = direct(p)
        assert want > 0.0
        assert abs(table(p) - want) / want < 2e-3


def test_mdot_table_zero_below_floor(ast):
    design = design_from_option(10.0, 5000.0, option="60/40")
    table = MdotTable.for_orbit(design, ast, ast.elements0)
    assert table(0.0) == 0.0
    assert table(1e5) == 0.0


def test_null_deflection(ast, earth):
    # concentration ratio 1 stays far below the sublimation floor and a
    # massless spacecraft exerts no tug: u_dev = 0 identically
    design = design_from_option(10.0, 1.0, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 0.0, YEAR,
                                       formation=SHAPED))
    assert np.all(out.mdot == 0.0)
    assert abs(out.delta_mean_anomaly) < 1e-12
    assert out.miss_distance < 1.0


def test_zero_warning_time(ast, earth):
    design = design_from_option(10.0, 5000.0, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 1000.0, 0.0))
    assert out.miss_distance == 0.0
    assert out.delta_mean_anomaly == 0.0


def test_initial_flow_scales_with_fleet(ast, earth):
    m_sc = 1000.0
    outs = []
    for n in (1, 2):
        design = design_from_option(10.0, 5000.0, n_spacecraft=n, option="60/40")
        out = simulate_deflection(scenario(ast, earth, design, m_sc, 0.2 * YEAR))
        outs.append(out)
    assert math.isclose(outs[1].mdot[0], 2.0 * outs[0].mdot[0], rel_tol=1e-9)


def test_contamination_monotone_and_mass_decreasing(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    out = simulate_deflection(scenario(ast, earth, design, m_sc, 2 * YEAR,
                                       record_every=20))
    assert np.all(np.diff(out.contamination) >= 0.0)
    assert np.all(np.diff(out.asteroid_mass) <= 0.0)
    assert np.all(out.tau > 0.0) and np.all(out.tau <= 1.0)
    assert out.contamination[-1] > 0.0  # natural orbit does get exposed


def test_shaped_formation_stays_clean(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 1500.0, 2 * YEAR,
                                       formation=SHAPED))
    assert np.all(out.contamination == 0.0)
    assert np.all(out.tau == 1.0)


def test_deflection_deterministic(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    o1 = simulate_deflection(scenario(ast, earth, design, 1200.0, YEAR))
    o2 = simulate_deflection(scenario(ast, earth, design, 1200.0, YEAR))
    assert o1.miss_distance == o2.miss_distance
    assert np.array_equal(o1.contamination, o2.contamination)


def test_thrust_until_coast_drift(ast, earth):
    """Stopping the thrust early still grows the miss via anomaly drift."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    short = simulate_deflection(scenario(ast, earth, design, 1500.0, YEAR,
                                         thrust_until=YEAR))
    coast = simulate_deflection(scenario(ast, earth, design, 1500.0, 3 * YEAR,
                                         thrust_until=YEAR))
    assert coast.miss_distance > short.miss_distance


def test_mdot_table_used_matches_internal(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=2, option="60/40")
    table = MdotTable.for_orbit(design, ast, ast.elements0)
    o1 = simulate_deflection(scenario(ast, earth, design, 900.0, YEAR))
    o2 = simulate_deflection(scenario(ast, earth, design, 900.0, YEAR),
                             mdot_table=table)
    assert math.isclose(o1.miss_distance, o2.miss_distance, rel_tol=1e-12)


def test_bplane_requires_relative_velocity():
    from laserfleet.orbits import StateVector, bplane_miss

    s = StateVector(position=np.array([AU, 0.0, 0.0]),
                    velocity=np.array([0.0, 3e4, 0.0]))
    with pytest.raises(ValueError):
        bplane_miss(s, s, s)


def test_moid_epoch_before_start_rejected(ast, earth):
    design = design_from_option(10.0, 5000.0, option="60/40")
    with pytest.raises(ValueError):
        simulate_deflection(DeflectionScenario(
            ast=ast, design=design, earth=earth, m_sc=0.0,
            t_start=YEAR, t_moid=0.0, formation=SHAPED))
