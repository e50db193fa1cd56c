import math
from dataclasses import replace

import numpy as np
import pytest

from laserfleet.constants import AU, SOLAR_FLUX_1AU, STEFAN_BOLTZMANN
from laserfleet.sizing import (
    EFFICIENCY_OPTIONS,
    SpacecraftDesign,
    design_from_option,
    laser_power,
    mass_budget,
    radiator_areas,
    secondary_input_power,
)


def design_314():
    # 314.159 m^2 primary (20 m aperture), 66/45 chain
    return design_from_option(20.0, 2500.0, option="66/45")


def test_efficiency_chain():
    d = design_314()
    assert math.isclose(d.eta_sys, 0.45 * 0.9 * 0.85 * 0.66, rel_tol=1e-15)
    assert math.isclose(d.eta_sys, 0.227, rel_tol=1e-2)
    d2 = design_from_option(20.0, 2500.0, option="60/40")
    assert math.isclose(d2.eta_sys, 0.40 * 0.9 * 0.85 * 0.60, rel_tol=1e-15)


def test_collected_power_cross_check():
    d = design_314()
    collected = d.collector_area * SOLAR_FLUX_1AU
    # published value 429.5 kW for the 20 m mirror
    assert abs(collected - 429.5e3) / 429.5e3 < 2e-3
    assert abs(314.0 * SOLAR_FLUX_1AU - 429.2e3) < 0.001 * 429.2e3


def test_laser_power():
    d = design_314()
    p = laser_power(d, AU)
    want = 0.85 * 0.45 * 0.81 * d.collector_area * SOLAR_FLUX_1AU
    assert math.isclose(p, want, rel_tol=1e-12)
    assert math.isclose(p, 133.0e3, rel_tol=1e-2)
    # 18% overall chain of the example system beams 77.3 kW from 429.5 kW
    assert abs(0.18 * 429.5e3 - 77.3e3) < 0.01 * 77.3e3


def test_radiator_area_laser():
    d = design_314()
    th = d.thermal
    a_rs, a_rl, a_rm2 = radiator_areas(d, AU)
    p_im2 = secondary_input_power(d, AU)
    want = 0.45 * 0.9 * p_im2 * (1.0 - 0.66) / (0.9 * STEFAN_BOLTZMANN * 313.0**4)
    assert math.isclose(a_rl, want, rel_tol=1e-12)
    # direct arithmetic of the balance with the published inputs
    assert math.isclose(a_rl, 108.66, rel_tol=1e-3)
    assert math.isclose(p_im2, 0.9 * d.collector_area * SOLAR_FLUX_1AU, rel_tol=1e-12)


def test_radiator_laser_zero_waste_heat():
    d = replace(design_314(), eta_laser=1.0)
    _, a_rl, _ = radiator_areas(d, AU)
    assert a_rl == 0.0


def test_radiator_scales_with_collector():
    d1 = design_314()
    d2 = design_from_option(2.0 * 20.0, 2500.0, option="66/45")  # 4x area
    _, a1, _ = radiator_areas(d1, AU)
    _, a2, _ = radiator_areas(d2, AU)
    assert math.isclose(a2, 4.0 * a1, rel_tol=1e-12)


def test_radiator_rejects_nonphysical_temperature():
    d = replace(design_314(), thermal=replace(design_314().thermal, t_laser=-10.0))
    with pytest.raises(ValueError):
        radiator_areas(d, AU)


def test_thermal_consistency():
    """Radiator emission balances absorbed-minus-converted power exactly."""
    d = design_314()
    th = d.thermal
    a_rs, a_rl, a_rm2 = radiator_areas(d, AU)
    p_im2 = secondary_input_power(d, AU)
    sigma = STEFAN_BOLTZMANN

    lhs = a_rl * th.eps_radiator * sigma * th.t_laser**4
    rhs = d.eta_array * d.eta_mirror * p_im2 * (1.0 - d.eta_laser)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)

    lhs = a_rs * th.eps_radiator * sigma * th.t_radiator_array**4
    rhs = (th.alpha_array * d.eta_mirror * p_im2
           - d.eta_array * d.eta_mirror * p_im2
           - 2 * th.eps_array * sigma * d.solar_array_area * th.t_array**4)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)


def test_mass_budget_bus_only_floor():
    # with a vanishing collector every sized mass goes to zero: the budget
    # collapses to the margined bus plus its propellant allowance
    d = design_from_option(1e-4, 2500.0, option="66/45")
    mb = mass_budget(d, AU)
    assert math.isclose(mb.m_dry, 600.0, rel_tol=1e-5)
    assert math.isclose(mb.m_total, 798.0, rel_tol=1e-5)


def test_mass_budget_structure():
    d = design_314()
    mb = mass_budget(d, AU)
    assert math.isclose(mb.m_harness, 0.2 * (mb.m_array + mb.m_laser), rel_tol=1e-12)
    dry = 1.2 * (mb.m_harness + mb.m_array + mb.m_mirrors + mb.m_laser
                 + mb.m_radiators + mb.m_bus)
    assert math.isclose(mb.m_dry, dry, rel_tol=1e-12)
    assert math.isclose(mb.m_propellant, 0.3 * mb.m_dry, rel_tol=1e-12)
    assert math.isclose(mb.m_total, mb.m_dry + mb.m_propellant * 1.1, rel_tol=1e-12)
    assert math.isclose(mb.m_laser, 1.5 * 0.005 * mb.p_laser * 0.66, rel_tol=1e-12)


def test_mass_monotone_in_aperture():
    masses = [mass_budget(design_from_option(d, 2500.0), AU).m_total
              for d in np.linspace(2.0, 20.0, 19)]
    assert all(b > a for a, b in zip(masses, masses[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="unattainable under the published mass model: every sized component "
           "scales linearly with collector area, so m(d*sqrt2) - 2*m(d) equals "
           "minus the fixed bus allowance (-798 kg) for every aperture; a "
           "superadditive crossover needs a superlinear term the tables do "
           "not parameterize (see DECISIONS.md)")
def test_fractionation_crossover_exists():
    """Somewhere in the box, two small spacecraft beat one sqrt(2)-larger:
    same total collecting area, less total mass."""
    found = False
    for d in np.linspace(2.0, 20.0 / math.sqrt(2.0), 40):
        m_small = mass_budget(design_from_option(float(d), 2500.0), AU).m_total
        m_big = mass_budget(design_from_option(float(d) * math.sqrt(2.0), 2500.0),
                            AU).m_total
        if m_big > 2.0 * m_small:
            found = True
            break
    assert found


def test_fixed_cost_favors_consolidation_everywhere():
    """The flip side of the failed crossover: the affine mass model makes one
    large spacecraft lighter than two half-area ones by exactly the margined
    bus-plus-propellant allowance, independent of aperture."""
    fixed = mass_budget(design_from_option(1e-4, 2500.0), AU).m_total
    for d in np.linspace(2.0, 20.0 / math.sqrt(2.0), 10):
        m_small = mass_budget(design_from_option(float(d), 2500.0), AU).m_total
        m_big = mass_budget(design_from_option(float(d) * math.sqrt(2.0), 2500.0),
                            AU).m_total
        assert math.isclose(2.0 * m_small - m_big, fixed, rel_tol=1e-6)


def test_design_validation():
    with pytest.raises(ValueError):
        SpacecraftDesign(aperture_diameter=-1.0, concentration_ratio=1000.0)
    with pytest.raises(ValueError):
        SpacecraftDesign(aperture_diameter=10.0, concentration_ratio=1000.0,
                         eta_laser=1.5)
    with pytest.raises(KeyError):
        design_from_option(10.0, 1000.0, option="50/50")
    assert set(EFFICIENCY_OPTIONS) == {"66/45", "60/40"}
