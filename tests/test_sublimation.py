import math

import numpy as np
import pytest

from laserfleet.constants import (
    AU,
    BOLTZMANN,
    GRAVITATIONAL_CONSTANT,
    SCATTERING_FACTOR,
    SOLAR_FLUX_1AU,
    STEFAN_BOLTZMANN,
)
from laserfleet.deflection import MdotTable
from laserfleet.sizing import design_from_option
from laserfleet.sublimation import (
    AsteroidModel,
    apophis_model,
    conduction_loss,
    exhaust_velocity,
    formation_flow,
    input_power_density,
    mass_flow_rate,
    radiation_loss,
    surface_speed,
)

DESIGN = design_from_option(20.0, 2500.0, option="66/45")


def test_asteroid_model_invariants(ast):
    a, b, c = ast.semi_axes
    assert a >= b >= c > 0
    with pytest.raises(ValueError):
        apophis_model(sublimation_enthalpy=-1.0)
    with pytest.raises(ValueError):
        AsteroidModel(elements0=ast.elements0, mass0=1e10, mu=1.8,
                      semi_axes=(95.0, 135.0, 191.0), spin_rate=1e-4,
                      albedo=0.2, heat_capacity=750, conductivity=2,
                      density=2600, t_sublimation=1800, t_ambient=278,
                      sublimation_enthalpy=2e6)


def test_input_power_density_reference(ast):
    # eta_sys * C_r * (1 - albedo) * S0 at 1 AU; the 66/45 chain gives 22.7%
    got = input_power_density(DESIGN, AU, 1.0, ast.albedo)
    want = DESIGN.eta_sys * 2500.0 * 0.8 * SOLAR_FLUX_1AU
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, 6.206e5, rel_tol=2e-3)  # 0.227*2500*0.8*1367
    assert math.isclose(DESIGN.eta_sys, 0.227, rel_tol=1e-2)


def test_input_power_density_limits(ast):
    assert input_power_density(DESIGN, AU, 0.0, ast.albedo) == 0.0
    p1 = input_power_density(DESIGN, AU, 1.0, ast.albedo)
    p2 = input_power_density(DESIGN, 2 * AU, 1.0, ast.albedo)
    assert math.isclose(p1, 4.0 * p2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        input_power_density(DESIGN, AU, 1.5, ast.albedo)


def test_radiation_loss():
    assert radiation_loss(0.0, 1.0) == 0.0
    q = radiation_loss(1800.0, 1.0)
    assert math.isclose(q, STEFAN_BOLTZMANN * 1800.0**4, rel_tol=1e-15)
    assert math.isclose(q, 5.953e5, rel_tol=1e-3)
    assert math.isclose(radiation_loss(1800.0, 0.5), 0.5 * q, rel_tol=1e-15)


def test_conduction_loss(ast):
    q1 = conduction_loss(1.0, ast)
    want = 1522.0 * math.sqrt(750.0 * 2.0 * 2600.0 / math.pi)
    assert math.isclose(q1, want, rel_tol=1e-12)
    assert math.isclose(q1, 1.696e6, rel_tol=1e-3)
    assert math.isclose(conduction_loss(4.0, ast), 0.5 * q1, rel_tol=1e-12)
    with pytest.raises(ValueError):
        conduction_loss(0.0, ast)


def test_conduction_vanishes_as_temperatures_meet(ast):
    from dataclasses import replace
    near = replace(ast, t_ambient=ast.t_sublimation - 1e-9)
    # coefficient scales linearly with the temperature difference
    assert conduction_loss(1.0, near) < 2e-9 * conduction_loss(1.0, ast)


def test_exhaust_velocity(ast):
    v = exhaust_velocity(ast)
    want = math.sqrt(8.0 * BOLTZMANN * 1800.0 / (math.pi * ast.molecular_mass))
    assert math.isclose(v, want, rel_tol=1e-15)
    assert math.isclose(v, 520.5, rel_tol=2e-4)

    from dataclasses import replace
    hot = replace(ast, t_sublimation=4 * 1800.0)
    assert math.isclose(exhaust_velocity(hot), 2.0 * v, rel_tol=1e-12)
    heavy = replace(ast, molecular_mass=4.0 * ast.molecular_mass)
    assert math.isclose(exhaust_velocity(heavy), 0.5 * v, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Mass flow
# ---------------------------------------------------------------------------

def test_mass_flow_zero_below_radiation_floor(ast):
    # far enough out the delivered density cannot match sigma T^4
    assert mass_flow_rate(DESIGN, ast, 3.0 * AU, 1.0, 1) == 0.0


def test_mass_flow_linear_in_spacecraft_count(ast):
    r = ast.elements0.a * (1.0 - ast.elements0.e)
    m1 = mass_flow_rate(DESIGN, ast, r, 1.0, 1)
    m2 = mass_flow_rate(DESIGN, ast, r, 1.0, 2)
    assert m1 > 0.0
    assert math.isclose(m2, 2.0 * m1, rel_tol=1e-12)


def test_beam_sum_is_n_sc_separate_spots(ast):
    """How n_sc beams add as the code reads it (DECISIONS.md, "Open: where
    the spot is and how n_sc beams add"): each spacecraft keeps its own power
    balance, and ``formation_flow`` multiplies one spacecraft's flow by n_sc.
    At perihelion through clean optics, a 10 m, 60/40 design at C_r 1000
    delivers less than the radiating floor, so no n_sc sublimates (one spot
    at n_sc times the power would, from n_sc = 5); at C_r 5000 the flow is
    exactly n_sc times one spacecraft's, on floats and through a flow table."""
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)
    for c_r in (1000.0, 5000.0):
        design = design_from_option(10.0, c_r, option="60/40")
        p_in = input_power_density(design, r_peri, 1.0, ast.albedo)
        table = MdotTable.for_orbit(design, ast, ast.elements0)
        one = mass_flow_rate(design, ast, r_peri, 1.0, 1)
        for n_sc in (1, 2, 5, 10):
            got = mass_flow_rate(design, ast, r_peri, 1.0, n_sc)
            if c_r == 1000.0:
                assert p_in < q_rad
                assert got == 0.0 and formation_flow(table, p_in, n_sc) == 0.0
            else:
                assert one > 0.0
                assert got == n_sc * one
                assert formation_flow(table, p_in, n_sc) == n_sc * table(p_in)


def test_mass_flow_monotone_in_power(ast):
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    taus = np.linspace(0.3, 1.0, 12)
    flows = [mass_flow_rate(DESIGN, ast, r_peri, float(t), 1) for t in taus]
    assert all(b >= a for a, b in zip(flows, flows[1:]))


def test_mass_flow_vs_brute_force_grid(ast):
    """10x-resolution midpoint-rule oracle within 1%."""
    design = design_from_option(10.0, 2500.0, option="66/45")
    r = ast.elements0.a * (1.0 - ast.elements0.e)
    got = mass_flow_rate(design, ast, r, 1.0, 1)

    p_in = input_power_density(design, r, 1.0, ast.albedo)
    q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)
    coeff = ast.conduction_coefficient()
    radius = design.spot_diameter / 2.0
    v_rot = surface_speed(ast)

    y = (np.arange(640) + 0.5) / 640 * radius
    t_out = 2.0 * np.sqrt(radius**2 - y**2) / v_rot
    total = 0.0
    for yj, tj in zip(y, t_out):
        t = (np.arange(40000) + 0.5) / 40000 * tj
        net = p_in - q_rad - coeff / np.sqrt(t)
        total += float(np.sum(np.maximum(net, 0.0))) * (tj / 40000)
    want = 2.0 * v_rot * total * (radius / 640) / ast.sublimation_enthalpy
    assert abs(got - want) / want < 0.01


def test_energy_bookkeeping(ast):
    """Sublimated enthalpy flux cannot exceed the delivered power."""
    r = ast.elements0.a * (1.0 - ast.elements0.e)
    for tau in (0.5, 1.0):
        for n_sc in (1, 4):
            mdot = mass_flow_rate(DESIGN, ast, r, tau, n_sc)
            p_in = input_power_density(DESIGN, r, tau, ast.albedo)
            assert mdot * ast.sublimation_enthalpy <= n_sc * p_in * DESIGN.spot_area


# ---------------------------------------------------------------------------
# Accelerations
# ---------------------------------------------------------------------------

def sublimation_acceleration(mdot: float, m_a: float, v_hat: np.ndarray,
                             ast: AsteroidModel) -> np.ndarray:
    """Thrust acceleration S v_bar mdot / m of the expelled vapour along the
    unit vector v_hat, the oracle of the deflection's ablation thrust."""
    v_hat = np.asarray(v_hat, dtype=float)
    return SCATTERING_FACTOR * exhaust_velocity(ast) * mdot / m_a * v_hat


def test_sublimation_acceleration(ast):
    v_hat = np.array([0.0, 1.0, 0.0])
    assert np.all(sublimation_acceleration(0.0, 2.7e10, v_hat, ast) == 0.0)

    u = sublimation_acceleration(0.1, 2.7e10, v_hat, ast)
    want = (2.0 / math.pi) * exhaust_velocity(ast) * 0.1 / 2.7e10
    assert math.isclose(float(np.linalg.norm(u)), want, rel_tol=1e-12)
    assert math.isclose(want, 1.23e-9, rel_tol=2e-2)

    u_half = sublimation_acceleration(0.1, 1.35e10, v_hat, ast)
    assert math.isclose(float(np.linalg.norm(u_half)), 2.0 * want, rel_tol=1e-12)


def tug_acceleration(n_sc: int, m_sc: float, delta_r: np.ndarray) -> np.ndarray:
    """Gravitational pull of the hovering spacecraft on the asteroid, the
    oracle of the deflection's tug: delta_r is the spacecraft position
    relative to the asteroid, and the pull points toward the spacecraft."""
    delta_r = np.asarray(delta_r, dtype=float)
    dist = float(np.linalg.norm(delta_r))
    if dist <= 0.0:
        raise ValueError("spacecraft-asteroid separation must be positive")
    return n_sc * GRAVITATIONAL_CONSTANT * m_sc / dist**3 * delta_r


def test_tug_acceleration():
    u = tug_acceleration(1, 1000.0, np.array([1000.0, 0.0, 0.0]))
    assert math.isclose(float(np.linalg.norm(u)), 6.674e-14, rel_tol=1e-12)
    assert u[0] > 0.0  # attraction toward the spacecraft

    u2 = tug_acceleration(2, 1000.0, np.array([1000.0, 0.0, 0.0]))
    assert math.isclose(float(np.linalg.norm(u2)), 2 * 6.674e-14, rel_tol=1e-12)
    u4 = tug_acceleration(1, 1000.0, np.array([2000.0, 0.0, 0.0]))
    assert math.isclose(float(np.linalg.norm(u4)), 6.674e-14 / 4, rel_tol=1e-12)
    # attraction toward a formation along +y
    assert tug_acceleration(3, 1500.0, np.array([0.0, 1000.0, 0.0]))[1] > 0.0


def test_thrust_state_combines_components(ast, earth):
    # the deflection's thrust is the vector sum of the sublimation push along
    # the velocity and the tug toward the formation, here held at 1 km along
    # the transverse direction
    from laserfleet.constants import DAY
    from laserfleet.deflection import DeflectionScenario, simulate_deflection
    from laserfleet.formation import ShapedOrbit
    from laserfleet.orbits import flight_path_angle

    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    offset = np.array([0.0, 1000.0, 0.0])
    formation = ShapedOrbit(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, 0.0]))

    def initial(**kw):
        out = simulate_deflection(DeflectionScenario(
            ast=ast, design=design, earth=earth, t_start=0.0, t_moid=DAY,
            formation=formation, **kw))
        return out.thrust[0] / ast.mass0, out.mdot[0]

    u_tug = tug_acceleration(3, 1500.0, offset)
    u_only_tug, _ = initial(m_sc=1500.0, scattering_factor=0.0)
    assert math.isclose(u_only_tug, float(np.linalg.norm(u_tug)), rel_tol=1e-12)

    u_only_sub, mdot = initial(m_sc=0.0)
    assert mdot > 0.0
    gamma = flight_path_angle(ast.elements0.e, ast.elements0.true_anomaly())
    v_hat = np.array([math.sin(gamma), math.cos(gamma), 0.0])
    u_sub = sublimation_acceleration(mdot, ast.mass0, v_hat, ast)
    assert math.isclose(u_only_sub, float(np.linalg.norm(u_sub)), rel_tol=1e-12)

    u_dev, _ = initial(m_sc=1500.0)
    assert math.isclose(u_dev, float(np.linalg.norm(u_sub + u_tug)), rel_tol=1e-12)
    assert u_dev > max(u_only_sub, u_only_tug)


def test_spot_power_balance(ast):
    # the delivered power against the radiating and conducting losses of a
    # spot point 5 s into the beam; the net is clipped at zero
    q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)
    q_cond = conduction_loss(5.0, ast)
    near = input_power_density(DESIGN, AU, 1.0, ast.albedo)
    assert near > q_rad                              # beats radiation alone
    assert max(near - q_rad - q_cond, 0.0) == 0.0    # not conduction 5 s in
    # deep space: the losses win and the spot expels nothing
    far = input_power_density(DESIGN, 5 * AU, 1.0, ast.albedo)
    assert far < q_rad
    assert mass_flow_rate(DESIGN, ast, 5 * AU, 1.0, 1) == 0.0
    # a fleet at perihelion clears the losses
    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    r = ast.elements0.a * (1.0 - ast.elements0.e)
    assert mass_flow_rate(design, ast, r, 1.0, 3) > 0.0
