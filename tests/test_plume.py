import math
from dataclasses import replace

import numpy as np
import pytest

from laserfleet import batch, plume
from laserfleet.constants import (
    AU,
    JET_CONSTANT,
    MAX_EXPANSION_ANGLE,
    SOLAR_FLUX_1AU,
    SPEED_OF_LIGHT,
    TWO_PI,
)
from laserfleet.plume import (
    condensation_growth,
    degradation_factor,
    line_length,
    line_of_sight_occluded,
    plume_density,
    plume_force,
    spot_point,
    spot_position,
    spot_to_spacecraft,
    srp_force,
    steering_geometry,
    view_factor_angle,
)
from laserfleet.sizing import MIRROR_REFLECTIVITY, design_from_option
from laserfleet.sublimation import ellipse_radius, exhaust_velocity


def spherical(ast):
    return replace(ast, semi_axes=(135.0, 135.0, 95.0))


# ---------------------------------------------------------------------------
# Spot geometry
# ---------------------------------------------------------------------------

def test_spot_on_sphere_at_origin_time(ast):
    sph = spherical(ast)
    spot = spot_position(batch.FLOAT, sph, 0.0, 0.0)
    assert np.allclose(spot, [0.0, 135.0], atol=1e-9)

    geom = spot_to_spacecraft(np.array([0.0, 1000.0, 0.0]), sph, 0.0, 0.0)
    assert np.allclose(geom.offset, [0.0, 1000.0 - 135.0, 0.0], atol=1e-9)
    assert geom.phi == 0.0


def test_ellipse_radius_axis_alignment(ast):
    # the formula's own convention: the long axis sits at angle 0
    assert math.isclose(float(ellipse_radius(ast, 0.0)), 191.0, rel_tol=1e-12)
    assert math.isclose(float(ellipse_radius(ast, math.pi / 2)), 135.0, rel_tol=1e-12)


def test_spot_spin_periodicity(ast):
    t_spin = TWO_PI / ast.spin_rate
    s0 = spot_position(batch.FLOAT, ast, 0.0, 0.3)
    s1 = spot_position(batch.FLOAT, ast, t_spin, 0.3)
    assert np.allclose(s0, s1, atol=1e-6)


def test_spacecraft_inside_asteroid_rejected(ast):
    with pytest.raises(ValueError):
        spot_to_spacecraft(np.array([10.0, 10.0, 10.0]), ast, 0.0, 0.0)


def test_ellipse_radius_bounds(ast, rng):
    angles = rng.random(100) * TWO_PI
    r = np.asarray(ellipse_radius(ast, angles))
    assert np.all(r >= 135.0 - 1e-9) and np.all(r <= 191.0 + 1e-9)


# ---------------------------------------------------------------------------
# Plume density
# ---------------------------------------------------------------------------

def _density(dist, phi, mdot=1e-3, v_bar=520.0, a_spot=0.0314, d_spot=0.2):
    return plume_density(batch.FLOAT, dist, phi, mdot, v_bar, a_spot, d_spot)


def test_density_throat_value():
    mdot, v_bar, a_spot, d_spot = 1e-3, 520.0, 0.0314, 0.2
    rho = _density(0.0, 0.0)
    assert math.isclose(rho, JET_CONSTANT * mdot / (v_bar * a_spot), rel_tol=1e-12)


def test_density_geometric_factor():
    d_spot = 0.2
    rho0 = _density(0.0, 0.0)
    rho = _density(d_spot / 2, 0.0)
    assert math.isclose(rho, rho0 / 4.0, rel_tol=1e-12)


def test_density_angular_profile():
    rho0 = _density(1.0, 0.0)
    rho = _density(1.0, MAX_EXPANSION_ANGLE / 2)
    assert math.isclose(rho / rho0, math.cos(math.pi / 4) ** 5, rel_tol=1e-12)
    assert math.isclose(rho / rho0, 0.17678, rel_tol=1e-4)


def test_density_zero_outside_cone():
    assert _density(1.0, MAX_EXPANSION_ANGLE) == 0.0
    assert _density(1.0, math.pi) == 0.0


def test_density_monotone_decay(ast):
    dists = np.linspace(10.0, 5000.0, 40)
    rhos = [_density(float(d), 0.1) for d in dists]
    assert all(b < a for a, b in zip(rhos, rhos[1:]))
    phis = np.linspace(0.0, MAX_EXPANSION_ANGLE * 0.999, 40)
    rhos_phi = [_density(1000.0, float(p)) for p in phis]
    assert all(b < a for a, b in zip(rhos_phi, rhos_phi[1:]))


# ---------------------------------------------------------------------------
# Contamination and degradation
# ---------------------------------------------------------------------------

def test_contamination_rate(growth_cases, monkeypatch):
    # the layer grows by condensation_growth where the flow reaches the
    # Sun-facing optics from the spot's side (dx > 0), and by nothing
    # elsewhere: the rule of the deflection's rates
    # edge-on to the Sun-facing optics (flow along +y): nothing condenses
    assert condensation_growth(1e-10, 520.5, 0.0, 700.0) == 0.0
    rate = condensation_growth(1e-10, 520.5, 700.0, 700.0)  # head on
    assert math.isclose(rate, 2 * 520.5 * 1e-10 / 1000.0, rel_tol=1e-12)
    assert math.isclose(rate, 1.041e-10, rel_tol=1e-3)
    assert math.isclose(condensation_growth(3e-10, 520.5, 700.0, 700.0), 3 * rate,
                        rel_tol=1e-12)
    # at 60 degrees off the mirror normal the flux projects by cos 60
    assert math.isclose(condensation_growth(1e-10, 520.5, 350.0, 700.0), rate / 2,
                        rel_tol=1e-12)
    # surfaces facing away accumulate nothing: the rates grow no layer on a
    # spacecraft at (-700, 100, 0) m from their spot
    _, consts, t, states, _ = growth_cases
    t0, y0 = float(t[0]), states[0].tolist()
    _, spots = _growth_from_rates(monkeypatch, consts, batch.FLOAT, t0, y0, [1e4, 0.0, 0.0])
    sx, sy = spots[0]
    dh, _ = _growth_from_rates(monkeypatch, consts, batch.FLOAT, t0, y0,
                               [sx - 700.0, sy + 100.0, 0.0])
    assert dh == 0.0


def test_degradation_factor():
    assert degradation_factor(0.0) == 1.0
    assert math.isclose(degradation_factor(1e-6), math.exp(-2.0), rel_tol=1e-15)
    hs = np.linspace(0.0, 5e-6, 30)
    taus = [degradation_factor(float(h)) for h in hs]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    assert all(0.0 < t <= 1.0 for t in taus)


def test_degradation_composes_multiplicatively(rng):
    for _ in range(50):
        h1, h2 = rng.random(2) * 3e-6
        assert math.isclose(degradation_factor(h1 + h2),
                            degradation_factor(h1) * degradation_factor(h2),
                            rel_tol=1e-12)


def test_dark_side_never_accumulates(ast, growth_cases, monkeypatch, rng):
    """Spacecraft below the plume (x < spot x) see the flow from behind: the
    deflection's rates grow no layer there."""
    _, consts, _, states, _ = growth_cases
    state = states[0].tolist()
    for _ in range(200):
        t = float(rng.random() * TWO_PI / ast.spin_rate)
        state[5] = float(rng.random() * TWO_PI)  # mean anomaly: the velocity elevation
        _, spots = _growth_from_rates(monkeypatch, consts, batch.FLOAT, t, state,
                                      [1e4, 0.0, 0.0])
        spot = np.array([*spots[0], 0.0])
        sc = np.array([spot[0] - (10.0 + 3000.0 * rng.random()),
                       float((rng.random() - 0.5) * 4000.0),
                       float((rng.random() - 0.5) * 2000.0)])
        if float(np.sum((sc / np.array(ast.semi_axes)) ** 2)) <= 1.0:
            continue
        dx, dy, dz = (sc - spot).tolist()
        psi = view_factor_angle(batch.FLOAT, dx, line_length(batch.FLOAT, dx, dy, dz))
        assert psi >= math.pi / 2
        dh, _ = _growth_from_rates(monkeypatch, consts, batch.FLOAT, t, state, sc.tolist())
        assert dh == 0.0


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def test_srp_force_reference_magnitude():
    design = design_from_option(20.0, 2500.0, option="66/45")
    f = srp_force(batch.FLOAT, design, AU, 0.0, -1.0, 0.0, 0.0)
    first = 2.0 * design.eta_sys * design.collector_area * SOLAR_FLUX_1AU / SPEED_OF_LIGHT
    assert math.isclose(first, 6.50e-4, rel_tol=2e-2)
    # total = beam recoil along -x plus absorption residue along +x
    expect_x = -first + (1 - 0.9**2) * design.collector_area * SOLAR_FLUX_1AU / SPEED_OF_LIGHT
    assert math.isclose(f[0], expect_x, rel_tol=1e-12)


def test_srp_force_limits(monkeypatch):
    design = design_from_option(20.0, 2500.0)
    f = srp_force(batch.FLOAT, design, AU, math.pi / 2, 0.0, 1.0, 0.0)
    # beam term vanishes at beta = pi/2, absorption residue along +x remains
    assert abs(f[1]) < 1e-20
    assert f[0] > 0.0

    residual = (1.0 - MIRROR_REFLECTIVITY**2) * design.collector_area * SOLAR_FLUX_1AU \
        / SPEED_OF_LIGHT
    assert math.isclose(f[0], residual, rel_tol=1e-12)
    # perfect reflectors leave no residue: nothing remains
    monkeypatch.setattr(plume, "MIRROR_REFLECTIVITY", 1.0)
    f2 = srp_force(batch.FLOAT, design, AU, math.pi / 2, 0.0, 1.0, 0.0)
    assert np.allclose(f2, 0.0)


def test_steering_geometry_retroreflection():
    beta, *n_steer = steering_geometry(batch.FLOAT, 0.0, 0.0, 0.0, -100.0, 0.0)
    assert math.isclose(beta, 0.0, abs_tol=1e-12)
    assert np.allclose(n_steer, [-1.0, 0.0, 0.0])


def test_plume_force():
    m = batch.FLOAT
    assert plume_force(m, 0.0, 520.5, 314.0, 0.0, 0.0, 1.0, 0.0) == (0.0, 0.0, 0.0)
    f = plume_force(m, 1e-10, 520.5, 314.0, 0.0, 0.0, 1.0, 0.0)
    mag = float(np.linalg.norm(f))
    assert math.isclose(mag, 4 * 1e-10 * 520.5**2 * 314.0, rel_tol=1e-12)
    assert math.isclose(mag, 3.40e-2, rel_tol=1e-2)
    assert f[1] == mag  # along the supplied direction
    assert plume_force(m, 1e-10, 520.5, 314.0, 2.0, 0.0, 1.0, 0.0) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Occlusion
# ---------------------------------------------------------------------------

def test_line_of_sight(ast):
    spot = spot_position(batch.FLOAT, ast, 0.0, 0.0)
    assert not line_of_sight_occluded(*spot, 0.0, 1000.0, ast.semi_axes)
    # hiding below and behind: the body blocks the view of the spot
    assert line_of_sight_occluded(*spot, -1000.0, -1000.0, ast.semi_axes)
    assert line_of_sight_occluded(*spot, 0.0, -1000.0, ast.semi_axes)


def test_plume_state_record(ast, earth):
    # the deflection records the plume state it integrates: the condensed
    # layer grows from clean optics and the degradation factor is that of
    # the recorded thickness
    from laserfleet.constants import YEAR
    from laserfleet.deflection import DeflectionScenario, simulate_deflection
    from laserfleet.formation import NaturalOrbit

    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    out = simulate_deflection(DeflectionScenario(
        ast=ast, design=design, earth=earth, m_sc=1500.0, t_start=0.0,
        t_moid=2 * YEAR, record_every=20,
        formation=NaturalOrbit(dk=np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]))))
    assert out.contamination[0] == 0.0 and out.tau[0] == 1.0
    assert out.contamination[-1] > 0.0
    assert np.all(np.diff(out.contamination) >= 0.0)
    for h, tau in zip(out.contamination, out.tau):
        assert math.isclose(tau, degradation_factor(float(h)), rel_tol=1e-15)
        assert 0.0 < tau <= 1.0
    with pytest.raises(ValueError):
        degradation_factor(-1.0)


# ---------------------------------------------------------------------------
# One spot for every consumer: the deflection's contamination growth
# ---------------------------------------------------------------------------

FLOW = 2e-3  # kg/s per spacecraft, whatever the power


@pytest.fixture(scope="module")
def growth_cases(ast, earth):
    """Deflection constants, and states with spacecraft positions around the body."""
    from laserfleet.constants import YEAR
    from laserfleet.deflection import DeflectionScenario, MdotTable, _prepare

    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    run = _prepare(DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=1500.0,
                                      t_start=0.0, t_moid=YEAR),
                   MdotTable(powers=(0.0, 1e9), flows=(FLOW, FLOW)))
    rng = np.random.default_rng(11)
    n = 600
    t = rng.uniform(0.0, 4.0 * TWO_PI / ast.spin_rate, n)
    states = np.tile(run.state0(), (n, 1))
    states[:, 5] = rng.uniform(0.0, TWO_PI, n)  # mean anomaly: the velocity elevation
    pos = rng.normal(size=(n, 3)) * rng.uniform(150.0, 1500.0, (n, 1))
    keep = np.sum((pos / np.array(ast.semi_axes)) ** 2, axis=1) > 1.0
    return design, run.consts, t[keep], states[keep], pos[keep]


def _growth_from_plume(ast, design, n_sc, t, state, pos):
    """dh and the spot at ``pos`` from the public plume relations: floats for
    one sample, columns and rows for a batch."""
    from laserfleet.orbits import (eccentric_to_true, flight_path_angle, solve_kepler,
                                   solve_kepler_array)

    e, m_anom = state[1], state[5] % TWO_PI
    kepler = solve_kepler if isinstance(e, float) else solve_kepler_array
    theta_va = flight_path_angle(e, eccentric_to_true(kepler(m_anom, e), e))
    geom = spot_to_spacecraft(pos, ast, t, theta_va)
    v_bar = exhaust_velocity(ast)
    rho = plume_density(batch.xp(geom.distance), geom.distance, geom.phi, n_sc * FLOW, v_bar,
                        design.spot_area, design.spot_diameter)
    x, y, _ = pos.T
    seen = np.logical_not(line_of_sight_occluded(*geom.spot, x, y, ast.semi_axes))
    dx = geom.offset[0]
    grows = seen & (dx > 0.0)  # the flow reaches the Sun-facing optics only from +x
    return np.where(grows, condensation_growth(rho, v_bar, dx, geom.distance), 0.0), geom


def _growth_from_rates(monkeypatch, consts, m, t, state, pos):
    """dh from the deflection's rates with the spacecraft held at ``pos``,
    and the spot point that rates computed."""
    from laserfleet import deflection
    from laserfleet.orbits import solve_kepler, solve_kepler_array

    spots = []

    def recorded(*args):
        spots.append(spot_point(*args))
        return spots[-1]

    monkeypatch.setattr(deflection, "spot_point", recorded)
    if m is batch.FLOAT:
        rates = deflection._rates(consts, lambda c, s, r, nu: tuple(pos), lambda p: FLOW,
                                  solve_kepler, m)
    else:
        rates = deflection._rates(consts, lambda c, s, r, nu: tuple(pos.T),
                                  lambda p: np.full(p.shape, FLOW), solve_kepler_array, m)
    dy, _ = rates(t, list(state))
    return dy[7], spots


def _check_growth(dh, want):
    dh, want = np.atleast_1d(dh), np.atleast_1d(want)
    zero = want == 0.0
    assert np.all(dh[zero] == 0.0)
    np.testing.assert_allclose(dh[~zero], want[~zero], rtol=1e-12, atol=0.0)


def test_deflection_growth_is_the_plume_relations(ast, growth_cases, monkeypatch):
    design, consts, t, states, pos = growth_cases
    n_sc = consts.n_sc
    cases = {"exposed": 0, "occluded": 0, "averted": 0, "outside cone": 0}

    # one sample at a time, on floats
    for ti, yi, pi in zip(t.tolist(), states.tolist(), pos):
        want, geom = _growth_from_plume(ast, design, n_sc, ti, yi, pi)
        dh, spots = _growth_from_rates(monkeypatch, consts, batch.FLOAT, ti, yi, pi.tolist())
        _check_growth(dh, want)
        assert spots[0] == geom.spot
        if geom.offset[0] <= 0.0:
            cases["averted"] += 1
        elif line_of_sight_occluded(*geom.spot, *pi[:2], ast.semi_axes):
            cases["occluded"] += 1
        elif geom.phi >= MAX_EXPANSION_ANGLE:
            cases["outside cone"] += 1
        else:
            assert want > 0.0
            cases["exposed"] += 1
    assert min(cases.values()) >= 10, cases

    # the same states as one batch of columns
    cols = [np.ascontiguousarray(c) for c in states.T]
    want, geom = _growth_from_plume(ast, design, n_sc, t, cols, pos)
    k = type(consts)._make(np.full(len(t), v) for v in consts)
    dh, spots = _growth_from_rates(monkeypatch, k, batch.ARRAY, t, cols, pos)
    _check_growth(dh, want)
    assert all(np.array_equal(a, b) for a, b in zip(spots[0], geom.spot))
