"""One sample against a batch: the relations that take either.

Every relation the shaped-orbit control inversion runs over its time grid
must give, row by row, what the same relation gives one sample at a time,
and must keep its branches (flat steering, expansion cone, occlusion,
interior gravity) and its input checks for every sample. Warnings are
errors here, so a masked branch cannot hide a NaN.
"""

import math

import numpy as np
import pytest

from laserfleet import batch, orbits
from laserfleet.constants import MAX_EXPANSION_ANGLE, TWO_PI, YEAR
from laserfleet.formation import (
    ShapedControlContext,
    ShapedOrbit,
    _plume_axis_angle,
    body_turn,
    gravity_gradient,
    shaped_control_accel,
    sweep_grid,
)
from laserfleet.orbits import (
    flight_path_angle,
    mean_to_true,
    solve_kepler,
    solve_kepler_array,
)
from laserfleet.plume import (
    line_length,
    line_of_sight_occluded,
    plume_density,
    plume_force,
    spot_position,
    spot_to_spacecraft,
    srp_force,
    steering_geometry,
    view_factor_angle,
)
from laserfleet.sizing import mass_budget
from laserfleet.sublimation import exhaust_velocity

# numpy's arctan2, arccos and power may differ from libm by an ulp
RTOL = 1e-12


def _rows(fn, *columns):
    """fn applied one sample at a time, stacked."""
    return np.array([fn(*args) for args in zip(*columns)])


def _floats(fn, *columns):
    """fn applied to the floats of one sample at a time, on ``batch.FLOAT``:
    one column per output, to compare with fn's output on the columns."""
    return _rows(lambda *args: fn(batch.FLOAT, *args), *(c.tolist() for c in columns)).T


# ---------------------------------------------------------------------------
# Kepler solve
# ---------------------------------------------------------------------------

def _wrapped_gap(a, b):
    return np.abs(np.remainder(a - b + math.pi, TWO_PI) - math.pi)


def _kepler_samples(rng):
    pi = math.pi
    special = [0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9, pi, -pi,
               math.nextafter(pi, 0.0), math.nextafter(pi, 4.0),
               math.nextafter(-pi, 0.0), math.nextafter(-pi, -4.0),
               TWO_PI, -TWO_PI, 3.0 * pi, -5.0 * pi, 1e3, -57.3, 4.0e6 + 0.1]
    return np.concatenate([special, rng.uniform(-20.0, 20.0, 300)])


@pytest.mark.parametrize("e", [0.0, 0.05, 0.1912, 0.6, 0.9, 0.97])
def test_kepler_array_matches_scalar_elementwise(rng, e):
    m = _kepler_samples(rng)
    got = solve_kepler_array(m, e)
    want = np.array([solve_kepler(float(v), e) for v in m])
    assert got.shape == m.shape
    assert np.all((got >= 0.0) & (got <= TWO_PI))
    assert np.all(_wrapped_gap(got, want) <= 1e-12 / (1.0 - e))


@pytest.mark.parametrize("max_iter", [orbits.KEPLER_MAX_ITER, 1])
def test_kepler_array_per_row_e_is_scalar_bits(rng, monkeypatch, max_iter):
    """One eccentricity per element, as the deflection batch passes them,
    gives the scalar solver's bits element by element, through Newton and
    through the bisection fallback."""
    monkeypatch.setattr(orbits, "KEPLER_MAX_ITER", max_iter)
    m = _kepler_samples(rng)
    e = rng.choice([0.0, 0.05, 0.1912, 0.6, 0.9, 0.97], m.size)
    got = solve_kepler_array(m, e)
    want = [solve_kepler(float(v), float(ev)) for v, ev in zip(m, e)]
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


def test_kepler_array_bisection_fallback(rng, monkeypatch):
    # one Newton step is too few; both solvers fall back to bisection
    monkeypatch.setattr(orbits, "KEPLER_MAX_ITER", 1)
    m = _kepler_samples(rng)
    for e in (0.3, 0.9):
        got = solve_kepler_array(m, e)
        want = np.array([solve_kepler(float(v), e) for v in m])
        assert np.all(_wrapped_gap(got, want) <= 1e-12 / (1.0 - e))
        residual = got - e * np.sin(got) - np.remainder(m, TWO_PI)
        assert np.all(np.abs(np.remainder(residual + math.pi, TWO_PI) - math.pi) < 1e-12)


def test_anomaly_relations_take_arrays(rng):
    m = rng.uniform(0.0, TWO_PI, 200)
    nu = mean_to_true(m, 0.1912)
    np.testing.assert_allclose(nu, _rows(lambda v: mean_to_true(v, 0.1912), m),
                               rtol=RTOL, atol=1e-15)
    np.testing.assert_allclose(flight_path_angle(0.1912, nu),
                               _rows(lambda v: flight_path_angle(0.1912, v), nu),
                               rtol=RTOL, atol=1e-15)


def test_one_sample_norm_is_numpys(rng):
    for _ in range(2000):
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
        assert batch.norm(v) == float(np.linalg.norm(v))
    rows = rng.normal(size=(50, 3))
    np.testing.assert_allclose(line_length(batch.ARRAY, *rows.T), np.linalg.norm(rows, axis=1),
                               rtol=1e-15)


# ---------------------------------------------------------------------------
# Natural-orbit sweep: one sample gives its row's bits
# ---------------------------------------------------------------------------

def test_proximal_position_sample_is_its_row(ast, rng):
    """The sweep refines on one float anomaly and compares it with the grid,
    so a sample must equal its row exactly, not to a tolerance: by repr, for
    the sign of zero, on the sweep grid and off it."""
    lo = np.array([-0.01, -0.1, -0.9, -1.5, -0.1]) * 1e-7
    hi = np.array([0.0, 0.1, 0.9, 1.5, 0.5]) * 1e-7
    nu = np.concatenate([sweep_grid(720), rng.uniform(-1.0, 7.3, 2000),
                         [-0.0, math.pi, TWO_PI, -TWO_PI, 1e-300, 100.0]])
    # no deltas and an out-of-plane tilt alone give signed zeros
    dks = [np.zeros(5), np.array([0.0, 1e-8, 0.0, 0.0, 0.0])]
    dks += [lo + rng.random(5) * (hi - lo) for _ in range(10)]
    for dk in dks:
        rows = orbits.linear_proximal_position(ast.elements0, dk, nu)
        one = _rows(lambda v: orbits.linear_proximal_position(ast.elements0, dk, v),
                    nu.tolist())
        assert [repr(v) for v in rows.ravel().tolist()] == \
            [repr(v) for v in one.ravel().tolist()]


def test_plume_axis_angle_sample_is_its_row(rng):
    pos = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(0.0, 4.0, (20000, 1))
    gamma = rng.uniform(-0.2, 0.2, 20000)
    # on the axis, and off it with y_t = +0 and -0
    pos[:4] = [[0.0, 0.0, 0.0], [0.0, 0.0, 5.0], [-0.0, -0.0, 5.0], [0.0, -0.0, 0.0]]
    gamma[:4] = 0.0
    cos_g, sin_g = np.cos(gamma), np.sin(gamma)
    rows = _plume_axis_angle(*pos.T, cos_g, sin_g)
    one = _rows(_plume_axis_angle, *pos.T.tolist(), cos_g.tolist(), sin_g.tolist())
    assert [repr(v) for v in rows.tolist()] == [repr(v) for v in one.tolist()]
    assert rows[:4].tolist() == [0.0, math.pi / 2, -math.pi / 2, 0.0]


# ---------------------------------------------------------------------------
# Plume geometry and forces
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def samples(ast):
    """Positions outside the body with their times and velocity elevations."""
    rng = np.random.default_rng(7)
    n = 400
    t = rng.uniform(0.0, 2.0e6, n)
    theta_va = rng.uniform(-0.3, 0.3, n)
    pos = rng.normal(size=(n, 3)) * rng.uniform(100.0, 3000.0, (n, 1))
    outside = np.sum((pos / np.array(ast.semi_axes)) ** 2, axis=1) > 1.0
    pos, t, theta_va = pos[outside], t[outside], theta_va[outside]
    # straight behind the spot along -x: the flat-incidence steering branch
    sx, sy = spot_position(batch.ARRAY, ast, t[:5], theta_va[:5])
    pos[:5] = np.stack([sx - 800.0, sy, np.zeros(5)], axis=1)
    return pos, t, theta_va


def test_spot_and_steering_batch(ast, design_20m, samples):
    pos, t, theta_va = samples
    spot = spot_position(batch.ARRAY, ast, t, theta_va)
    np.testing.assert_array_equal(spot, _floats(lambda m, a, b: spot_position(m, ast, a, b),
                                                t, theta_va))

    x, y, z = pos.T
    steering = steering_geometry(batch.ARRAY, x, y, z, *spot)
    one = _floats(steering_geometry, x, y, z, *spot)
    np.testing.assert_allclose(steering, one, rtol=RTOL, atol=1e-15)
    beta, nx, ny, nz = steering
    flat = np.zeros(len(pos), dtype=bool)
    flat[:5] = True
    assert np.all(beta[flat] == math.pi / 2.0)
    assert np.all((nx[flat] == 0.0) & (ny[flat] == 1.0) & (nz[flat] == 0.0))
    assert np.all(beta[~flat] < math.pi / 2.0)
    assert np.all(nx <= 0.0)  # the normal never faces away from the Sun

    r_sc = 1.4e11 + x
    f = srp_force(batch.ARRAY, design_20m, r_sc, *steering)
    np.testing.assert_allclose(f, _floats(lambda m, *a: srp_force(m, design_20m, *a),
                                          r_sc, *steering), rtol=RTOL, atol=1e-20)


def test_plume_chain_batch(ast, design_20m, samples):
    pos, t, theta_va = samples
    x, y, z = pos.T
    geom = spot_to_spacecraft(pos, ast, t, theta_va)
    one = [spot_to_spacecraft(p, ast, a, b) for p, a, b in zip(pos, t, theta_va)]
    np.testing.assert_array_equal(geom.offset, np.array([g.offset for g in one]).T)
    np.testing.assert_allclose(geom.phi, [g.phi for g in one], rtol=RTOL, atol=1e-15)
    np.testing.assert_allclose(geom.distance, [g.distance for g in one], rtol=RTOL)

    occluded = line_of_sight_occluded(*geom.spot, x, y, ast.semi_axes)
    assert occluded.dtype == bool
    assert list(occluded) == [line_of_sight_occluded(*g.spot, *p[:2], ast.semi_axes)
                              for g, p in zip(one, pos)]
    assert occluded.any() and not occluded.all()

    v_bar = exhaust_velocity(ast)
    args = (0.3, v_bar, design_20m.spot_area, design_20m.spot_diameter)
    rho = plume_density(batch.ARRAY, geom.distance, geom.phi, *args)
    np.testing.assert_allclose(rho, [plume_density(batch.FLOAT, g.distance, g.phi, *args)
                                     for g in one], rtol=RTOL)
    outside_cone = geom.phi >= MAX_EXPANSION_ANGLE
    assert outside_cone.any() and np.all(rho[outside_cone] == 0.0)
    assert np.all(rho[~outside_cone] > 0.0)

    dx, dy, dz = geom.offset
    psi = view_factor_angle(batch.ARRAY, dx, geom.distance)
    np.testing.assert_allclose(psi, _floats(view_factor_angle, dx, geom.distance),
                               rtol=RTOL, atol=1e-15)

    direction = [d / geom.distance for d in geom.offset]
    f = plume_force(batch.ARRAY, rho, v_bar, design_20m.collector_area, psi, *direction)
    want = _floats(lambda m, *a: plume_force(m, *a[:1], v_bar, design_20m.collector_area,
                                             *a[1:]), rho, psi, *direction)
    np.testing.assert_allclose(f, want, rtol=1e-11, atol=1e-25)
    averted = np.cos(psi) <= 1e-12
    assert averted.any() and np.all(np.array(f)[:, averted | outside_cone] == 0.0)


def test_gravity_gradient_batch(ast, samples):
    pos, t, _ = samples
    far = np.linalg.norm(pos, axis=1) > max(ast.semi_axes)
    g = gravity_gradient(batch.ARRAY, *pos[far].T, ast, *body_turn(batch.ARRAY, ast, t[far]))
    want = _floats(lambda m, x, y, z, a: gravity_gradient(m, x, y, z, ast,
                                                          *body_turn(m, ast, a)),
                   *pos[far].T, t[far])
    np.testing.assert_allclose(g, want, rtol=RTOL, atol=1e-22)


def test_input_checks_hold_for_any_sample(ast, design_20m, samples):
    pos, t, theta_va = samples
    bad = pos.copy()
    bad[3] = [10.0, 10.0, 10.0]  # inside the body and its bounding sphere
    with pytest.raises(ValueError):
        gravity_gradient(batch.ARRAY, *bad.T, ast, *body_turn(batch.ARRAY, ast, t))
    with pytest.raises(ValueError):
        spot_to_spacecraft(bad, ast, t, theta_va)

    sx, sy = spot_position(batch.ARRAY, ast, t, theta_va)
    x, y, z = pos.T.copy()
    x[7], y[7], z[7] = sx[7], sy[7], 0.0
    with pytest.raises(ValueError):
        steering_geometry(batch.ARRAY, x, y, z, sx, sy)

    geom = spot_to_spacecraft(pos, ast, t, theta_va)
    with pytest.raises(ValueError):
        plume_density(batch.ARRAY, geom.distance, geom.phi, -1e-3, 520.0, 0.03, 0.2)
    rho = np.full(len(pos), 1e-12)
    rho[11] = -1e-12
    with pytest.raises(ValueError):
        plume_force(batch.ARRAY, rho, 520.0, 314.0, np.zeros(len(pos)), *geom.offset)


# ---------------------------------------------------------------------------
# Shaped-orbit control over a time grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs", [
    [300.0, 200.0, 400.0, 200.0, 100.0, 1500.0, 100.0, 50.0],      # plume reaches the optics
    [300.0, 0.0, -150.0, 0.0, 300.0, -100.0, 0.0, 150.0],          # dips inside the body
])
def test_shaped_control_grid_matches_samples(ast, design_20m, coeffs):
    r_p = ast.elements0.a * (1 - ast.elements0.e)
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design_20m,
                               m_sc=mass_budget(design_20m, r_p).m_total, mdot=0.3)
    s = ShapedOrbit(np.array(coeffs))
    times = np.linspace(0.0, YEAR, 128)
    grid = shaped_control_accel(s, times, ctx)
    one = _rows(lambda t: shaped_control_accel(s, float(t), ctx), times)
    assert grid.shape == (128, 3)
    # the frame terms cancel to 1e-9 of their size, which lifts an ulp of
    # them to about 1e-18 m/s^2 in the result
    scale = np.linalg.norm(one, axis=1, keepdims=True)
    assert np.all(np.abs(grid - one) <= 1e-9 * scale + 1e-17)
