import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from laserfleet import batch, formation
from laserfleet.constants import DAY, MU_SUN, TWO_PI, YEAR
from laserfleet.formation import (
    ShapedControlContext,
    ShapedOrbit,
    _minimize_bounded,
    body_turn,
    design_model_accel,
    gravity_coefficients,
    gravity_gradient,
    lyapunov_control,
    mirror_natural_orbit,
    natural_family_label,
    natural_orbit_objectives,
    proximity_derivatives,
    shaped_feasibility,
    shaped_objectives,
    shaped_orbit_control,
    shaped_orbit_eval,
    simulate_tracking,
    sun_distance,
    sweep_extremum,
    sweep_grid,
)
from laserfleet.orbits import (
    NonFiniteStateError,
    flight_path_angle,
    linear_proximal_position,
    mean_to_true,
    rk4_step,
)
from laserfleet.sizing import mass_budget


# ---------------------------------------------------------------------------
# Gravity field of the spinning ellipsoid
# ---------------------------------------------------------------------------

def harmonic_potential(pos: np.ndarray, ast, t: float) -> float:
    """Second-degree/second-order correction potential, m^2/s^2, the oracle
    whose finite differences check ``gravity_gradient``. The longitude
    rotates with the body: lambda = atan2(y, x) + w_A t."""
    x, y, z = float(pos[0]), float(pos[1]), float(pos[2])
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    c20, c22 = gravity_coefficients(ast.semi_axes)
    cos2_gamma = (x * x + y * y) / r2
    lam = math.atan2(y, x) + ast.spin_rate * t
    return ast.mu / r**3 * (c20 * (1.0 - 1.5 * cos2_gamma)
                            + 3.0 * c22 * cos2_gamma * math.cos(2.0 * lam))


def gradient_at(pos, ast, t):
    """``gravity_gradient`` at time ``t``, turned as the dynamics turn it, as a
    3-vector."""
    x, y, z = (float(c) for c in pos)
    return np.array(gravity_gradient(batch.FLOAT, x, y, z, ast, *body_turn(batch.FLOAT, ast, t)))


def test_gravity_sphere_has_no_harmonics(ast):
    sphere = replace(ast, semi_axes=(120.0, 120.0, 120.0))
    c20, c22 = gravity_coefficients(sphere.semi_axes)
    assert c20 == 0.0 and c22 == 0.0
    g = gradient_at(np.array([500.0, 300.0, 200.0]), sphere, 1000.0)
    assert np.all(g == 0.0)


def test_gravity_coefficients_values(ast):
    c20, c22 = gravity_coefficients(ast.semi_axes)
    assert math.isclose(c22, (191.0**2 - 135.0**2) / 20.0, rel_tol=1e-15)
    assert math.isclose(c22, 912.8, rel_tol=1e-12)
    assert math.isclose(c20, -(2 * 95.0**2 - 191.0**2 - 135.0**2) / 10.0,
                        rel_tol=1e-15)


def test_gravity_gradient_vs_finite_differences(ast, rng):
    t = 5000.0
    h = 1e-3
    for _ in range(10):
        pos = rng.normal(size=3)
        pos = pos / np.linalg.norm(pos) * (400.0 + 2000.0 * rng.random())
        g = gradient_at(pos, ast, t)
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            fd = (harmonic_potential(pos + dp, ast, t)
                  - harmonic_potential(pos - dp, ast, t)) / (2 * h)
            assert abs(g[k] - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_gravity_gradient_interior_rejected(ast):
    with pytest.raises(ValueError):
        gradient_at(np.array([100.0, 0.0, 0.0]), ast, 0.0)


def test_gravity_field_curl_free(ast, rng):
    """Loop integral of the gradient around random closed paths ~ 0."""
    t = 3600.0
    for _ in range(5):
        center = rng.normal(size=3)
        center = center / np.linalg.norm(center) * 800.0
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = np.cross(axis, [1.0, 0.0, 0.0])
        u /= np.linalg.norm(u)
        v = np.cross(axis, u)
        radius = 150.0
        n = 2000
        phis = np.linspace(0.0, TWO_PI, n, endpoint=False)
        total = 0.0
        scale = 0.0
        for phi in phis:
            point = center + radius * (math.cos(phi) * u + math.sin(phi) * v)
            tangent = radius * (-math.sin(phi) * u + math.cos(phi) * v)
            g = gradient_at(point, ast, t)
            total += float(g @ tangent) * (TWO_PI / n)
            scale += float(np.linalg.norm(g)) * radius * (TWO_PI / n)
        assert abs(total) < 1e-6 * scale


# ---------------------------------------------------------------------------
# Proximity dynamics
# ---------------------------------------------------------------------------

# the tracking state: [x, y, z, vx, vy, vz, r_A, r_A_dot, nu, nu_dot]
ZERO = [0.0, 0.0, 0.0]


def rates_at(state, ast, t=0.0):
    """``proximity_derivatives`` of ``state`` at time ``t`` with no surface
    force and no control, given the state's own sun distance."""
    return proximity_derivatives(state, ZERO, ZERO, ast, 1000.0, t,
                                 sun_distance(state[6], *state[0:3]))


def test_circular_asteroid_is_stationary(ast):
    r = 1.4e11
    state = [0.0, 2000.0, 0.0, *ZERO, r, 0.0, 1.0, math.sqrt(MU_SUN / r**3)]
    rates = rates_at(state, ast)
    assert rates[6] == 0.0                 # r_a_dot
    assert abs(rates[7]) < 1e-12           # r_a_ddot
    assert rates[9] == 0.0                 # nu_ddot


def test_z_equation_decouples(ast):
    """With solar terms only, the out-of-plane row is a clean restoring term."""
    state = [0.0, 0.0, 1000.0, *ZERO, 1.4e11, 0.0, 0.5, 2e-7]
    tiny_mu = replace(ast, mu=1e-30)
    rates = rates_at(state, tiny_mu)
    r_sc = math.sqrt(1.4e11**2 + 1000.0**2)
    assert math.isclose(rates[5], -MU_SUN * 1000.0 / r_sc**3, rel_tol=1e-9)
    assert rates[3] != 0.0  # the in-plane rows keep their frame terms


def _integrate_proximity(ast, y0, duration, n_steps):
    def rhs(t, y):
        return rates_at(y, ast, t), None

    y = y0.tolist()
    dt = duration / n_steps
    t = 0.0
    for _ in range(n_steps):
        y = rk4_step(rhs, t, y, dt)[0]
        t += dt
    return np.array(y)


def test_coasting_particle_follows_linear_model(ast):
    """A free particle started on the periodic relative orbit stays within
    O(|dk|^2 * a) of the linear prediction over one period."""
    far = replace(ast, mu=1e-30)  # isolate the orbital mechanics
    k = far.elements0
    dk = np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9])
    nu0 = mean_to_true(k.mean_anomaly(), k.e)

    pos0 = linear_proximal_position(k, dk, nu0)
    d_nu = 1e-6
    p = k.semilatus_rectum()
    r0 = p / (1.0 + k.e * math.cos(nu0))
    nu_dot0 = math.sqrt(MU_SUN * p) / r0**2
    vel0 = (linear_proximal_position(k, dk, nu0 + d_nu)
            - linear_proximal_position(k, dk, nu0 - d_nu)) / (2 * d_nu) * nu_dot0

    y0 = np.concatenate([pos0, vel0,
                         [r0, math.sqrt(MU_SUN / p) * k.e * math.sin(nu0),
                          nu0, nu_dot0]])
    period = k.period(MU_SUN)
    y = _integrate_proximity(far, y0, period, 8000)

    predicted = linear_proximal_position(k, dk, float(y[8]))
    err = float(np.linalg.norm(y[0:3] - predicted))
    scale = float(np.linalg.norm(pos0))
    # first-order model: residual bounded well below the orbit size
    assert err < 0.02 * scale


# ---------------------------------------------------------------------------
# Lyapunov control
# ---------------------------------------------------------------------------

def test_control_equilibrium(ast):
    tiny = replace(ast, mu=1e-30)
    ref = [0.0, 1000.0, 0.0]
    state = [*ref, *ZERO, 1.4e11, 0.0, 0.0, 2e-7]
    u = lyapunov_control(state, ref, design_model_accel(*ref, ZERO, ZERO, tiny, 1000.0))
    assert float(np.linalg.norm(u)) < 1e-25


def test_control_elastic_term(ast):
    tiny = replace(ast, mu=1e-30)
    ref = [0.0, 1000.0, 0.0]
    pos = [100.0, 1000.0, 0.0]
    state = [*pos, *ZERO, 1.4e11, 0.0, 0.0, 2e-7]
    u = lyapunov_control(state, ref, design_model_accel(*pos, ZERO, ZERO, tiny, 1000.0))
    assert math.isclose(float(np.linalg.norm(u)), 1e-6 * 100.0, rel_tol=1e-9)
    assert u[0] < 0.0  # pulls back toward the reference


SHIPPED_DK = [-1e-9, 5e-9, 0.0, 0.0, 8e-9]


@pytest.mark.parametrize("changes, named", [
    ({"step": 0.0}, "step"),
    ({"step": -400.0}, "step"),
    ({"ref_hold_steps": 0}, "ref_hold_steps"),
    ({"ref_hold_steps": 1.5}, "ref_hold_steps"),
    ({"design": None}, "design"),
    ({"plant": "exact"}, "plant"),
    # the orbit through the centre starts inside the body, with or without flow
    ({"dk": [0.0] * 5}, "dk"),
    ({"dk": [0.0] * 5, "mdot": 0.3}, "dk"),
])
def test_tracking_rejects_bad_arguments(ast, design_20m, changes, named):
    kwargs = {"dk": SHIPPED_DK, "ast": ast, "design": design_20m, "m_sc": 4000.0,
              "duration": 2 * DAY, "step": 400.0} | changes
    with pytest.raises(ValueError, match=named):
        simulate_tracking(**kwargs)


def test_tracking_stops_at_a_non_finite_state(ast, design_20m, monkeypatch):
    """A harmonic gravity that turns NaN from step 5 on stops the run after
    that step, naming the step, its time and the first component hit."""
    gradient = formation.gravity_gradient
    calls = []

    def nan_from_step_5(*args):
        calls.append(args)
        # the full plant evaluates the gravity once in each of a step's four stages
        return (math.nan,) * 3 if len(calls) > 4 * 4 else gradient(*args)

    monkeypatch.setattr(formation, "gravity_gradient", nan_from_step_5)
    with pytest.raises(NonFiniteStateError,
                       match=r"tracking state x is nan after step 5 at t = 2000\.0 s"):
        simulate_tracking(SHIPPED_DK, ast, design_20m, 4000.0, duration=2 * DAY, step=400.0)
    assert len(calls) == 5 * 4


def test_model_plant_descent(ast):
    """dV/dt = -c_d |dv|^2 exactly under the design model: V never rises."""
    result = simulate_tracking(np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]), ast,
                               None, 4000.0, duration=30 * DAY, step=400.0,
                               plant="model", ref_hold_steps=8)
    assert result.hold_decrease_ok


# ---------------------------------------------------------------------------
# Natural-orbit objectives
# ---------------------------------------------------------------------------

def test_objectives_zero_deltas(ast):
    res = natural_orbit_objectives(np.zeros(5), ast.elements0, 1000.0)
    assert res["J1"] == 0.0
    assert res["C"] < 0.0  # constraint violated at the origin


def test_objectives_pure_dargp(ast):
    """A periapsis-argument shift moves the companion along-track only."""
    dk = np.array([0.0, 0.0, 0.0, 1e-7, 0.0])
    nus = np.linspace(0.0, TWO_PI, 360, endpoint=False)
    pos = linear_proximal_position(ast.elements0, dk, nus)
    assert np.all(pos[:, 0] == 0.0) and np.all(pos[:, 2] == 0.0)
    res = natural_orbit_objectives(dk, ast.elements0, 1000.0)
    assert abs(res["J2"]) < 1e-12


def _dense_sweep_oracle(ast, dk, y_lim, n=10000):
    nus = np.linspace(0.0, TWO_PI, n, endpoint=False)
    pos = linear_proximal_position(ast.elements0, dk, nus)
    j1 = float(np.max(np.linalg.norm(pos, axis=1)))
    gammas = np.array([flight_path_angle(ast.elements0.e, float(v)) for v in nus])
    x_t = pos[:, 0] * np.cos(gammas) - pos[:, 1] * np.sin(gammas)
    y_t = pos[:, 0] * np.sin(gammas) + pos[:, 1] * np.cos(gammas)
    ang = np.arctan(np.sqrt(x_t**2 + pos[:, 2] ** 2) / y_t)
    j2 = -float(np.min(ang))
    c = float(np.min(np.abs(pos[:, 1]))) - y_lim
    return j1, j2, c


def test_objectives_vs_dense_sweep(ast):
    # representative interior point: the exact bound midpoint degenerates
    # (di = draan = 0 puts the orbit in-plane and the minimum plume angle
    # touches zero, where any relative comparison is ill-posed)
    dk = np.array([-0.005, 0.05, -0.45, -0.75, 0.2]) * 1e-7
    res = natural_orbit_objectives(dk, ast.elements0, 1000.0)
    j1, j2, c = _dense_sweep_oracle(ast, dk, 1000.0)
    assert abs(res["J1"] - j1) <= 1e-3 * abs(j1)
    assert abs(res["J2"] - j2) <= 1e-3 * abs(j2)
    assert abs(res["C"] - c) <= 1e-3 * max(abs(c), 1.0)


def test_objectives_at_bound_midpoint_degenerate(ast):
    # at the literal Table-bound midpoint the motion is planar: the refined
    # minimum plume angle collapses to ~0, below the dense-sweep resolution
    dk = 0.5 * (np.array([-0.01, -0.1, -0.9, -1.5, -0.1])
                + np.array([0.0, 0.1, 0.9, 1.5, 0.5])) * 1e-7
    res = natural_orbit_objectives(dk, ast.elements0, 1000.0)
    j1, j2, c = _dense_sweep_oracle(ast, dk, 1000.0)
    assert abs(res["J1"] - j1) <= 1e-3 * abs(j1)
    assert abs(res["C"] - c) <= 1e-3 * max(abs(c), 1.0)
    assert abs(res["J2"]) <= abs(j2)  # refinement can only deepen the minimum
    assert abs(res["J2"]) < 1e-5


def test_family_mirror_symmetry(ast, rng):
    """Negating (di, draan) with the compensated dargp flips z pointwise and
    leaves x, y untouched."""
    k = ast.elements0
    for _ in range(20):
        dk = (np.array([-0.01, -0.1, -0.9, -1.5, -0.1])
              + rng.random(5) * np.array([0.01, 0.2, 1.8, 3.0, 0.6])) * 1e-7
        mirrored = mirror_natural_orbit(dk, k.i)
        nus = rng.random(50) * TWO_PI
        p1 = linear_proximal_position(k, dk, nus)
        p2 = linear_proximal_position(k, mirrored, nus)
        assert np.allclose(p1[:, 0], p2[:, 0], rtol=1e-12, atol=1e-12)
        assert np.allclose(p1[:, 1], p2[:, 1], rtol=1e-9, atol=1e-9)
        nz = np.abs(p1[:, 2]) > 0
        assert np.allclose(p2[:, 2][nz], -p1[:, 2][nz], rtol=1e-9)


def test_family_label(ast):
    dk = np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9])
    lab = natural_family_label(dk, ast.elements0, 760.0)
    mlab = natural_family_label(mirror_natural_orbit(dk, ast.elements0.i),
                                ast.elements0, 760.0)
    assert {lab, mlab} == {"+z", "-z"}


# ---------------------------------------------------------------------------
# Shaped orbits
# ---------------------------------------------------------------------------

def test_shaped_zero_coefficients_is_origin():
    s = ShapedOrbit(np.zeros(8))
    pos, vel, acc = shaped_orbit_eval(s, np.linspace(0, TWO_PI, 32))
    assert np.all(pos == 0.0) and np.all(vel == 0.0) and np.all(acc == 0.0)


def test_shaped_constraint_analytic_matches_sweep(rng):
    for _ in range(30):
        coeffs = rng.uniform(-1000.0, 1000.0, size=8)
        coeffs[2] = rng.uniform(-1000.0, 0.0)
        coeffs[5] = rng.uniform(-2000.0, 0.0)
        s = ShapedOrbit(coeffs)
        c1, c2 = shaped_feasibility(s)
        nus = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        pos, _, _ = shaped_orbit_eval(s, nus)
        assert c1 >= float(np.max(pos[:, 0])) - 1e-6
        assert c1 <= float(np.max(pos[:, 0])) + abs(c1) * 1e-5 + 1e-3
        assert c2 >= float(np.max(pos[:, 1])) - 1e-6


def test_shaped_z_has_zero_mean():
    s = ShapedOrbit(np.array([0.0, 0.0, -500.0, 100.0, -50.0, -300.0, 400.0, 250.0]))
    nus = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    pos, _, _ = shaped_orbit_eval(s, nus)
    assert abs(float(np.mean(pos[:, 2]))) < 1e-9


def test_shaped_force_free_static_needs_no_control():
    # a shape fixed in the Hill frame has no acceleration of its own: what
    # holds it is the force and frame terms alone
    s = ShapedOrbit(np.array([0.0, 0.0, -800.0, 0.0, 0.0, -400.0, 0.0, 0.0]))
    _, vel, acc = shaped_orbit_eval(s, 1.3, nu_dot=2e-7, nu_ddot=-1e-14)
    assert float(np.linalg.norm(vel)) < 1e-18
    assert float(np.linalg.norm(acc)) < 1e-18


def test_shaped_delta_v_vs_fine_grid(ast, design_20m):
    m_sc = mass_budget(design_20m, ast.elements0.a * (1 - ast.elements0.e)).m_total
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design_20m, m_sc=m_sc)
    s = ShapedOrbit(np.array([100.0, -200.0, -900.0, 150.0, 80.0, -700.0,
                              120.0, -60.0]))
    coarse = shaped_orbit_control(s, ctx, YEAR, n_samples=512)
    fine = shaped_orbit_control(s, ctx, YEAR, n_samples=5120)
    assert abs(coarse.delta_v - fine.delta_v) / fine.delta_v < 5e-3


def test_shaped_objectives_scale_sweep(ast, design_20m):
    """Uniform upscaling grows the excursion while the control ceiling falls.

    Holding a fixed shape means cancelling the asteroid point gravity, which
    scales as 1/dr^2 and dominates every other modeled acceleration inside
    the design box, so max|u| decreases toward the radiation-pressure floor
    as the orbit grows (see DECISIONS.md: the qualitative
    increasing-with-distance claim does not survive the model's own
    gravity-cancellation term).
    """
    m_sc = mass_budget(design_20m, ast.elements0.a * (1 - ast.elements0.e)).m_total
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design_20m, m_sc=m_sc)
    base = np.array([50.0, -80.0, -400.0, 60.0, 40.0, -300.0, 70.0, -30.0])
    j2s, j3s = [], []
    for scale in (0.5, 1.0, 1.5, 2.0):
        res = shaped_objectives(ShapedOrbit(base * scale), ctx, YEAR, 256)
        j2s.append(res["J2"])
        j3s.append(res["J3"])
    assert all(b > a for a, b in zip(j2s, j2s[1:]))
    assert all(b < a for a, b in zip(j3s, j3s[1:]))
    # order check: the ceiling is gravity cancellation at the closest point,
    # bounded below by the value at the farthest point
    grav_far = ast.mu / np.array(j2s) ** 2
    assert np.all(np.array(j3s) >= 0.9 * grav_far)
    assert np.all(np.array(j3s) <= 10.0 * grav_far)


def test_cached_grids_are_keyed_on_what_they_read(ast, design_20m):
    """The cached asteroid side of a shaped control grid, and the cached
    natural-orbit factors, give for every key what a cold cache gives.

    Each variant changes one thing its grid reads: the spin rate, the
    semi-axes, the orbit, the grid's length and sample count; for
    the natural factors the orbit and the sweep size. Scored one after the
    other in one process, a key that left the thing out would hand the
    variant the grid of the case before it.
    """
    m_sc = mass_budget(design_20m, ast.elements0.a * (1 - ast.elements0.e)).m_total
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design_20m, m_sc=m_sc,
                               mdot=0.3)
    k_b = replace(ast.elements0, a=1.1 * ast.elements0.a, e=0.25, anomaly=2.0)
    asteroids = [ast, replace(ast, spin_rate=2.0 * ast.spin_rate),
                 replace(ast, semi_axes=(200.0, 120.0, 95.0))]
    cases = [(replace(ctx, ast=a), YEAR, 256) for a in asteroids]
    cases += [(replace(ctx, k_a=k_b), YEAR, 256), (ctx, YEAR, 320), (ctx, 0.5 * YEAR, 256)]
    s = ShapedOrbit(np.array([300.0, 200.0, 400.0, 200.0, 100.0, 1500.0, 100.0, 50.0]))

    warm = [shaped_orbit_control(s, *case).accel for case in cases]
    for case, accel in zip(cases, warm):
        formation._control_grid.cache_clear()
        assert np.array_equal(shaped_orbit_control(s, *case).accel, accel)
    # every variant moves the control, so a grid shared by mistake shows
    assert not any(np.array_equal(warm[0], a) for a in warm[1:])

    dk = np.array([-1e-9, 5e-9, 2e-9, -3e-9, 8e-9])
    natural = [(k, n) for k in (ast.elements0, k_b) for n in (720, 500)]
    warm = [natural_orbit_objectives(dk, k, 500.0, n, refine=False) for k, n in natural]
    for (k, n), objectives in zip(natural, warm):
        formation._sweep_basis.cache_clear()
        assert natural_orbit_objectives(dk, k, 500.0, n, refine=False) == objectives
    assert len({tuple(o.values()) for o in warm}) == len(warm)


def test_shaped_orbit_bounds_violations():
    s = ShapedOrbit(np.array([0.0, 0.0, 200.0, 0.0, 0.0, 100.0, 0.0, 0.0]))
    c1, c2 = shaped_feasibility(s)
    assert c1 > 0.0 and c2 > 0.0  # above/ahead: infeasible
    origin = ShapedOrbit(np.zeros(8))
    c1o, c2o = shaped_feasibility(origin)
    assert c1o >= 0.0 and c2o >= 0.0


# ---------------------------------------------------------------------------
# Closed-loop tracking (short smoke; the one-year run is acceptance)
# ---------------------------------------------------------------------------

def test_tracking_short_window(ast, design_20m):
    m_sc = mass_budget(design_20m, ast.elements0.a * (1 - ast.elements0.e)).m_total
    result = simulate_tracking(np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]), ast,
                               design_20m, m_sc, duration=20 * DAY, step=300.0,
                               plant="full")
    assert result.max_tracking_error < 0.01 * result.orbit_scale
    assert result.control.delta_v > 0.0


def test_sweep_extremum_refines():
    f = lambda nu: np.sin(np.asarray(nu) + 0.123)
    nu_max, val = sweep_extremum(f, f(sweep_grid(90)), refine=True, maximize=True)
    assert abs(val - 1.0) < 1e-9
    assert abs(math.remainder(nu_max - (math.pi / 2 - 0.123), TWO_PI)) < 1e-4


@st.composite
def bounded_problems(draw):
    """(objective, lo, hi): a quadratic, |x - c|, a sine or a constant on a
    random interval, a zero-width one, or one with the minimum on an end."""
    span = st.floats(-1e3, 1e3)
    kind = draw(st.sampled_from(["quadratic", "abs", "sine", "constant"]))
    shape = draw(st.sampled_from(["random", "zero-width", "min-at-lo", "min-at-hi"]))
    k, c, lo = draw(st.floats(0.01, 100.0)), draw(span), draw(span)
    hi = lo if shape == "zero-width" else lo + draw(st.floats(1e-9, 100.0))
    if shape == "min-at-lo" and kind in ("quadratic", "abs"):
        c = lo - draw(st.floats(0.0, 10.0))
    elif shape == "min-at-hi" and kind in ("quadratic", "abs"):
        c = hi + draw(st.floats(0.0, 10.0))
    elif shape != "random" and kind == "sine" and hi > lo:
        # one monotone half-period of the sine across [lo, hi]
        k = math.pi / (hi - lo)
        c = (-math.pi / 2 if shape == "min-at-lo" else math.pi / 2) - k * lo
    f = {"quadratic": lambda x: k * (x - c) * (x - c),
         "abs": lambda x: abs(x - c),
         "sine": lambda x: math.sin(k * x + c),
         "constant": lambda x: c}[kind]
    return f, lo, hi


@pytest.mark.filterwarnings("error")
@settings(max_examples=1500, deadline=None)
@given(problem=bounded_problems(), xatol=st.sampled_from([1e-10, 1.0]))
def test_bounded_search_is_scipys_to_the_bit(problem, xatol):
    """The float port returns scipy's bounded-Brent x and fun, by repr."""
    f, lo, hi = problem
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    x, fun = _minimize_bounded(f, lo, hi, xatol)
    assert (repr(x), repr(fun)) == (repr(float(res.x)), repr(float(res.fun)))
