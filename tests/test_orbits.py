import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from laserfleet.constants import AU, DAY, MU_SUN, TWO_PI, YEAR
from laserfleet.orbits import (
    BodyEphemeris,
    OrbitalElements,
    StateVector,
    bplane_miss,
    delta_m_at_moid,
    elements_to_state,
    find_moid,
    gauss_rates,
    impact_parameter,
    integrate_gauss,
    kepler_propagate,
    linear_proximal_position,
    solve_kepler,
    state_to_elements,
    tangential_frame,
)


def random_elements(rng, n):
    for _ in range(n):
        yield OrbitalElements(
            a=AU * (0.3 + 2.5 * rng.random()),
            e=0.85 * rng.random(),
            i=0.02 + 3.0 * rng.random(),
            raan=rng.random() * TWO_PI,
            argp=rng.random() * TWO_PI,
            anomaly=rng.random() * TWO_PI,
            anomaly_kind="true")


# ---------------------------------------------------------------------------
# elements <-> state
# ---------------------------------------------------------------------------

def test_circular_orbit_state():
    k = OrbitalElements(a=AU, e=0.0, i=0.0, raan=0.0, argp=0.0,
                        anomaly=0.0, anomaly_kind="true")
    s = elements_to_state(k, MU_SUN)
    assert np.allclose(s.position, [AU, 0.0, 0.0])
    assert math.isclose(float(np.linalg.norm(s.velocity)),
                        math.sqrt(MU_SUN / AU), rel_tol=1e-12)


def test_apophis_periapsis_radius(ast):
    k = ast.elements0
    kp = OrbitalElements(a=k.a, e=k.e, i=k.i, raan=k.raan, argp=k.argp,
                         anomaly=0.0, anomaly_kind="true")
    r = float(np.linalg.norm(elements_to_state(kp, MU_SUN).position))
    assert math.isclose(r, 0.9224 * (1.0 - 0.1912) * AU, rel_tol=1e-12)


def test_round_trip_1000_random(rng):
    for k in random_elements(rng, 1000):
        k2 = state_to_elements(elements_to_state(k, MU_SUN), MU_SUN)
        assert abs(k2.a - k.a) / k.a < 1e-9
        assert abs(k2.e - k.e) < 1e-9
        assert abs(k2.i - k.i) < 1e-9
        for ang1, ang2 in ((k.raan, k2.raan), (k.argp, k2.argp),
                           (k.true_anomaly(), k2.true_anomaly())):
            d = abs(math.remainder(ang1 - ang2, TWO_PI))
            assert d < 1e-8


def test_state_to_elements_degenerate_cases():
    v = math.sqrt(MU_SUN / AU)
    s = StateVector(position=np.array([AU, 0.0, 0.0]),
                    velocity=np.array([0.0, v, 0.0]))
    k = state_to_elements(s, MU_SUN)
    assert k.e < 1e-12 and k.i < 1e-12

    # radial velocity zero at periapsis -> true anomaly ~ 0
    k0 = OrbitalElements(a=AU, e=0.3, i=0.5, raan=1.0, argp=2.0,
                         anomaly=0.0, anomaly_kind="true")
    s0 = elements_to_state(k0, MU_SUN)
    assert abs(float(s0.position @ s0.velocity)) < 1e-3 * AU
    nu = state_to_elements(s0, MU_SUN).true_anomaly()
    assert min(nu, TWO_PI - nu) < 1e-9


def test_unbound_and_degenerate_rejected():
    v_esc = math.sqrt(2.0 * MU_SUN / AU)
    with pytest.raises(ValueError):
        state_to_elements(StateVector(position=np.array([AU, 0.0, 0.0]),
                                      velocity=np.array([0.0, 1.01 * v_esc, 0.0])),
                          MU_SUN)
    with pytest.raises(ValueError):
        state_to_elements(StateVector(position=np.array([AU, 0.0, 0.0]),
                                      velocity=np.array([1000.0, 0.0, 0.0])),
                          MU_SUN)


def test_element_invariants_enforced():
    with pytest.raises(ValueError):
        OrbitalElements(a=-AU, e=0.1, i=0.1, raan=0, argp=0, anomaly=0)
    with pytest.raises(ValueError):
        OrbitalElements(a=AU, e=1.05, i=0.1, raan=0, argp=0, anomaly=0)
    k = OrbitalElements(a=AU, e=0.1, i=0.1, raan=0, argp=0, anomaly=2.5 * TWO_PI)
    assert 0.0 <= k.anomaly < TWO_PI


def test_energy_momentum_consistency(rng):
    for k in random_elements(rng, 50):
        s = elements_to_state(k, MU_SUN)
        r = float(np.linalg.norm(s.position))
        energy = 0.5 * float(s.velocity @ s.velocity) - MU_SUN / r
        assert math.isclose(energy, -MU_SUN / (2 * k.a), rel_tol=1e-10)
        h = float(np.linalg.norm(np.cross(s.position, s.velocity)))
        assert math.isclose(h, math.sqrt(MU_SUN * k.semilatus_rectum()), rel_tol=1e-10)


# ---------------------------------------------------------------------------
# Kepler propagation
# ---------------------------------------------------------------------------

def test_propagate_full_period_identity(ast):
    k = ast.elements0
    k2 = kepler_propagate(k, k.period(MU_SUN), MU_SUN)
    assert abs(math.remainder(k2.mean_anomaly() - k.mean_anomaly(), TWO_PI)) < 1e-10
    for name in ("a", "e", "i", "raan", "argp"):
        assert getattr(k2, name) == getattr(k, name)


def test_apophis_period_matches_published(ast):
    # consistency of (a, mu) with the published 323.5969-day period
    assert math.isclose(ast.elements0.period(MU_SUN), 323.5969 * DAY, rel_tol=1e-4)


def test_kepler_solver_vs_bisection_oracle():
    e, m = 0.1912, 1.0
    lo, hi = m - e, m + e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(solve_kepler(m, e) - 0.5 * (lo + hi)) < 1e-12


def test_kepler_solver_residual(rng):
    for _ in range(500):
        e = 0.95 * rng.random()
        m = rng.random() * TWO_PI
        E = solve_kepler(m, e)
        assert abs(math.remainder(E - e * math.sin(E) - m, TWO_PI)) < 1e-12


# ---------------------------------------------------------------------------
# Gauss variational equations
# ---------------------------------------------------------------------------

def test_gauss_rates_unperturbed(ast):
    k = ast.elements0
    rates = gauss_rates(k, np.zeros(3), MU_SUN)
    assert np.all(rates[:5] == 0.0)
    assert math.isclose(rates[5], k.mean_motion(MU_SUN), rel_tol=1e-15)


def test_gauss_rates_tangential_is_planar(ast):
    rates = gauss_rates(ast.elements0, np.array([1e-7, 0.0, 0.0]), MU_SUN)
    assert rates[2] == 0.0 and rates[3] == 0.0


def test_gauss_singularity_guards():
    k_circ = OrbitalElements(a=AU, e=0.0, i=0.5, raan=0, argp=0, anomaly=1.0)
    with pytest.raises(ValueError):
        gauss_rates(k_circ, np.zeros(3), MU_SUN)
    k_flat = OrbitalElements(a=AU, e=0.2, i=0.0, raan=0, argp=0, anomaly=1.0)
    with pytest.raises(ValueError):
        gauss_rates(k_flat, np.zeros(3), MU_SUN)


def cartesian_oracle(k0, u_t, t_span):
    """Propagate in Cartesian coordinates with the same tangential thrust."""
    s0 = elements_to_state(k0, MU_SUN)

    def rhs(t, y):
        r, v = y[:3], y[3:]
        state = StateVector(position=r, velocity=v)
        frame = tangential_frame(state)
        a = -MU_SUN * r / np.linalg.norm(r) ** 3 + frame.from_frame([u_t, 0.0, 0.0])
        return np.concatenate([v, a])

    sol = solve_ivp(rhs, (0.0, t_span), np.concatenate([s0.position, s0.velocity]),
                    method="DOP853", rtol=1e-12, atol=1e-3)
    return state_to_elements(StateVector(position=sol.y[:3, -1],
                                         velocity=sol.y[3:, -1]), MU_SUN)


def test_gauss_vs_cartesian_30_days(ast):
    u_t = 1e-7
    span = 30 * DAY
    hist = integrate_gauss(ast.elements0, lambda t, k: np.array([u_t, 0.0, 0.0]),
                           0.0, span, MU_SUN)
    k_gauss = hist.final()
    k_cart = cartesian_oracle(ast.elements0, u_t, span)
    da_g = k_gauss.a - ast.elements0.a
    da_c = k_cart.a - ast.elements0.a
    assert abs(da_g - da_c) / abs(da_c) < 1e-3


def test_unperturbed_gauss_conserves_slow_elements_10yr(ast):
    hist = integrate_gauss(ast.elements0, lambda t, k: np.zeros(3),
                           0.0, 10 * YEAR, MU_SUN, step_fraction=5e-3)
    k0 = ast.elements0.as_array()
    kf = hist.elements[-1]
    assert np.all(np.abs(kf[:5] - k0[:5]) <= 1e-9 * np.maximum(np.abs(k0[:5]), 1.0))


# ---------------------------------------------------------------------------
# Mean-anomaly bookkeeping at the encounter
# ---------------------------------------------------------------------------

def test_delta_m_zero_thrust_cancels(ast):
    hist = integrate_gauss(ast.elements0, lambda t, k: np.zeros(3),
                           0.0, YEAR, MU_SUN)
    n0 = ast.elements0.mean_motion(MU_SUN)
    dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, YEAR, 3 * YEAR, n0, n0)
    assert abs(dm) < 1e-12


def test_delta_m_thrust_end_at_moid(ast):
    hist = integrate_gauss(ast.elements0, lambda t, k: np.array([1e-7, 0, 0]),
                           0.0, YEAR, MU_SUN)
    n0 = ast.elements0.mean_motion(MU_SUN)
    ni = hist.final().mean_motion(MU_SUN)
    dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, YEAR, YEAR, n0, ni)
    assert math.isclose(dm, hist.mean_anomaly_integral() - n0 * YEAR, rel_tol=1e-12)


def test_delta_m_vs_cartesian_oracle(ast):
    """Anomaly offset at the encounter vs direct two-propagation difference."""
    u_t = 1e-7
    span = YEAR
    t_moid = 2.0 * YEAR
    hist = integrate_gauss(ast.elements0, lambda t, k: np.array([u_t, 0, 0]),
                           0.0, span, MU_SUN)
    n0 = ast.elements0.mean_motion(MU_SUN)
    k_end = hist.final()
    ni = k_end.mean_motion(MU_SUN)
    dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, span, t_moid, n0, ni)

    k_cart = cartesian_oracle(ast.elements0, u_t, span)
    m_dev = k_cart.mean_anomaly() + k_cart.mean_motion(MU_SUN) * (t_moid - span)
    m_und = ast.elements0.mean_anomaly() + n0 * t_moid
    dm_oracle = math.remainder(m_dev - m_und, TWO_PI)
    assert abs(dm - dm_oracle) / abs(dm_oracle) < 5e-3


# ---------------------------------------------------------------------------
# Linearised proximal motion
# ---------------------------------------------------------------------------

def test_proximal_zero_deltas(ast):
    assert np.all(linear_proximal_position(ast.elements0, np.zeros(5), 1.3) == 0.0)


def test_proximal_de_only_at_periapsis(ast):
    # direct evaluation of the x equation: x(0) = -a * de
    dk = np.array([-1e-9, 0.0, 0.0, 0.0, 0.0])
    pos = linear_proximal_position(ast.elements0, dk, 0.0)
    assert math.isclose(pos[0], ast.elements0.a * 1e-9, rel_tol=1e-12)
    assert math.isclose(pos[0], 137.99, rel_tol=1e-3)  # 0.9224 AU * 1e-9
    assert pos[2] == 0.0


def test_proximal_di_only_is_out_of_plane(ast):
    dk = np.array([0.0, 1e-8, 0.0, 0.0, 0.0])
    nu = 0.7
    pos = linear_proximal_position(ast.elements0, dk, nu)
    k = ast.elements0
    r = k.semilatus_rectum() / (1.0 + k.e * math.cos(nu))
    assert pos[0] == 0.0
    assert math.isclose(pos[2], r * math.sin(nu + k.argp) * 1e-8, rel_tol=1e-12)


def hill_difference(k, dk, nu):
    """Nonlinear neighbour-orbit offset rotated into the Hill frame."""
    from laserfleet.orbits import hill_frame, true_to_mean

    k_ref = OrbitalElements(a=k.a, e=k.e, i=k.i, raan=k.raan, argp=k.argp,
                            anomaly=nu, anomaly_kind="true")
    m_ref = true_to_mean(nu, k.e)
    k_neighbor = OrbitalElements(
        a=k.a, e=k.e + dk[0], i=k.i + dk[1], raan=k.raan + dk[2],
        argp=k.argp + dk[3], anomaly=(m_ref + dk[4]) % TWO_PI, anomaly_kind="mean")
    s_ref = elements_to_state(k_ref, MU_SUN)
    s_nb = elements_to_state(k_neighbor, MU_SUN)
    return hill_frame(s_ref).to_frame(s_nb.position - s_ref.position)


def test_proximal_first_order_convergence(ast, rng):
    """Linear model error shrinks quadratically as the deltas are halved."""
    k = ast.elements0
    dk_base = np.array([-1e-7, 5e-7, 3e-7, -4e-7, 6e-7])
    for nu in (0.3, 2.0, 4.4):
        errs = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            dk = dk_base * scale
            lin = linear_proximal_position(k, dk, nu)
            non = hill_difference(k, dk, nu)
            errs.append(float(np.linalg.norm(lin - non)))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 < e1 / 3.0  # ~quadratic: ideal factor 4


# ---------------------------------------------------------------------------
# MOID
# ---------------------------------------------------------------------------

def test_moid_concentric_circles():
    k1 = OrbitalElements(a=AU, e=0.0, i=0.0, raan=0, argp=0, anomaly=0)
    k2 = OrbitalElements(a=0.9 * AU, e=0.0, i=0.0, raan=0, argp=0, anomaly=0)
    res = find_moid(k1, k2)
    assert math.isclose(res.distance, 0.1 * AU, rel_tol=1e-6)


def test_moid_identical_orbits(ast):
    res = find_moid(ast.elements0, ast.elements0)
    assert res.distance < 1.0  # metres


def test_moid_apophis_earth_vs_dense_grid(ast, earth):
    res = find_moid(ast.elements0, earth.elements)

    # Exhaustive 0.01-degree grid (chunked to bound memory), then a pure
    # grid zoom around the incumbent cell: 0.01 deg of anomaly is ~26,000 km
    # of arc at 1 AU, so the coarse stage alone cannot resolve kilometres.
    from laserfleet.orbits import _orbit_points
    n = 36000
    nus = np.linspace(0.0, TWO_PI, n, endpoint=False)
    p1 = _orbit_points(ast.elements0, nus)
    p2 = _orbit_points(earth.elements, nus)
    n1 = np.sum(p1**2, axis=1)
    n2 = np.sum(p2**2, axis=1)
    best = np.inf
    best_idx = (0, 0)
    chunk = 1000
    for start in range(0, n, chunk):
        block = (n1[start:start + chunk, None] + n2[None, :]
                 - 2.0 * p1[start:start + chunk] @ p2.T)
        i, j = np.unravel_index(int(np.argmin(block)), block.shape)
        if block[i, j] < best:
            best = float(block[i, j])
            best_idx = (start + int(i), int(j))
    coarse = math.sqrt(max(best, 0.0))
    assert res.distance <= coarse + 1.0  # never worse than any sampled pair

    step = TWO_PI / n
    zoom1 = nus[best_idx[0]] + np.linspace(-2 * step, 2 * step, 600)
    zoom2 = nus[best_idx[1]] + np.linspace(-2 * step, 2 * step, 600)
    z1 = _orbit_points(ast.elements0, zoom1)
    z2 = _orbit_points(earth.elements, zoom2)
    d2 = (np.sum(z1**2, axis=1)[:, None] + np.sum(z2**2, axis=1)[None, :]
          - 2.0 * z1 @ z2.T)
    oracle = math.sqrt(max(float(d2.min()), 0.0))
    assert abs(res.distance - oracle) < 1e4  # within 10 km


# ---------------------------------------------------------------------------
# Impact parameter
# ---------------------------------------------------------------------------

def test_impact_parameter_null(ast, earth):
    b = impact_parameter(ast.elements0, ast.elements0, earth, 4.11e8, MU_SUN)
    assert b < 1.0


def test_bplane_projection_identities():
    v_rel = np.array([3.0e3, 1.0e3, -2.0e3])
    v_hat = v_rel / np.linalg.norm(v_rel)
    pos_e = np.array([AU, 0.0, 0.0])
    v_e = np.array([0.0, 30e3, 0.0])
    earth_state = StateVector(position=pos_e, velocity=v_e)
    s0 = StateVector(position=pos_e + np.array([1e9, 0, 0]),
                     velocity=v_e + v_rel)

    # displacement purely along the relative velocity projects to zero
    s_dev = StateVector(position=s0.position + 5e6 * v_hat, velocity=s0.velocity)
    assert bplane_miss(s_dev, s0, earth_state) < 1e-4

    # orthogonal displacement of 1000 km passes through unchanged
    perp = np.cross(v_hat, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    s_dev2 = StateVector(position=s0.position + 1e6 * perp, velocity=s0.velocity)
    assert math.isclose(bplane_miss(s_dev2, s0, earth_state), 1e6, rel_tol=1e-9)

    # invariance: adding any multiple of v_rel to the displacement
    s_dev3 = StateVector(position=s0.position + 1e6 * perp + 7.7e6 * v_hat,
                         velocity=s0.velocity)
    assert math.isclose(bplane_miss(s_dev3, s0, earth_state), 1e6, rel_tol=1e-9)


def test_impact_parameter_degenerate_velocity(ast):
    earth_same = BodyEphemeris(elements=ast.elements0, mu_central=MU_SUN)
    with pytest.raises(ValueError):
        impact_parameter(ast.elements0, ast.elements0, earth_same, 1e7, MU_SUN)
