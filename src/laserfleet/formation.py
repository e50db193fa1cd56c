"""Formation-orbit design, proximity dynamics and station-keeping control.

Two families of formation orbits around the asteroid:

    * natural orbits: small Keplerian element differences with matched
      semi-major axis, periodic by construction, designed by trading the
      excursion from the asteroid against the angular distance from the
      plume axis;
    * shaped orbits: a first-order Fourier trajectory in the Hill frame,
      held by continuous thrust, constrained to stay below and behind the
      asteroid so the Sun-facing optics never see the plume.

The full proximity dynamics include solar gravity and frame accelerations
of the eccentric asteroid orbit, the asteroid's central plus
second-degree/second-order gravity field, radiation pressure and plume
impingement. A Lyapunov position/velocity feedback law provides
station-keeping on the natural orbits; shaped orbits invert the dynamics
along the prescribed trajectory for their control budget.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import batch
from .constants import G0, MU_SUN, TWO_PI
from .orbits import (
    OrbitalElements,
    flight_path_angle,
    linear_proximal_position,
    mean_to_true,
    rk4_step,
)
from .plume import (
    line_of_sight_occluded,
    plume_density,
    plume_force,
    spot_position,
    spot_to_spacecraft,
    srp_force,
    steering_geometry,
    view_factor_angle,
)
from .sublimation import AsteroidModel, exhaust_velocity

# Search-space bounds for the natural-orbit deltas [de, di, dO, dw, dM]
# (di..dM in radians).
NATURAL_BOUNDS_LOWER = np.array([-0.01, -0.1, -0.9, -1.5, -0.1]) * 1e-7
NATURAL_BOUNDS_UPPER = np.array([0.0, 0.1, 0.9, 1.5, 0.5]) * 1e-7

# Shaped-orbit coefficient bounds [x1, x2, x3, y1, y2, y3, z1, z2], meters.
# The published bounds are dimensionless +-1/+-2 at kilometre scale.
SHAPED_BOUNDS_LOWER = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -2.0, -1.0, -1.0]) * 1e3
SHAPED_BOUNDS_UPPER = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]) * 1e3

# Station-keeping feedback gains: elastic 1e-6 1/s^2, dissipative 1e-5 1/s.
DEFAULT_GAIN_K = 1e-6
DEFAULT_GAIN_CD = 1e-5


@dataclass(frozen=True)
class NaturalOrbit:
    """Periodic relative orbit from element deltas (da = 0 implicit)."""

    dk: np.ndarray  # [de, di, draan, dargp, dM]
    family: str = ""

    def __post_init__(self):
        dk = np.asarray(self.dk, dtype=float)
        if dk.shape != (5,):
            raise ValueError("dk must be [de, di, draan, dargp, dM]")
        object.__setattr__(self, "dk", dk)

    def position(self, k_a: OrbitalElements, nu) -> np.ndarray:
        return linear_proximal_position(k_a, self.dk, nu)


@dataclass(frozen=True)
class ShapedOrbit:
    """First-order Fourier trajectory in the Hill frame (coefficients in m)."""

    coeffs: np.ndarray  # [x1, x2, x3, y1, y2, y3, z1, z2]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("coeffs must be [x1, x2, x3, y1, y2, y3, z1, z2]")
        object.__setattr__(self, "coeffs", c)


@dataclass
class ProximityState:
    """Spacecraft Hill-frame state plus the asteroid polar coordinates."""

    pos: np.ndarray      # m
    vel: np.ndarray      # m/s
    r_a: float           # m, asteroid heliocentric radius
    r_a_dot: float       # m/s
    nu: float            # rad
    nu_dot: float        # rad/s


@dataclass(frozen=True)
class ControlHistory:
    """Control time history and propellant accounting over a window."""

    times: np.ndarray
    accel: np.ndarray        # (N, 3) m/s^2
    thrust: np.ndarray       # N, per spacecraft
    delta_v: float           # m/s
    mass_fraction: float     # propellant fraction of initial mass

    @property
    def max_thrust(self) -> float:
        return float(np.max(self.thrust))

    @property
    def max_accel(self) -> float:
        return float(np.max(np.linalg.norm(self.accel, axis=1)))


def mirror_natural_orbit(dk: np.ndarray, i_a: float) -> np.ndarray:
    """Map a natural orbit to its x-y-plane mirror image.

    Negating (di, draan) flips z pointwise; the argument-of-periapsis delta
    absorbs the in-plane shift of draan so x and y are untouched. This is
    an exact symmetry of the relative-orbit design problem.
    """
    de, di, draan, dargp, dm = np.asarray(dk, dtype=float)
    return np.array([de, -di, -draan, dargp + 2.0 * math.cos(i_a) * draan, dm])


# ---------------------------------------------------------------------------
# Asteroid gravity field (spinning tri-axial ellipsoid)
# ---------------------------------------------------------------------------

def gravity_coefficients(semi_axes: tuple[float, float, float]) -> tuple[float, float]:
    """Second-degree/second-order coefficients (m^2) of the ellipsoid field."""
    a, b, c = semi_axes
    c20 = -(2.0 * c * c - a * a - b * b) / 10.0
    c22 = (a * a - b * b) / 20.0
    return c20, c22


def harmonic_potential(pos: np.ndarray, ast: AsteroidModel, t: float) -> float:
    """Second-degree/second-order correction potential, m^2/s^2.

    The longitude rotates with the body: lambda = atan2(y, x) + w_A t.
    """
    x, y, z = float(pos[0]), float(pos[1]), float(pos[2])
    r2 = x * x + y * y + z * z
    r = math.sqrt(r2)
    c20, c22 = gravity_coefficients(ast.semi_axes)
    cos2_gamma = (x * x + y * y) / r2
    lam = math.atan2(y, x) + ast.spin_rate * t
    return ast.mu / r**3 * (c20 * (1.0 - 1.5 * cos2_gamma)
                            + 3.0 * c22 * cos2_gamma * math.cos(2.0 * lam))


def gravity_gradient(pos: np.ndarray, ast: AsteroidModel, t) -> np.ndarray:
    """Gradient of the harmonic correction (the central term is separate).

    ``pos`` is a 3-vector at time ``t``, or an (N, 3) batch with N times.
    Rejects points inside the bounding sphere of the body, where the
    expansion is meaningless, for any sample.
    """
    x, y, z = batch.components(pos)
    r2 = x * x + y * y + z * z
    m = batch.xp(r2)
    r = m.sqrt(r2)
    if batch.any_true(r <= max(ast.semi_axes)):
        raise ValueError("gravity gradient requested inside the asteroid")

    c20, c22 = gravity_coefficients(ast.semi_axes)
    rho2 = x * x + y * y
    r5 = r2 * r2 * r
    r7 = r5 * r2

    # rho^2 cos(2 lambda) is the quadratic form Q rotating with the body
    wt2 = 2.0 * ast.spin_rate * t
    c2, s2 = m.cos(wt2), m.sin(wt2)
    q = (x * x - y * y) * c2 - 2.0 * x * y * s2
    q_x = 2.0 * x * c2 - 2.0 * y * s2
    q_y = -2.0 * y * c2 - 2.0 * x * s2

    gx = c20 * (-6.0 * x / r5 + 7.5 * x * rho2 / r7) + 3.0 * c22 * (q_x / r5 - 5.0 * x * q / r7)
    gy = c20 * (-6.0 * y / r5 + 7.5 * y * rho2 / r7) + 3.0 * c22 * (q_y / r5 - 5.0 * y * q / r7)
    gz = c20 * (-3.0 * z / r5 + 7.5 * z * rho2 / r7) + 3.0 * c22 * (-5.0 * z * q / r7)
    return batch.vector(ast.mu * gx, ast.mu * gy, ast.mu * gz)


# ---------------------------------------------------------------------------
# Full proximity dynamics
# ---------------------------------------------------------------------------

def _gravity_terms(pos: np.ndarray, xyz, r_a, ast: AsteroidModel, t, mu_sun: float):
    """r_sc, mu_sun / r_sc^3, mu_A / dr^3 and the harmonic gravity at ``pos``.

    ``xyz`` are the components of ``pos``, and the harmonic gravity comes
    back as components too. The central term is dropped at dr = 0 and the
    harmonic one inside the bounding sphere of the body.
    """
    x, y, z = xyz
    m = batch.xp(x)
    r_sc = m.sqrt((r_a + x) ** 2 + y * y + z * z)
    dr = m.sqrt(x * x + y * y + z * z)
    mu_a_dr3 = batch.apply_where(dr > 0.0, operator.truediv, ast.mu, dr**3)
    gg = batch.apply_where(dr > max(ast.semi_axes), gravity_gradient, pos, ast, t,
                           fill=batch.ZERO3)
    return r_sc, mu_sun / r_sc**3, mu_a_dr3, batch.components(gg)


def hill_accel(xyz, v_xy, r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot,
               mu_s_rsc3, mu_a_dr3, g, f_s, m_sc):
    """Hill-frame acceleration of the spacecraft before control, (ax, ay, az).

    Frame accelerations of the eccentric asteroid orbit (polar coordinates
    r_a, nu and their rates), solar gravity (mu_s_rsc3), asteroid point
    gravity (mu_a_dr3), its harmonic gradient g and the surface force f_s
    on mass m_sc. Position ``xyz``, velocity ``v_xy`` (x and y), ``g`` and
    ``f_s`` come as components: floats for one sample, columns for a batch.
    Plain arithmetic, so both go through alike.
    """
    x, y, z = xyz
    vx, vy = v_xy
    gx, gy, gz = g
    fx, fy, fz = f_s
    ax = (2.0 * nu_dot * vy + nu_ddot * y + nu_dot**2 * (r_a + x) - r_a_ddot
          - mu_s_rsc3 * (r_a + x) - mu_a_dr3 * x + gx + fx / m_sc)
    ay = (-2.0 * nu_dot * (vx + r_a_dot) - nu_ddot * (r_a + x) + nu_dot**2 * y
          - mu_s_rsc3 * y - mu_a_dr3 * y + gy + fy / m_sc)
    az = -mu_s_rsc3 * z - mu_a_dr3 * z + gz + fz / m_sc
    return ax, ay, az


def proximity_derivatives(state: ProximityState, f_s: np.ndarray, u_ctrl: np.ndarray,
                          u_dev: np.ndarray, ast: AsteroidModel, m_sc: float,
                          t: float = 0.0, mu_sun: float = MU_SUN) -> np.ndarray:
    """Rates of [pos, vel, r_A, r_A_dot, nu, nu_dot].

    Hill-frame spacecraft motion about the thrusting asteroid: frame
    accelerations of the eccentric orbit, solar gravity on the spacecraft,
    asteroid central plus harmonic gravity, surface forces f_s (SRP and
    plume) and the control acceleration. The asteroid polar coordinates
    evolve alongside, driven by the deflection acceleration u_dev (radial,
    transverse components).
    """
    # floats run the arithmetic below faster than numpy scalars, same bits
    xyz = state.pos.tolist()
    vx, vy, vz = state.vel.tolist()
    r_a, r_a_dot, nu_dot = float(state.r_a), float(state.r_a_dot), float(state.nu_dot)

    nu_ddot = u_dev[1] / r_a - 2.0 * r_a_dot * nu_dot / r_a
    r_a_ddot = nu_dot**2 * r_a - mu_sun / r_a**2 + u_dev[0]

    _, mu_s_rsc3, mu_a_dr3, g = _gravity_terms(state.pos, xyz, r_a, ast, t, mu_sun)
    ax, ay, az = hill_accel(xyz, (vx, vy), r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot,
                            mu_s_rsc3, mu_a_dr3, g, np.asarray(f_s, dtype=float).tolist(), m_sc)

    return np.array([vx, vy, vz, ax + u_ctrl[0], ay + u_ctrl[1], az + u_ctrl[2],
                     r_a_dot, r_a_ddot, nu_dot, nu_ddot])


def model_derivatives(state: ProximityState, f_s: np.ndarray, u_ctrl: np.ndarray,
                      ast: AsteroidModel, m_sc: float) -> np.ndarray:
    """Control-design model: asteroid point gravity plus surface forces only.

    This is the plant the Lyapunov law exactly cancels; under it the
    descent dV/dt = -c_d |dv|^2 holds identically.
    """
    dr = float(np.linalg.norm(state.pos))
    acc = -ast.mu / dr**3 * state.pos + f_s / m_sc + u_ctrl
    return np.concatenate([state.vel, acc,
                           [state.r_a_dot,
                            state.nu_dot**2 * state.r_a - MU_SUN / state.r_a**2,
                            state.nu_dot,
                            -2.0 * state.r_a_dot * state.nu_dot / state.r_a]])


# ---------------------------------------------------------------------------
# Lyapunov station-keeping
# ---------------------------------------------------------------------------

def lyapunov_control(state: ProximityState, ref: np.ndarray,
                     f_srp: np.ndarray, f_plume: np.ndarray,
                     ast: AsteroidModel, m_sc: float,
                     gain_k: float = DEFAULT_GAIN_K,
                     gain_cd: float = DEFAULT_GAIN_CD) -> np.ndarray:
    """Feedback acceleration toward a reference point on the nominal orbit.

    Cancels the modeled asteroid gravity and surface forces, then applies
    elastic and dissipative feedback. Under the design model this makes
    the tracking energy decay at rate c_d |dv|^2.
    """
    if gain_k <= 0.0 or gain_cd <= 0.0:
        raise ValueError("gains must be positive")
    dr = float(np.linalg.norm(state.pos))
    model = -ast.mu / dr**3 * state.pos + f_srp / m_sc + f_plume / m_sc
    return -model - gain_k * (state.pos - ref) - gain_cd * state.vel


def lyapunov_value(state: ProximityState, ref: np.ndarray,
                   gain_k: float = DEFAULT_GAIN_K) -> float:
    """Tracking energy: kinetic plus elastic terms."""
    err = state.pos - ref
    return 0.5 * float(state.vel @ state.vel) + 0.5 * gain_k * float(err @ err)


# ---------------------------------------------------------------------------
# nu-sweep utilities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def sweep_grid(n_sweep: int) -> np.ndarray:
    """The ``n_sweep`` anomalies of one revolution that a sweep samples."""
    nus = np.linspace(0.0, TWO_PI, n_sweep, endpoint=False)
    nus.flags.writeable = False
    return nus


def sweep_extremum(f, n_sweep: int = 720, refine: bool = True,
                   maximize: bool = True, values: np.ndarray | None = None
                   ) -> tuple[float, float]:
    """Extremum of a scalar function of nu over one revolution.

    Dense sweep followed by a bounded golden-section refinement around the
    incumbent grid point. ``f`` must accept a scalar or an array; a caller
    that has ``f`` on ``sweep_grid(n_sweep)`` already passes those
    ``values``, and ``f`` then sees scalars only.
    """
    nus = sweep_grid(n_sweep)
    vals = np.asarray(f(nus) if values is None else values, dtype=float)
    idx = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
    nu_best, val_best = float(nus[idx]), float(vals[idx])
    if not refine:
        return nu_best, val_best

    h = TWO_PI / n_sweep
    sign = -1.0 if maximize else 1.0
    res = minimize_scalar(lambda nu: sign * float(f(nu)),
                          bounds=(nu_best - h, nu_best + h), method="bounded",
                          options={"xatol": 1e-10})
    refined = sign * float(res.fun)  # back to the caller's sign convention
    if sign * refined < sign * val_best:
        return float(res.x) % TWO_PI, refined
    return nu_best, val_best


def hill_to_tangential(pos: np.ndarray, gamma: float) -> np.ndarray:
    """Rotate Hill coordinates so the second axis aligns with the velocity.

    gamma is the flight-path angle; the velocity unit vector in the Hill
    frame is (sin g, cos g, 0).
    """
    sin_g, cos_g = math.sin(gamma), math.cos(gamma)
    x, y = pos[..., 0], pos[..., 1]
    x_t = x * cos_g - y * sin_g
    y_t = x * sin_g + y * cos_g
    return np.stack(np.broadcast_arrays(x_t, y_t, pos[..., 2]), axis=-1)


# ---------------------------------------------------------------------------
# Natural-orbit design objectives
# ---------------------------------------------------------------------------

def natural_orbit_objectives(dk: np.ndarray, k_a: OrbitalElements, y_lim: float,
                             n_sweep: int = 720, refine: bool = True) -> dict:
    """Design metrics of a natural formation orbit.

    J1: worst-case distance from the asteroid. J2: negative worst-case
    (smallest) angular distance of the spacecraft from the plume axis, in
    the velocity-aligned frame. C: clearance of |y| above the y_lim
    stand-off (feasible when positive).
    """
    dk = np.asarray(dk, dtype=float)
    pos = linear_proximal_position(k_a, dk, sweep_grid(n_sweep))
    cos_g, sin_g = _sweep_flight_path(k_a.e, n_sweep)

    # the grid takes the rows of ``pos``; the refinements take one float
    # sample at a time
    def dist(nu):
        x, y, z = linear_proximal_position(k_a, dk, nu).tolist()
        return math.sqrt(x * x + y * y + z * z)  # np.linalg.norm's order

    def abs_y(nu):
        return abs(float(linear_proximal_position(k_a, dk, nu)[1]))

    def plume_angle(nu):
        g = flight_path_angle(k_a.e, nu)
        return _plume_axis_angle(linear_proximal_position(k_a, dk, nu),
                                 float(np.cos(g)), float(np.sin(g)))

    _, j1 = sweep_extremum(dist, n_sweep, refine, maximize=True,
                           values=np.linalg.norm(pos, axis=-1))
    _, min_angle = sweep_extremum(plume_angle, n_sweep, refine, maximize=False,
                                  values=_plume_axis_angle(pos, cos_g, sin_g))
    _, min_abs_y = sweep_extremum(abs_y, n_sweep, refine, maximize=False,
                                  values=np.abs(pos[:, 1]))

    return {"J1": j1, "J2": -min_angle, "C": min_abs_y - y_lim}


@functools.lru_cache(maxsize=8)
def _sweep_flight_path(e: float, n_sweep: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the flight-path angle on ``sweep_grid(n_sweep)``."""
    gammas = np.array([flight_path_angle(e, nu) for nu in sweep_grid(n_sweep).tolist()])
    cos_g, sin_g = np.cos(gammas), np.sin(gammas)
    cos_g.flags.writeable = sin_g.flags.writeable = False
    return cos_g, sin_g


def _plume_axis_angle(pos: np.ndarray, cos_g, sin_g):
    """Angle of a Hill position from the plume axis, which runs along the velocity.

    ``pos`` is a 3-vector with float ``cos_g``, ``sin_g`` of the flight-path
    angle, or an (N, 3) batch with one angle per row. On the axis itself
    (no lateral offset and no offset along it) the angle is 0.
    """
    x, y, z = batch.components(pos)
    x_t = x * cos_g - y * sin_g
    y_t = x * sin_g + y * cos_g
    lateral = batch.xp(x_t).sqrt(x_t * x_t + z * z)
    if pos.ndim == 1:
        if y_t == 0.0:  # lateral / (+-0) is +-inf, or NaN on the axis
            return 0.0 if lateral == 0.0 else float(np.arctan(math.copysign(math.inf, y_t)))
        return float(np.arctan(lateral / y_t))
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.arctan(lateral / y_t)
    return np.where(np.isnan(ang), 0.0, ang)


def natural_family_label(dk: np.ndarray, k_a: OrbitalElements, y_lim: float,
                         n_sweep: int = 720) -> str:
    """'+z' or '-z' from the sign of z where |y| crosses the stand-off."""
    pos = linear_proximal_position(k_a, np.asarray(dk, dtype=float), sweep_grid(n_sweep))
    idx = int(np.argmin(np.abs(np.abs(pos[:, 1]) - y_lim)))
    return "+z" if pos[idx, 2] >= 0.0 else "-z"


# ---------------------------------------------------------------------------
# Shaped orbits
# ---------------------------------------------------------------------------

def shaped_orbit_eval(s: ShapedOrbit, nu, nu_dot: float = 0.0,
                      nu_ddot: float = 0.0):
    """Position, velocity and acceleration of the shaped trajectory.

    Time derivatives follow from the chain rule through nu(t). Supports
    scalar or array nu; the rates are floats shared by every sample, or
    arrays with one rate per sample.
    """
    x1, x2, x3, y1, y2, y3, z1, z2 = s.coeffs
    nu = np.asarray(nu, dtype=float)
    c, sn = np.cos(nu), np.sin(nu)

    pos = np.stack(np.broadcast_arrays(x1 * c + x2 * sn + x3,
                                       y1 * c + y2 * sn + y3,
                                       z1 * c + z2 * sn), axis=-1)
    dpos = np.stack(np.broadcast_arrays(-x1 * sn + x2 * c,
                                        -y1 * sn + y2 * c,
                                        -z1 * sn + z2 * c), axis=-1)
    d2pos = np.stack(np.broadcast_arrays(-x1 * c - x2 * sn,
                                         -y1 * c - y2 * sn,
                                         -z1 * c - z2 * sn), axis=-1)
    vel = dpos * batch.col(nu_dot)
    acc = d2pos * batch.col(nu_dot**2) + dpos * batch.col(nu_ddot)
    return pos, vel, acc


def shaped_feasibility(s: ShapedOrbit) -> tuple[float, float]:
    """Analytic constraint values (max_nu x, max_nu y); feasible when < 0."""
    x1, x2, x3, y1, y2, y3, _, _ = s.coeffs
    return x3 + math.hypot(x1, x2), y3 + math.hypot(y1, y2)


@dataclass(frozen=True)
class ShapedControlContext:
    """Environment for the shaped-orbit control inversion."""

    ast: AsteroidModel
    k_a: OrbitalElements
    design: object               # SpacecraftDesign
    m_sc: float
    isp: float = 2000.0          # s, electric-propulsion class
    include_srp: bool = True
    include_plume: bool = True
    mdot: float = 0.0            # kg/s, total expelled flow for the plume force
    include_couplings: bool = True  # frame + solar + asteroid gravity terms


def _asteroid_polar(k_a: OrbitalElements, nu, mu: float):
    """r, r_dot, nu_dot, nu_ddot, r_ddot of the unperturbed asteroid orbit.

    ``nu`` is a float or an array of true anomalies.
    """
    p = k_a.semilatus_rectum()
    e = k_a.e
    m = batch.xp(nu)
    r = p / (1.0 + e * m.cos(nu))
    h = math.sqrt(mu * p)
    nu_dot = h / r**2
    r_dot = math.sqrt(mu / p) * e * m.sin(nu)
    nu_ddot = -2.0 * r_dot * nu_dot / r
    r_ddot = nu_dot**2 * r - mu / r**2
    return r, r_dot, nu_dot, nu_ddot, r_ddot


def shaped_control_accel(s: ShapedOrbit, t, ctx: ShapedControlContext) -> np.ndarray:
    """Control acceleration required to hold the shape at scenario time t.

    ``t`` is a float, giving a (3,) acceleration, or a 1-D array of times,
    giving an (N, 3) array with one row per time. An array runs every
    relation once over the whole grid; their branches (steering, occlusion,
    expansion cone, interior gravity) are masks over the samples.
    """
    ast, k_a = ctx.ast, ctx.k_a
    mu = MU_SUN
    m0 = k_a.mean_anomaly() + k_a.mean_motion(mu) * (t - k_a.epoch)
    nu = mean_to_true(m0 % TWO_PI, k_a.e)
    r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot = _asteroid_polar(k_a, nu, mu)

    pos, vel, acc_required = shaped_orbit_eval(s, nu, nu_dot, nu_ddot)
    if not ctx.include_couplings:
        return acc_required

    xyz = batch.components(pos)
    r_sc, mu_s_rsc3, mu_a_dr3, g = _gravity_terms(pos, xyz, r_a, ast, t, mu)
    f_s = np.zeros(pos.shape)
    theta_va = flight_path_angle(k_a.e, nu)
    spot = spot_position(ast, t, theta_va)
    if ctx.include_srp:
        beta, n_steer = steering_geometry(pos, spot)
        f_s = f_s + srp_force(ctx.design, r_sc, beta, n_steer)
    if ctx.include_plume and ctx.mdot > 0.0:
        # interior trajectories are garbage candidates; the 1/dr^3 gravity
        # term prices them out without a special case here
        outside = np.sum((pos / np.array(ast.semi_axes)) ** 2, axis=-1) > 1.0
        seen = outside & np.logical_not(line_of_sight_occluded(spot, pos, ast.semi_axes))
        v_bar = exhaust_velocity(ast)
        design = ctx.design

        def on_optics(pos, t, theta_va):
            geom = spot_to_spacecraft(pos, ast, t, theta_va)
            rho = plume_density(geom, ctx.mdot, v_bar, design.spot_area, design.spot_diameter)
            psi = view_factor_angle(geom.spot_to_sc)
            return plume_force(rho, v_bar, design.collector_area, psi,
                               geom.spot_to_sc / batch.col(geom.distance))

        f_s = f_s + batch.apply_where(seen, on_optics, pos, t, theta_va, fill=batch.ZERO3)

    vx, vy, _ = batch.components(vel)
    ax, ay, az = hill_accel(xyz, (vx, vy), r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot,
                            mu_s_rsc3, mu_a_dr3, g, batch.components(f_s), ctx.m_sc)
    return acc_required - batch.vector(ax, ay, az)


def shaped_orbit_control(s: ShapedOrbit, ctx: ShapedControlContext,
                         duration: float, n_samples: int = 2048,
                         t0: float = 0.0) -> ControlHistory:
    """Control profile and propellant budget along the prescribed shape.

    Evaluates the required acceleration on a uniform time grid in one
    array call of ``shaped_control_accel``, integrates |u| by the
    trapezoid rule for the delta-v, and converts to a propellant mass
    fraction through the rocket equation.
    """
    times = np.linspace(t0, t0 + duration, n_samples)
    accel = shaped_control_accel(s, times, ctx)
    mags = np.linalg.norm(accel, axis=1)
    delta_v = float(np.trapezoid(mags, times))
    mf = 1.0 - math.exp(-delta_v / (ctx.isp * G0))
    return ControlHistory(times=times, accel=accel, thrust=ctx.m_sc * mags,
                          delta_v=delta_v, mass_fraction=mf)


def shaped_objectives(s: ShapedOrbit, ctx: ShapedControlContext,
                      duration: float, n_samples: int = 1024) -> dict:
    """Objectives and constraints of the shaped-formation design problem.

    J1: station-keeping propellant mass fraction over the window. J2:
    worst-case distance from the asteroid. J3: worst-case control
    acceleration. C1/C2: analytic extrema of x and y (feasible < 0).
    """
    c1, c2 = shaped_feasibility(s)
    history = shaped_orbit_control(s, ctx, duration, n_samples)

    def dist(nu):
        pos, _, _ = shaped_orbit_eval(s, nu)
        out = np.linalg.norm(pos, axis=-1)
        return out if np.ndim(nu) else float(out)

    _, j2 = sweep_extremum(dist, n_sweep=720, refine=True, maximize=True)
    return {"J1": history.mass_fraction, "J2": j2, "J3": history.max_accel,
            "C1": c1, "C2": c2, "history": history}


# ---------------------------------------------------------------------------
# Closed-loop station-keeping simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingResult:
    """Closed-loop tracking run: Lyapunov values, errors, control budget."""

    times: np.ndarray
    lyapunov: np.ndarray         # V at each step (current reference)
    hold_decrease_ok: bool       # V non-increasing within every reference hold
    max_tracking_error: float    # m, against the moving nominal point
    orbit_scale: float           # m, max |reference| over the run
    control: ControlHistory


def _nominal_velocity(k_a: OrbitalElements, dk: np.ndarray, nu: float,
                      nu_dot: float, d_nu: float = 1e-6) -> np.ndarray:
    p_plus = linear_proximal_position(k_a, dk, nu + d_nu)
    p_minus = linear_proximal_position(k_a, dk, nu - d_nu)
    return (p_plus - p_minus) / (2.0 * d_nu) * nu_dot


def simulate_tracking(dk: np.ndarray, ast: AsteroidModel, design, m_sc: float,
                      duration: float, step: float = 200.0,
                      gain_k: float = DEFAULT_GAIN_K, gain_cd: float = DEFAULT_GAIN_CD,
                      plant: str = "full", ref_hold_steps: int = 1,
                      mdot: float = 0.0, isp: float = 2000.0,
                      nu0: float | None = None) -> TrackingResult:
    """Fly the Lyapunov-controlled spacecraft along a natural orbit.

    The reference point steps along the nominal orbit at the asteroid's
    true-anomaly rate, held fixed for ``ref_hold_steps`` integrator steps
    at a time. ``plant`` selects the full proximity dynamics or the
    control-design model (under which the Lyapunov descent is exact).
    """
    if plant not in ("full", "model"):
        raise ValueError("plant must be 'full' or 'model'")
    dk = np.asarray(dk, dtype=float)
    k_a = ast.elements0
    mu = MU_SUN

    nu = mean_to_true(k_a.mean_anomaly(), k_a.e) if nu0 is None else float(nu0)
    r_a, r_a_dot, nu_dot, _, _ = _asteroid_polar(k_a, nu, mu)
    pos0 = linear_proximal_position(k_a, dk, nu)
    vel0 = _nominal_velocity(k_a, dk, nu, nu_dot)

    y = np.concatenate([pos0, vel0, [r_a, r_a_dot, nu, nu_dot]])
    v_bar = exhaust_velocity(ast)
    u_dev = np.zeros(3)

    n_steps = int(math.ceil(duration / step))
    times = np.zeros(n_steps + 1)
    v_hist = np.zeros(n_steps + 1)
    accel_hist = np.zeros((n_steps + 1, 3))
    max_err = 0.0
    orbit_scale = 0.0
    hold_ok = True

    def forces(pos, r_a_now, t_now, nu_now):
        if plant == "model" and design is None:
            return np.zeros(3), np.zeros(3)
        theta_va = flight_path_angle(k_a.e, nu_now)
        r_sc = math.sqrt((r_a_now + pos[0]) ** 2 + pos[1] ** 2 + pos[2] ** 2)
        spot = spot_position(ast, t_now, theta_va)
        beta, n_steer = steering_geometry(pos, spot)
        f_srp = srp_force(design, r_sc, beta, n_steer)
        f_plume = np.zeros(3)
        if mdot > 0.0:
            geom = spot_to_spacecraft(pos, ast, t_now, theta_va)
            if not line_of_sight_occluded(geom.spot_position, pos, ast.semi_axes):
                rho = plume_density(geom, mdot, v_bar, design.spot_area,
                                    design.spot_diameter)
                psi = view_factor_angle(geom.spot_to_sc)
                f_plume = plume_force(rho, v_bar, design.collector_area, psi,
                                      geom.spot_to_sc / geom.distance)
        return f_srp, f_plume

    ref = pos0.copy()
    t = 0.0
    v_hist[0] = 0.5 * float(vel0 @ vel0)  # zero position error at start
    last_v = None

    for i in range(n_steps):
        if i % ref_hold_steps == 0:
            ref = linear_proximal_position(k_a, dk, float(y[8]))
            orbit_scale = max(orbit_scale, float(np.linalg.norm(ref)))
            last_v = None  # descent bookkeeping restarts at a reference jump

        def rhs(t_loc, y_loc):
            y_loc = np.array(y_loc)
            st = ProximityState(pos=y_loc[0:3], vel=y_loc[3:6], r_a=y_loc[6],
                                r_a_dot=y_loc[7], nu=y_loc[8], nu_dot=y_loc[9])
            f_srp, f_plume = forces(st.pos, st.r_a, t_loc, st.nu)
            u = lyapunov_control(st, ref, f_srp, f_plume, ast, m_sc, gain_k, gain_cd)
            if plant == "model":
                return model_derivatives(st, f_srp + f_plume, u, ast, m_sc).tolist(), u
            return proximity_derivatives(st, f_srp + f_plume, u, u_dev, ast, m_sc,
                                         t_loc).tolist(), u

        y, u_now = rk4_step(rhs, t, y.tolist(), step)
        y = np.array(y)
        t += step

        state = ProximityState(pos=y[0:3], vel=y[3:6], r_a=y[6], r_a_dot=y[7],
                               nu=y[8], nu_dot=y[9])
        v_now = lyapunov_value(state, ref, gain_k)
        if last_v is not None and v_now - last_v > 1e-12 * max(last_v, 1e-30):
            hold_ok = False
        last_v = v_now

        nominal = linear_proximal_position(k_a, dk, float(y[8]))
        max_err = max(max_err, float(np.linalg.norm(y[0:3] - nominal)))

        times[i + 1] = t
        v_hist[i + 1] = v_now
        accel_hist[i + 1] = u_now

    mags = np.linalg.norm(accel_hist, axis=1)
    delta_v = float(np.trapezoid(mags, times))
    control = ControlHistory(times=times, accel=accel_hist, thrust=m_sc * mags,
                             delta_v=delta_v,
                             mass_fraction=1.0 - math.exp(-delta_v / (isp * G0)))
    return TrackingResult(times=times, lyapunov=v_hist, hold_decrease_ok=hold_ok,
                          max_tracking_error=max_err, orbit_scale=orbit_scale,
                          control=control)
