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
from dataclasses import dataclass

import numpy as np

from . import batch
from .constants import G0, MU_SUN, TWO_PI
from .orbits import (
    NonFiniteStateError,
    OrbitalElements,
    ProximalConstants,
    flight_path_angle,
    mean_to_true,
    proximal_factors,
    proximal_position,
    proximal_relation,
    rk4_step,
)
# surface_forces calls the plume functions as names of this module, which
# perfbench/tracing.py wraps to time them; spot_to_spacecraft has no caller
# here and is imported for that tracer alone
from .plume import (  # noqa: F401
    inside_body,
    line_length,
    line_of_sight_occluded,
    plume_density,
    plume_force,
    spot_geometry,
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
GAIN_K = 1e-6
GAIN_CD = 1e-5
# Specific impulse of the station-keeping thrusters, s: electric-propulsion class.
ISP = 2000.0


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


@dataclass(frozen=True)
class ShapedOrbit:
    """First-order Fourier trajectory in the Hill frame (coefficients in m)."""

    coeffs: np.ndarray  # [x1, x2, x3, y1, y2, y3, z1, z2]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("coeffs must be [x1, x2, x3, y1, y2, y3, z1, z2]")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class ControlHistory:
    """Control time history and propellant accounting over a window."""

    times: np.ndarray
    accel: np.ndarray        # (N, 3) m/s^2
    accel_norm: np.ndarray   # |u| at each time, m/s^2
    thrust: np.ndarray       # N, per spacecraft
    delta_v: float           # m/s
    mass_fraction: float     # propellant fraction of initial mass

    @classmethod
    def from_accel(cls, times: np.ndarray, accel: np.ndarray, m_sc: float,
                   isp: float) -> ControlHistory:
        """The history of an (N, 3) acceleration on a time grid: |u| integrated
        by the trapezoid rule for the delta-v, then the rocket equation."""
        mags = np.linalg.norm(accel, axis=1)
        delta_v = float(np.trapezoid(mags, times))
        return cls(times=times, accel=accel, accel_norm=mags, thrust=m_sc * mags,
                   delta_v=delta_v, mass_fraction=1.0 - math.exp(-delta_v / (isp * G0)))

    @property
    def max_thrust(self) -> float:
        return float(np.max(self.thrust))

    @property
    def max_accel(self) -> float:
        return float(np.max(self.accel_norm))


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


def body_turn(m, ast: AsteroidModel, t):
    """cos and sin of 2 w_A t, the turn of the body's quadratic field at time
    ``t``, through the ``batch`` namespace ``m``."""
    wt2 = 2.0 * ast.spin_rate * t
    return m.cos(wt2), m.sin(wt2)


def gravity_gradient(m, x, y, z, ast: AsteroidModel, c2, s2):
    """Gradient (gx, gy, gz) of the harmonic correction (the central term is
    separate) at the Hill position (x, y, z), with the body turned by
    ``body_turn``'s (c2, s2): floats, or columns with one turn per row.

    Rejects points inside the bounding sphere of the body, where the
    expansion is meaningless, for any sample.
    """
    r2 = x * x + y * y + z * z
    r = m.sqrt(r2)
    if m.any(r <= max(ast.semi_axes)):
        raise ValueError("gravity gradient requested inside the asteroid")

    c20, c22 = gravity_coefficients(ast.semi_axes)
    rho2 = x * x + y * y
    r5 = r2 * r2 * r
    r7 = r5 * r2

    # rho^2 cos(2 lambda) is the quadratic form Q rotating with the body
    q = (x * x - y * y) * c2 - 2.0 * x * y * s2
    q_x = 2.0 * x * c2 - 2.0 * y * s2
    q_y = -2.0 * y * c2 - 2.0 * x * s2

    gx = c20 * (-6.0 * x / r5 + 7.5 * x * rho2 / r7) + 3.0 * c22 * (q_x / r5 - 5.0 * x * q / r7)
    gy = c20 * (-6.0 * y / r5 + 7.5 * y * rho2 / r7) + 3.0 * c22 * (q_y / r5 - 5.0 * y * q / r7)
    gz = c20 * (-3.0 * z / r5 + 7.5 * z * rho2 / r7) + 3.0 * c22 * (-5.0 * z * q / r7)
    return ast.mu * gx, ast.mu * gy, ast.mu * gz


# ---------------------------------------------------------------------------
# Full proximity dynamics
# ---------------------------------------------------------------------------

def sun_distance(r_a, x, y, z):
    """The spacecraft's distance from the Sun, r_A from it at Hill position
    (x, y, z): floats or columns."""
    return batch.xp(x).sqrt((r_a + x) ** 2 + y * y + z * z)


def _gravity_terms(m, x, y, z, r_sc, ast: AsteroidModel, turn):
    """MU_SUN / r_sc^3, mu_A / dr^3 and the harmonic gravity (components) at
    the Hill position (x, y, z), whose ``sun_distance`` is ``r_sc`` and whose
    time turns the body by ``body_turn``'s ``turn``.

    The central term is dropped at dr = 0 and the harmonic one inside the
    bounding sphere of the body. Such samples are rare, so they are looked
    for first; a point outside the sphere then stands in for them.
    """
    dr = m.sqrt(x * x + y * y + z * z)
    r_body = max(ast.semi_axes)
    near = dr <= r_body
    if not m.any(near):
        return MU_SUN / r_sc**3, ast.mu / dr**3, gravity_gradient(m, x, y, z, ast, *turn)
    mu_a_dr3 = m.where(dr > 0.0, ast.mu / m.where(dr > 0.0, dr, 1.0) ** 3, 0.0)
    g = gravity_gradient(m, m.where(near, 2.0 * r_body, x), m.where(near, 0.0, y),
                         m.where(near, 0.0, z), ast, *turn)
    return MU_SUN / r_sc**3, mu_a_dr3, tuple(m.where(near, 0.0, c) for c in g)


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


def _polar_rates(r_a, r_a_dot, nu_dot):
    """(r_A_ddot, nu_ddot) of the coasting asteroid: floats or arrays."""
    return nu_dot**2 * r_a - MU_SUN / r_a**2, -2.0 * r_a_dot * nu_dot / r_a


def proximity_derivatives(s: list, f_s, u_ctrl, ast: AsteroidModel, m_sc: float,
                          t: float, r_sc: float) -> list:
    """Rates of the tracking state s = [x, y, z, vx, vy, vz, r_A, r_A_dot,
    nu, nu_dot], a float list like the rates, at time ``t``: Hill-frame
    motion about the coasting asteroid under frame accelerations, solar
    gravity, asteroid central plus harmonic gravity, the surface force f_s
    (SRP and plume, N) and the control acceleration u_ctrl, both as
    components. ``r_sc`` is the state's ``sun_distance``."""
    x, y, z, vx, vy, vz, r_a, r_a_dot, _, nu_dot = s
    r_a_ddot, nu_ddot = _polar_rates(r_a, r_a_dot, nu_dot)
    mu_s_rsc3, mu_a_dr3, g = _gravity_terms(batch.FLOAT, x, y, z, r_sc, ast,
                                            body_turn(batch.FLOAT, ast, t))
    ax, ay, az = hill_accel((x, y, z), (vx, vy), r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot,
                            mu_s_rsc3, mu_a_dr3, g, f_s, m_sc)
    return [vx, vy, vz, ax + u_ctrl[0], ay + u_ctrl[1], az + u_ctrl[2],
            r_a_dot, r_a_ddot, nu_dot, nu_ddot]


def design_model_accel(x, y, z, f_srp, f_plume, ast: AsteroidModel, m_sc: float) -> list:
    """Acceleration of the control-design model at the Hill position
    (x, y, z), as floats: asteroid point gravity plus the surface forces
    f_srp and f_plume (N, components) on mass m_sc. This is what the
    Lyapunov law cancels."""
    c = -ast.mu / line_length(batch.FLOAT, x, y, z) ** 3
    return [c * p + fs / m_sc + fp / m_sc for p, fs, fp in zip((x, y, z), f_srp, f_plume)]


def model_derivatives(s: list, a_model: list, u_ctrl) -> list:
    """Rates of the tracking state ``s`` under the control-design model of
    acceleration ``a_model``: the plant the Lyapunov law exactly cancels,
    under which the descent dV/dt = -c_d |v|^2 holds identically."""
    _, _, _, vx, vy, vz, r_a, r_a_dot, _, nu_dot = s
    r_a_ddot, nu_ddot = _polar_rates(r_a, r_a_dot, nu_dot)
    return [vx, vy, vz, a_model[0] + u_ctrl[0], a_model[1] + u_ctrl[1],
            a_model[2] + u_ctrl[2], r_a_dot, r_a_ddot, nu_dot, nu_ddot]


# ---------------------------------------------------------------------------
# Lyapunov station-keeping
# ---------------------------------------------------------------------------

def lyapunov_control(s: list, ref, a_model: list) -> list:
    """Feedback acceleration toward the reference point ``ref``: cancels the
    design model's acceleration ``a_model`` at the tracking state ``s``, then
    applies elastic and dissipative feedback with the gains ``GAIN_K`` and
    ``GAIN_CD``. Under the model, V = |v|^2 / 2 + GAIN_K |pos - ref|^2 / 2
    falls at rate GAIN_CD |v|^2."""
    return [-a - GAIN_K * (p - r) - GAIN_CD * v
            for a, p, r, v in zip(a_model, s[0:3], ref, s[3:6])]


# ---------------------------------------------------------------------------
# nu-sweep utilities
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def sweep_grid(n_sweep: int) -> np.ndarray:
    """The ``n_sweep`` anomalies of one revolution that a sweep samples."""
    nus = np.linspace(0.0, TWO_PI, n_sweep, endpoint=False)
    nus.flags.writeable = False
    return nus


def sweep_extremum(f, values: np.ndarray, refine: bool = True,
                   maximize: bool = True) -> tuple[float, float]:
    """Extremum of a float function ``f`` of nu over one revolution, given
    its ``values`` on ``sweep_grid(len(values))``.

    Dense sweep followed by Brent's bounded search, with golden-section
    and parabolic steps, within one grid step of the incumbent grid point
    (``_minimize_bounded``, which keeps the arithmetic of scipy's
    ``_minimize_scalar_bounded``).
    """
    n_sweep = len(values)
    nus = sweep_grid(n_sweep)
    vals = np.asarray(values, dtype=float)
    idx = int(vals.argmax()) if maximize else int(vals.argmin())
    nu_best, val_best = float(nus[idx]), float(vals[idx])
    if not refine:
        return nu_best, val_best

    h = TWO_PI / n_sweep
    sign = -1.0 if maximize else 1.0
    nu, fun = _minimize_bounded((lambda nu: -f(nu)) if maximize else f,
                                nu_best - h, nu_best + h, xatol=1e-10)
    refined = sign * float(fun)  # back to the caller's sign convention
    if sign * refined < sign * val_best:
        return nu % TWO_PI, refined
    return nu_best, val_best


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500


def _minimize_bounded(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """(x, func(x)) at the minimum of a float function on [lo, hi].

    Brent's bounded search as scipy runs it for
    ``minimize_scalar(method="bounded")``: a float-only port of
    ``scipy.optimize._optimize._minimize_scalar_bounded`` with the same
    golden and parabolic steps, tolerances and 500-evaluation cap, and the
    same arithmetic in the same order, so it returns scipy's ``x`` and
    ``fun`` to the bit. ``abs``, ``max`` and a float sign replace
    ``np.abs``, ``np.maximum`` and ``np.sign``, which cost more than the
    step itself on one number.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        # rat is finite here, so np.sign(rat) + (rat == 0) is -1 or +1
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break

    return xf, fx


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
    position = proximal_relation(k_a, dk)
    x, y, z = _sweep_position(k_a, dk, n_sweep)
    cos_g, sin_g = _sweep_flight_path(k_a.e, n_sweep)

    # the grid takes columns; the refinements take one float sample at a
    # time. A distance sums the squares in np.linalg.norm's order.
    def dist(nu):
        x, y, z = position(nu)
        return math.sqrt(x * x + y * y + z * z)

    def abs_y(nu):
        return abs(position(nu)[1])

    def plume_angle(nu):
        g = flight_path_angle(k_a.e, nu)
        return _plume_axis_angle(*position(nu), math.cos(g), math.sin(g))

    _, j1 = sweep_extremum(dist, np.sqrt(x * x + y * y + z * z), refine, maximize=True)
    _, min_angle = sweep_extremum(plume_angle, _plume_axis_angle(x, y, z, cos_g, sin_g),
                                  refine, maximize=False)
    _, min_abs_y = sweep_extremum(abs_y, np.abs(y), refine, maximize=False)

    return {"J1": j1, "J2": -min_angle, "C": min_abs_y - y_lim}


def _sweep_position(k_a: OrbitalElements, dk, n_sweep: int):
    """The columns (x, y, z) of ``proximal_relation(k_a, dk)`` on
    ``sweep_grid(n_sweep)``, from the grid's cached factors."""
    return proximal_position(_sweep_basis(k_a, n_sweep), np.asarray(dk, dtype=float).tolist())


@functools.lru_cache(maxsize=8)
def _sweep_basis(k_a: OrbitalElements, n_sweep: int) -> tuple:
    """``proximal_factors`` of ``k_a`` on ``sweep_grid(n_sweep)``: the factors
    no natural orbit around ``k_a`` changes."""
    k = ProximalConstants.of(k_a)
    c, s = _sweep_trig(n_sweep)
    theta = sweep_grid(n_sweep) + k.argp
    return _read_only(proximal_factors(k, c, s, k.a_eta2 / (1.0 + k.e * c),
                                       np.cos(theta), np.sin(theta)))


@functools.lru_cache(maxsize=8)
def _sweep_flight_path(e: float, n_sweep: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the flight-path angle on ``sweep_grid(n_sweep)``."""
    gammas = np.array([flight_path_angle(e, nu) for nu in sweep_grid(n_sweep).tolist()])
    return _read_only((np.cos(gammas), np.sin(gammas)))


@functools.lru_cache(maxsize=8)
def _sweep_trig(n_sweep: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``sweep_grid(n_sweep)``."""
    nus = sweep_grid(n_sweep)
    return _read_only((np.cos(nus), np.sin(nus)))


def _read_only(arrays):
    """``arrays``, a tuple of arrays, each made read-only: a cached value is
    shared by every later call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _plume_axis_angle(x, y, z, cos_g, sin_g):
    """Angle of a Hill position from the plume axis, which runs along the velocity.

    ``x``, ``y``, ``z`` are one position's floats with float ``cos_g``,
    ``sin_g`` of the flight-path angle, or the columns of a batch with one
    angle per row. On the axis itself (no lateral offset and no offset
    along it) the angle is 0.
    """
    x_t = x * cos_g - y * sin_g
    y_t = x * sin_g + y * cos_g
    if not isinstance(x_t, np.ndarray):
        lateral = math.sqrt(x_t * x_t + z * z)
        if y_t == 0.0:  # lateral / (+-0) is +-inf, or NaN on the axis
            return 0.0 if lateral == 0.0 else float(np.arctan(math.copysign(math.inf, y_t)))
        return float(np.arctan(lateral / y_t))
    lateral = np.sqrt(x_t * x_t + z * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.arctan(lateral / y_t)
    return np.where(np.isnan(ang), 0.0, ang)


def natural_family_label(dk: np.ndarray, k_a: OrbitalElements, y_lim: float,
                         n_sweep: int = 720) -> str:
    """'+z' or '-z' from the sign of z where |y| crosses the stand-off."""
    _, y, z = _sweep_position(k_a, dk, n_sweep)
    idx = int(np.argmin(np.abs(np.abs(y) - y_lim)))
    return "+z" if z[idx] >= 0.0 else "-z"


# ---------------------------------------------------------------------------
# Shaped orbits
# ---------------------------------------------------------------------------

def shaped_position(coeffs, c, s):
    """Hill position (x, y, z) on a shaped orbit of coefficients ``coeffs``
    from the cos and sin of the true anomaly: floats or columns."""
    x1, x2, x3, y1, y2, y3, z1, z2 = coeffs
    return x1 * c + x2 * s + x3, y1 * c + y2 * s + y3, z1 * c + z2 * s


def shaped_orbit_eval(s: ShapedOrbit, nu, nu_dot: float = 0.0,
                      nu_ddot: float = 0.0):
    """Position, velocity and acceleration of the shaped trajectory.

    Time derivatives follow from the chain rule through nu(t). Supports
    scalar or array nu; the rates are floats shared by every sample, or
    arrays with one rate per sample.
    """
    nu = np.asarray(nu, dtype=float)
    return tuple(batch.vector(*v) for v in _shaped_kinematics(
        s.coeffs.tolist(), np.cos(nu), np.sin(nu), nu_dot, nu_ddot))


def _shaped_kinematics(coeffs, c, sn, nu_dot, nu_ddot):
    """Position, velocity and acceleration of the shaped trajectory, each as
    components (x, y, z), from the cos ``c`` and sin ``sn`` of nu: floats or
    columns."""
    x1, x2, x3, y1, y2, y3, z1, z2 = coeffs
    dpos = (-x1 * sn + x2 * c, -y1 * sn + y2 * c, -z1 * sn + z2 * c)
    d2pos = (-x1 * c - x2 * sn, -y1 * c - y2 * sn, -z1 * c - z2 * sn)
    nu_dot2 = nu_dot**2
    return (shaped_position(coeffs, c, sn), tuple(d * nu_dot for d in dpos),
            tuple(d2 * nu_dot2 + d * nu_ddot for d2, d in zip(d2pos, dpos)))


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
    isp: float = ISP             # s
    mdot: float = 0.0            # kg/s, total expelled flow for the plume force


def _asteroid_polar(k_a: OrbitalElements, nu):
    """r, r_dot, nu_dot, nu_ddot, r_ddot of the unperturbed asteroid orbit.

    ``nu`` is a float or an array of true anomalies.
    """
    p = k_a.semilatus_rectum()
    e = k_a.e
    m = batch.xp(nu)
    r = p / (1.0 + e * m.cos(nu))
    h = math.sqrt(MU_SUN * p)
    nu_dot = h / r**2
    r_dot = math.sqrt(MU_SUN / p) * e * m.sin(nu)
    r_ddot, nu_ddot = _polar_rates(r, r_dot, nu_dot)
    return r, r_dot, nu_dot, nu_ddot, r_ddot


@dataclass(frozen=True)
class ShapedGrid:
    """What the shaped-control inversion reads of the asteroid at scenario
    times ``times``: the half of the inversion that no shape changes.
    Floats for one time, columns for a grid."""

    times: object
    cos_nu: object       # cos and sin of the asteroid's true anomaly
    sin_nu: object
    polar: tuple         # r_A, r_A_dot, nu_dot, nu_ddot, r_A_ddot (_asteroid_polar)
    spot: tuple          # spot_position's (x, y) under the velocity elevation
    turn: tuple          # body_turn


def shaped_grid(ast: AsteroidModel, k_a: OrbitalElements, t) -> ShapedGrid:
    """The ``ShapedGrid`` of asteroid ``ast`` on orbit ``k_a`` at scenario
    time ``t``, a float or a 1-D array of times."""
    m0 = k_a.mean_anomaly() + k_a.mean_motion(MU_SUN) * (t - k_a.epoch)
    nu = mean_to_true(m0 % TWO_PI, k_a.e)
    m = batch.xp(t)
    return ShapedGrid(times=t, cos_nu=np.cos(nu), sin_nu=np.sin(nu),
                      polar=_asteroid_polar(k_a, nu),
                      spot=spot_position(m, ast, t, flight_path_angle(k_a.e, nu)),
                      turn=body_turn(m, ast, t))


def surface_forces(m, x, y, z, r_sc, ast: AsteroidModel, design, sx, sy, mdot: float):
    """(f_srp, f_plume): radiation pressure and plume impingement (N), each
    as components, on a spacecraft at (x, y, z), ``r_sc`` from the Sun,
    beaming to the spot at (sx, sy) (``spot_position``), with total flow
    ``mdot``.

    Floats for one sample, or columns with one spot per row, with their
    ``batch`` namespace ``m``. Positions inside the body get no plume; a
    caller that must not fly there checks for it. The plume relations run
    when the flow reaches some sample; the others take a guarded distance
    and a zero density.
    """
    beta, nx, ny, nz = steering_geometry(m, x, y, z, sx, sy)
    f_srp = srp_force(m, design, r_sc, beta, nx, ny, nz)
    if not mdot > 0.0:
        return f_srp, (0.0, 0.0, 0.0)
    seen = np.logical_not(inside_body(x, y, z, ast.semi_axes)
                          | line_of_sight_occluded(sx, sy, x, y, ast.semi_axes))
    if not m.any(seen):
        return f_srp, (0.0, 0.0, 0.0)
    geom = spot_geometry(m, x, y, z, sx, sy)
    dx, dy, dz = geom.offset
    dist = m.where(seen, geom.distance, 1.0)  # a hidden sample may sit on the spot
    v_bar = exhaust_velocity(ast)
    rho = m.where(seen, plume_density(m, dist, geom.phi, mdot, v_bar, design.spot_area,
                                      design.spot_diameter), 0.0)
    return f_srp, plume_force(m, rho, v_bar, design.collector_area,
                              view_factor_angle(m, dx, dist), dx / dist, dy / dist, dz / dist)


def shaped_control_accel(s: ShapedOrbit, t, ctx: ShapedControlContext) -> np.ndarray:
    """Control acceleration required to hold the shape at scenario time t.

    ``t`` is a float, giving a (3,) acceleration, or a 1-D array of times,
    giving an (N, 3) array with one row per time; or the ``shaped_grid`` of
    either, built already. An array runs every relation once over the whole
    grid on its columns; their branches (steering, occlusion, expansion
    cone, interior gravity) select per sample.
    """
    ast = ctx.ast
    grid = t if isinstance(t, ShapedGrid) else shaped_grid(ast, ctx.k_a, t)
    m = batch.xp(grid.cos_nu)
    r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot = grid.polar

    xyz, (vx, vy, _), acc_required = _shaped_kinematics(s.coeffs.tolist(), grid.cos_nu,
                                                        grid.sin_nu, nu_dot, nu_ddot)
    r_sc = sun_distance(r_a, *xyz)
    mu_s_rsc3, mu_a_dr3, g = _gravity_terms(m, *xyz, r_sc, ast, grid.turn)
    f_srp, f_plume = surface_forces(m, *xyz, r_sc, ast, ctx.design, *grid.spot, ctx.mdot)
    f_s = [a + b for a, b in zip(f_srp, f_plume)]
    accel = hill_accel(xyz, (vx, vy), r_a, r_a_dot, nu_dot, nu_ddot, r_a_ddot,
                       mu_s_rsc3, mu_a_dr3, g, f_s, ctx.m_sc)
    return batch.vector(*(a - b for a, b in zip(acc_required, accel)))


def shaped_orbit_control(s: ShapedOrbit, ctx: ShapedControlContext,
                         duration: float, n_samples: int = 2048) -> ControlHistory:
    """Control profile and propellant budget along the prescribed shape.

    Evaluates the required acceleration on a uniform time grid from t = 0
    in one array call of ``shaped_control_accel``, integrates |u| by the
    trapezoid rule for the delta-v, and converts to a propellant mass
    fraction through the rocket equation.
    """
    grid = _control_grid(ctx.ast, ctx.k_a, duration, n_samples)
    return ControlHistory.from_accel(grid.times, shaped_control_accel(s, grid, ctx),
                                     ctx.m_sc, ctx.isp)


@functools.lru_cache(maxsize=8)
def _control_grid(ast: AsteroidModel, k_a: OrbitalElements, duration: float,
                  n_samples: int) -> ShapedGrid:
    """The ``shaped_grid`` of ``shaped_orbit_control``'s time grid, built
    once per asteroid, orbit and grid, since no shape changes it."""
    grid = shaped_grid(ast, k_a, np.linspace(0.0, duration, n_samples))
    _read_only((grid.times, grid.cos_nu, grid.sin_nu, *grid.polar, *grid.spot, *grid.turn))
    return grid


def shaped_objectives(s: ShapedOrbit, ctx: ShapedControlContext,
                      duration: float, n_samples: int = 1024) -> dict:
    """Objectives and constraints of the shaped-formation design problem.

    J1: station-keeping propellant mass fraction over the window. J2:
    worst-case distance from the asteroid. J3: worst-case control
    acceleration. C1/C2: analytic extrema of x and y (feasible < 0).
    """
    c1, c2 = shaped_feasibility(s)
    history = shaped_orbit_control(s, ctx, duration, n_samples)

    coeffs = s.coeffs.tolist()

    def dist(m, c, sn):  # floats or the grid; the squares sum in np.linalg.norm's order
        x, y, z = shaped_position(coeffs, c, sn)
        return m.sqrt(x * x + y * y + z * z)

    _, j2 = sweep_extremum(lambda nu: dist(math, math.cos(nu), math.sin(nu)),
                           dist(np, *_sweep_trig(720)), refine=True, maximize=True)
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


def simulate_tracking(dk: np.ndarray, ast: AsteroidModel, design, m_sc: float,
                      duration: float, step: float = 200.0, plant: str = "full",
                      ref_hold_steps: int = 1, mdot: float = 0.0) -> TrackingResult:
    """Fly the Lyapunov-controlled spacecraft along a natural orbit.

    The reference point steps along the nominal orbit at the asteroid's
    true-anomaly rate, held fixed for ``ref_hold_steps`` integrator steps
    at a time. ``plant`` selects the full proximity dynamics or the
    control-design model (under which the Lyapunov descent is exact), which
    runs without surface forces when ``design`` is None. The run is on
    floats: RK4 on the state list of ``proximity_derivatives``, and every
    length from ``line_length``. The nominal point of the tracking error
    after a step is the next reference, one evaluation for both. A state
    that is not finite after a step raises ``orbits.NonFiniteStateError``
    naming the step, the time and the component.
    """
    if plant not in ("full", "model"):
        raise ValueError("plant must be 'full' or 'model'")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if not (isinstance(ref_hold_steps, (int, np.integer)) and ref_hold_steps >= 1):
        raise ValueError(f"ref_hold_steps must be a positive integer, got {ref_hold_steps!r}")
    if design is None and plant == "full":
        raise ValueError("design is required by the full plant")
    k_a = ast.elements0
    position = proximal_relation(k_a, dk)

    nu = mean_to_true(k_a.mean_anomaly(), k_a.e)
    r_a, r_a_dot, nu_dot, _, _ = _asteroid_polar(k_a, nu)
    # the nominal velocity by a central difference of the position in nu
    d_nu = 1e-6
    vx, vy, vz = [(p - q) / (2.0 * d_nu) * nu_dot
                  for p, q in zip(position(nu + d_nu), position(nu - d_nu))]
    state = [*position(nu), vx, vy, vz, r_a, r_a_dot, nu, nu_dot]

    n_steps = int(math.ceil(duration / step))
    times = [0.0]
    # V has no position error at the start; its squares sum in line_length's order
    v_hist = [0.5 * ((vx * vx + vz * vz) + vy * vy)]
    accel_hist = [(0.0, 0.0, 0.0)]
    max_err = 0.0
    orbit_scale = 0.0
    hold_ok = True
    ref = None  # the held reference point, read by rhs

    def rhs(t, s):
        x, y, z = s[0:3]
        if inside_body(x, y, z, ast.semi_axes):
            raise ValueError(f"dk: the spacecraft is inside the asteroid at t = {t!r} s")
        r_sc = sun_distance(s[6], x, y, z)
        if design is None:
            f_srp = f_plume = (0.0, 0.0, 0.0)
        else:
            spot = spot_position(batch.FLOAT, ast, t, flight_path_angle(k_a.e, s[8]))
            f_srp, f_plume = surface_forces(batch.FLOAT, x, y, z, r_sc, ast, design, *spot,
                                            mdot)
        a_model = design_model_accel(x, y, z, f_srp, f_plume, ast, m_sc)
        u = lyapunov_control(s, ref, a_model)
        if plant == "model":
            return model_derivatives(s, a_model, u), u
        f_s = [a + b for a, b in zip(f_srp, f_plume)]
        return proximity_derivatives(s, f_s, u, ast, m_sc, t, r_sc), u

    t = 0.0
    last_v = None
    nominal = position(state[8])  # the nominal point at the current state
    for i in range(n_steps):
        if i % ref_hold_steps == 0:
            ref = nominal
            orbit_scale = max(orbit_scale, line_length(batch.FLOAT, *ref))
            last_v = None  # descent bookkeeping restarts at a reference jump

        state, u_now = rk4_step(rhs, t, state, step)
        t += step
        if not all(map(math.isfinite, state)):
            k = [math.isfinite(v) for v in state].index(False)
            name = ("x", "y", "z", "vx", "vy", "vz", "r_A", "r_A_dot", "nu", "nu_dot")[k]
            raise NonFiniteStateError(f"tracking state {name} is {state[k]!r} after step "
                                      f"{i + 1} at t = {t!r} s")

        # the tracking energy: kinetic plus elastic terms
        x, y, z, vx, vy, vz = state[0:6]
        ex, ey, ez = x - ref[0], y - ref[1], z - ref[2]
        v_now = (0.5 * ((vx * vx + vz * vz) + vy * vy)
                 + 0.5 * GAIN_K * ((ex * ex + ez * ez) + ey * ey))
        if last_v is not None and v_now - last_v > 1e-12 * max(last_v, 1e-30):
            hold_ok = False
        last_v = v_now

        nominal = position(state[8])
        nx, ny, nz = nominal
        max_err = max(max_err, line_length(batch.FLOAT, x - nx, y - ny, z - nz))

        times.append(t)
        v_hist.append(v_now)
        accel_hist.append(u_now)

    times = np.array(times)
    return TrackingResult(times=times, lyapunov=np.array(v_hist), hold_decrease_ok=hold_ok,
                          max_tracking_error=max_err, orbit_scale=orbit_scale,
                          control=ControlHistory.from_accel(times, np.array(accel_hist),
                                                            m_sc, ISP))
