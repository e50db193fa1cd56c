"""Two-body orbital mechanics for heliocentric deflection studies.

Provides:

    1. Keplerian element set and Cartesian state conversions (elliptic only).
    2. Kepler propagation (Newton solver for the transcendental anomaly
       equation, bisection-safe).
    3. Gauss variational equations for the element rates (one float
       relation in the radial/transverse/normal split, and a wrapper for an
       acceleration in the tangential/normal/out-of-plane frame), plus the
       one fixed-step RK4 step every integrator of the package takes.
    4. The flight-path angle, which splits the velocity direction into
       the radial and transverse ones.
    5. Linearised proximal motion of a neighbouring orbit (element
       differences, periodic when the semi-major axes match).
    6. MOID search between two ellipses and the b-plane impact parameter
       of a deflected vs. undeflected orbit at a virtual encounter epoch.

All quantities are SI (m, s, rad) and heliocentric-inertial unless noted.
Hyperbolic and parabolic orbits are out of scope and rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import batch
from .constants import TWO_PI

# Gauss equations are singular at e=0 and i=0; the study scenarios stay
# well away, so guard with a hard error instead of an equinoctial fallback.
SINGULARITY_GUARD = 1e-8

KEPLER_TOL = 1e-13
KEPLER_MAX_ITER = 60

# A fixed RK4 step is at most this fraction of the orbital period
# (reproducible output over adaptive stepping).
STEP_FRACTION = 1e-3

# The constants of arithmetic that only a batch runs, as 0-d arrays: numpy
# takes an array operand faster than a Python float, and the value, so
# every bit, is the same (DECISIONS.md, "The batch step is bound by call
# count").
_ONE, _TWO, _SIX, _HALF = (np.array(v) for v in (1.0, 2.0, 6.0, 0.5))
_PI, _TWO_PI, _KEPLER_TOL, _DANBY = (np.array(v) for v in (math.pi, TWO_PI, KEPLER_TOL, 0.85))


@dataclass(frozen=True)
class OrbitalElements:
    """Keplerian element set, elliptic, anomaly tagged mean or true.

    Angles in radians, semi-major axis in meters, epoch in scenario
    seconds. ``anomaly_kind`` is ``"mean"`` or ``"true"``.
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    anomaly: float
    anomaly_kind: str = "mean"
    epoch: float = 0.0

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if not (0.0 <= self.e < 1.0):
            raise ValueError(f"eccentricity must be in [0, 1), got {self.e}")
        if not (0.0 <= self.i <= math.pi):
            raise ValueError(f"inclination must be in [0, pi], got {self.i}")
        if self.anomaly_kind not in ("mean", "true"):
            raise ValueError(f"anomaly_kind must be 'mean' or 'true', got {self.anomaly_kind!r}")
        object.__setattr__(self, "anomaly", self.anomaly % TWO_PI)

    def mean_motion(self, mu: float) -> float:
        return math.sqrt(mu / self.a**3)

    def period(self, mu: float) -> float:
        return TWO_PI / self.mean_motion(mu)

    def semilatus_rectum(self) -> float:
        return self.a * (1.0 - self.e**2)

    def mean_anomaly(self) -> float:
        if self.anomaly_kind == "mean":
            return self.anomaly
        return true_to_mean(self.anomaly, self.e)

    def true_anomaly(self) -> float:
        if self.anomaly_kind == "true":
            return self.anomaly
        return mean_to_true(self.anomaly, self.e)

    def as_array(self) -> np.ndarray:
        """[a, e, i, raan, argp, M] with the anomaly expressed as mean."""
        return np.array([self.a, self.e, self.i, self.raan, self.argp, self.mean_anomaly()])

    @classmethod
    def from_array(cls, k: np.ndarray, epoch: float = 0.0) -> "OrbitalElements":
        return cls(a=float(k[0]), e=float(k[1]), i=float(k[2]), raan=float(k[3]),
                   argp=float(k[4]), anomaly=float(k[5]), anomaly_kind="mean", epoch=epoch)


@dataclass(frozen=True)
class StateVector:
    """Heliocentric-inertial Cartesian state (m, m/s)."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        if pos.shape != (3,) or vel.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ValueError("state components must be finite")
        if np.linalg.norm(pos) == 0.0:
            raise ValueError("position magnitude must be nonzero")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


@dataclass(frozen=True)
class BodyEphemeris:
    """Fixed Keplerian ephemeris of a body around the Sun (or a circular variant)."""

    elements: OrbitalElements
    mu_central: float

    def state_at(self, t: float) -> StateVector:
        k = kepler_propagate(self.elements, t - self.elements.epoch, self.mu_central)
        return elements_to_state(k, self.mu_central)


# ---------------------------------------------------------------------------
# Anomaly conversions
# ---------------------------------------------------------------------------

def solve_kepler(mean_anomaly: float, e: float) -> float:
    """Solve E - e sin E = M for the eccentric anomaly.

    Newton iteration from Danby's starter E0 = M + 0.85 e sign(sin M), M
    reduced to [-pi, pi], until |E - e sin E - M| < ``KEPLER_TOL``; after
    ``KEPLER_MAX_ITER`` Newton steps without that, bisection on
    [M - e, M + e] to the same tolerance.
    """
    m = math.remainder(mean_anomaly, TWO_PI)  # [-pi, pi], best conditioning
    # Starter: Danby's initial guess, at e = 0 the root itself
    sin, cos = math.sin, math.cos  # the deflection loop calls this millions of times
    E = m + 0.85 * math.copysign(e, sin(m))
    for _ in range(KEPLER_MAX_ITER):
        f = E - e * sin(E) - m
        if abs(f) < KEPLER_TOL:
            return E % TWO_PI
        fp = 1.0 - e * cos(E)
        E -= f / fp
    # Newton failed (should not happen for e < 1); bisect on [m-e, m+e]
    lo, hi = m - e, m + e
    for _ in range(200):
        E = 0.5 * (lo + hi)
        f = E - e * math.sin(E) - m
        if abs(f) < KEPLER_TOL:
            break
        if f > 0.0:
            hi = E
        else:
            lo = E
    return E % TWO_PI


def solve_kepler_array(mean_anomaly, e) -> np.ndarray:
    """``solve_kepler`` over an array of mean anomalies, element by element.

    ``e`` is one eccentricity or one per element. Same reduction to
    [-pi, pi], Danby starter, tolerance, iteration cap and bisection
    fallback as the scalar solver; each element stops where the scalar
    solver would return it.
    """
    # math.remainder as an exact fmod folded into [-pi, pi]; the two part
    # only at an exact tie, +pi against -pi, which solve to the same E
    m = np.fmod(np.asarray(mean_anomaly, dtype=float), TWO_PI)
    return solve_kepler_reduced(np.where(m < -math.pi, m + TWO_PI, m), e)


def solve_kepler_reduced(m, e) -> np.ndarray:
    """``solve_kepler_array`` on an array of mean anomalies in [-pi, 2 pi],
    such as ``M % TWO_PI`` gives: on those the fmod and the fold from below
    are the identity, so only the fold from above is left."""
    # m - 2 pi where m > pi: subtracting 0 leaves every other m as it is,
    # -0 included, and costs less than a where
    m = m - _TWO_PI * (m > _PI)

    # Newton on every element, each frozen once it has converged: cheaper
    # than gathering the live elements at the sizes the deflection batch
    # runs. Until the first element converges there is nothing to freeze.
    E = m + _DANBY * np.copysign(e, np.sin(m))
    for _ in range(KEPLER_MAX_ITER):
        f = E - e * np.sin(E) - m
        done = np.abs(f) < _KEPLER_TOL
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            return E % _TWO_PI
        newton = E - f / (_ONE - e * np.cos(E))
        E = np.where(done, E, newton) if n_done else newton
    # Newton failed (should not happen for e < 1); bisect on [m-e, m+e]
    E_flat, m_flat = E.reshape(-1), m.reshape(-1)
    e = np.broadcast_to(e, m.shape).reshape(-1)
    live = np.flatnonzero(~done.reshape(-1))
    lo, hi = m_flat[live] - e[live], m_flat[live] + e[live]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        E_flat[live] = mid
        f = mid - e[live] * np.sin(mid) - m_flat[live]
        going = ~(np.abs(f) < KEPLER_TOL)
        live, lo, hi, mid, f = live[going], lo[going], hi[going], mid[going], f[going]
        if live.size == 0:
            break
        hi = np.where(f > 0.0, mid, hi)
        lo = np.where(f > 0.0, lo, mid)
    return E_flat.reshape(m.shape) % TWO_PI


def eccentric_to_true(E, e):
    """True anomaly of an eccentric anomaly; ``E`` a float or an array, and
    ``e`` a float or one eccentricity per element."""
    # the deflection loop calls this once per rates call, so floats skip
    # the xp() call
    m = math if isinstance(E, float) else batch.xp(E)
    half = E / 2.0
    return (2.0 * m.atan2(m.sqrt(1.0 + e) * m.sin(half),
                          m.sqrt(1.0 - e) * m.cos(half))) % TWO_PI


def true_to_eccentric(nu: float, e: float) -> float:
    return (2.0 * math.atan2(math.sqrt(1.0 - e) * math.sin(nu / 2.0),
                             math.sqrt(1.0 + e) * math.cos(nu / 2.0))) % TWO_PI


def mean_to_true(M, e: float):
    """True anomaly of a mean anomaly; ``M`` a float or an array."""
    if isinstance(M, np.ndarray):
        return eccentric_to_true(solve_kepler_array(M, e), e)
    return eccentric_to_true(solve_kepler(M, e), e)


def true_to_mean(nu: float, e: float) -> float:
    E = true_to_eccentric(nu, e)
    return (E - e * math.sin(E)) % TWO_PI


# ---------------------------------------------------------------------------
# Element <-> state conversions
# ---------------------------------------------------------------------------

def elements_to_state(k: OrbitalElements, mu: float) -> StateVector:
    """Cartesian heliocentric state from Keplerian elements (elliptic)."""
    nu = k.true_anomaly()
    p = k.semilatus_rectum()
    r = p / (1.0 + k.e * math.cos(nu))

    cos_nu, sin_nu = math.cos(nu), math.sin(nu)
    r_pf = np.array([r * cos_nu, r * sin_nu, 0.0])
    vf = math.sqrt(mu / p)
    v_pf = np.array([-vf * sin_nu, vf * (k.e + cos_nu), 0.0])

    rot = _perifocal_to_inertial(k.i, k.raan, k.argp)
    return StateVector(position=rot @ r_pf, velocity=rot @ v_pf)


def state_to_elements(s: StateVector, mu: float, epoch: float = 0.0) -> OrbitalElements:
    """Keplerian elements from a Cartesian state. Bound orbits only.

    Angles are extracted with atan2 forms that stay well conditioned near
    periapsis, zero inclination and zero eccentricity (the acos variants
    lose half the significant digits there).
    """
    r_vec, v_vec = s.position, s.velocity
    r = float(np.linalg.norm(r_vec))
    v2 = float(v_vec @ v_vec)

    energy = 0.5 * v2 - mu / r
    if energy >= 0.0:
        raise ValueError("state is not on a bound (elliptic) orbit")
    a = -mu / (2.0 * energy)

    h_vec = np.cross(r_vec, v_vec)
    h = float(np.linalg.norm(h_vec))
    if h < 1e-6 * math.sqrt(mu * r):
        raise ValueError("degenerate (rectilinear) state: |h| ~ 0")
    h_hat = h_vec / h

    e_vec = np.cross(v_vec, h_vec) / mu - r_vec / r
    e = min(float(np.linalg.norm(e_vec)), 1.0 - 1e-15)
    p = h * h / mu

    i = math.atan2(math.hypot(h_vec[0], h_vec[1]), h_vec[2])

    n_vec = np.array([-h_vec[1], h_vec[0], 0.0])  # node line = z x h
    n = float(np.linalg.norm(n_vec))
    equatorial = n <= 1e-12 * h

    if equatorial:
        raan = 0.0
        # latitude argument measured from the x-axis in the orbit plane
        sign = 1.0 if h_vec[2] >= 0.0 else -1.0
        theta = math.atan2(sign * r_vec[1], r_vec[0]) % TWO_PI
    else:
        n_hat = n_vec / n
        raan = math.atan2(n_vec[1], n_vec[0]) % TWO_PI
        theta = math.atan2(float(r_vec @ np.cross(h_hat, n_hat)),
                           float(r_vec @ n_hat)) % TWO_PI

    if e > 1e-12:
        # e r sin(nu) = (r.v) sqrt(p/mu); e r cos(nu) = p - r
        nu = math.atan2(float(r_vec @ v_vec) * math.sqrt(p / mu), p - r) % TWO_PI
        argp = (theta - nu) % TWO_PI
    else:
        argp = 0.0
        nu = theta

    return OrbitalElements(a=a, e=e, i=i, raan=raan, argp=argp,
                           anomaly=nu, anomaly_kind="true", epoch=epoch)


def _perifocal_to_inertial(i: float, raan: float, argp: float) -> np.ndarray:
    co, so = math.cos(raan), math.sin(raan)
    ci, si = math.cos(i), math.sin(i)
    cw, sw = math.cos(argp), math.sin(argp)
    return np.array([
        [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
        [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
        [sw * si, cw * si, ci],
    ])


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def kepler_propagate(k: OrbitalElements, dt: float, mu: float) -> OrbitalElements:
    """Advance the orbit by ``dt`` of unperturbed two-body motion.

    Only the anomaly changes: M advances by n*dt.
    """
    m0 = k.mean_anomaly()
    m1 = m0 + k.mean_motion(mu) * dt
    return replace(k, anomaly=m1 % TWO_PI, anomaly_kind="mean", epoch=k.epoch + dt)


# ---------------------------------------------------------------------------
# Flight-path angle
# ---------------------------------------------------------------------------

def flight_path_angle(e: float, nu):
    """Angle of the velocity above the transverse direction: tan g = e sin nu / (1 + e cos nu).

    ``nu`` is a float or an array of true anomalies.
    """
    # the natural-orbit sweep and the tracking loop call this once per
    # float sample, so floats skip the xp() call
    m = math if isinstance(nu, float) else batch.xp(nu)
    return m.atan2(e * m.sin(nu), 1.0 + e * m.cos(nu))


# ---------------------------------------------------------------------------
# Gauss variational equations and the RK4 step
# ---------------------------------------------------------------------------

def gauss_rates_rtn(a, e, inc, argp, nu, cos_nu, sin_nu, one_e2, p, r, e_sin,
                    u_r, u_s, u_w, mu: float) -> tuple:
    """Element rates (da, de, di, draan, dargp, dM)/dt on floats, or on
    (N,) columns with one orbit per row.

    The classic radial/transverse/normal form of the Gauss variational
    equations (Battin): ``u_r`` along the radius, ``u_s`` transverse in the
    orbit plane, ``u_w`` along the angular momentum. The caller passes the
    factors of the orbit at ``nu`` that it forms anyway: cos and sin of nu,
    one_e2 = 1 - e*e, p = a * one_e2, r = p / (1 + e cos nu) and
    e_sin = e * sin nu. The out-of-plane terms are skipped when u_w = 0 (a
    batch row with u_w = 0 gets terms of +-0), so a planar orbit (i = 0)
    never meets the sin(i) singularity; e = 0 stays singular. No guards:
    the deflection loop calls this millions of times.
    """
    # the deflection loop calls this once per rates call, so floats skip
    # the xp() call
    m = batch.FLOAT if isinstance(nu, float) else batch.ARRAY
    h = m.sqrt(mu * p)
    # shared factors, formed as each term forms them
    p_cos, p_r, h_e = p * cos_nu, p + r, h * e
    p_r_sin = p_r * sin_nu

    da = 2.0 * a * a / h * (e_sin * u_r + (p / r) * u_s)
    de = (p * sin_nu * u_r + (p_r * cos_nu + r * e) * u_s) / h
    dargp = (-p_cos * u_r + p_r_sin * u_s) / h_e
    di = draan = 0.0
    out_of_plane = u_w != 0.0
    if m.any(out_of_plane):
        theta = nu + argp
        cos_th, sin_th = m.cos(theta), m.sin(theta)
        # A row of a batch with u_w = 0 takes sin(i) = 1, so its terms are
        # +-0: adding them leaves its elements as they are
        sin_i = m.sin(inc)
        h_sin_i = h * (sin_i if m.all(out_of_plane) else m.where(out_of_plane, sin_i, 1.0))
        r_sin_th = r * sin_th
        di = r * cos_th / h * u_w
        draan = r_sin_th / h_sin_i * u_w
        dargp = dargp - r_sin_th * m.cos(inc) / h_sin_i * u_w
    eta = m.sqrt(one_e2)
    dm = m.sqrt(mu / a**3) + eta / h_e * ((p_cos - 2.0 * r * e) * u_r - p_r_sin * u_s)
    return da, de, di, draan, dargp, dm


def gauss_rates(k: OrbitalElements, u_tnh: np.ndarray, mu: float) -> np.ndarray:
    """Element rates [da, de, di, dO, dw, dM]/dt under acceleration u.

    ``u_tnh`` is given in the tangential frame (t along velocity, n = h x t
    in-plane, h out-of-plane). The input is rotated to the radial/transverse
    split through the flight-path angle and ``gauss_rates_rtn`` is applied.
    With u = 0 every rate is zero except dM/dt = n.
    """
    if k.e < SINGULARITY_GUARD:
        raise ValueError(f"Gauss rates singular: e={k.e} below guard {SINGULARITY_GUARD}")
    if k.i < SINGULARITY_GUARD:
        raise ValueError(f"Gauss rates singular: i={k.i} below guard {SINGULARITY_GUARD}")

    a, e = k.a, k.e
    nu = k.true_anomaly()
    cos_nu, sin_nu = math.cos(nu), math.sin(nu)
    one_ec = 1.0 + e * cos_nu
    one_e2 = 1.0 - e * e
    p = a * one_e2
    e_sin = e * sin_nu
    u_t, u_n, u_h = float(u_tnh[0]), float(u_tnh[1]), float(u_tnh[2])
    # Rotate (t, n) -> (radial, transverse): t = sin(g) r + cos(g) s,
    # n = h x t = sin(g) s - cos(g) r, with g the flight-path angle.
    w = math.hypot(e_sin, one_ec)
    sin_g = e_sin / w
    cos_g = one_ec / w
    return np.array(gauss_rates_rtn(a, e, k.i, k.argp, nu, cos_nu, sin_nu, one_e2, p,
                                    p / one_ec, e_sin, u_t * sin_g - u_n * cos_g,
                                    u_t * cos_g + u_n * sin_g, u_h, mu))


class NonFiniteStateError(ValueError):
    """A component of an integrator's state that is not finite after a step,
    or an objective or violation of an optimizer's evaluation
    (``moo.optimize``). ``row`` is the index of the run among the ones
    integrated together, or None for a run on its own."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def rk4_step(f, t, y, dt):
    """One classic fixed-step RK4 step of dy/dt = f(t, y).

    ``f(t, y) -> (dy, aux)`` takes and gives a sequence of floats or of (N,)
    columns, or a (K, N) array with one run per column (``t`` and ``dt``
    then (N,) columns): the array form forms each stage as one expression
    over the whole state, with the same arithmetic per element, so the
    same bits. ``aux`` is whatever the caller records at the start of the
    step. Returns the new state, a list or a (K, N) array, and the ``aux``
    of the first stage.
    """
    k1, aux = f(t, y)
    if isinstance(y, np.ndarray):
        half, sixth = _HALF * dt, dt / _SIX
        t_half = t + half
        k2 = f(t_half, y + half * k1)[0]
        k3 = f(t_half, y + half * k2)[0]
        k4 = f(t + dt, y + dt * k3)[0]
        return y + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4), aux
    half, sixth = 0.5 * dt, dt / 6.0
    k2 = f(t + half, [yj + half * kj for yj, kj in zip(y, k1)])[0]
    k3 = f(t + half, [yj + half * kj for yj, kj in zip(y, k2)])[0]
    k4 = f(t + dt, [yj + dt * kj for yj, kj in zip(y, k3)])[0]
    return [yj + sixth * (a + 2.0 * b + 2.0 * c + d)
            for yj, a, b, c, d in zip(y, k1, k2, k3, k4)], aux


@dataclass(frozen=True)
class GaussHistory:
    """Element history from a Gauss-equation integration.

    ``elements`` rows are [a, e, i, raan, argp, M] with M left unwrapped so
    the accumulated mean anomaly (including the n*t secular part) survives
    cancellation-sensitive differencing.
    """

    times: np.ndarray
    elements: np.ndarray
    mu: float

    def final(self) -> OrbitalElements:
        return OrbitalElements.from_array(self.elements[-1], epoch=float(self.times[-1]))

    def mean_anomaly_integral(self) -> float:
        """Integral of dM/dt over the whole window (unwrapped)."""
        return float(self.elements[-1, 5] - self.elements[0, 5])


def fixed_steps(span: float, period: float) -> tuple[int, float]:
    """(n, dt): the fewest equal RK4 steps of at most ``STEP_FRACTION`` of
    ``period`` that cover ``span``, and their length."""
    n = max(1, int(math.ceil(span / (STEP_FRACTION * period))))
    return n, span / n


def integrate_gauss(k0: OrbitalElements, accel_fn, t0: float, t1: float,
                    mu: float) -> GaussHistory:
    """Fixed-step RK4 integration of the Gauss equations, recording every step.

    ``accel_fn(t, k) -> u_tnh`` supplies the perturbing acceleration in the
    tangential frame, given the element list k = [a, e, i, raan, argp, M]
    with M unwrapped. The steps are ``fixed_steps`` of the initial period.
    """
    n_steps, dt = fixed_steps(t1 - t0, k0.period(mu))

    k = k0.as_array().tolist()
    times = [t0]
    rows = [k]

    def rhs(t, karr):
        kel = OrbitalElements.from_array(karr[:5] + [karr[5] % TWO_PI])
        return gauss_rates(kel, accel_fn(t, karr), mu).tolist(), None

    for step in range(n_steps):
        k, _ = rk4_step(rhs, t0 + step * dt, k, dt)
        times.append(t0 + (step + 1) * dt)
        rows.append(k)

    return GaussHistory(times=np.array(times), elements=np.array(rows), mu=mu)


def delta_m_at_moid(integral: float, t0: float, ti: float, t_moid: float,
                    n_a0: float, n_ai: float) -> float:
    """Accumulated change in mean anomaly at the virtual encounter epoch.

    dM = integral(dM/dt, t0..ti) + n_A0 (t0 - t_MOID) + n_Ai (t_MOID - ti),
    i.e. the anomaly offset between the deflected orbit (thrusting until ti,
    coasting after) and the undeflected orbit, both evaluated at t_MOID.
    ``integral`` is the unwrapped mean-anomaly change over the thrust
    window, e.g. ``GaussHistory.mean_anomaly_integral()``.
    """
    if not (t0 <= ti <= t_moid):
        raise ValueError("expected t0 <= ti <= t_moid")
    return integral + n_a0 * (t0 - t_moid) + n_ai * (t_moid - ti)


# ---------------------------------------------------------------------------
# Linearised proximal motion
# ---------------------------------------------------------------------------

class ProximalConstants(NamedTuple):
    """What the proximal relation takes of the reference orbit besides the
    anomaly: floats, or (N,) columns with one orbit per row. ``of`` forms
    each product once, as the relation's expression forms it."""

    a: float
    e: float
    argp: float
    a_e: float          # a * e
    a_eta2: float       # a * eta ** 2, the semi-latus rectum
    eta: float          # sqrt(1 - e^2)
    eta2: float         # eta ** 2
    eta3: float         # eta ** 3
    cos_i: float
    sin_i: float

    @classmethod
    def of(cls, k: OrbitalElements) -> "ProximalConstants":
        a, e = k.a, k.e
        eta = math.sqrt(1.0 - e * e)
        return cls(a=a, e=e, argp=k.argp, a_e=a * e, a_eta2=a * eta**2, eta=eta,
                   eta2=eta**2, eta3=eta**3, cos_i=math.cos(k.i), sin_i=math.sin(k.i))


def proximal_relation(k_a: OrbitalElements, dk: np.ndarray):
    """Hill-frame position of a neighbouring orbit, first order in the deltas,
    as a function of the true anomaly.

    ``dk`` = [de, di, draan, dargp, dM]; the semi-major-axis delta is zero by
    construction so the relative motion is periodic in nu. The function
    takes a float nu, giving floats (x, y, z), or an array, giving three
    columns with one row per anomaly.

    The relation runs in two stages: ``proximal_factors`` forms the factors
    that do not depend on the deltas, and ``proximal_position`` multiplies
    them by the deltas. A caller that places many orbits on one grid of
    anomalies forms the factors once and runs the second stage per orbit.
    One float sample takes ``math``'s sin and cos. On the numpy build the
    studies were checked on they agree with numpy's on every anomaly drawn,
    so a sample gives the bits of its row in an array (DECISIONS.md).
    """
    dk = np.asarray(dk, dtype=float)
    if dk.shape != (5,):
        raise ValueError("dk must be [de, di, draan, dargp, dM]")
    deltas = dk.tolist()
    k = ProximalConstants.of(k_a)
    a_eta2, e, argp = k.a_eta2, k.e, k.argp

    def position(nu):
        theta = nu + argp
        m = math if isinstance(nu, float) else batch.xp(nu)
        c, s, cos_th, sin_th = m.cos(nu), m.sin(nu), m.cos(theta), m.sin(theta)
        return proximal_position(
            proximal_factors(k, c, s, a_eta2 / (1.0 + e * c), cos_th, sin_th), deltas)
    return position


def proximal_factors(k: ProximalConstants, c, s, r, cos_th, sin_th):
    """The factors of the proximal relation that do not depend on the deltas,
    from the cos ``c`` and sin ``s`` of the true anomaly nu, the radius ``r``
    and the cos and sin of nu + argp: floats or columns.

    ``proximal_relation`` passes the reference orbit's own r, p / (1 + e c);
    the deflection passes the osculating radius of the deflected orbit. Each
    factor is the product that the relation's expression forms first, in
    its order, and squares are products, as numpy forms them.
    """
    a, e, _, a_e, _, eta, eta2, eta3, cos_i, sin_i = k
    e_c = e * c
    q = 1.0 + e_c
    # x's two factors, y's four, z's two: the order proximal_position reads
    return (a_e * s / eta, a * c, (r / eta3) * (q * q), r, (r * s / eta2) * (2.0 + e_c),
            r * cos_i, sin_th, cos_th * sin_i)


def proximal_position(factors, deltas):
    """Hill-frame (x, y, z) from the factors of ``proximal_factors`` and the
    deltas [de, di, draan, dargp, dM]: floats, or columns for a grid."""
    x_dm, x_de, y_dm, r, y_de, y_draan, z_di, z_draan = factors
    de, di, draan, dargp, dm = deltas
    x = x_dm * dm - x_de * de
    y = y_dm * dm + r * dargp + y_de * de + y_draan * draan
    z = r * (z_di * di - z_draan * draan)
    return x, y, z


def linear_proximal_position(k_a: OrbitalElements, dk: np.ndarray, nu: float) -> np.ndarray:
    """Hill-frame position of a neighbouring orbit (``proximal_relation``):
    a 3-vector for a float ``nu``, or one row per anomaly for an array."""
    return batch.vector(*proximal_relation(k_a, dk)(nu))


# ---------------------------------------------------------------------------
# MOID and b-plane impact parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoidResult:
    nu_1: float
    nu_2: float
    distance: float


def _orbit_points(k: OrbitalElements, nus: np.ndarray) -> np.ndarray:
    """Positions (N x 3) on an orbit at an array of true anomalies."""
    p = k.semilatus_rectum()
    r = p / (1.0 + k.e * np.cos(nus))
    r_pf = np.stack([r * np.cos(nus), r * np.sin(nus), np.zeros_like(nus)], axis=-1)
    return r_pf @ _perifocal_to_inertial(k.i, k.raan, k.argp).T


def find_moid(k1: OrbitalElements, k2: OrbitalElements) -> MoidResult:
    """Minimum orbital intersection distance between two ellipses.

    Coarse 2-degree grid over both anomalies followed by a local
    Nelder-Mead refinement of the geometric distance. Orbit timing plays no
    role: the MOID is a property of the two curves.
    """
    # imported on the first call: no study calls this, and scipy at module
    # level was most of every run's start-up (DECISIONS.md)
    from scipy.optimize import minimize

    nus = np.linspace(0.0, TWO_PI, 180, endpoint=False)
    pts1 = _orbit_points(k1, nus)
    pts2 = _orbit_points(k2, nus)

    d2 = (np.sum(pts1**2, axis=1)[:, None] + np.sum(pts2**2, axis=1)[None, :]
          - 2.0 * pts1 @ pts2.T)
    i1, i2 = np.unravel_index(int(np.argmin(d2)), d2.shape)

    def dist(x):
        p1 = _orbit_points(k1, np.array([x[0]]))[0]
        p2 = _orbit_points(k2, np.array([x[1]]))[0]
        return float(np.linalg.norm(p1 - p2))

    res = minimize(dist, x0=np.array([nus[i1], nus[i2]]), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-4, "maxiter": 2000})
    grid_best = math.sqrt(max(float(d2[i1, i2]), 0.0))
    if res.fun <= grid_best:
        nu1, nu2, best = float(res.x[0]) % TWO_PI, float(res.x[1]) % TWO_PI, float(res.fun)
    else:
        nu1, nu2, best = float(nus[i1]), float(nus[i2]), grid_best
    return MoidResult(nu_1=nu1, nu_2=nu2, distance=best)


def bplane_miss(s_dev: StateVector, s_0: StateVector, earth_state: StateVector) -> float:
    """In-plane length of the deflection on the plane normal to the
    asteroid-Earth relative velocity of the undeflected state ``s_0``."""
    v_rel = s_0.velocity - earth_state.velocity
    v_norm = float(np.linalg.norm(v_rel))
    if v_norm < 1e-9 * float(np.linalg.norm(s_0.velocity)):
        raise ValueError("b-plane undefined: asteroid-Earth relative velocity ~ 0")
    v_hat = v_rel / v_norm
    dr = s_dev.position - s_0.position
    in_plane = dr - float(dr @ v_hat) * v_hat
    return float(np.linalg.norm(in_plane))


def impact_parameter(k_dev: OrbitalElements, k_0: OrbitalElements,
                     earth: BodyEphemeris, t_moid: float, mu: float) -> float:
    """Miss distance on the Earth b-plane at the virtual encounter epoch.

    The deflected and undeflected orbits are both propagated to t_MOID and
    their separation is projected by ``bplane_miss``.
    """
    s_dev = elements_to_state(kepler_propagate(k_dev, t_moid - k_dev.epoch, mu), mu)
    s_0 = elements_to_state(kepler_propagate(k_0, t_moid - k_0.epoch, mu), mu)
    return bplane_miss(s_dev, s_0, earth.state_at(t_moid))
