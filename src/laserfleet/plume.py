"""Debris plume, optics contamination and non-gravitational forces.

The vapour expands from the illuminated spot like rocket exhaust past a
nozzle throat: density falls with distance and with angle off the plume
axis (the Hill y-axis), vanishing outside the expansion cone. Particles
reaching a Sun-facing mirror condense and the deposited layer attenuates
the beamed power exponentially.

Two spacecraft-level forces live here as well: radiation pressure on the
optics and direct momentum flux from plume impingement.

The geometry and force relations take one sample (floats and 3-vectors)
or a batch over a leading sample axis (see ``batch``); their branches are
masks over the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batch
from .constants import (
    ABSORPTION_COEFFICIENT,
    ADIABATIC_INDEX,
    AU,
    JET_CONSTANT,
    LAYER_DENSITY,
    MAX_EXPANSION_ANGLE,
    SOLAR_FLUX_1AU,
    SPEED_OF_LIGHT,
)
from .sublimation import AsteroidModel, ellipse_radius


@dataclass(frozen=True)
class SpotGeometry:
    """Spot-to-spacecraft geometry in the Hill frame at one instant.

    For a batch every field carries the leading sample axis.
    """

    spot_to_sc: np.ndarray   # m, from the spot to the spacecraft
    spot_position: np.ndarray
    r_ell: float             # m, equatorial radius under the spot direction
    theta_va: float          # rad, velocity elevation over the y-axis
    phi: float               # rad, angle of spot_to_sc off the y-axis
    big_theta: float         # rad, pi * phi / (2 phi_max)

    @property
    def distance(self):
        return batch.norm(self.spot_to_sc)


# Direction of the incoming sunlight (Sun at -x), and the steering normal
# at flat incidence; read-only, since a result may be the object itself
_SUN_RAY = np.array([1.0, 0.0, 0.0])
_FLAT_NORMAL = np.array([0.0, 1.0, 0.0])
_SUN_RAY.flags.writeable = _FLAT_NORMAL.flags.writeable = False


def _acos(c):
    """arccos of a cosine that rounding may have pushed past +-1."""
    m = batch.xp(c)
    return m.acos(m.clip(c, -1.0, 1.0))


def spot_position(ast: AsteroidModel, t, theta_va) -> np.ndarray:
    """Hill-frame position of the illuminated spot on the spinning ellipsoid."""
    w_t = ast.spin_rate * t
    angle = -w_t - theta_va
    r_ell = ellipse_radius(ast, angle)
    m = batch.xp(angle)
    sin_wt, cos_wt = m.sin(w_t), m.cos(w_t)
    sin_a, cos_a = m.sin(angle), m.cos(angle)
    return batch.vector(r_ell * (sin_wt * cos_a - cos_wt * sin_a),
                        r_ell * (cos_wt * cos_a + sin_wt * sin_a), 0.0)


def spot_to_spacecraft(sc_pos: np.ndarray, ast: AsteroidModel, t,
                       theta_va) -> SpotGeometry:
    """Geometry of the spot-to-spacecraft line at time t.

    Rejects spacecraft positions inside the ellipsoid, for any sample.
    """
    sc_pos = np.asarray(sc_pos, dtype=float)
    axes = np.array(ast.semi_axes)
    if np.any(np.sum((sc_pos / axes) ** 2, axis=-1) <= 1.0):
        raise ValueError("spacecraft position is inside the asteroid")

    w_t = ast.spin_rate * t
    angle = -w_t - theta_va
    spot = spot_position(ast, t, theta_va)
    offset = sc_pos - spot

    norm = batch.norm(offset)
    phi = batch.apply_where(norm > 0.0, lambda y, n: _acos(y / n), offset.T[1], norm)
    big_theta = math.pi * phi / (2.0 * MAX_EXPANSION_ANGLE)
    return SpotGeometry(spot_to_sc=offset, spot_position=spot,
                        r_ell=ellipse_radius(ast, angle),
                        theta_va=theta_va, phi=phi, big_theta=big_theta)


def plume_density(geom: SpotGeometry, mdot: float, v_bar: float,
                  a_spot: float, d_spot: float):
    """Vapour density (kg/m^3) at the spacecraft.

    Throat density mdot / (v A_spot) scaled by inverse-square spherical
    expansion from the spot and the angular profile of a supersonic jet;
    zero outside the maximum expansion angle.
    """
    if mdot < 0.0:
        raise ValueError("mass flow must be non-negative")

    def inside_cone(spot_to_sc, big_theta):
        geometric = (d_spot / (2.0 * batch.norm(spot_to_sc) + d_spot)) ** 2
        angular = batch.xp(big_theta).cos(big_theta) ** (2.0 / (ADIABATIC_INDEX - 1.0))
        return JET_CONSTANT * mdot / (v_bar * a_spot) * geometric * angular

    return batch.apply_where(geom.phi < MAX_EXPANSION_ANGLE, inside_cone,
                             geom.spot_to_sc, geom.big_theta)


def view_factor_angle(spot_to_sc: np.ndarray):
    """Angle between the Sun-pointing mirror normal (-x) and the flow source.

    The incident flow travels along spot_to_sc; its source direction seen
    from the mirror is -spot_to_sc. cos(psi) > 0 means the optical face is
    exposed to the flow.
    """
    offset = np.asarray(spot_to_sc, dtype=float)
    norm = batch.norm(offset)
    return batch.apply_where(norm != 0.0, lambda x, n: _acos(x / n), offset.T[0], norm)


def contamination_rate(rho_exp: float, v_bar: float, psi_vf: float,
                       rho_layer: float = LAYER_DENSITY) -> float:
    """Growth rate (m/s) of the condensed layer on the mirror.

    The factor 2 on the mean thermal speed accounts for expansion into
    vacuum; surfaces facing away from the flow accumulate nothing.
    """
    if rho_exp < 0.0:
        raise ValueError("plume density must be non-negative")
    cos_psi = math.cos(psi_vf)
    if cos_psi <= 1e-12:  # grazing or averted surface
        return 0.0
    return 2.0 * v_bar * rho_exp * cos_psi / rho_layer


def degradation_factor(h_cnd: float) -> float:
    """Beamed-power attenuation of a condensed layer of thickness h (m)."""
    if h_cnd < 0.0:
        raise ValueError("layer thickness must be non-negative")
    return math.exp(-2.0 * ABSORPTION_COEFFICIENT * h_cnd)


def line_of_sight_occluded(spot: np.ndarray, sc_pos: np.ndarray,
                           semi_axes: tuple[float, float, float]):
    """True when the asteroid body blocks the spot-to-spacecraft line.

    In axis-scaled coordinates the body is the unit sphere and the spot
    sits on it; by convexity the segment stays outside exactly when it
    leaves the surface outward, i.e. when <spot, sc> > 1 in scaled space.
    A batch gives one bool per sample.
    """
    axes = np.asarray(semi_axes, dtype=float)
    s0 = np.asarray(spot, dtype=float) / axes
    s1 = np.asarray(sc_pos, dtype=float) / axes
    return batch.dot(s0, s1) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Forces on the spacecraft
# ---------------------------------------------------------------------------

def srp_force(design, r_sc, beta, n_steer: np.ndarray) -> np.ndarray:
    """Radiation-pressure force (N) in the Hill frame.

    First term: recoil of the redirected beam along the steering-mirror
    normal, with beta the half angle between that normal and the Sun line.
    Second term: absorption residue of the imperfect primary/secondary
    reflections, pushed anti-Sun (+x).
    """
    n_steer = np.asarray(n_steer, dtype=float)
    flux = SOLAR_FLUX_1AU / SPEED_OF_LIGHT * (AU / r_sc) ** 2
    a_m1 = design.collector_area
    cos_beta = batch.xp(beta).cos(beta)
    beam = batch.col(2.0 * design.eta_sys * a_m1 * flux * cos_beta ** 2) * n_steer
    residual = batch.col((1.0 - design.eta_mirror**2) * a_m1 * flux) * _SUN_RAY
    return beam + residual


def steering_geometry(sc_pos: np.ndarray, spot: np.ndarray):
    """Steering-mirror half angle and normal for beaming sunlight to the spot.

    Incoming light travels +x (Sun at -x); the normal bisects the reversed
    incoming ray and the outgoing spot direction.
    """
    out = np.asarray(spot, dtype=float) - np.asarray(sc_pos, dtype=float)
    norm = batch.norm(out)
    if batch.any_true(norm == 0.0):
        raise ValueError("spot and spacecraft coincide")
    n = out / batch.col(norm) - _SUN_RAY
    n_norm = batch.norm(n)
    # below 1e-12 the beam passes straight through: flat incidence, no
    # recoil component
    return batch.apply_where(n_norm >= 1e-12, _steered, n, n_norm,
                             fill=(math.pi / 2.0, _FLAT_NORMAL))


def _steered(n: np.ndarray, n_norm):
    """Half angle and unit normal from the unnormalised bisector n."""
    n_steer = n / batch.col(n_norm)
    flip = n_steer.T[0] > 0.0
    if batch.any_true(flip):
        n_steer[flip] = -n_steer[flip]
    return _acos(-n_steer.T[0]), n_steer


def plume_force(rho_exp, v_bar: float, a_eq: float, psi_vf,
                direction: np.ndarray) -> np.ndarray:
    """Momentum flux (N) of condensing plume particles on the mirror.

    All impinging particles stick; the equivalent flat intercept area is
    the primary-mirror area. Zero for surfaces facing away from the flow.
    """
    if np.any(np.asarray(rho_exp) < 0.0):
        raise ValueError("plume density must be non-negative")
    cos_psi = batch.xp(psi_vf).cos(psi_vf)
    direction = np.asarray(direction, dtype=float)
    return batch.apply_where(
        (cos_psi > 1e-12) & (rho_exp != 0.0),
        lambda rho, c, d: batch.col(4.0 * rho * v_bar**2 * a_eq * c) * d,
        rho_exp, cos_psi, direction, fill=batch.ZERO3)
