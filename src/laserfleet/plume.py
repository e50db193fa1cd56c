"""Debris plume, optics contamination and non-gravitational forces.

The vapour expands from the illuminated spot like rocket exhaust past a
nozzle throat: density falls with distance and with angle off the plume
axis (the Hill y-axis), vanishing outside the expansion cone. Particles
reaching a Sun-facing mirror condense and the deposited layer attenuates
the beamed power exponentially.

Two spacecraft-level forces live here as well: radiation pressure on the
optics and direct momentum flux from plume impingement.

The spot, plume and contamination relations are written once on
components, which the deflection integrator calls directly. The geometry
and force functions take one sample (floats and 3-vectors) or a batch over
a leading sample axis (see ``batch``); their branches are masks.
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
from .sizing import MIRROR_REFLECTIVITY
from .sublimation import AsteroidModel, equatorial_radius


@dataclass(frozen=True)
class SpotGeometry:
    """Spot-to-spacecraft geometry in the Hill frame at one instant.

    For a batch every field carries the leading sample axis.
    """

    spot_to_sc: np.ndarray   # m, from the spot to the spacecraft
    spot_position: np.ndarray
    distance: float          # m, length of spot_to_sc
    phi: float               # rad, angle of spot_to_sc off the y-axis


# Direction of the incoming sunlight (Sun at -x), and the steering normal
# at flat incidence; read-only, since a result may be the object itself
_SUN_RAY = np.array([1.0, 0.0, 0.0])
_FLAT_NORMAL = np.array([0.0, 1.0, 0.0])
_SUN_RAY.flags.writeable = _FLAT_NORMAL.flags.writeable = False


# ---------------------------------------------------------------------------
# Relations on components: floats or (N,) columns with their ``batch``
# namespace ``m``, shared by the deflection's ``rates`` and the 3-vector
# functions after them. The spot-to-spacecraft distance comes from the
# caller, which forms it in its own order (DECISIONS.md).
# ---------------------------------------------------------------------------

def spot_point(m, w_spin, a_ell, b_ell, t, theta_va):
    """Hill-frame (x, y) of the illuminated spot on the spinning ellipsoid of
    equatorial semi-axes a_ell, b_ell; the spot is on the equator (z = 0)."""
    w_t = w_spin * t
    angle = -w_t - theta_va
    cos_a, sin_a = m.cos(angle), m.sin(angle)
    r_ell = equatorial_radius(m, a_ell, b_ell, cos_a, sin_a)
    sin_wt, cos_wt = m.sin(w_t), m.cos(w_t)
    return (r_ell * (sin_wt * cos_a - cos_wt * sin_a),
            r_ell * (cos_wt * cos_a + sin_wt * sin_a))


def clears_body(sx, sy, x, y, a2_ell, b2_ell):
    """Whether the line from the spot (sx, sy, 0) to the spacecraft (x, y, z)
    passes outside the body; a2_ell, b2_ell are the squared semi-axes.

    In axis-scaled coordinates the body is the unit sphere and the spot
    sits on it; by convexity the segment stays outside exactly when it
    leaves the surface outward, i.e. when <spot, sc> > 1 in scaled space.
    """
    return sx * x / a2_ell + sy * y / b2_ell > 1.0 + 1e-9


def axis_angle(m, d, dist):
    """Angle (rad) between an axis and a line of length dist > 0 with
    component d along it: off the plume axis (y), the cone angle; off the
    mirror normal (x), the view-factor angle."""
    return m.acos(m.clip(d / dist, -1.0, 1.0))


def jet_density(m, mdot, v_area, d_spot, dist, phi):
    """Vapour density (kg/m^3) at distance dist from the spot, at cone angle
    phi inside the maximum expansion angle: the throat density
    mdot / v_area (v_area = exhaust speed x spot area), spherical expansion
    from the spot and the angular profile of a supersonic jet."""
    return JET_CONSTANT * mdot / v_area * (d_spot / (2.0 * dist + d_spot)) ** 2 \
        * m.cos(math.pi * phi / (2.0 * MAX_EXPANSION_ANGLE)) ** (2.0 / (ADIABATIC_INDEX - 1.0))


def condensation_growth(rho, v_bar, dx, dist):
    """Growth rate (m/s) of the condensed layer on the Sun-facing optics,
    reached by vapour of density rho along a line of x-component dx > 0 and
    length dist; the factor 2 on the thermal speed is the expansion into
    vacuum."""
    return 2.0 * v_bar * rho * (dx / dist) / LAYER_DENSITY


def inside_body(pos, semi_axes):
    """Whether a Hill position, or each row of a batch, is inside or on the body."""
    x, y, z = batch.components(np.asarray(pos, dtype=float))
    u, v, w = x / semi_axes[0], y / semi_axes[1], z / semi_axes[2]
    return u * u + v * v + w * w <= 1.0


def spot_position(ast: AsteroidModel, t, theta_va) -> np.ndarray:
    """Hill-frame position of the illuminated spot on the spinning ellipsoid."""
    arrays = isinstance(t, np.ndarray) or isinstance(theta_va, np.ndarray)
    return batch.vector(*spot_point(batch.ARRAY if arrays else batch.FLOAT, ast.spin_rate,
                                    *ast.semi_axes[:2], t, theta_va), 0.0)


def spot_to_spacecraft(sc_pos: np.ndarray, ast: AsteroidModel, t,
                       theta_va) -> SpotGeometry:
    """Geometry of the spot-to-spacecraft line at time t; rejects spacecraft
    positions inside the ellipsoid, for any sample."""
    sc_pos = np.asarray(sc_pos, dtype=float)
    if np.any(inside_body(sc_pos, ast.semi_axes)):
        raise ValueError("spacecraft position is inside the asteroid")
    return spot_geometry(sc_pos, spot_position(ast, t, theta_va))


def spot_geometry(sc_pos: np.ndarray, spot: np.ndarray) -> SpotGeometry:
    """Geometry of the line from a spot of ``spot_position`` to a spacecraft
    outside the body: one sample, or a batch with one spot per row."""
    offset = sc_pos - spot
    dist = batch.norm(offset)
    phi = batch.apply_where(dist > 0.0, lambda dy, n: axis_angle(batch.xp(n), dy, n),
                            offset.T[1], dist)
    return SpotGeometry(spot_to_sc=offset, spot_position=spot, distance=dist, phi=phi)


def line_of_sight_occluded(spot: np.ndarray, sc_pos: np.ndarray,
                           semi_axes: tuple[float, float, float]):
    """True when the body blocks the line from a spot of ``spot_position`` to
    the spacecraft; a batch gives one bool per sample."""
    a_ell, b_ell, _ = semi_axes
    sx, sy, _ = batch.components(np.asarray(spot, dtype=float))
    x, y, _ = batch.components(np.asarray(sc_pos, dtype=float))
    return np.logical_not(clears_body(sx, sy, x, y, a_ell * a_ell, b_ell * b_ell))


def plume_density(geom: SpotGeometry, mdot: float, v_bar: float,
                  a_spot: float, d_spot: float):
    """Vapour density (kg/m^3) at the spacecraft, zero outside the cone."""
    if mdot < 0.0:
        raise ValueError("mass flow must be non-negative")
    v_area = v_bar * a_spot
    return batch.apply_where(
        geom.phi < MAX_EXPANSION_ANGLE,
        lambda dist, phi: jet_density(batch.xp(dist), mdot, v_area, d_spot, dist, phi),
        geom.distance, geom.phi)


def view_factor_angle(spot_to_sc: np.ndarray):
    """Angle between the Sun-pointing mirror normal (-x) and the flow source.

    The incident flow travels along spot_to_sc; its source direction seen
    from the mirror is -spot_to_sc. cos(psi) > 0 means the optical face is
    exposed to the flow.
    """
    offset = np.asarray(spot_to_sc, dtype=float)
    norm = batch.norm(offset)
    return batch.apply_where(norm != 0.0, lambda dx, n: axis_angle(batch.xp(n), dx, n),
                             offset.T[0], norm)


def degradation_factor(h_cnd: float) -> float:
    """Beamed-power attenuation of a condensed layer of thickness h (m)."""
    if h_cnd < 0.0:
        raise ValueError("layer thickness must be non-negative")
    return math.exp(-2.0 * ABSORPTION_COEFFICIENT * h_cnd)


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
    residual = batch.col((1.0 - MIRROR_REFLECTIVITY**2) * a_m1 * flux) * _SUN_RAY
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
    return axis_angle(batch.xp(n_norm), -n_steer.T[0], 1.0), n_steer  # off the -x axis


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
