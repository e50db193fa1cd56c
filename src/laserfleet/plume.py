"""Debris plume, optics contamination and non-gravitational forces.

The vapour expands from the illuminated spot like rocket exhaust past a
nozzle throat: density falls with distance and with angle off the plume
axis (the Hill y-axis), vanishing outside the expansion cone. Particles
reaching a Sun-facing mirror condense and the deposited layer attenuates
the beamed power exponentially.

Two spacecraft-level forces live here as well: radiation pressure on the
optics and direct momentum flux from plume impingement.

Every relation is written once on components: floats for one sample, or
(N,) columns for a batch, with their ``batch`` namespace ``m``. The
deflection integrator calls the spot, plume and contamination relations;
``formation.surface_forces`` calls the geometry and force relations for
shaped control and tracking alike. A branch is a ``where`` selection on
values guarded to be finite on every sample.
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
    """Spot-to-spacecraft geometry in the Hill frame at one instant: floats,
    or columns for a batch."""

    spot: tuple          # (x, y) of the spot, on the equator
    offset: tuple        # (dx, dy, dz) from the spot to the spacecraft, m
    distance: object     # m, length of the offset
    phi: object          # rad, angle of the offset off the y-axis


# ---------------------------------------------------------------------------
# Spot, plume and contamination relations, shared by the deflection's
# ``rates`` and the spacecraft's surface forces. The spot-to-spacecraft
# distance comes from the caller, which forms it in its own order
# (DECISIONS.md).
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


def line_length(m, dx, dy, dz):
    """Length of the line (dx, dy, dz): floats or columns. The squares sum in
    the order numpy's ``einsum`` sums a row of three, (x² + z²) + y²
    (DECISIONS.md)."""
    return m.sqrt((dx * dx + dz * dz) + dy * dy)


def inside_body(x, y, z, semi_axes):
    """Whether the Hill position (x, y, z) is inside or on the body: floats
    or columns, giving a bool or one per row."""
    u, v, w = x / semi_axes[0], y / semi_axes[1], z / semi_axes[2]
    return u * u + v * v + w * w <= 1.0


def spot_position(m, ast: AsteroidModel, t, theta_va):
    """Hill-frame (x, y) of the illuminated spot on the spinning ellipsoid;
    the spot is on the equator (z = 0)."""
    return spot_point(m, ast.spin_rate, *ast.semi_axes[:2], t, theta_va)


def spot_to_spacecraft(sc_pos: np.ndarray, ast: AsteroidModel, t,
                       theta_va) -> SpotGeometry:
    """``spot_geometry`` at time t of a 3-vector position, or of each row of
    an (N, 3) batch; rejects positions inside the ellipsoid, for any sample.
    The package calls ``spot_geometry`` itself; ``perfbench/tracing.py``
    wraps this face."""
    x, y, z = np.asarray(sc_pos, dtype=float).T
    if np.any(inside_body(x, y, z, ast.semi_axes)):
        raise ValueError("spacecraft position is inside the asteroid")
    m = batch.xp(x)
    return spot_geometry(m, x, y, z, *spot_position(m, ast, t, theta_va))


def spot_geometry(m, x, y, z, sx, sy) -> SpotGeometry:
    """Geometry of the line from the spot at (sx, sy) to the spacecraft at
    (x, y, z): floats or columns."""
    dx, dy = x - sx, y - sy
    dist = line_length(m, dx, dy, z)
    away = dist > 0.0
    phi = m.where(away, axis_angle(m, dy, m.where(away, dist, 1.0)), 0.0)
    return SpotGeometry(spot=(sx, sy), offset=(dx, dy, z), distance=dist, phi=phi)


def line_of_sight_occluded(sx, sy, x, y, semi_axes: tuple[float, float, float]):
    """True when the body blocks the line from the spot at (sx, sy) to the
    spacecraft at (x, y): floats or columns, giving a bool or one per row."""
    a_ell, b_ell, _ = semi_axes
    return np.logical_not(clears_body(sx, sy, x, y, a_ell * a_ell, b_ell * b_ell))


def plume_density(m, dist, phi, mdot: float, v_bar: float, a_spot: float, d_spot: float):
    """Vapour density (kg/m^3) at distance dist from the spot and angle phi
    off the plume axis, zero outside the cone: floats or columns."""
    if mdot < 0.0:
        raise ValueError("mass flow must be non-negative")
    in_cone = phi < MAX_EXPANSION_ANGLE
    return m.where(in_cone, jet_density(m, mdot, v_bar * a_spot, d_spot, dist,
                                        m.where(in_cone, phi, 0.0)), 0.0)


def view_factor_angle(m, dx, dist):
    """Angle between the Sun-pointing mirror normal (-x) and the flow source,
    for a spot-to-spacecraft line of x-component dx and length dist > 0.

    The incident flow travels along the line; its source direction seen
    from the mirror is the reverse. cos(psi) > 0 means the optical face is
    exposed to the flow.
    """
    return axis_angle(m, dx, dist)


def degradation_factor(h_cnd: float) -> float:
    """Beamed-power attenuation of a condensed layer of thickness h (m)."""
    if h_cnd < 0.0:
        raise ValueError("layer thickness must be non-negative")
    return math.exp(-2.0 * ABSORPTION_COEFFICIENT * h_cnd)


# ---------------------------------------------------------------------------
# Forces on the spacecraft: components, floats or columns
# ---------------------------------------------------------------------------

def srp_force(m, design, r_sc, beta, nx, ny, nz):
    """Radiation-pressure force (N) in the Hill frame.

    First term: recoil of the redirected beam along the steering-mirror
    normal (nx, ny, nz), with beta the half angle between that normal and
    the Sun line. Second term: absorption residue of the imperfect
    primary/secondary reflections, pushed anti-Sun (+x).
    """
    flux = SOLAR_FLUX_1AU / SPEED_OF_LIGHT * (AU / r_sc) ** 2
    a_m1 = design.collector_area
    beam = 2.0 * design.eta_sys * a_m1 * flux * m.cos(beta) ** 2
    return beam * nx + (1.0 - MIRROR_REFLECTIVITY**2) * a_m1 * flux, beam * ny, beam * nz


def steering_geometry(m, x, y, z, sx, sy):
    """Steering-mirror half angle and unit normal, (beta, nx, ny, nz), for
    beaming sunlight from the spacecraft at (x, y, z) to the spot at (sx, sy).

    Incoming light travels +x (Sun at -x); the normal bisects the reversed
    incoming ray and the outgoing spot direction, so it never faces away
    from the Sun (nx <= 0).
    """
    ox, oy, oz = sx - x, sy - y, -z
    norm = line_length(m, ox, oy, oz)
    if m.any(norm == 0.0):
        raise ValueError("spot and spacecraft coincide")
    bx, by, bz = ox / norm - 1.0, oy / norm, oz / norm
    b_norm = line_length(m, bx, by, bz)
    flat = b_norm < 1e-12
    if m.any(flat):
        # the beam passes straight through: flat incidence, no recoil, and
        # the normal (0, 1, 0) at beta = pi / 2
        bx, by, bz = m.where(flat, 0.0, bx), m.where(flat, 1.0, by), m.where(flat, 0.0, bz)
        b_norm = m.where(flat, 1.0, b_norm)
    nx, ny, nz = bx / b_norm, by / b_norm, bz / b_norm
    return axis_angle(m, -nx, 1.0), nx, ny, nz  # off the -x axis


def plume_force(m, rho_exp, v_bar: float, a_eq: float, psi_vf, ux, uy, uz):
    """Momentum flux (N) of condensing plume particles on the mirror, from a
    flow along the unit direction (ux, uy, uz).

    All impinging particles stick; the equivalent flat intercept area is
    the primary-mirror area. Zero for surfaces facing away from the flow.
    """
    if m.any(rho_exp < 0.0):
        raise ValueError("plume density must be non-negative")
    cos_psi = m.cos(psi_vf)
    on = (cos_psi > 1e-12) & (rho_exp != 0.0)
    k = 4.0 * rho_exp * v_bar**2 * a_eq * cos_psi
    return m.where(on, k * ux, 0.0), m.where(on, k * uy, 0.0), m.where(on, k * uz, 0.0)
