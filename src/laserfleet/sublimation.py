"""Laser-induced sublimation of the asteroid surface.

Energy balance on the illuminated spot (concentrated solar power in,
black-body radiation and conduction into the body out), expelled mass flow
over the moving spot and the vapour's exhaust speed. (The thrust they give,
S v_bar mdot / m, and the gravity tug of the hovering spacecraft are terms
of the deflection's rates.)

The asteroid is a tri-axial ellipsoid spinning about its minor axis; a
surface point enters the spot, heats to the (constant) sublimation front
temperature and expels vapour until it rotates out of the beam. The gas is
treated as ideal with Maxwellian speed at the sublimation temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    AU,
    BOLTZMANN,
    SOLAR_FLUX_1AU,
    STEFAN_BOLTZMANN,
)
from . import batch
from .orbits import OrbitalElements

# Forsterite Mg2SiO4: 2*24.305 + 28.085 + 4*15.999 g/mol over Avogadro
FORSTERITE_MOLECULE_MASS = 0.140691 / 6.02214076e23  # kg per molecule


@dataclass(frozen=True)
class AsteroidModel:
    """Physical, thermal and orbital description of the target asteroid."""

    elements0: OrbitalElements
    mass0: float                 # kg
    mu: float                    # m^3/s^2, GM of the asteroid
    semi_axes: tuple[float, float, float]  # m, a >= b >= c, spin about c
    spin_rate: float             # rad/s
    albedo: float
    heat_capacity: float         # J/(kg K)
    conductivity: float          # W/(m K)
    density: float               # kg/m^3
    t_sublimation: float         # K
    t_ambient: float             # K, pre-illumination temperature
    sublimation_enthalpy: float  # J/kg (no default: scenario-supplied)
    molecular_mass: float = FORSTERITE_MOLECULE_MASS  # kg per molecule
    emissivity: float = 1.0

    def __post_init__(self):
        a, b, c = self.semi_axes
        if not (a >= b >= c > 0.0):
            raise ValueError(f"semi-axes must satisfy a >= b >= c > 0, got {self.semi_axes}")
        if not (0.0 <= self.albedo <= 1.0):
            raise ValueError(f"albedo must be in [0, 1], got {self.albedo}")
        if not (self.t_sublimation > self.t_ambient > 0.0):
            raise ValueError("require t_sublimation > t_ambient > 0")
        for name in ("mass0", "heat_capacity", "conductivity", "density",
                     "sublimation_enthalpy", "molecular_mass"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def conduction_coefficient(self) -> float:
        """(T_subl - T_0) sqrt(c k rho / pi): Q_cond = coeff / sqrt(t)."""
        return (self.t_sublimation - self.t_ambient) * math.sqrt(
            self.heat_capacity * self.conductivity * self.density / math.pi)


def apophis_model(sublimation_enthalpy: float) -> AsteroidModel:
    """Test asteroid used throughout the study (S-type, moderately eccentric).

    The sublimation enthalpy is deliberately not defaulted: it dominates the
    absolute thrust scale and must be chosen (and recorded) per scenario.
    """
    elements = OrbitalElements(
        a=0.9224 * AU, e=0.1912, i=math.radians(3.3312),
        raan=math.radians(204.4428), argp=math.radians(126.4002),
        anomaly=0.0, anomaly_kind="mean", epoch=0.0)
    return AsteroidModel(
        elements0=elements,
        mass0=2.7e10,
        mu=1.801599,  # m^3/s^2 (1.801599e-9 km^3/s^2)
        semi_axes=(191.0, 135.0, 95.0),
        spin_rate=math.radians(3.3e-3),
        albedo=0.2,
        heat_capacity=750.0,
        conductivity=2.0,
        density=2600.0,
        t_sublimation=1800.0,
        t_ambient=278.0,
        sublimation_enthalpy=sublimation_enthalpy,
    )


# ---------------------------------------------------------------------------
# Power balance terms
# ---------------------------------------------------------------------------

def spot_power_coefficient(design, albedo: float) -> float:
    """Power density delivered to the spot through clean optics times r^2, W:
    eta_sys C_r (1 - albedo) S0 AU^2, the inverse-square law's constant."""
    return design.eta_sys * design.concentration_ratio * (1.0 - albedo) \
        * SOLAR_FLUX_1AU * AU * AU


def delivered_power(tau, p_coeff, r):
    """Power density (W/m^2) on the spot at heliocentric distance r through optics
    of transmission tau, (tau p_coeff) / (r r): floats or columns."""
    return tau * p_coeff / (r * r)


def input_power_density(design, r_a: float, tau: float, albedo: float) -> float:
    """``delivered_power`` of a design at heliocentric distance r_a > 0
    through optics of transmission 0 <= tau <= 1."""
    if r_a <= 0.0:
        raise ValueError("heliocentric distance must be positive")
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"degradation factor must be in [0, 1], got {tau}")
    return delivered_power(tau, spot_power_coefficient(design, albedo), r_a)


def radiation_loss(temperature: float, emissivity: float) -> float:
    """Black-body loss sigma * eps * T^4, W/m^2."""
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    return STEFAN_BOLTZMANN * emissivity * temperature**4


def conduction_loss(t_since_illumination: float, ast: AsteroidModel) -> float:
    """Transient conduction into the body, W/m^2; singular at t = 0."""
    if t_since_illumination <= 0.0:
        raise ValueError("conduction loss undefined for t <= 0")
    return ast.conduction_coefficient() / math.sqrt(t_since_illumination)


def exhaust_velocity(ast: AsteroidModel) -> float:
    """Mean Maxwellian speed of the vapour at the sublimation temperature."""
    return math.sqrt(8.0 * BOLTZMANN * ast.t_sublimation
                     / (math.pi * ast.molecular_mass))


# ---------------------------------------------------------------------------
# Spot geometry on the spinning ellipsoid
# ---------------------------------------------------------------------------

def equatorial_radius(m, a_ell, b_ell, cos_a, sin_a):
    """Radius of the equatorial ellipse of semi-axes a_ell, b_ell at the body
    angle of cos_a, sin_a: floats or columns, with their ``batch`` namespace m."""
    return a_ell * b_ell / m.sqrt((b_ell * cos_a) ** 2 + (a_ell * sin_a) ** 2)


def ellipse_radius(ast: AsteroidModel, angle: float):
    """Radius of the equatorial ellipse cross-section at a body angle.

    a_ell and b_ell are the equatorial semi-axes; by the formula's own
    convention angle = 0 lies along the long axis (returns a_ell) and
    angle = pi/2 along the short one (returns b_ell).
    """
    a_ell, b_ell, _ = ast.semi_axes
    m = batch.xp(angle)
    return equatorial_radius(m, a_ell, b_ell, m.cos(angle), m.sin(angle))


def surface_speed(ast: AsteroidModel) -> float:
    """Speed of surface material through the spot at spin phase 0, w_A r_ell(0):
    the long equatorial axis under the spot."""
    return ast.spin_rate * float(ellipse_radius(ast, 0.0))


# ---------------------------------------------------------------------------
# Expelled mass flow
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _dwell_integrals(p_net: float, cond_coeff: float, t_out: np.ndarray,
                     rel_tol: float = 1e-6) -> np.ndarray:
    """Time integral of the clipped net flux for each dwell duration.

    integral_0^t_out max(p_net - C/sqrt(t), 0) dt, evaluated per row with
    the substitution t = s^2 (removes the inverse-sqrt startup) and an
    interval-doubling Simpson rule to the requested relative tolerance.
    The integrand is zero below the clip point s* = C / p_net.
    """
    t_out = np.asarray(t_out, dtype=float)
    if p_net <= 0.0:
        return np.zeros_like(t_out)

    s_out = np.sqrt(t_out)
    s_star = cond_coeff / p_net
    lo = np.minimum(s_star, s_out)
    width = s_out - lo
    if np.all(width <= 0.0):
        return np.zeros_like(t_out)

    def integrand(s):
        return np.maximum(2.0 * p_net * s - 2.0 * cond_coeff, 0.0)

    n = 2
    prev = None
    result = np.zeros_like(t_out)
    for _ in range(16):
        u = np.linspace(0.0, 1.0, n + 1)
        s = lo[:, None] + width[:, None] * u[None, :]
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        result = width / (3.0 * n) * (integrand(s) @ w)
        if prev is not None and np.all(
                np.abs(result - prev) <= rel_tol * np.maximum(np.abs(result), 1e-300)):
            break
        prev = result
        n *= 2
    return result


def mass_flow_from_power(p_in: float, ast: AsteroidModel, v_rot: float,
                         spot_radius: float) -> float:
    """Expelled mass flow (kg/s) for one spacecraft at given spot power density.

    A surface point at vertical offset y from the spot centre is
    illuminated while the rotation carries it along the chord
    2 sqrt(R^2 - y^2) at speed v_rot. The y integral uses 32-point
    Gauss-Legendre over the upper half spot, the leading factor 2 covering
    the symmetric half. Returns 0 when the input power never exceeds the
    losses anywhere on the spot.
    """
    q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)
    p_net = p_in - q_rad
    if p_net <= 0.0:
        return 0.0

    y = spot_radius * 0.5 * (_GL_NODES + 1.0)
    weights = spot_radius * 0.5 * _GL_WEIGHTS
    chord = 2.0 * np.sqrt(np.maximum(spot_radius**2 - y**2, 0.0))
    t_out = chord / v_rot

    integrals = _dwell_integrals(p_net, ast.conduction_coefficient(), t_out)
    y_integral = float(weights @ integrals)
    return 2.0 * v_rot * y_integral / ast.sublimation_enthalpy


def formation_flow(flow, p_in, n_sc):
    """Expelled flow (kg/s) of n_sc spacecraft that each deliver p_in to their own
    power balance, n_sc flow(p_in): floats or columns. DECISIONS.md, "Open: where
    the spot is and how n_sc beams add", has the other reading."""
    return n_sc * flow(p_in)


def mass_flow_rate(design, ast: AsteroidModel, r_a: float, tau: float,
                   n_sc: int) -> float:
    """``formation_flow`` of n_sc >= 1 spacecraft at heliocentric distance r_a
    through optics of transmission tau, at spin phase 0."""
    if n_sc < 1:
        raise ValueError("n_sc must be at least 1")
    v_rot, radius = surface_speed(ast), design.spot_diameter / 2.0
    return formation_flow(lambda p: mass_flow_from_power(p, ast, v_rot, radius),
                          input_power_density(design, r_a, tau, ast.albedo), n_sc)
