"""Coupled deflection simulation: orbit, sublimation, contamination, mass.

Integrates the asteroid's Keplerian elements under the ablation thrust and
gravity tug together with the mirror contamination thickness and the
asteroid mass, then evaluates the achieved miss distance on the Earth
b-plane at the virtual encounter epoch.

The per-step physics chain: heliocentric distance sets the delivered power
(attenuated by the current contamination), the power sets the expelled
mass flow, the flow sets both the thrust and the plume density at the
spacecraft, and the plume deposits new contamination whenever the
Sun-facing optics are exposed to it.

The element integration is a fixed-step RK4 at one thousandth of the
orbital period (reproducible output over adaptive stepping); the mass-flow
quadrature is pre-tabulated against delivered power, averaged over the
asteroid spin phase, because the integrator samples it far too often to
re-run the quadrature in place.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    ABSORPTION_COEFFICIENT,
    ADIABATIC_INDEX,
    AU,
    GRAVITATIONAL_CONSTANT,
    JET_CONSTANT,
    LAYER_DENSITY,
    MAX_EXPANSION_ANGLE,
    MU_SUN,
    SCATTERING_FACTOR,
    SOLAR_FLUX_1AU,
    TWO_PI,
)
from .formation import NaturalOrbit, ShapedOrbit
from .orbits import (
    BodyEphemeris,
    OrbitalElements,
    eccentric_to_true,
    gauss_rates_rtn,
    impact_parameter,
    kepler_propagate,
    rk4_step,
    solve_kepler,
)
from .sublimation import (
    AsteroidModel,
    ellipse_radius,
    exhaust_velocity,
    mass_flow_from_power,
    radiation_loss,
)
from .sizing import SpacecraftDesign


@dataclass(frozen=True)
class MdotTable:
    """Expelled-flow lookup against delivered power density, one spacecraft.

    Entries are spin-phase averages: the equatorial radius under the spot
    (and with it the surface speed) oscillates at twice the spin rate,
    far faster than the element integration cares about.
    """

    powers: tuple
    flows: tuple

    @classmethod
    def build(cls, design: SpacecraftDesign, ast: AsteroidModel, p_max: float,
              n_points: int = 128, n_phases: int = 8) -> "MdotTable":
        spot_radius = design.spot_diameter / 2.0
        q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)

        # The flow switches on just above the radiating floor; concentrate
        # grid points there with quadratic spacing.
        p_hi = max(p_max, q_rad * 1.5)
        u = np.linspace(0.0, 1.0, n_points)
        grid = np.concatenate([[0.0, 0.5 * q_rad, q_rad], q_rad + (p_hi - q_rad) * u**2])
        grid = np.unique(grid)

        angles = (np.arange(n_phases) + 0.5) * math.pi / n_phases
        radii = np.asarray(ellipse_radius(ast, angles), dtype=float)
        speeds = ast.spin_rate * radii

        flows = []
        for p in grid:
            f = 0.0
            for v_rot in speeds:
                f += mass_flow_from_power(float(p), ast, float(v_rot), spot_radius)
            flows.append(f / n_phases)
        return cls(powers=tuple(float(p) for p in grid),
                   flows=tuple(float(f) for f in flows))

    @classmethod
    def for_orbit(cls, design: SpacecraftDesign, ast: AsteroidModel,
                  k: OrbitalElements) -> "MdotTable":
        """The table up to the power delivered at the perihelion of ``k``:
        the one ``simulate_deflection`` builds when it is given none."""
        return cls.build(design, ast, peak_spot_power(design, ast, k))

    def __call__(self, p_in: float) -> float:
        powers, flows = self.powers, self.flows
        if p_in <= powers[0]:
            return flows[0]
        if p_in >= powers[-1]:
            return flows[-1]
        j = bisect.bisect_right(powers, p_in)
        w = (p_in - powers[j - 1]) / (powers[j] - powers[j - 1])
        return flows[j - 1] + w * (flows[j] - flows[j - 1])


@dataclass(frozen=True)
class DeflectionScenario:
    """Everything one deflection run needs."""

    ast: AsteroidModel
    design: SpacecraftDesign
    earth: BodyEphemeris
    m_sc: float                      # kg, one spacecraft (for the tug)
    t_start: float                   # s
    t_moid: float                    # s, virtual encounter epoch
    formation: NaturalOrbit | ShapedOrbit = field(
        default_factory=lambda: ShapedOrbit(np.array([0., 0., -1000., 0., 0., -1000., 0., 0.])))
    thrust_until: float | None = None  # s, default: thrust to t_moid
    scattering_factor: float = SCATTERING_FACTOR
    step_fraction: float = 1e-3
    record_every: int = 50


@dataclass(frozen=True)
class DeflectionOutcome:
    """Histories plus the b-plane miss distance of one deflection run."""

    times: np.ndarray
    thrust: np.ndarray          # N, on the asteroid
    contamination: np.ndarray   # m, condensed-layer thickness
    asteroid_mass: np.ndarray   # kg
    tau: np.ndarray             # beamed-power degradation factor
    mdot: np.ndarray            # kg/s, total expelled flow
    delta_mean_anomaly: float   # rad, at the encounter epoch
    miss_distance: float        # m, b-plane impact parameter
    elements_final: OrbitalElements


def spot_power_coefficient(design: SpacecraftDesign, albedo: float) -> float:
    """Power density delivered to the spot times r^2, W: p_in = tau * this / r^2."""
    return design.eta_sys * design.concentration_ratio * (1.0 - albedo) \
        * SOLAR_FLUX_1AU * AU * AU


def peak_spot_power(design: SpacecraftDesign, ast: AsteroidModel,
                    k: OrbitalElements) -> float:
    """Power density delivered to the spot at the perihelion of ``k`` through
    clean optics, W/m^2: the top of a flow table for that orbit."""
    return spot_power_coefficient(design, ast.albedo) / (k.a * (1.0 - k.e)) ** 2


def simulate_deflection(sc: DeflectionScenario,
                        mdot_table: MdotTable | None = None) -> DeflectionOutcome:
    """Run the coupled deflection from t_start to the encounter epoch.

    The miss distance is taken in the b-plane of the ephemeris Earth at
    the encounter epoch. A prebuilt ``mdot_table`` can be shared across
    runs of the same design.
    """
    ast, design = sc.ast, sc.design
    mu = MU_SUN
    t0 = sc.t_start
    t_end = sc.t_moid if sc.thrust_until is None else min(sc.thrust_until, sc.t_moid)

    if sc.t_moid < t0:
        raise ValueError("encounter epoch precedes the deflection start")

    k0 = ast.elements0
    if k0.epoch != t0:
        k0 = kepler_propagate(k0, t0 - k0.epoch, mu)

    # Per-run constants
    v_bar = exhaust_velocity(ast)
    lam = sc.scattering_factor
    n_sc = design.n_spacecraft
    albedo = ast.albedo
    p_coeff = spot_power_coefficient(design, albedo)
    a0, e0, i0 = k0.a, k0.e, k0.i
    argp0 = k0.argp
    eta0 = math.sqrt(1.0 - e0 * e0)
    cos_i0, sin_i0 = math.cos(i0), math.sin(i0)
    a_ell, b_ell, _ = ast.semi_axes
    w_spin = ast.spin_rate
    spot_area = design.spot_area
    d_spot = design.spot_diameter

    if mdot_table is None:
        mdot_table = MdotTable.for_orbit(design, ast, k0)

    shaped = isinstance(sc.formation, ShapedOrbit)
    if shaped:
        x1, x2, x3, y1, y2, y3, z1, z2 = (float(c) for c in sc.formation.coeffs)
    else:
        de, di, draan, dargp, dm_d = (float(c) for c in sc.formation.dk)

    tug_coeff = GRAVITATIONAL_CONSTANT * sc.m_sc * n_sc
    angular_exp = 2.0 / (ADIABATIC_INDEX - 1.0)

    # inline, not linear_proximal_position: this takes the osculating r, that k0's
    def formation_position(c: float, s: float, r: float, theta: float):
        if shaped:
            return (x1 * c + x2 * s + x3, y1 * c + y2 * s + y3, z1 * c + z2 * s)
        x = (a0 * e0 * s / eta0) * dm_d - a0 * c * de
        y = (r / eta0**3) * (1.0 + e0 * c) ** 2 * dm_d + r * dargp \
            + (r * s / eta0**2) * (2.0 + e0 * c) * de + r * cos_i0 * draan
        z = r * (math.sin(theta) * di - math.cos(theta) * sin_i0 * draan)
        return (x, y, z)

    # Spot, plume and contamination stay inline: one plume.spot_to_spacecraft
    # sample costs ~20 us, a whole rates call ~9 us.
    def rates(t, y):
        a, e, inc, raan, argp, m_unwrapped, m_a, h_cnd = y
        # Anomaly and geometry of the osculating orbit
        nu = eccentric_to_true(solve_kepler(m_unwrapped % TWO_PI, e), e)
        cos_nu, sin_nu = math.cos(nu), math.sin(nu)
        one_ec = 1.0 + e * cos_nu
        r = a * (1.0 - e * e) / one_ec

        # Delivered power and expelled flow
        tau = math.exp(-2.0 * ABSORPTION_COEFFICIENT * h_cnd)
        p_in = tau * p_coeff / (r * r)
        mdot1 = mdot_table(p_in)
        mdot = n_sc * mdot1

        # Thrust on the asteroid: ablation along the velocity, tug toward
        # the formation. Flight-path angle splits them into radial and
        # transverse components.
        gamma_w = math.hypot(e * sin_nu, one_ec)
        sin_g = e * sin_nu / gamma_w
        cos_g = one_ec / gamma_w
        u_sub = lam * v_bar * mdot / m_a if (m_a > 0.0 and mdot > 0.0) else 0.0

        theta = nu + argp0
        fx, fy, fz = formation_position(cos_nu, sin_nu, r, theta)
        dr2 = fx * fx + fy * fy + fz * fz
        dr_norm = math.sqrt(dr2)
        tug = tug_coeff / (dr2 * dr_norm) if dr_norm > 0.0 else 0.0
        u_r = u_sub * sin_g + tug * fx
        u_s = u_sub * cos_g + tug * fy
        u_w = tug * fz
        da, de_r, di_r, draan_r, dargp_r, dm_r = gauss_rates_rtn(
            a, e, inc, argp, nu, u_r, u_s, u_w, mu)

        # Contamination growth at the formation's representative spacecraft
        dh = 0.0
        if mdot > 0.0:
            theta_va = math.atan2(e * sin_nu, one_ec)
            w_t = w_spin * t
            angle = -w_t - theta_va
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            r_ell = a_ell * b_ell / math.sqrt((b_ell * cos_a) ** 2 + (a_ell * sin_a) ** 2)
            sin_wt, cos_wt = math.sin(w_t), math.cos(w_t)
            sx = r_ell * (sin_wt * cos_a - cos_wt * sin_a)
            sy = r_ell * (cos_wt * cos_a + sin_wt * sin_a)
            ox, oy, oz = fx - sx, fy - sy, fz
            on = math.sqrt(ox * ox + oy * oy + oz * oz)
            if on > 0.0 and ox > 0.0:  # optics exposed only from the +x side
                # body occlusion: scaled <spot, sc> must exceed 1 to clear it
                vis = (sx * fx / (a_ell * a_ell) + sy * fy / (b_ell * b_ell)) > 1.0 + 1e-9
                if vis:
                    phi = math.acos(max(-1.0, min(1.0, oy / on)))
                    if phi < MAX_EXPANSION_ANGLE:
                        big_theta = math.pi * phi / (2.0 * MAX_EXPANSION_ANGLE)
                        rho = JET_CONSTANT * mdot / (v_bar * spot_area) \
                            * (d_spot / (2.0 * on + d_spot)) ** 2 \
                            * math.cos(big_theta) ** angular_exp
                        cos_psi = ox / on
                        dh = 2.0 * v_bar * rho * cos_psi / LAYER_DENSITY

        u_mag = math.sqrt(u_r * u_r + u_s * u_s + u_w * u_w)
        return (da, de_r, di_r, draan_r, dargp_r, dm_r, -mdot, dh), (mdot, u_mag)

    # --- fixed-step RK4 over the thrust window ------------------------------
    period0 = k0.period(mu)
    span = t_end - t0
    m0_unwrapped = k0.mean_anomaly()
    state = [a0, e0, i0, k0.raan, argp0, m0_unwrapped, ast.mass0, 0.0]

    _, (mdot_init, u_init) = rates(t0, state)
    rec_t = [t0]
    rec_thrust = [u_init * ast.mass0]
    rec_h = [0.0]
    rec_mass = [ast.mass0]
    rec_tau = [1.0]
    rec_mdot = [mdot_init]

    n_steps = 0
    if span > 0.0:
        n_steps = max(1, int(math.ceil(span / (sc.step_fraction * period0))))
        dt = span / n_steps
        for step in range(n_steps):
            state, (mdot_now, u_now) = rk4_step(rates, t0 + step * dt, state, dt)
            if state[6] < 0.0:
                state[6] = 0.0
            if (step + 1) % sc.record_every == 0 or step == n_steps - 1:
                rec_t.append(t0 + (step + 1) * dt)
                rec_thrust.append(u_now * state[6])
                rec_h.append(state[7])
                rec_mass.append(state[6])
                rec_tau.append(math.exp(-2.0 * ABSORPTION_COEFFICIENT * state[7]))
                rec_mdot.append(mdot_now)

    # --- encounter bookkeeping ----------------------------------------------
    a_f, e_f, i_f, raan_f, argp_f, m_unwrapped_f, mass_f, h_f = state
    n_a0 = k0.mean_motion(mu)
    n_ai = math.sqrt(mu / a_f**3)
    delta_m = (m_unwrapped_f - m0_unwrapped) + n_a0 * (t0 - sc.t_moid) \
        + n_ai * (sc.t_moid - t_end)

    k_dev = OrbitalElements(a=a_f, e=e_f, i=i_f, raan=raan_f, argp=argp_f,
                            anomaly=m_unwrapped_f % TWO_PI, anomaly_kind="mean",
                            epoch=t_end)
    miss = 0.0 if sc.t_moid == t0 else impact_parameter(k_dev, k0, sc.earth, sc.t_moid, mu)

    return DeflectionOutcome(
        times=np.array(rec_t), thrust=np.array(rec_thrust),
        contamination=np.array(rec_h), asteroid_mass=np.array(rec_mass),
        tau=np.array(rec_tau), mdot=np.array(rec_mdot),
        delta_mean_anomaly=delta_m, miss_distance=miss,
        elements_final=k_dev)
