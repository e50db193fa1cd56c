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
    StateVector,
    elements_to_state,
    kepler_propagate,
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
        return cls.build(design, ast, spot_power_coefficient(design, ast.albedo)
                         / (k.a * (1.0 - k.e)) ** 2)

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


def bplane_miss(s_dev: StateVector, s_0: StateVector, earth_state: StateVector) -> float:
    """Project the deflection onto the plane normal to the encounter velocity."""
    v_rel = s_0.velocity - earth_state.velocity
    v_norm = float(np.linalg.norm(v_rel))
    if v_norm < 1e-9 * float(np.linalg.norm(s_0.velocity)):
        raise ValueError("b-plane undefined: relative velocity ~ 0")
    v_hat = v_rel / v_norm
    dr = s_dev.position - s_0.position
    in_plane = dr - float(dr @ v_hat) * v_hat
    return float(np.linalg.norm(in_plane))


def spot_power_coefficient(design: SpacecraftDesign, albedo: float) -> float:
    """Power density delivered to the spot times r^2, W: p_in = tau * this / r^2."""
    return design.eta_sys * design.concentration_ratio * (1.0 - albedo) \
        * SOLAR_FLUX_1AU * AU * AU


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

    def formation_position(nu: float, r: float, theta: float):
        if shaped:
            c, s = math.cos(nu), math.sin(nu)
            return (x1 * c + x2 * s + x3, y1 * c + y2 * s + y3, z1 * c + z2 * s)
        c, s = math.cos(nu), math.sin(nu)
        x = (a0 * e0 * s / eta0) * dm_d - a0 * c * de
        y = (r / eta0**3) * (1.0 + e0 * c) ** 2 * dm_d + r * dargp \
            + (r * s / eta0**2) * (2.0 + e0 * c) * de + r * cos_i0 * draan
        z = r * (math.sin(theta) * di - math.cos(theta) * sin_i0 * draan)
        return (x, y, z)

    def rates(t, a, e, inc, raan, argp, m_unwrapped, m_a, h_cnd):
        # Anomaly and geometry of the osculating orbit
        nu = _mean_to_true_fast(m_unwrapped % TWO_PI, e)
        p = a * (1.0 - e * e)
        cos_nu, sin_nu = math.cos(nu), math.sin(nu)
        one_ec = 1.0 + e * cos_nu
        r = p / one_ec
        h_mom = math.sqrt(mu * p)
        n_mm = math.sqrt(mu / a**3)

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
        fx, fy, fz = formation_position(nu, r, theta)
        dr2 = fx * fx + fy * fy + fz * fz
        dr_norm = math.sqrt(dr2)
        tug = tug_coeff / (dr2 * dr_norm) if dr_norm > 0.0 else 0.0
        u_r = u_sub * sin_g + tug * fx
        u_s = u_sub * cos_g + tug * fy
        u_w = tug * fz

        # Gauss variational rates (radial/transverse/normal form). The
        # out-of-plane terms are skipped entirely when u_w = 0 so planar
        # scenarios (i = 0) never touch the sin(i) singularity.
        da = 2.0 * a * a / h_mom * (e * sin_nu * u_r + (p / r) * u_s)
        de_r = (p * sin_nu * u_r + ((p + r) * cos_nu + r * e) * u_s) / h_mom
        dargp_r = (-p * cos_nu * u_r + (p + r) * sin_nu * u_s) / (h_mom * e)
        if u_w != 0.0:
            theta_arg = nu + argp
            cos_th, sin_th = math.cos(theta_arg), math.sin(theta_arg)
            sin_i = math.sin(inc)
            di_r = r * cos_th / h_mom * u_w
            draan_r = r * sin_th / (h_mom * sin_i) * u_w
            dargp_r -= r * sin_th * math.cos(inc) / (h_mom * sin_i) * u_w
        else:
            di_r = 0.0
            draan_r = 0.0
        eta = math.sqrt(1.0 - e * e)
        dm_r = n_mm + eta / (h_mom * e) * ((p * cos_nu - 2.0 * r * e) * u_r
                                           - (p + r) * sin_nu * u_s)

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
        return (da, de_r, di_r, draan_r, dargp_r, dm_r, -mdot, dh), mdot, u_mag

    # --- fixed-step RK4 over the thrust window ------------------------------
    period0 = k0.period(mu)
    span = t_end - t0
    m0_unwrapped = k0.mean_anomaly()
    state = [a0, e0, i0, k0.raan, argp0, m0_unwrapped, ast.mass0, 0.0]

    _, mdot_init, u_init = rates(t0, *state)
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
        t = t0
        for step in range(n_steps):
            k1, mdot_now, u_now = rates(t, *state)
            s2 = [state[j] + 0.5 * dt * k1[j] for j in range(8)]
            k2, _, _ = rates(t + 0.5 * dt, *s2)
            s3 = [state[j] + 0.5 * dt * k2[j] for j in range(8)]
            k3, _, _ = rates(t + 0.5 * dt, *s3)
            s4 = [state[j] + dt * k3[j] for j in range(8)]
            k4, _, _ = rates(t + dt, *s4)
            state = [state[j] + dt / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                     for j in range(8)]
            if state[6] < 0.0:
                state[6] = 0.0
            t = t0 + (step + 1) * dt
            if (step + 1) % sc.record_every == 0 or step == n_steps - 1:
                rec_t.append(t)
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
    if sc.t_moid == t0:
        miss = 0.0
    else:
        s_dev = elements_to_state(kepler_propagate(k_dev, sc.t_moid - t_end, mu), mu)
        s_0 = elements_to_state(kepler_propagate(k0, sc.t_moid - k0.epoch, mu), mu)
        miss = bplane_miss(s_dev, s_0, sc.earth.state_at(sc.t_moid))

    return DeflectionOutcome(
        times=np.array(rec_t), thrust=np.array(rec_thrust),
        contamination=np.array(rec_h), asteroid_mass=np.array(rec_mass),
        tau=np.array(rec_tau), mdot=np.array(rec_mdot),
        delta_mean_anomaly=delta_m, miss_distance=miss,
        elements_final=k_dev)


def _mean_to_true_fast(m: float, e: float) -> float:
    """Float-only Kepler solve plus anomaly conversion for the inner loop."""
    if e == 0.0:
        return m
    E = solve_kepler(m, e)
    return 2.0 * math.atan2(math.sqrt(1.0 + e) * math.sin(0.5 * E),
                            math.sqrt(1.0 - e) * math.cos(0.5 * E)) % TWO_PI
