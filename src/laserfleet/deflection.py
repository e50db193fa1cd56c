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

One ``rates`` body serves two entry points, as in ``laserfleet.batch``.
``simulate_deflection`` runs one deflection on floats.
``simulate_deflections`` runs many as one batch: the state is eight (N,)
columns with one run per row, each row with its own start, step and step
count, and a row leaves the columns when its steps are done. Each branch
of ``rates`` is a mask on a batch. A row's numbers do not depend on the
other rows of its batch; they can differ from the same run on floats in
the last bits, where numpy's exp, arctan2, arccos, hypot and power differ
from libm (DECISIONS.md).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import batch
from .constants import (
    ABSORPTION_COEFFICIENT,
    AU,
    GRAVITATIONAL_CONSTANT,
    MAX_EXPANSION_ANGLE,
    MU_SUN,
    SCATTERING_FACTOR,
    SOLAR_FLUX_1AU,
    TWO_PI,
)
from .formation import NaturalOrbit, ShapedOrbit, shaped_position
from .orbits import (
    BodyEphemeris,
    OrbitalElements,
    delta_m_at_moid,
    eccentric_to_true,
    gauss_rates_rtn,
    impact_parameter,
    kepler_propagate,
    rk4_step,
    solve_kepler,
    solve_kepler_array,
)
from .plume import (
    axis_angle,
    clears_body,
    condensation_growth,
    degradation_factor,
    jet_density,
    spot_point,
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


class _FlowColumns:
    """``MdotTable.__call__`` on a column of powers whose rows run on several
    tables: the same bisection and the same interpolation, so the same bits.

    Each table's intervals are indexed by ``bisect_right``'s j; the two
    outer ones hold the end flows with a zero slope, which is the clamp.
    """

    def __init__(self, tables):
        self.powers = [np.array(t.powers) for t in tables]
        self.offsets = np.cumsum([0] + [p.size + 1 for p in self.powers[:-1]]).tolist()
        p_lo, dp, f_lo, df = [], [], [], []
        for p, f in zip(self.powers, (np.array(t.flows) for t in tables)):
            p_lo += [p[:1], p[:-1], p[-1:]]
            dp += [[1.0], np.diff(p), [1.0]]
            f_lo += [f[:1], f[:-1], f[-1:]]
            df += [[0.0], np.diff(f), [0.0]]
        self.p_lo, self.dp, self.f_lo, self.df = (
            np.concatenate(part) for part in (p_lo, dp, f_lo, df))

    def lookup(self, runs):
        """The flow relation of rows whose table indices run as ``runs``
        (``batch.runs``)."""
        p_lo, dp, f_lo, df = self.p_lo, self.dp, self.f_lo, self.df
        parts = [(lo, hi, self.powers[t], self.offsets[t]) for lo, hi, t in runs]

        def flow(p):
            if len(parts) == 1:
                _, _, powers, offset = parts[0]
                j = powers.searchsorted(p, "right") + offset
            else:
                j = np.empty(p.shape, dtype=np.intp)
                for lo, hi, powers, offset in parts:
                    j[lo:hi] = powers.searchsorted(p[lo:hi], "right") + offset
            return f_lo.take(j) + (p - p_lo.take(j)) / dp.take(j) * df.take(j)
        return flow


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
    elements_final: OrbitalElements
    elements_start: OrbitalElements  # undeflected, at t_start
    scenario: DeflectionScenario = field(repr=False)

    @cached_property
    def miss_distance(self) -> float:
        """m, b-plane impact parameter at the ephemeris Earth at the
        encounter epoch. Computed when first read: a study that places its
        own encounter (the eccentricity sweep) never pays for it."""
        sc = self.scenario
        if sc.t_moid == sc.t_start:
            return 0.0
        return impact_parameter(self.elements_final, self.elements_start, sc.earth,
                                sc.t_moid, MU_SUN)


def spot_power_coefficient(design: SpacecraftDesign, albedo: float) -> float:
    """Power density delivered to the spot times r^2, W: p_in = tau * this / r^2."""
    return design.eta_sys * design.concentration_ratio * (1.0 - albedo) \
        * SOLAR_FLUX_1AU * AU * AU


def peak_spot_power(design: SpacecraftDesign, ast: AsteroidModel,
                    k: OrbitalElements) -> float:
    """Power density delivered to the spot at the perihelion of ``k`` through
    clean optics, W/m^2: the top of a flow table for that orbit."""
    return spot_power_coefficient(design, ast.albedo) / (k.a * (1.0 - k.e)) ** 2


class _Constants(NamedTuple):
    """What ``rates`` takes of a run besides its state: floats for one run,
    (N,) columns for a batch. The products are formed once here, in the
    order the relations form them, so they give the same bits."""

    p_coeff: float      # W, spot power density times r^2
    n_sc: float
    lam_v: float        # scattering factor times exhaust speed
    tug_coeff: float    # G m_sc n_sc
    w_spin: float
    a_ell: float
    b_ell: float
    a2_ell: float       # a_ell * a_ell
    b2_ell: float       # b_ell * b_ell
    v_bar: float        # exhaust speed
    v_area: float       # exhaust speed times spot area
    d_spot: float
    # the undeflected orbit at the start, for the natural formation
    a0: float
    ae0: float          # a0 * e0
    e0: float
    eta0: float
    eta0_2: float       # eta0 ** 2
    eta0_3: float       # eta0 ** 3
    cos_i0: float
    sin_i0: float
    argp0: float


@dataclass(frozen=True)
class _Run:
    """One deflection ready to integrate: the undeflected start, the flow
    table, the thrust window and its steps, and the constants of ``rates``."""

    sc: DeflectionScenario
    k0: OrbitalElements
    table: MdotTable
    t_end: float
    n_steps: int
    dt: float
    consts: _Constants

    def state0(self) -> list:
        k0 = self.k0
        return [k0.a, k0.e, k0.i, k0.raan, k0.argp, k0.mean_anomaly(),
                self.sc.ast.mass0, 0.0]


def _prepare(sc: DeflectionScenario, mdot_table: MdotTable | None) -> _Run:
    ast, design = sc.ast, sc.design
    t0 = sc.t_start
    if sc.t_moid < t0:
        raise ValueError("encounter epoch precedes the deflection start")
    if sc.thrust_until is not None and sc.thrust_until < t0:
        raise ValueError("thrust_until precedes the deflection start")
    t_end = sc.t_moid if sc.thrust_until is None else min(sc.thrust_until, sc.t_moid)

    k0 = ast.elements0
    if k0.epoch != t0:
        k0 = kepler_propagate(k0, t0 - k0.epoch, MU_SUN)
    if mdot_table is None:
        mdot_table = MdotTable.for_orbit(design, ast, k0)

    n_steps, dt = 0, 0.0
    span = t_end - t0
    if span > 0.0:
        n_steps = max(1, int(math.ceil(span / (sc.step_fraction * k0.period(MU_SUN)))))
        dt = span / n_steps

    v_bar = exhaust_velocity(ast)
    a_ell, b_ell, _ = ast.semi_axes
    a0, e0 = k0.a, k0.e
    eta0 = math.sqrt(1.0 - e0 * e0)
    consts = _Constants(
        p_coeff=spot_power_coefficient(design, ast.albedo), n_sc=design.n_spacecraft,
        lam_v=sc.scattering_factor * v_bar,
        tug_coeff=GRAVITATIONAL_CONSTANT * sc.m_sc * design.n_spacecraft,
        w_spin=ast.spin_rate, a_ell=a_ell, b_ell=b_ell, a2_ell=a_ell * a_ell,
        b2_ell=b_ell * b_ell, v_bar=v_bar, v_area=v_bar * design.spot_area,
        d_spot=design.spot_diameter,
        a0=a0, ae0=a0 * e0, e0=e0, eta0=eta0, eta0_2=eta0**2, eta0_3=eta0**3,
        cos_i0=math.cos(k0.i), sin_i0=math.sin(k0.i), argp0=k0.argp)
    return _Run(sc=sc, k0=k0, table=mdot_table, t_end=t_end, n_steps=n_steps, dt=dt,
                consts=consts)


def _position(formation, k: _Constants, m):
    """Hill-frame position of the formation's representative spacecraft, as
    a function of the cos and sin of the true anomaly, the osculating
    radius and the true anomaly. The natural orbit is the first-order
    relation of ``linear_proximal_position`` on the osculating r, not k0's."""
    if isinstance(formation, ShapedOrbit):
        coeffs = formation.coeffs.tolist()
        return lambda c, s, r, nu: shaped_position(coeffs, c, s)

    de, di, draan, dargp, dm_d = formation.dk.tolist()
    a0, ae0, e0, eta0, eta0_2, eta0_3 = k.a0, k.ae0, k.e0, k.eta0, k.eta0_2, k.eta0_3
    cos_i0, sin_i0, argp0 = k.cos_i0, k.sin_i0, k.argp0
    sin, cos = m.sin, m.cos

    def natural(c, s, r, nu):
        theta = nu + argp0
        x = (ae0 * s / eta0) * dm_d - a0 * c * de
        y = (r / eta0_3) * (1.0 + e0 * c) ** 2 * dm_d + r * dargp \
            + (r * s / eta0_2) * (2.0 + e0 * c) * de + r * cos_i0 * draan
        z = r * (sin(theta) * di - cos(theta) * sin_i0 * draan)
        return (x, y, z)
    return natural


def _rates(k: _Constants, position, flow, kepler, m):
    """The right-hand side ``f(t, y) -> (dy, (mdot, |u|))`` of the coupled
    deflection, y = (a, e, i, raan, argp, M unwrapped, asteroid mass,
    contamination thickness).

    One run: floats, ``m`` = ``batch.FLOAT``, ``kepler`` = ``solve_kepler``
    and ``flow`` its ``MdotTable``. A batch: (N,) columns, ``batch.ARRAY``,
    ``solve_kepler_array`` and a ``_FlowColumns`` lookup. ``position`` is
    ``_position``'s relation, or its batch over formation runs.
    """
    p_coeff, n_sc, lam_v, tug_coeff, w_spin = k.p_coeff, k.n_sc, k.lam_v, k.tug_coeff, k.w_spin
    a_ell, b_ell, a2_ell, b2_ell = k.a_ell, k.b_ell, k.a2_ell, k.b2_ell
    v_bar, v_area, d_spot = k.v_bar, k.v_area, k.d_spot
    exp, sin, cos, sqrt, hypot, atan2 = m.exp, m.sin, m.cos, m.sqrt, m.hypot, m.atan2
    where, any_ = m.where, m.any
    mu = MU_SUN
    absorb = -2.0 * ABSORPTION_COEFFICIENT

    def rates(t, y):
        a, e, inc, raan, argp, m_unwrapped, m_a, h_cnd = y
        # Anomaly and geometry of the osculating orbit
        nu = eccentric_to_true(kepler(m_unwrapped % TWO_PI, e), e)
        cos_nu, sin_nu = cos(nu), sin(nu)
        one_ec = 1.0 + e * cos_nu
        r = a * (1.0 - e * e) / one_ec

        # Delivered power and expelled flow
        p_in = exp(absorb * h_cnd) * p_coeff / (r * r)
        mdot = n_sc * flow(p_in)

        # Thrust on the asteroid: ablation along the velocity, tug toward
        # the formation. Flight-path angle splits them into radial and
        # transverse components.
        es = e * sin_nu
        gamma_w = hypot(es, one_ec)
        sin_g = es / gamma_w
        cos_g = one_ec / gamma_w
        # a masked row divides by infinity, which gives it exactly 0
        u_sub = lam_v * mdot / where((m_a > 0.0) & (mdot > 0.0), m_a, math.inf)

        fx, fy, fz = position(cos_nu, sin_nu, r, nu)
        dr2 = fx * fx + fy * fy + fz * fz
        dr_norm = sqrt(dr2)
        tug = tug_coeff / where(dr_norm > 0.0, dr2 * dr_norm, math.inf)
        u_r = u_sub * sin_g + tug * fx
        u_s = u_sub * cos_g + tug * fy
        u_w = tug * fz
        da, de_r, di_r, draan_r, dargp_r, dm_r = gauss_rates_rtn(
            a, e, inc, argp, nu, u_r, u_s, u_w, mu)

        # Contamination growth at the formation's representative spacecraft
        dh = 0.0
        exposed = mdot > 0.0
        if any_(exposed):
            sx, sy = spot_point(m, w_spin, a_ell, b_ell, t, atan2(es, one_ec))
            ox, oy = fx - sx, fy - sy
            on = sqrt(ox * ox + oy * oy + fz * fz)
            exposed = exposed & (on > 0.0) & (ox > 0.0)  # optics exposed only from +x
            if any_(exposed):
                exposed = exposed & clears_body(sx, sy, fx, fy, a2_ell, b2_ell)
                if any_(exposed):
                    on = where(exposed, on, 1.0)
                    phi = axis_angle(m, oy, on)
                    exposed = exposed & (phi < MAX_EXPANSION_ANGLE)
                    if any_(exposed):
                        rho = jet_density(m, mdot, v_area, d_spot, on, where(exposed, phi, 0.0))
                        dh = where(exposed, condensation_growth(rho, v_bar, ox, on), 0.0)

        u_mag = sqrt(u_r * u_r + u_s * u_s + u_w * u_w)
        return (da, de_r, di_r, draan_r, dargp_r, dm_r, -mdot, dh), (mdot, u_mag)
    return rates


def _outcome(run: _Run, state, times, thrust, h, mass, mdot) -> DeflectionOutcome:
    """The outcome of a run from its final state (floats) and its records,
    lists or rows of a batch's record array (kept as views, not copied)."""
    sc, k0 = run.sc, run.k0
    a_f, e_f, i_f, raan_f, argp_f, m_unwrapped_f, _, _ = state
    delta_m = delta_m_at_moid(m_unwrapped_f - k0.mean_anomaly(), sc.t_start, run.t_end,
                              sc.t_moid, k0.mean_motion(MU_SUN), math.sqrt(MU_SUN / a_f**3))
    k_dev = OrbitalElements(a=a_f, e=e_f, i=i_f, raan=raan_f, argp=argp_f,
                            anomaly=m_unwrapped_f % TWO_PI, anomaly_kind="mean",
                            epoch=run.t_end)
    tau = [degradation_factor(v) for v in h]
    return DeflectionOutcome(
        times=np.asarray(times), thrust=np.asarray(thrust), contamination=np.asarray(h),
        asteroid_mass=np.asarray(mass), tau=np.array(tau), mdot=np.asarray(mdot),
        delta_mean_anomaly=delta_m, elements_final=k_dev, elements_start=k0, scenario=sc)


def simulate_deflection(sc: DeflectionScenario,
                        mdot_table: MdotTable | None = None) -> DeflectionOutcome:
    """Run the coupled deflection from t_start to the encounter epoch.

    The miss distance is taken in the b-plane of the ephemeris Earth at
    the encounter epoch. A prebuilt ``mdot_table`` can be shared across
    runs of the same design.
    """
    run = _prepare(sc, mdot_table)
    k = run.consts
    rates = _rates(k, _position(sc.formation, k, batch.FLOAT), run.table, solve_kepler,
                   batch.FLOAT)
    t0, dt, n_steps = sc.t_start, run.dt, run.n_steps
    state = run.state0()

    _, (mdot_now, u_now) = rates(t0, state)
    rec_t, rec_thrust, rec_h, rec_mass, rec_mdot = \
        [t0], [u_now * state[6]], [0.0], [state[6]], [mdot_now]
    for step in range(n_steps):
        state, (mdot_now, u_now) = rk4_step(rates, t0 + step * dt, state, dt)
        if state[6] < 0.0:
            state[6] = 0.0
        if (step + 1) % sc.record_every == 0 or step == n_steps - 1:
            rec_t.append(t0 + (step + 1) * dt)
            rec_thrust.append(u_now * state[6])
            rec_h.append(state[7])
            rec_mass.append(state[6])
            rec_mdot.append(mdot_now)
    return _outcome(run, state, rec_t, rec_thrust, rec_h, rec_mass, rec_mdot)


def _first_seen(objects) -> tuple[list, list]:
    """Index of each object among the distinct ones (by identity), and those."""
    index, distinct = {}, []
    for obj in objects:
        if id(obj) not in index:
            index[id(obj)] = len(distinct)
            distinct.append(obj)
    return [index[id(obj)] for obj in objects], distinct


def simulate_deflections(scenarios, mdot_tables=None) -> list[DeflectionOutcome]:
    """``simulate_deflection`` for many runs, integrated as one batch.

    ``mdot_tables`` gives each scenario a prebuilt table, or None to build
    its own. Rows are ordered by formation and then by table, so the
    formation position and the flow lookup take contiguous slices. Each
    row steps with its own start and step, keeps its records at its own
    ``record_every`` and leaves the columns after its last step. A row's
    numbers do not depend on the other rows; against ``simulate_deflection``
    they can move in the last bits (module docstring). Outcomes come back
    in the order of ``scenarios``.
    """
    scenarios = list(scenarios)
    if mdot_tables is None:
        mdot_tables = [None] * len(scenarios)
    runs = [_prepare(sc, table) for sc, table in zip(scenarios, mdot_tables, strict=True)]
    if not runs:
        return []
    form_of, forms = _first_seen([run.sc.formation for run in runs])
    table_of, tables = _first_seen([run.table for run in runs])
    order = sorted(range(len(runs)), key=lambda i: (form_of[i], table_of[i]))
    runs = [runs[i] for i in order]
    n = len(runs)

    consts = _Constants._make(np.array(col, dtype=float)
                              for col in zip(*(run.consts for run in runs)))
    form_key = np.array([form_of[i] for i in order])
    table_key = np.array([table_of[i] for i in order])
    flows = _FlowColumns(tables)

    def kernel(live):
        k = _Constants._make(col[live] for col in consts)
        parts = [(lo, hi, _position(forms[f], _Constants._make(col[lo:hi] for col in k),
                                    batch.ARRAY))
                 for lo, hi, f in batch.runs(form_key[live].tolist())]
        if len(parts) == 1:
            position = parts[0][2]
        else:
            def position(c, s, r, nu):
                pieces = [fn(c[lo:hi], s[lo:hi], r[lo:hi], nu[lo:hi]) for lo, hi, fn in parts]
                return tuple(np.concatenate(xs) for xs in zip(*pieces))
        flow = flows.lookup(batch.runs(table_key[live].tolist()))
        return _rates(k, position, flow, solve_kepler_array, batch.ARRAY)

    live = np.arange(n)
    t0 = np.array([run.sc.t_start for run in runs])
    dt = np.array([run.dt for run in runs])
    n_steps = np.array([run.n_steps for run in runs])
    every = np.array([run.sc.record_every for run in runs])
    state = [np.array(col, dtype=float) for col in zip(*(run.state0() for run in runs))]
    rates = kernel(live)

    # records (t, thrust, h, mass, mdot): row i fills its own span of one
    # buffer from start[i], up to count[i]; it records its start, every
    # record_every-th step and its last step
    widths = 1 + -(-n_steps // every)
    start = np.cumsum(widths) - widths
    records = np.empty((5, int(widths.sum())))
    count = np.ones(n, dtype=int)
    _, (mdot_now, u_now) = rates(t0, state)
    for q, value in enumerate((t0, u_now * state[6], state[7], state[6], mdot_now)):
        records[q, start] = value
    final = np.empty((n, len(state)))

    step = 0
    while True:
        ending = n_steps == step
        if np.count_nonzero(ending):
            final[live[ending]] = np.stack([col[ending] for col in state], axis=1)
            keep = ~ending
            live, t0, dt, n_steps, every = (x[keep] for x in (live, t0, dt, n_steps, every))
            if live.size == 0:
                break
            state = [col[keep] for col in state]
            rates = kernel(live)
        state, (mdot_now, u_now) = rk4_step(rates, t0 + step * dt, state, dt)
        state[6] = np.maximum(state[6], 0.0)
        step += 1
        due = (step % every == 0) | (n_steps == step)
        if np.count_nonzero(due):
            rows = live[due]
            slot = start[rows] + count[rows]
            for q, value in enumerate((t0 + step * dt, u_now * state[6], state[7], state[6],
                                       mdot_now)):
                records[q, slot] = value[due]
            count[rows] += 1

    outcomes = [None] * n
    for row, run in enumerate(runs):
        outcomes[order[row]] = _outcome(run, final[row].tolist(),
                                        *records[:, start[row]:start[row] + count[row]])
    return outcomes
