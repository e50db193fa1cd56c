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
``simulate_deflection`` runs one deflection on floats, its state a list
of eight. ``simulate_deflections`` runs many as one batch: the state is
one (8, N) array, a component per row and a run per column, each run
with its own start, step and step count, and a run's column leaves the
array when its steps are done. ``orbits.rk4_step`` steps the whole array
at once, and the mass clamp, the records and the finiteness check are
operations on its rows. Each branch of ``rates`` is a mask on a batch.
A run's numbers do not depend on the other runs of its batch; they can
differ from the same run on floats in the last bits, where numpy's exp,
arctan2, arccos, hypot and power differ from libm (DECISIONS.md). The
batch step is bound by the count of numpy calls, not by arithmetic
(DECISIONS.md, "The batch step is bound by call count").

After each step both entry points check that the state is finite; the
first component that is not raises ``orbits.NonFiniteStateError``.
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
    GRAVITATIONAL_CONSTANT,
    MAX_EXPANSION_ANGLE,
    MU_SUN,
    SCATTERING_FACTOR,
    TWO_PI,
)
from .formation import NaturalOrbit, ShapedOrbit, shaped_position
from .orbits import (
    BodyEphemeris,
    NonFiniteStateError,
    OrbitalElements,
    ProximalConstants,
    delta_m_at_moid,
    eccentric_to_true,
    fixed_steps,
    gauss_rates_rtn,
    impact_parameter,
    kepler_propagate,
    proximal_factors,
    proximal_position,
    rk4_step,
    solve_kepler,
    solve_kepler_reduced,
)
from .plume import (
    axis_angle,
    clears_body,
    condensation_growth,
    degradation_factor,
    jet_density,
    spot_point,
    transmission,
)
from .sublimation import (
    AsteroidModel,
    delivered_power,
    ellipse_radius,
    exhaust_velocity,
    formation_flow,
    mass_flow_from_power,
    radiation_loss,
    spot_power_coefficient,
)
from .sizing import SpacecraftDesign

_ZERO = batch.ARRAY.operand(0.0)

# A run records its start, every RECORD_EVERY-th step and its last step.
RECORD_EVERY = 50


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

    @cached_property
    def _intervals(self) -> tuple:
        """(f_lo, p_lo, dp, df) of each interval, indexed by ``bisect_right``'s
        j: the grid's intervals between two zero-slope ends, which are the
        clamps. NaN gives the last interval and passes through."""
        p, f = self.powers, self.flows
        inner = ((f[j - 1], p[j - 1], p[j] - p[j - 1], f[j] - f[j - 1])
                 for j in range(1, len(p)))
        return ((f[0], p[0], 1.0, 0.0), *inner, (f[-1], p[-1], 1.0, 0.0))

    def __call__(self, p_in: float) -> float:
        f_lo, p_lo, dp, df = self._intervals[bisect.bisect_right(self.powers, p_in)]
        return f_lo + (p_in - p_lo) / dp * df


class _FlowColumns:
    """``MdotTable.__call__`` on a column of powers whose rows run on several
    tables: the tables' intervals side by side, so the same interval and
    the same interpolation, so the same bits.

    Rows whose tables share a power grid, as the map's do (the peak power
    does not depend on the aperture), take one search on that grid, and
    each row's table adds its offset.
    """

    def __init__(self, tables):
        self.offsets = np.cumsum([0] + [len(t._intervals) for t in tables[:-1]]).tolist()
        grid_index = {}
        self.grid_of = [grid_index.setdefault(t.powers, len(grid_index)) for t in tables]
        self.grids = [np.array(g) for g in grid_index]
        # one row each of (f_lo, p_lo, dp, df): a row's interval is one take
        self.intervals = np.array([iv for t in tables for iv in t._intervals]).T.copy()

    def lookup(self, runs):
        """The flow relation of rows whose table indices run as ``runs``
        (``batch.runs``)."""
        intervals, grids = self.intervals, self.grids
        offset = np.repeat([self.offsets[t] for _, _, t in runs],
                           [hi - lo for lo, hi, _ in runs])
        searches = [(slice(runs[a][0], runs[b - 1][1]), grids[g]) for a, b, g
                    in batch.runs([self.grid_of[t] for _, _, t in runs])]

        def flow(p):
            j = [grid.searchsorted(p[rows], "right") for rows, grid in searches]
            j = j[0] if len(j) == 1 else np.concatenate(j)
            f_lo, p_lo, dp, df = intervals.take(j + offset, axis=1)
            return f_lo + (p - p_lo) / dp * df
        return flow


@dataclass(frozen=True)
class DeflectionScenario:
    """Everything one deflection run needs. The formation thrusts from
    ``t_start`` to the encounter at ``t_moid``."""

    ast: AsteroidModel
    design: SpacecraftDesign
    earth: BodyEphemeris
    m_sc: float                      # kg, one spacecraft (for the tug)
    t_start: float                   # s
    t_moid: float                    # s, virtual encounter epoch
    formation: NaturalOrbit | ShapedOrbit = field(
        default_factory=lambda: ShapedOrbit(np.array([0., 0., -1000., 0., 0., -1000., 0., 0.])))
    scattering_factor: float = SCATTERING_FACTOR


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


def peak_spot_power(design: SpacecraftDesign, ast: AsteroidModel,
                    k: OrbitalElements) -> float:
    """Power density delivered to the spot at the perihelion of ``k`` through
    clean optics, W/m^2: the top of a flow table for that orbit."""
    return delivered_power(1.0, spot_power_coefficient(design, ast.albedo), k.a * (1.0 - k.e))


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


@dataclass(frozen=True)
class _Run:
    """One deflection ready to integrate: the undeflected start, the flow
    table, the steps, the constants of ``rates`` and those of the natural
    formation's relation about the start."""

    sc: DeflectionScenario
    k0: OrbitalElements
    table: MdotTable
    n_steps: int
    dt: float
    consts: _Constants
    proximal: ProximalConstants

    def state0(self) -> list:
        k0 = self.k0
        return [k0.a, k0.e, k0.i, k0.raan, k0.argp, k0.mean_anomaly(),
                self.sc.ast.mass0, 0.0]


def _prepare(sc: DeflectionScenario, mdot_table: MdotTable | None) -> _Run:
    ast, design = sc.ast, sc.design
    t0 = sc.t_start
    if sc.t_moid < t0:
        raise ValueError("encounter epoch precedes the deflection start")

    k0 = ast.elements0
    if k0.epoch != t0:
        k0 = kepler_propagate(k0, t0 - k0.epoch, MU_SUN)
    if mdot_table is None:
        mdot_table = MdotTable.for_orbit(design, ast, k0)

    span = sc.t_moid - t0
    n_steps, dt = fixed_steps(span, k0.period(MU_SUN)) if span > 0.0 else (0, 0.0)

    v_bar = exhaust_velocity(ast)
    a_ell, b_ell, _ = ast.semi_axes
    consts = _Constants(
        p_coeff=spot_power_coefficient(design, ast.albedo), n_sc=design.n_spacecraft,
        lam_v=sc.scattering_factor * v_bar,
        tug_coeff=GRAVITATIONAL_CONSTANT * sc.m_sc * design.n_spacecraft,
        w_spin=ast.spin_rate, a_ell=a_ell, b_ell=b_ell, a2_ell=a_ell * a_ell,
        b2_ell=b_ell * b_ell, v_bar=v_bar, v_area=v_bar * design.spot_area,
        d_spot=design.spot_diameter)
    return _Run(sc=sc, k0=k0, table=mdot_table, n_steps=n_steps, dt=dt, consts=consts,
                proximal=ProximalConstants.of(k0))


def _position(formation, k: ProximalConstants, m):
    """Hill-frame position of the formation's representative spacecraft, as
    a function of the cos and sin of the true anomaly, the osculating
    radius and the true anomaly: floats, or columns with the constants ``k``
    of the undeflected start as columns too. A natural orbit is
    ``orbits.proximal_relation`` with the osculating radius in place of
    k0's and the trig of the ``batch`` namespace ``m``. The coefficients and
    the deltas are ``m``'s operands."""
    if isinstance(formation, ShapedOrbit):
        coeffs = [m.operand(v) for v in formation.coeffs.tolist()]
        return lambda c, s, r, nu: shaped_position(coeffs, c, s)

    deltas = [m.operand(v) for v in formation.dk.tolist()]
    argp0, sin, cos = k.argp, m.sin, m.cos

    def natural(c, s, r, nu):
        theta = nu + argp0
        return proximal_position(proximal_factors(k, c, s, r, cos(theta), sin(theta)), deltas)
    return natural


def _rates(k: _Constants, position, flow, kepler, m):
    """The right-hand side ``f(t, y) -> (dy, (mdot, u_r, u_s, u_w))`` of the
    coupled deflection, y = (a, e, i, raan, argp, M unwrapped, asteroid
    mass, contamination thickness), with the expelled flow and the radial,
    transverse and normal thrust acceleration (``_accel`` forms |u| where
    it is recorded).

    One run: a list of floats, ``m`` = ``batch.FLOAT``, ``kepler`` =
    ``solve_kepler`` and ``flow`` its ``MdotTable``'s ``__call__``. A batch: an (8, N)
    array with one run per column, ``batch.ARRAY``, ``solve_kepler_reduced``
    (``M % TWO_PI`` is in its range) and a ``_FlowColumns`` lookup.
    ``position`` is ``_position``'s relation, or its batch over formation
    runs.
    """
    p_coeff, n_sc, lam_v, tug_coeff, w_spin = k.p_coeff, k.n_sc, k.lam_v, k.tug_coeff, k.w_spin
    a_ell, b_ell, a2_ell, b2_ell = k.a_ell, k.b_ell, k.a2_ell, k.b2_ell
    v_bar, v_area, d_spot = k.v_bar, k.v_area, k.d_spot
    sin, cos, sqrt, hypot, atan2 = m.sin, m.cos, m.sqrt, m.hypot, m.atan2
    where, any_, all_, stack = m.where, m.any, m.all, m.stack
    mu, two_pi = m.operand(MU_SUN), m.operand(TWO_PI)

    def rates(t, y):
        a, e, inc, raan, argp, m_unwrapped, m_a, h_cnd = y
        # Anomaly and geometry of the osculating orbit
        nu = eccentric_to_true(kepler(m_unwrapped % two_pi, e), e)
        cos_nu, sin_nu = cos(nu), sin(nu)
        one_ec = 1.0 + e * cos_nu
        one_e2 = 1.0 - e * e
        p = a * one_e2
        r = p / one_ec

        # Delivered power and expelled flow
        mdot = formation_flow(flow, delivered_power(transmission(m, h_cnd), p_coeff, r), n_sc)

        # Thrust on the asteroid: ablation along the velocity, tug toward
        # the formation. Flight-path angle splits them into radial and
        # transverse components.
        es = e * sin_nu
        gamma_w = hypot(es, one_ec)
        sin_g = es / gamma_w
        cos_g = one_ec / gamma_w
        # a row without mass divides by infinity, which gives it exactly 0,
        # as a row without flow gets either way
        has_mass = m_a > 0.0
        u_sub = lam_v * mdot / (m_a if all_(has_mass) else where(has_mass, m_a, math.inf))

        fx, fy, fz = position(cos_nu, sin_nu, r, nu)
        fz2 = fz * fz
        dr2 = fx * fx + fy * fy + fz2
        dr_norm = sqrt(dr2)
        dr3 = dr2 * dr_norm
        apart = dr_norm > 0.0
        tug = tug_coeff / (dr3 if all_(apart) else where(apart, dr3, math.inf))
        u_r = u_sub * sin_g + tug * fx
        u_s = u_sub * cos_g + tug * fy
        u_w = tug * fz
        da, de_r, di_r, draan_r, dargp_r, dm_r = gauss_rates_rtn(
            a, e, inc, argp, nu, cos_nu, sin_nu, one_e2, p, r, es, u_r, u_s, u_w, mu)

        # Contamination growth at the formation's representative spacecraft
        dh = 0.0
        exposed = mdot > 0.0
        if any_(exposed):
            sx, sy = spot_point(m, w_spin, a_ell, b_ell, t, atan2(es, one_ec))
            ox, oy = fx - sx, fy - sy
            on = sqrt(ox * ox + oy * oy + fz2)
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

        return (stack((da, de_r, di_r, draan_r, dargp_r, dm_r, -mdot, dh)),
                (mdot, u_r, u_s, u_w))
    return rates


def _accel(m, u_r, u_s, u_w):
    """|u| of the thrust acceleration from the components ``rates`` gives."""
    return m.sqrt(u_r * u_r + u_s * u_s + u_w * u_w)


_COMPONENTS = ("a", "e", "i", "raan", "argp", "M", "asteroid mass", "contamination")


def _non_finite(values, step: int, t: float, row: int | None = None) -> NonFiniteStateError:
    """The error for a state whose component ``values`` hold one that is not
    finite after ``step``; ``row`` is the run's index in the scenarios of a
    batch."""
    j = [math.isfinite(v) for v in values].index(False)
    of = "" if row is None else f" of scenario {row}"
    return NonFiniteStateError(f"deflection state {_COMPONENTS[j]}{of} is {values[j]!r} "
                               f"after step {step} at t = {t!r} s", row)


def _outcome(run: _Run, state, times, thrust, h, mass, mdot) -> DeflectionOutcome:
    """The outcome of a run from its final state (floats) and its records,
    lists or rows of a batch's record array (kept as views, not copied)."""
    sc, k0 = run.sc, run.k0
    a_f, e_f, i_f, raan_f, argp_f, m_unwrapped_f, _, _ = state
    delta_m = delta_m_at_moid(m_unwrapped_f - k0.mean_anomaly(), sc.t_start, sc.t_moid,
                              sc.t_moid, k0.mean_motion(MU_SUN), math.sqrt(MU_SUN / a_f**3))
    k_dev = OrbitalElements(a=a_f, e=e_f, i=i_f, raan=raan_f, argp=argp_f,
                            anomaly=m_unwrapped_f % TWO_PI, anomaly_kind="mean",
                            epoch=sc.t_moid)
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
    runs of the same design. A state component that is not finite after a
    step raises ``NonFiniteStateError`` naming it, its value, the step and
    the time.
    """
    run = _prepare(sc, mdot_table)
    m = batch.FLOAT
    # the table's bound __call__: Python calls it faster than the table
    rates = _rates(run.consts, _position(sc.formation, run.proximal, m), run.table.__call__,
                   solve_kepler, m)
    t0, dt, n_steps = sc.t_start, run.dt, run.n_steps
    state = run.state0()

    _, (mdot_now, *u_now) = rates(t0, state)
    rec_t, rec_thrust, rec_h, rec_mass, rec_mdot = \
        [t0], [_accel(m, *u_now) * state[6]], [0.0], [state[6]], [mdot_now]
    for step in range(n_steps):
        state, (mdot_now, *u_now) = rk4_step(rates, t0 + step * dt, state, dt)
        if state[6] < 0.0:
            state[6] = 0.0
        if not all(map(math.isfinite, state)):
            raise _non_finite(state, step + 1, t0 + (step + 1) * dt)
        if (step + 1) % RECORD_EVERY == 0 or step == n_steps - 1:
            rec_t.append(t0 + (step + 1) * dt)
            rec_thrust.append(_accel(m, *u_now) * state[6])
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


def _columns(rows):
    """One named tuple of (N,) columns from N named tuples of floats."""
    return type(rows[0])._make(np.array(col, dtype=float) for col in zip(*rows))


def _rows(columns, index):
    """The rows ``index`` of each column of a named tuple of columns."""
    return type(columns)._make(col[index] for col in columns)


def simulate_deflections(scenarios, mdot_tables=None) -> list[DeflectionOutcome]:
    """``simulate_deflection`` for many runs, integrated as one batch.

    ``mdot_tables`` gives each scenario a prebuilt table, or None to build
    its own. The state is one (8, N) array, a column per run; the runs
    are ordered by formation and then by table, so the formation position
    and the flow lookup take contiguous slices. Each run steps with its
    own start and step, records as ``simulate_deflection`` does and leaves
    the array after its last step. A run's numbers do not depend on the
    other runs; against ``simulate_deflection`` they can move in the last
    bits (module docstring). Outcomes come back in the order of
    ``scenarios``. A state that is not finite after a step raises
    ``NonFiniteStateError`` for the first such run in ``scenarios``, naming
    its index there.
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
    m = batch.ARRAY

    consts = _columns([run.consts for run in runs])
    proximal = _columns([run.proximal for run in runs])
    form_key = np.array([form_of[i] for i in order])
    table_key = np.array([table_of[i] for i in order])
    flows = _FlowColumns(tables)

    def kernel(live):
        k, prox = _rows(consts, live), _rows(proximal, live)
        parts = [(lo, hi, _position(forms[f], _rows(prox, slice(lo, hi)), m))
                 for lo, hi, f in batch.runs(form_key[live].tolist())]
        if len(parts) == 1:
            position = parts[0][2]
        else:
            # each formation writes its rows of one (3, N) array, whose rows
            # rates reads as the components before its next call
            out = np.empty((3, live.size))

            def position(c, s, r, nu):
                for lo, hi, fn in parts:
                    out[:, lo:hi] = fn(c[lo:hi], s[lo:hi], r[lo:hi], nu[lo:hi])
                return out
        flow = flows.lookup(batch.runs(table_key[live].tolist()))
        return _rates(k, position, flow, solve_kepler_reduced, m)

    live = np.arange(n)
    t0 = np.array([run.sc.t_start for run in runs])
    dt = np.array([run.dt for run in runs])
    n_steps = np.array([run.n_steps for run in runs])
    state = np.array([run.state0() for run in runs]).T.copy()
    rates = kernel(live)

    # records (t, thrust, h, mass, mdot): row i fills its own span of one
    # buffer from start[i], up to count[i]
    widths = 1 + -(-n_steps // RECORD_EVERY)
    start = np.cumsum(widths) - widths
    records = np.empty((5, int(widths.sum())))
    count = np.ones(n, dtype=int)
    _, (mdot_now, *u_now) = rates(t0, state)
    for q, value in enumerate((t0, _accel(m, *u_now) * state[6], state[7], state[6], mdot_now)):
        records[q, start] = value
    final = np.empty((n, len(state)))
    # the steps after which some row ends, and after which some row records
    ends = set(n_steps.tolist())
    records_due = ends.union(range(RECORD_EVERY, max(ends) + 1, RECORD_EVERY))

    step = 0
    while True:
        if step in ends:
            ending = n_steps == step
            final[live[ending]] = state[:, ending].T
            keep = ~ending
            live, t0, dt, n_steps = (x[keep] for x in (live, t0, dt, n_steps))
            if live.size == 0:
                break
            state = state[:, keep]
            rates = kernel(live)
        state, (mdot_now, *u_now) = rk4_step(rates, t0 + step * dt, state, dt)
        mass = state[6]
        np.maximum(mass, _ZERO, out=mass)
        step += 1
        # one reduction: a NaN or an infinity anywhere makes the sum non-finite
        if not math.isfinite(state.sum()):
            bad = np.flatnonzero(~np.isfinite(state).all(axis=0))
            col = min(bad.tolist(), key=lambda j: order[live[j]])
            raise _non_finite(state[:, col].tolist(), step, float(t0[col] + step * dt[col]),
                              order[live[col]])
        if step in records_due:
            due = (n_steps == step) | (step % RECORD_EVERY == 0)
            rows = live[due]
            slot = start[rows] + count[rows]
            for q, value in enumerate((t0 + step * dt, _accel(m, *u_now) * mass, state[7],
                                       mass, mdot_now)):
                records[q, slot] = value[due]
            count[rows] += 1

    outcomes = [None] * n
    for row, run in enumerate(runs):
        outcomes[order[row]] = _outcome(run, final[row].tolist(),
                                        *records[:, start[row]:start[row] + count[row]])
    return outcomes
