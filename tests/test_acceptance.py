"""Acceptance suite: one test per exit criterion, one printed line each.

Each criterion runs at its stated tolerance against independently computed
references. Criterion 9's aphelion clause asserts the response the model
gives, not a miss distance that never falls: every sweep cell must match a
first-order reference built from the sweep's own forces, and from
r_a = 1.2 AU on b falls because both the along-track shift (the spot power
follows 1/r^2) and the share of it the b-plane keeps (the crossing
geometry) fall. DECISIONS.md holds the analysis.
"""

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from laserfleet.constants import (
    AU,
    BOLTZMANN,
    GRAVITATIONAL_CONSTANT,
    MU_SUN,
    SOLAR_FLUX_1AU,
    STEFAN_BOLTZMANN,
    TWO_PI,
    YEAR,
)
from laserfleet.deflection import (
    DeflectionScenario,
    MdotTable,
    simulate_deflection,
)
from laserfleet.experiments import (
    crossing_states,
    resolve_encounter_epoch,
    run_deflection_map,
    run_eccentricity_sweep,
    run_formation_design,
)
from laserfleet.formation import (
    NATURAL_BOUNDS_LOWER,
    NATURAL_BOUNDS_UPPER,
    mirror_natural_orbit,
    natural_orbit_objectives,
    simulate_tracking,
)
from laserfleet.moo import ProblemSpec, hypervolume_2d, optimize
from laserfleet.orbits import (
    OrbitalElements,
    StateVector,
    bplane_miss,
    delta_m_at_moid,
    elements_to_state,
    impact_parameter,
    integrate_gauss,
    linear_proximal_position,
    mean_to_true,
    state_to_elements,
    tangential_frame,
)
from laserfleet.plume import degradation_factor
from laserfleet.scenario import load_scenario
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import exhaust_velocity, radiation_loss

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def criterion(number, label):
    """Print a pass/fail line for the criterion around the test body."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")
        return run
    return wrap


@pytest.fixture(scope="module")
def nominal():
    return load_scenario(SCENARIO_DIR / "apophis_nominal.json")


@pytest.fixture(scope="module")
def sweep_scenario():
    return load_scenario(SCENARIO_DIR / "eccentricity_sweep.json")


@pytest.fixture(scope="module")
def map_table(nominal):
    t0 = time.time()
    table = run_deflection_map(nominal)
    table.metadata["elapsed_s"] = time.time() - t0
    return table


@pytest.fixture(scope="module")
def sweep_table(sweep_scenario):
    t0 = time.time()
    table = run_eccentricity_sweep(sweep_scenario)
    table.metadata["elapsed_s"] = time.time() - t0
    return table


# ---------------------------------------------------------------------------
# 1. Oracle equivalence: Gauss integration vs Cartesian propagation
# ---------------------------------------------------------------------------

@criterion(1, "Gauss vs Cartesian, 1 year of tangential thrust, all elements < 0.1%")
def test_criterion_1_oracle_equivalence(nominal):
    k0 = nominal.asteroid.elements0
    u_t = 1e-7
    started = time.time()
    hist = integrate_gauss(k0, lambda t, k: np.array([u_t, 0.0, 0.0]),
                           0.0, YEAR, MU_SUN)
    k_gauss = hist.final().as_array()

    s0 = elements_to_state(k0, MU_SUN)

    def rhs(t, y):
        state = StateVector(position=y[:3], velocity=y[3:])
        frame = tangential_frame(state)
        a = -MU_SUN * y[:3] / np.linalg.norm(y[:3]) ** 3 \
            + frame.from_frame([u_t, 0.0, 0.0])
        return np.concatenate([y[3:], a])

    sol = solve_ivp(rhs, (0.0, YEAR), np.concatenate([s0.position, s0.velocity]),
                    method="DOP853", rtol=1e-12, atol=1e-3)
    k_cart = state_to_elements(StateVector(position=sol.y[:3, -1],
                                           velocity=sol.y[3:, -1]), MU_SUN).as_array()
    elapsed = time.time() - started
    k_start = k0.as_array()

    # angle-valued deltas floored at round-off scale where the true change
    # is identically zero (out-of-plane elements under in-plane thrust)
    floors = np.array([1e-3, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12])
    for j in range(6):
        dg = k_gauss[j] - k_start[j]
        dc = k_cart[j] - k_start[j]
        if j == 5:
            dg = math.remainder(dg, TWO_PI)
            dc = math.remainder(dc, TWO_PI)
        rel = abs(dg - dc) / max(abs(dc), floors[j])
        assert rel < 1e-3, f"element {j}: gauss {dg} vs cartesian {dc}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Zero-deflection null test
# ---------------------------------------------------------------------------

@criterion(2, "null thrust leaves dM < 1e-12 rad and b < 1 m")
def test_criterion_2_null(nominal):
    k0 = nominal.asteroid.elements0
    for window in (0.5 * YEAR, YEAR):
        hist = integrate_gauss(k0, lambda t, k: np.zeros(3), 0.0, window, MU_SUN)
        n0 = k0.mean_motion(MU_SUN)
        dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, window, 3 * YEAR, n0, n0)
        assert abs(dm) < 1e-12, f"dM = {dm}"

    b = impact_parameter(k0, k0, nominal.earth, nominal.moid_epoch, MU_SUN)
    assert b < 1.0, f"b = {b}"

    # the full pipeline with the thrust chain forced inert agrees
    design = design_from_option(10.0, 1.0, option="60/40")
    out = simulate_deflection(DeflectionScenario(
        ast=nominal.asteroid, design=design, earth=nominal.earth, m_sc=0.0,
        t_start=0.0, t_moid=YEAR, formation=nominal.shaped))
    assert abs(out.delta_mean_anomaly) < 1e-12
    assert out.miss_distance < 1.0


# ---------------------------------------------------------------------------
# 3. Physics spot checks
# ---------------------------------------------------------------------------

@criterion(3, "physics spot values at 1e-6 vs exact arithmetic")
def test_criterion_3_spot_checks(nominal):
    ast = nominal.asteroid

    v_bar = exhaust_velocity(ast)
    v_exact = math.sqrt(8.0 * BOLTZMANN * ast.t_sublimation
                        / (math.pi * ast.molecular_mass))
    assert abs(v_bar - v_exact) <= 1e-6 * v_exact
    assert round(v_bar, 1) == 520.5  # published display precision

    q = radiation_loss(1800.0, 1.0)
    q_exact = STEFAN_BOLTZMANN * 1800.0**4
    assert abs(q - q_exact) <= 1e-6 * q_exact
    assert abs(q - 5.953e5) <= 1e-3 * 5.953e5

    tau = degradation_factor(1e-6)
    assert abs(tau - math.exp(-2.0)) <= 1e-6 * math.exp(-2.0)

    collected = 314.0 * SOLAR_FLUX_1AU
    assert abs(collected - 314.0 * 1367.0) <= 1e-6 * collected  # exact arithmetic
    assert round(collected / 1e3, 1) == 429.2  # display precision of the quote
    assert abs(collected - 429.5e3) / 429.5e3 < 2e-3  # published cross-check


# ---------------------------------------------------------------------------
# 4. Lyapunov descent and tracking
# ---------------------------------------------------------------------------

@criterion(4, "Lyapunov: V non-increasing (design model) and tracking < 1% (full)")
def test_criterion_4_lyapunov(nominal):
    ast = nominal.asteroid
    design = design_from_option(20.0, 2500.0, option="66/45")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    dk = nominal.natural.dk  # the shipped y_lim ~ 1000 m natural orbit

    started = time.time()
    full = simulate_tracking(dk, ast, design, m_sc, duration=YEAR, step=400.0,
                             gain_k=nominal.gain_position,
                             gain_cd=nominal.gain_velocity, plant="full")
    elapsed_full = time.time() - started
    assert full.max_tracking_error < 0.01 * full.orbit_scale, \
        f"tracking error {full.max_tracking_error:.2f} m of {full.orbit_scale:.0f} m"
    assert elapsed_full < 60.0, f"runtime {elapsed_full:.1f}s"

    # The descent guarantee dV/dt = -c_d|dv|^2 holds under the law's own
    # plant model; with the full dynamics the uncancelled tide/harmonic
    # residuals exceed c_d|dv| at these gains (see DECISIONS.md). Assert it
    # step-by-step where the guarantee applies.
    model = simulate_tracking(dk, ast, design, m_sc, duration=YEAR, step=400.0,
                              gain_k=nominal.gain_position,
                              gain_cd=nominal.gain_velocity, plant="model",
                              ref_hold_steps=8)
    assert model.hold_decrease_ok, "V increased within a reference hold"


# ---------------------------------------------------------------------------
# 5. Shaped-formation thrust scale
# ---------------------------------------------------------------------------

@criterion(5, "optimized shaped orbits at 1-2 km need 0.1-50 mN")
def test_criterion_5_shaped_thrust(nominal):
    from laserfleet.experiments import run_shaped_design

    started = time.time()
    table = run_shaped_design(nominal)
    elapsed = time.time() - started
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s"

    cols = [c[0] for c in table.columns]
    j2 = cols.index("J2_max_distance")
    thrust = cols.index("max_thrust")
    band = [row for row in table.rows if 1000.0 <= row[j2] <= 2000.0]
    assert len(band) >= 5, "front left the 1-2 km band unpopulated"
    for row in band:
        assert 0.1e-3 <= row[thrust] <= 50e-3, \
            f"thrust {row[thrust] * 1e3:.2f} mN at {row[j2]:.0f} m"


# ---------------------------------------------------------------------------
# 6. Formation-family symmetry
# ---------------------------------------------------------------------------

@criterion(6, "mirrored families: z flips pointwise, fronts coincide")
def test_criterion_6_family_symmetry(nominal):
    k_a = nominal.asteroid.elements0
    rng = np.random.default_rng(6)

    # z(nu) mirrors pointwise to 1e-9 relative when (di, draan) are negated
    for _ in range(40):
        dk = NATURAL_BOUNDS_LOWER + rng.random(5) * (NATURAL_BOUNDS_UPPER
                                                     - NATURAL_BOUNDS_LOWER)
        flipped = dk.copy()
        flipped[1] *= -1.0
        flipped[2] *= -1.0
        nus = rng.random(64) * TWO_PI
        z = linear_proximal_position(k_a, dk, nus)[:, 2]
        z_m = linear_proximal_position(k_a, flipped, nus)[:, 2]
        nz = np.abs(z) > 0.0
        assert np.allclose(z_m[nz], -z[nz], rtol=1e-9)

    # a short design run: every member's compensated mirror re-evaluates to
    # the same objectives and stays non-dominated against the archive
    y_lim = 1000.0

    def evaluate(x):
        res = natural_orbit_objectives(x, k_a, y_lim)
        return (np.array([res["J1"], res["J2"]]),
                np.array([max(0.0, -res["C"])]))

    problem = ProblemSpec(lower=NATURAL_BOUNDS_LOWER, upper=NATURAL_BOUNDS_UPPER,
                          n_objectives=2, n_constraints=1, evaluate=evaluate)
    result = optimize(problem, budget=1500, seed=nominal.seed, population=24)
    assert result.archive.feasible_found
    objs = result.archive.objective_array()

    checked = 0
    for member in result.archive.members:
        mirrored = mirror_natural_orbit(member.x, k_a.i)
        if np.any(mirrored < NATURAL_BOUNDS_LOWER) or \
                np.any(mirrored > NATURAL_BOUNDS_UPPER):
            continue  # compensated argp delta left the design box
        res = natural_orbit_objectives(mirrored, k_a, y_lim)
        assert abs(res["J1"] - member.objectives[0]) <= 1e-9 * member.objectives[0] + 1e-9
        assert abs(res["J2"] - member.objectives[1]) <= 1e-9 * abs(member.objectives[1]) + 1e-12
        assert res["C"] > 0.0
        # non-dominated within archive resolution: the mirror of a member
        # ties its source to round-off, so domination needs a real margin
        mirrored_objs = np.array([res["J1"], res["J2"]])
        eps = np.array([1e-6 * max(abs(mirrored_objs[0]), 1.0), 1e-9])
        assert not any(np.all(o <= mirrored_objs - eps) for o in objs)
        checked += 1
    assert checked >= 3, "too few in-bounds mirrored members to compare"


# ---------------------------------------------------------------------------
# 7. Optimizer sanity on the analytic benchmark
# ---------------------------------------------------------------------------

@criterion(7, "benchmark hypervolume >= 99% of analytic optimum in 20k evals")
def test_criterion_7_optimizer(nominal):
    def evaluate(x):
        return np.array([x[0] ** 2, (x[0] - 2.0) ** 2]), np.zeros(0)

    problem = ProblemSpec(lower=np.array([-5.0]), upper=np.array([5.0]),
                          n_objectives=2, evaluate=evaluate)

    def on_generation(gen, archive, evals):
        archive.validate()  # no dominated pair, asserted every generation

    result = optimize(problem, budget=20000, seed=nominal.seed, population=64,
                      reference_point=(4.0, 4.0), on_generation=on_generation)
    hv = hypervolume_2d(result.archive.objective_array(), (4.0, 4.0))
    analytic = 40.0 / 3.0  # integral of the front against the (4,4) reference
    assert hv >= 0.99 * analytic, f"hv {hv:.4f} < 99% of {analytic:.4f}"


# ---------------------------------------------------------------------------
# 8. Deflection-map properties
# ---------------------------------------------------------------------------

def _map_cells(table):
    cols = [c[0] for c in table.columns]
    idx = {name: cols.index(name) for name in
           ("mode", "aperture", "n_spacecraft", "warning_time", "miss_distance",
            "mdot_end", "mdot_peak")}
    cells = {}
    for row in table.rows:
        key = (row[idx["mode"]], row[idx["aperture"]],
               int(row[idx["n_spacecraft"]]), row[idx["warning_time"]])
        cells[key] = row
    return cells, idx


@criterion(8, "map: b grows with warning and n_sc; shaped >= natural; "
              "contamination halt")
def test_criterion_8_deflection_map(nominal, map_table):
    cells, idx = _map_cells(map_table)
    warnings = sorted({k[3] for k in cells})
    n_list = sorted({k[2] for k in cells})

    # strict growth along both axes on the 5 m / C_r = 5000 grid
    for mode in ("natural", "shaped"):
        for n in n_list:
            for w1, w2 in zip(warnings, warnings[1:]):
                b1 = cells[(mode, 5.0, n, w1)][idx["miss_distance"]]
                b2 = cells[(mode, 5.0, n, w2)][idx["miss_distance"]]
                assert b2 > b1, f"{mode} n={n}: b({w2}) <= b({w1})"
        for w in warnings:
            for n1, n2 in zip(n_list, n_list[1:]):
                b1 = cells[(mode, 5.0, n1, w)][idx["miss_distance"]]
                b2 = cells[(mode, 5.0, n2, w)][idx["miss_distance"]]
                assert b2 > b1, f"{mode} w={w}: b(n={n2}) <= b(n={n1})"

    # shaped formations dodge the contamination and never do worse
    for n in n_list:
        for w in warnings:
            b_nat = cells[("natural", 5.0, n, w)][idx["miss_distance"]]
            b_shp = cells[("shaped", 5.0, n, w)][idx["miss_distance"]]
            assert b_shp >= b_nat, f"n={n} w={w}: shaped {b_shp} < natural {b_nat}"

    # contamination halts the flow within the first simulated year for at
    # least one natural cell: zero expelled flow at a heliocentric distance
    # where a clean mirror would still sublimate
    ast = nominal.asteroid
    t_moid = resolve_encounter_epoch(nominal)
    design = design_from_option(5.0, 5000.0, n_spacecraft=10, option="60/40")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    p_coeff = (design.eta_sys * design.concentration_ratio * (1 - ast.albedo)
               * SOLAR_FLUX_1AU * AU * AU)
    table = MdotTable.build(design, ast,
                            p_max=p_coeff / (ast.elements0.a * (1 - ast.elements0.e)) ** 2)
    out = simulate_deflection(DeflectionScenario(
        ast=ast, design=design, earth=nominal.earth, m_sc=m_sc,
        t_start=t_moid - YEAR, t_moid=t_moid, formation=nominal.natural,
        record_every=10), mdot_table=table)

    k0 = ast.elements0
    n_mm = k0.mean_motion(MU_SUN)
    halted = 0
    for k, t in enumerate(out.times):
        m_anom = (k0.mean_anomaly() + n_mm * (t - k0.epoch)) % TWO_PI
        nu = mean_to_true(m_anom, k0.e)
        r = k0.semilatus_rectum() / (1.0 + k0.e * math.cos(nu))
        if out.mdot[k] == 0.0 and table(p_coeff / r**2) > 0.0:
            halted += 1
    assert halted > 0, "no contamination-caused halt found in the first year"
    assert out.tau[-1] < 0.9  # the optics genuinely degraded


MAP_GOLDEN = Path(__file__).resolve().parent / "deflection_map_golden.json"


def test_deflection_map_golden(map_table):
    """The shipped map against its 200 rows recorded while every cell ran
    alone on floats. The batch moves a row only through the last bits of
    numpy's transcendental functions (DECISIONS.md): b, the difference of
    two positions 1.4e11 m from the Sun, within 1e-2 m, the rest within
    1e-11 relative."""
    golden = json.loads(MAP_GOLDEN.read_text())
    assert len(map_table.rows) == len(golden) == 200
    for row, want in zip(map_table.rows, golden, strict=True):
        assert list(row[:4]) == want[:4]
        assert abs(row[4] - want[4]) <= 1e-2, f"{want[:4]}: b {row[4]!r} vs {want[4]!r}"
        for got, ref in zip(row[5:], want[5:], strict=True):
            assert got == pytest.approx(ref, rel=1e-11, abs=0.0), f"{want[:4]}: {got!r} vs {ref!r}"


# ---------------------------------------------------------------------------
# 9. Eccentricity sweep
# ---------------------------------------------------------------------------

def _sweep_by_rp(table):
    cols = [c[0] for c in table.columns]
    i_rp, i_ra = cols.index("r_perihelion"), cols.index("r_aphelion")
    i_e, i_in, i_b = (cols.index("eccentricity"), cols.index("intersects"),
                      cols.index("miss_distance"))
    by_rp = defaultdict(list)
    eccs = []
    for row in table.rows:
        if row[i_in]:
            by_rp[row[i_rp]].append((row[i_ra], row[i_b]))
            eccs.append((row[i_e], row[i_b]))
    return by_rp, eccs


def _first_order_deflection(k0, u_t, span, u_rs=None):
    """Deflected elements and mean-anomaly offset after ``span`` of thrust.

    First order in the thrust: the planar Gauss equations (the radial/
    transverse form of ``gauss_rates``) are evaluated along the undeflected
    orbit from ``k0`` and integrated with the trapezoid rule on 2**14
    intervals (doubling them moves b by < 2e-8); the offset in M carries
    the mean-motion drift -3/2 (n/a) da(t). ``u_t(r)`` is the acceleration
    along the velocity, ``u_rs(nu)`` an extra (radial, transverse) one.
    """
    n = 2**14
    a, e = k0.a, k0.e
    n_mm = k0.mean_motion(MU_SUN)
    p = a * (1.0 - e * e)
    h = math.sqrt(MU_SUN * p)
    m = k0.mean_anomaly() + n_mm * np.linspace(0.0, span, n + 1)
    ecc = m + e * np.sin(m)
    for _ in range(50):
        step = (ecc - e * np.sin(ecc) - m) / (1.0 - e * np.cos(ecc))
        ecc -= step
        if np.max(np.abs(step)) < 1e-14:
            break
    nu = 2.0 * np.arctan2(math.sqrt(1.0 + e) * np.sin(0.5 * ecc),
                          math.sqrt(1.0 - e) * np.cos(0.5 * ecc))
    cos_nu, sin_nu = np.cos(nu), np.sin(nu)
    r = p / (1.0 + e * cos_nu)
    w = np.hypot(e * sin_nu, 1.0 + e * cos_nu)
    u = u_t(r)
    u_r, u_s = u * e * sin_nu / w, u * (1.0 + e * cos_nu) / w
    if u_rs is not None:
        extra_r, extra_s = u_rs(nu)
        u_r, u_s = u_r + extra_r, u_s + extra_s

    da = 2.0 * a * a / h * (e * sin_nu * u_r + (p / r) * u_s)
    de = (p * sin_nu * u_r + ((p + r) * cos_nu + r * e) * u_s) / h
    dargp = (-p * cos_nu * u_r + (p + r) * sin_nu * u_s) / (h * e)
    dm = math.sqrt(1.0 - e * e) / (h * e) * ((p * cos_nu - 2.0 * r * e) * u_r
                                             - (p + r) * sin_nu * u_s)

    def running(f):  # trapezoid integral from the start of the window
        return np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * (span / n))])

    a_t = running(da)
    kd = OrbitalElements(a=a + a_t[-1], e=e + running(de)[-1], i=k0.i, raan=k0.raan,
                         argp=k0.argp + running(dargp)[-1], anomaly=0.0)
    return kd, running(dm - 1.5 * n_mm / a * a_t)[-1]


def _crossing_response(r_p, r_a, u_t, span, u_rs=None):
    """(b, |dr|) at the sweep's crossing, from ``_first_order_deflection``.

    |dr| is the whole position offset, almost all of it along the track;
    b / |dr| is the share of it that the b-plane keeps.
    """
    k0 = OrbitalElements(a=0.5 * (r_p + r_a), e=(r_a - r_p) / (r_a + r_p), i=0.0,
                         raan=0.0, argp=0.0, anomaly=0.0, anomaly_kind="mean")
    sd, s0, earth = crossing_states(k0, *_first_order_deflection(k0, u_t, span, u_rs))
    return bplane_miss(sd, s0, earth), float(np.linalg.norm(sd.position - s0.position))


def _sweep_force_law(scenario, meta):
    """The sweep's accelerations on the asteroid, as ``simulate_deflection`` sets them.

    Returns ``thrust(r_p)``, the ablation acceleration along the velocity as
    a function of r for the row at perihelion r_p (the flow table spans the
    powers up to the one at perihelion), and ``tug(nu)``, the formation's
    pull. The shaped formation sits at x = -1 km, and the plume reaches the
    optics only from +x, so they stay clean. The reference keeps the
    asteroid's mass fixed; over the window it loses at most 2.5e-4 of it.
    """
    ast = scenario.asteroid
    design = design_from_option(meta["aperture_m"], meta["concentration_ratio"],
                                n_spacecraft=meta["n_spacecraft"],
                                option=meta["efficiency_option"])
    p_coeff = (design.eta_sys * design.concentration_ratio * (1 - ast.albedo)
               * SOLAR_FLUX_1AU * AU * AU)
    per_kg_s = (scenario.scattering_factor * exhaust_velocity(ast)
                * design.n_spacecraft / ast.mass0)

    def thrust(r_p):
        table = MdotTable.build(design, ast, p_max=p_coeff / r_p**2)
        return lambda r: per_kg_s * np.interp(p_coeff / r**2, table.powers, table.flows)

    x1, x2, x3, y1, y2, y3, z1, z2 = scenario.shaped.coeffs
    pull = GRAVITATIONAL_CONSTANT * meta["spacecraft_mass_kg"] * design.n_spacecraft

    def tug(nu):
        c, s = np.cos(nu), np.sin(nu)
        fx, fy, fz = x1 * c + x2 * s + x3, y1 * c + y2 * s + y3, z1 * c + z2 * s
        scale = pull / (fx * fx + fy * fy + fz * fz) ** 1.5
        return scale * fx, scale * fy

    return thrust, tug


@criterion(9, "sweep: each cell = first-order response of its forces (1e-3); "
              "from r_a = 1.2 AU b falls as shift and b-plane share both fall")
def test_criterion_9a_aphelion_monotonicity(sweep_scenario, sweep_table):
    """The aphelion response at fixed perihelion, tied to a reference.

    The reference is the first-order response of the sweep's own forces
    (``_first_order_deflection``), placed at the crossing as the sweep
    does. It must match the Gauss integrator that criterion 1 validates to
    1e-5, since at 1e-12 m/s^2 both are first order. Every cell of the
    sweep, the metre-scale r_p = 1 AU row included, must match it to 1e-3.
    What the reference leaves out is smaller: the mass the asteroid loses
    (at most 2.5e-4 of it, so b moves by about half that) and terms of
    second order in the deflection (relative size |dr| / 1 AU < 2.2e-4).

    b = |dr| * (b / |dr|): the along-track shift times the share of it that
    the b-plane keeps. From r_a = 1.2 AU on, in every row with r_p < 1 AU,
    both factors fall with every step, so b falls. The shift falls because
    the spot power follows 1/r^2: with a constant thrust the longer orbit's
    leverage would make it grow, with a bare 1/r^2 thrust it falls too. The
    share falls because v_rel turns toward the asteroid's velocity as the
    orbit stretches; that alone makes b fall with r_a near r_p = 1 AU even
    under a constant thrust. At r_a = 1 AU the crossing is aphelion-tangent
    and at r_p = 1 AU perihelion-tangent: v_rel lies along the track there
    and the shift drops out of the b-plane. The literal reading "b never
    falls as r_a grows" is one the model does not give; DECISIONS.md holds
    the analysis.
    """
    meta = sweep_table.metadata
    span = meta["warning_yr"] * YEAR
    thrust, tug = _sweep_force_law(sweep_scenario, meta)
    u1 = 1e-12  # m/s^2 at 1 AU for the bare laws; b is linear in it
    laws = {"constant": lambda r: u1 + 0.0 * r, "1/r^2": lambda r: u1 * (AU / r) ** 2}

    # The reference against the validated Gauss integrator (i = 1e-6 rad
    # clears the planar guard in gauss_rates)
    for r_a in (1.2 * AU, 2.0 * AU):
        r_p = 0.5 * AU
        k0 = OrbitalElements(a=0.5 * (r_p + r_a), e=(r_a - r_p) / (r_a + r_p), i=1e-6,
                             raan=0.0, argp=0.0, anomaly=0.0, anomaly_kind="mean")

        def accel(t, k):
            nu = mean_to_true(k[5] % TWO_PI, k[1])
            r = k[0] * (1.0 - k[1] ** 2) / (1.0 + k[1] * math.cos(nu))
            return np.array([laws["1/r^2"](r), 0.0, 0.0])

        hist = integrate_gauss(k0, accel, 0.0, span, MU_SUN)
        kd = hist.final()
        dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, span, span,
                             k0.mean_motion(MU_SUN), kd.mean_motion(MU_SUN))
        b_gauss = bplane_miss(*crossing_states(k0, kd, dm))
        b_ref, _ = _crossing_response(r_p, r_a, laws["1/r^2"], span)
        assert abs(b_gauss / b_ref - 1.0) < 1e-5, \
            f"reference {b_ref:.1f} m vs Gauss {b_gauss:.1f} m at r_a={r_a / AU}"

    by_rp, _ = _sweep_by_rp(sweep_table)
    rps = sorted(by_rp)
    assert math.isclose(rps[-1], 1.0), f"last perihelion row is {rps[-1]} AU"
    ref = {}
    for rp in rps:
        u_t = thrust(rp * AU)
        for ra, b in by_rp[rp]:
            ref[rp, ra] = _crossing_response(rp * AU, ra * AU, u_t, span, tug)
            assert abs(b / ref[rp, ra][0] - 1.0) < 1e-3, \
                f"r_p={rp}, r_a={ra}: b = {b:.1f} m vs reference {ref[rp, ra][0]:.1f} m"

    for rp in rps[:-1]:
        pairs = sorted(by_rp[rp])
        ras = [ra for ra, _ in pairs]
        assert [round(ra, 9) for ra in ras[:3]] == [1.0, 1.1, 1.2]
        shift = [ref[rp, ra][1] for ra in ras]
        share = [ref[rp, ra][0] / ref[rp, ra][1] for ra in ras]
        assert pairs[1][1] > pairs[0][1] and share[1] > share[0], \
            f"r_p={rp}: b(1.1) <= b(1.0) off the aphelion-tangent column"
        for k in range(2, len(ras) - 1):
            lo, hi = f"r_p={rp}: r_a={ras[k]}", f"{ras[k + 1]}"
            assert pairs[k + 1][1] < pairs[k][1], f"{lo} -> {hi}: b does not fall"
            assert shift[k + 1] < shift[k], f"{lo} -> {hi}: shift does not fall"
            assert share[k + 1] < share[k], f"{lo} -> {hi}: b-plane share does not fall"
        ends = (ras[2] * AU, ras[-1] * AU)
        grow = [_crossing_response(rp * AU, ra, laws["constant"], span)[1] for ra in ends]
        fall = [_crossing_response(rp * AU, ra, laws["1/r^2"], span)[1] for ra in ends]
        assert grow[1] > grow[0], f"r_p={rp}: constant thrust, shift does not grow"
        assert fall[1] < fall[0], f"r_p={rp}: 1/r^2 thrust, shift does not fall"


@criterion(9, "sweep: most eccentric cell >= 5x the least eccentric; "
              "grid runtime < 30 min")
def test_criterion_9b_eccentricity_gain_and_runtime(sweep_table):
    by_rp, eccs = _sweep_by_rp(sweep_table)
    assert len(eccs) >= 100  # 11 x 11 grid minus the degenerate cells
    eccs.sort()
    b_least = eccs[0][1]
    b_most = eccs[-1][1]
    assert b_most >= 5.0 * b_least, f"{b_most:.0f} vs {b_least:.0f}"
    assert sweep_table.metadata["elapsed_s"] < 1800.0


@criterion(9, "sweep: cells without an Earth-orbit intersection marked absent")
def test_criterion_9c_absent_cells(sweep_table):
    cols = [c[0] for c in sweep_table.columns]
    i_rp, i_ra = cols.index("r_perihelion"), cols.index("r_aphelion")
    i_in, i_b = cols.index("intersects"), cols.index("miss_distance")
    absent = [row for row in sweep_table.rows if not row[i_in]]
    assert absent, "expected at least the degenerate circular cell"
    for row in absent:
        assert row[i_b] is None
    assert any(row[i_rp] == 1.0 and row[i_ra] == 1.0 for row in absent)


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

@criterion(10, "same scenario + seed reproduces byte-identical CSVs")
def test_criterion_10_determinism(nominal, tmp_path):
    import dataclasses

    # stochastic path: the formation-design optimizer end to end, twice
    small = dataclasses.replace(nominal, y_limits=(1000.0,),
                                optimizer={"population": 16, "budget": 400,
                                           "archive": 32})
    t1 = run_formation_design(small)
    t2 = run_formation_design(small)
    p1 = t1.write(tmp_path / "a")
    p2 = t2.write(tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a" / "formation_design.meta.json").read_bytes() == \
        (tmp_path / "b" / "formation_design.meta.json").read_bytes()
    assert len(t1.rows) > 0
