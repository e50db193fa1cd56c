"""The five design studies, each producing a plot-ready result table.

    * formation-design: bi-objective natural-orbit fronts per stand-off.
    * shaped-design: tri-objective shaped-orbit front with control budget.
    * fleet-design: miss distance vs. launched mass over aperture, count
      and concentration, per formation mode and efficiency option.
    * deflection-map: miss distance over spacecraft count and warning time.
    * eccentricity-sweep: miss distance over perihelion/aphelion radius for
      a virtual planar deep-crosser family.

All runners are deterministic functions of (scenario, seed). The grid
studies integrate their cells as one batch (``simulate_deflections``), or
as one contiguous chunk per process, with rows assembled in cell order; a
row's numbers do not depend on how the cells are chunked.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .constants import AU, MU_SUN, YEAR
from .deflection import (
    DeflectionScenario,
    MdotTable,
    peak_spot_power,
    simulate_deflection,
    simulate_deflections,
)
from .formation import (
    NATURAL_BOUNDS_LOWER,
    NATURAL_BOUNDS_UPPER,
    SHAPED_BOUNDS_LOWER,
    SHAPED_BOUNDS_UPPER,
    ShapedControlContext,
    ShapedOrbit,
    _minimize_bounded,
    natural_family_label,
    natural_orbit_objectives,
    shaped_feasibility,
    shaped_objectives,
)
from .moo import ProblemSpec, optimize
from .orbits import (
    NonFiniteStateError,
    OrbitalElements,
    StateVector,
    bplane_miss,
    elements_to_state,
    kepler_propagate,
    true_to_mean,
)
from .results import ResultTable
from .scenario import Scenario, ScenarioError
from .sizing import design_from_option, mass_budget
from .sublimation import mass_flow_rate


def _optimizer_settings(scenario: Scenario, **defaults) -> dict:
    """``optimize`` keywords: the study's defaults, overridden by the scenario's."""
    cfg = defaults | scenario.optimizer
    if cfg["budget"] < cfg["population"]:
        raise ScenarioError(f"optimizer.budget: {cfg['budget']} is below the "
                            f"population of {cfg['population']}")
    return {"population": cfg["population"], "budget": cfg["budget"],
            "archive_size": cfg["archive"]}


def _study_formation(scenario: Scenario, mode: str):
    formation = scenario.natural if mode == "natural" else scenario.shaped
    if formation is None:
        raise ScenarioError(f"formation.{mode}: a study in {mode} mode needs this block")
    return formation


def resolve_encounter_epoch(scenario: Scenario) -> float:
    """Virtual impact epoch: configured, optionally refined to the nearest
    asteroid-Earth close approach (well-conditioned b-plane geometry)."""
    t_guess = scenario.moid_epoch
    if not scenario.refine_encounter:
        return t_guess
    ast_el = scenario.asteroid.elements0
    period = ast_el.period(MU_SUN)

    def separation(t: float) -> float:
        s_a = elements_to_state(kepler_propagate(ast_el, t - ast_el.epoch, MU_SUN), MU_SUN)
        s_e = scenario.earth.state_at(t)
        return float(np.linalg.norm(s_a.position - s_e.position))

    times = np.linspace(t_guess - period / 2.0, t_guess + period / 2.0, 600)
    seps = np.array([separation(float(t)) for t in times])
    idx = int(np.argmin(seps))
    lo = times[max(idx - 1, 0)]
    hi = times[min(idx + 1, len(times) - 1)]
    t_min, _ = _minimize_bounded(separation, float(lo), float(hi), xatol=1.0)
    return t_min


# ---------------------------------------------------------------------------
# Formation design (natural orbits)
# ---------------------------------------------------------------------------

def run_formation_design(scenario: Scenario, seed: int | None = None) -> ResultTable:
    seed = scenario.seed if seed is None else seed
    k_a = scenario.asteroid.elements0
    cfg = _optimizer_settings(scenario, population=48, budget=4000, archive=96)

    table = ResultTable(
        name="formation_design",
        columns=[("y_lim", "m"), ("family", ""), ("de", ""), ("di", "rad"),
                 ("draan", "rad"), ("dargp", "rad"), ("dm", "rad"),
                 ("J1_max_distance", "m"), ("J2_neg_min_plume_angle", "rad"),
                 ("C_clearance", "m")],
        metadata=scenario.metadata() | {"bounds_lower": list(NATURAL_BOUNDS_LOWER),
                                        "bounds_upper": list(NATURAL_BOUNDS_UPPER)})

    for j, y_lim in enumerate(scenario.y_limits):
        clearance = {}  # C of each design scored, by the bytes of x

        def evaluate(x, y_lim=y_lim, clearance=clearance):
            res = natural_orbit_objectives(x, k_a, y_lim)
            clearance[x.tobytes()] = res["C"]
            return (res["J1"], res["J2"]), (max(0.0, -res["C"]),)

        def keep_archived(gen, archive, n_evals, clearance=clearance):
            # only archive members reach the table
            kept = {key: clearance[key] for key in (m.x.tobytes() for m in archive.members)}
            clearance.clear()
            clearance.update(kept)

        problem = ProblemSpec(lower=NATURAL_BOUNDS_LOWER, upper=NATURAL_BOUNDS_UPPER,
                              n_objectives=2, n_constraints=1, evaluate=evaluate)
        result = optimize(problem, seed=seed + j, on_generation=keep_archived, **cfg)
        if not result.archive.feasible_found:
            table.metadata[f"y_lim_{y_lim:g}_infeasible"] = True
            continue
        # each member keeps the objectives it was scored with, and C was
        # kept at scoring, so nothing is evaluated twice
        for m in result.archive.members:
            family = natural_family_label(m.x, k_a, y_lim)
            j1, j2 = (float(v) for v in m.objectives)
            table.add_row(float(y_lim), family, *[float(v) for v in m.x],
                          j1, j2, clearance[m.x.tobytes()])
    return table


# ---------------------------------------------------------------------------
# Shaped-formation design
# ---------------------------------------------------------------------------

def run_shaped_design(scenario: Scenario, seed: int | None = None) -> ResultTable:
    """Pareto front of shaped formation orbits over one control window.

    The plume on the spacecraft is sized by one flow held over the whole
    window: ``mass_flow_rate`` at perihelion, through clean optics, at spin
    phase 0. The deflection runs use the spin-averaged ``MdotTable``
    instead, since they integrate the flow over years. The control grid
    (512 samples a year) cannot resolve a spin of hours, so the study needs
    one value. Phase 0 puts the long equatorial axis under the spot and
    gives the least flow of a spin, 5.0% below the average on the shipped
    design; DECISIONS.md says why it stays.
    """
    seed = scenario.seed if seed is None else seed
    exp = scenario.experiments["shaped_design"]
    aperture, c_r = exp["aperture_m"], exp["concentration_ratio"]
    n_sc, option = exp["n_spacecraft"], exp["efficiency_option"]
    duration = exp["duration_yr"] * YEAR
    cfg = _optimizer_settings(scenario, population=32, budget=5000, archive=96)

    ast = scenario.asteroid
    design = design_from_option(aperture, c_r, n_spacecraft=n_sc, option=option)
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    m_sc = mass_budget(design, r_peri).m_total
    mdot_ref = mass_flow_rate(design, ast, r_peri, 1.0, n_sc)
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design,
                               m_sc=m_sc, isp=scenario.isp, mdot=mdot_ref)

    def evaluate(x):
        s = ShapedOrbit(coeffs=x)
        res = shaped_objectives(s, ctx, duration, exp["control_samples"])
        return (np.array([res["J1"], res["J2"], res["J3"]]),
                np.array([max(0.0, res["C1"]), max(0.0, res["C2"])]))

    problem = ProblemSpec(lower=SHAPED_BOUNDS_LOWER, upper=SHAPED_BOUNDS_UPPER,
                          n_objectives=3, n_constraints=2, evaluate=evaluate)
    result = optimize(problem, seed=seed, **cfg)

    table = ResultTable(
        name="shaped_design",
        columns=[("x1", "m"), ("x2", "m"), ("x3", "m"), ("y1", "m"), ("y2", "m"),
                 ("y3", "m"), ("z1", "m"), ("z2", "m"),
                 ("J1_propellant_fraction", ""), ("J2_max_distance", "m"),
                 ("J3_max_accel", "m/s^2"), ("max_thrust", "N"),
                 ("C1_max_x", "m"), ("C2_max_y", "m")],
        metadata=scenario.metadata() | {"aperture_m": aperture, "concentration_ratio": c_r,
                                        "n_spacecraft": n_sc,
                                        "duration_yr": duration / YEAR,
                                        "spacecraft_mass_kg": m_sc,
                                        "efficiency_option": option,
                                        "feasible_found": result.archive.feasible_found})
    # each member keeps the objectives it was scored with; C1 and C2 are
    # closed-form, so nothing is evaluated twice
    for m in result.archive.members:
        j1, j2, j3 = (float(v) for v in m.objectives)
        c1, c2 = shaped_feasibility(ShapedOrbit(coeffs=m.x))
        table.add_row(*[float(v) for v in m.x], j1, j2, j3, j3 * m_sc,
                      float(c1), float(c2))
    return table


# ---------------------------------------------------------------------------
# Fleet design
# ---------------------------------------------------------------------------

def run_fleet_design(scenario: Scenario, seed: int | None = None) -> ResultTable:
    seed = scenario.seed if seed is None else seed
    exp = scenario.experiments["fleet_design"]
    warning = exp["warning_yr"] * YEAR
    cfg = _optimizer_settings(scenario, population=24, budget=240, archive=64)

    ast = scenario.asteroid
    t_moid = resolve_encounter_epoch(scenario)
    t0 = t_moid - warning
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    box = [scenario.design_space[k]
           for k in ("aperture_diameter", "n_spacecraft", "concentration_ratio")]

    table = ResultTable(
        name="fleet_design",
        columns=[("mode", ""), ("efficiency_option", ""), ("aperture", "m"),
                 ("n_spacecraft", ""), ("concentration_ratio", ""),
                 ("miss_distance", "m"), ("fleet_mass", "kg"),
                 ("spacecraft_mass", "kg")],
        metadata=scenario.metadata() | {"warning_yr": warning / YEAR,
                                        "moid_epoch_s": t_moid})

    for mi, mode in enumerate(exp["modes"]):
        formation = _study_formation(scenario, mode)
        for oi, option in enumerate(exp["efficiency_options"]):
            def evaluate(x, option=option, formation=formation):
                d_m, n_sc, c_r = float(x[0]), int(round(x[1])), float(x[2])
                design = design_from_option(d_m, c_r, n_spacecraft=n_sc, option=option)
                m_sc = mass_budget(design, r_peri).m_total
                dscn = DeflectionScenario(ast=ast, design=design, earth=scenario.earth,
                                          m_sc=m_sc, t_start=t0, t_moid=t_moid,
                                          formation=formation,
                                          scattering_factor=scenario.scattering_factor)
                table_m = MdotTable.build(design, ast,
                                          p_max=peak_spot_power(design, ast, ast.elements0),
                                          n_points=48, n_phases=6)
                out = simulate_deflection(dscn, mdot_table=table_m)
                return (np.array([-out.miss_distance, n_sc * m_sc]), np.zeros(0))

            problem = ProblemSpec(
                lower=np.array([lo for lo, _ in box]), upper=np.array([hi for _, hi in box]),
                integer_mask=np.array([False, True, False]),
                n_objectives=2, evaluate=evaluate)
            result = optimize(problem, seed=seed + 10 * mi + oi, **cfg)
            for m in result.archive.members:
                d_m, n_sc, c_r = float(m.x[0]), int(round(m.x[1])), float(m.x[2])
                design = design_from_option(d_m, c_r, n_spacecraft=n_sc, option=option)
                m_sc = mass_budget(design, r_peri).m_total
                table.add_row(mode, option, d_m, n_sc, c_r,
                              -float(m.objectives[0]), float(m.objectives[1]), m_sc)
    return table


# ---------------------------------------------------------------------------
# Deflection map
# ---------------------------------------------------------------------------

def _in_batches(rows_of, cells: list, threads: int) -> list:
    """``rows_of(cells)``, or the same rows from ``threads`` processes, each
    taking one contiguous chunk of the cells as one batch."""
    if threads <= 1:
        return rows_of(cells)
    # imported here: the pool's import loads multiprocessing, which only
    # --threads > 1 uses
    from concurrent.futures import ProcessPoolExecutor

    size, extra = divmod(len(cells), threads)
    cuts = [k * size + min(k, extra) for k in range(threads + 1)]
    chunks = [cells[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    # one worker a chunk: a pool under fork starts all its workers at once
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [row for rows in pool.map(rows_of, chunks) for row in rows]


def _cell_error(exc: NonFiniteStateError, study: str, fields: str,
                key: tuple) -> NonFiniteStateError:
    """``exc`` with the key of the study cell whose run it names."""
    return NonFiniteStateError(f"{study} cell {fields} = {key}: {exc}", exc.row)


def _map_rows(cells: list) -> list:
    """Map rows of ``(row key, DeflectionScenario, MdotTable)`` cells."""
    try:
        outs = simulate_deflections([dscn for _, dscn, _ in cells],
                                    [table for _, _, table in cells])
    except NonFiniteStateError as exc:
        raise _cell_error(exc, "deflection map", "(mode, aperture, n_spacecraft, warning_yr)",
                          cells[exc.row][0]) from exc
    return [(*key, out.miss_distance, float(out.tau[-1]), float(out.mdot[-1]),
             float(np.max(out.mdot)), float(out.asteroid_mass[-1]))
            for (key, _, _), out in zip(cells, outs)]


def run_deflection_map(scenario: Scenario, seed: int | None = None,
                       threads: int = 1) -> ResultTable:
    exp = scenario.experiments["deflection_map"]
    c_r, option = exp["concentration_ratio"], exp["efficiency_option"]

    ast = scenario.asteroid
    t_moid = resolve_encounter_epoch(scenario)
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)

    tables = {}
    masses = {}
    for aperture in exp["apertures_m"]:
        design1 = design_from_option(aperture, c_r, n_spacecraft=1, option=option)
        tables[aperture] = MdotTable.for_orbit(design1, ast, ast.elements0)
        masses[aperture] = mass_budget(design1, r_peri).m_total

    cells = []
    for mode in exp["modes"]:
        formation = _study_formation(scenario, mode)
        for aperture in exp["apertures_m"]:
            for n_sc in exp["n_spacecraft"]:
                design = design_from_option(aperture, c_r, n_spacecraft=n_sc, option=option)
                for warning in (w * YEAR for w in exp["warning_times_yr"]):
                    dscn = DeflectionScenario(
                        ast=ast, design=design, earth=scenario.earth, m_sc=masses[aperture],
                        t_start=t_moid - warning, t_moid=t_moid, formation=formation,
                        scattering_factor=scenario.scattering_factor)
                    cells.append(((mode, aperture, n_sc, warning / YEAR), dscn,
                                  tables[aperture]))
    rows = _in_batches(_map_rows, cells, threads)

    table = ResultTable(
        name="deflection_map",
        columns=[("mode", ""), ("aperture", "m"), ("n_spacecraft", ""),
                 ("warning_time", "yr"), ("miss_distance", "m"),
                 ("tau_end", ""), ("mdot_end", "kg/s"), ("mdot_peak", "kg/s"),
                 ("asteroid_mass_end", "kg")],
        metadata=scenario.metadata() | {"concentration_ratio": c_r,
                                        "efficiency_option": option,
                                        "moid_epoch_s": t_moid,
                                        "spacecraft_mass_kg": {f"{a:g}m": m for a, m
                                                               in masses.items()}})
    for row in rows:
        table.add_row(*row)
    return table


# ---------------------------------------------------------------------------
# Eccentricity sweep
# ---------------------------------------------------------------------------

def crossing_cosine(k: OrbitalElements) -> float:
    """cos of the true anomaly at which an orbit of ``k`` is 1 AU from the Sun.

    Outside [-1, 1] the orbit never reaches 1 AU.
    """
    p = k.a * (1.0 - k.e * k.e)
    return (p / AU - 1.0) / k.e


def crossing_states(k0: OrbitalElements, kd: OrbitalElements, delta_m: float):
    """(deflected, undeflected, Earth) states at the 1 AU crossing of ``k0``.

    The deflection is frozen at the end of the window: the undeflected
    asteroid sits exactly at the crossing anomaly, the deflected one (``kd``)
    at the same mean anomaly plus the accumulated offset ``delta_m``, and a
    virtual Earth on a circular 1 AU orbit is co-located with the undeflected
    one. ``bplane_miss(*crossing_states(...))`` is the sweep's miss distance.
    """
    # |cos| ~ 1 is a tangency at perihelion/aphelion exactly on the Earth
    # radius: a valid (grazing) intersection, kept with a clamp
    nu_star = math.acos(max(-1.0, min(1.0, crossing_cosine(k0))))
    m_star = true_to_mean(nu_star, k0.e)
    s0 = elements_to_state(OrbitalElements(
        a=k0.a, e=k0.e, i=k0.i, raan=k0.raan, argp=k0.argp, anomaly=m_star,
        anomaly_kind="mean"), MU_SUN)
    sd = elements_to_state(OrbitalElements(
        a=kd.a, e=kd.e, i=kd.i, raan=kd.raan, argp=kd.argp,
        anomaly=(m_star + delta_m), anomaly_kind="mean"), MU_SUN)

    r_hat = s0.position / np.linalg.norm(s0.position)
    v_circ = math.sqrt(MU_SUN / AU)
    earth = StateVector(position=r_hat * AU,
                        velocity=v_circ * np.array([-r_hat[1], r_hat[0], 0.0]))
    return sd, s0, earth


def _sweep_orbit(r_p: float, r_a: float) -> OrbitalElements:
    """The planar sweep orbit of perihelion ``r_p`` and aphelion ``r_a``,
    at perihelion at epoch 0."""
    return OrbitalElements(a=0.5 * (r_p + r_a), e=(r_a - r_p) / (r_a + r_p), i=0.0,
                           raan=0.0, argp=0.0, anomaly=0.0, anomaly_kind="mean",
                           epoch=0.0)


def _sweep_rows(cells: list) -> list:
    """Sweep rows of ``(r_p, r_a, asteroid template, earth, design, formation,
    m_sc, warning, scattering factor, MdotTable or None)`` cells; the cells
    whose orbit crosses 1 AU are integrated as one batch."""
    rows, crossing = [], []
    for i, (r_p, r_a, template, earth, design, formation, m_sc, warning, scattering,
            mdot_table) in enumerate(cells):
        k0 = _sweep_orbit(r_p, r_a)
        rows.append((r_p / AU, r_a / AU, k0.e, False, None))
        if k0.e > 0.0 and abs(crossing_cosine(k0)) <= 1.0 + 1e-9:
            dscn = DeflectionScenario(ast=replace(template, elements0=k0), design=design,
                                      earth=earth, m_sc=m_sc, t_start=0.0, t_moid=warning,
                                      formation=formation, scattering_factor=scattering)
            crossing.append((i, k0, dscn, mdot_table))
    try:
        outs = simulate_deflections([dscn for _, _, dscn, _ in crossing],
                                    [table for *_, table in crossing])
    except NonFiniteStateError as exc:
        i = crossing[exc.row][0]
        raise _cell_error(exc, "eccentricity sweep", "(r_perihelion, r_aphelion) / AU",
                          rows[i][:2]) from exc
    # the sweep places its own encounter at the 1 AU crossing, so the
    # outcome's ephemeris-Earth miss is never read
    for (i, k0, _, _), out in zip(crossing, outs):
        b = bplane_miss(*crossing_states(k0, out.elements_final, out.delta_mean_anomaly))
        rows[i] = rows[i][:3] + (True, b)
    return rows


def run_eccentricity_sweep(scenario: Scenario, seed: int | None = None,
                           threads: int = 1) -> ResultTable:
    exp = scenario.experiments["eccentricity_sweep"]
    r_p_grid = np.linspace(0.5, 1.0, exp["n_perihelion"]) * AU
    r_a_grid = np.linspace(1.0, 2.0, exp["n_aphelion"]) * AU
    warning = exp["warning_yr"] * YEAR
    aperture, c_r = exp["aperture_m"], exp["concentration_ratio"]
    n_sc, option = exp["n_spacecraft"], exp["efficiency_option"]

    design = design_from_option(aperture, c_r, n_spacecraft=n_sc, option=option)
    template = scenario.asteroid
    formation = _study_formation(scenario, "shaped")
    m_sc = mass_budget(design, float(r_p_grid[0])).m_total

    cells = []
    for r_p in r_p_grid.tolist():
        # the cells of a row share the flow table of its first eccentric
        # orbit. A table of their own would differ only through the last
        # bits of a*(1-e); on the shipped sweep the CSV bytes are the same.
        table = next((MdotTable.for_orbit(design, template, _sweep_orbit(r_p, r_a))
                      for r_a in r_a_grid.tolist() if r_a > r_p), None)
        cells += [(r_p, r_a, template, scenario.earth, design, formation, m_sc,
                   warning, scenario.scattering_factor, table)
                  for r_a in r_a_grid.tolist()]

    rows = _in_batches(_sweep_rows, cells, threads)

    table = ResultTable(
        name="eccentricity_sweep",
        columns=[("r_perihelion", "AU"), ("r_aphelion", "AU"), ("eccentricity", ""),
                 ("intersects", ""), ("miss_distance", "m")],
        metadata=scenario.metadata() | {"warning_yr": warning / YEAR,
                                        "aperture_m": aperture,
                                        "concentration_ratio": c_r,
                                        "n_spacecraft": n_sc,
                                        "efficiency_option": option,
                                        "spacecraft_mass_kg": m_sc})
    for row in rows:
        table.add_row(*row)
    return table
