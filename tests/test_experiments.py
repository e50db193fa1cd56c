import dataclasses

import numpy as np
import pytest

from laserfleet.constants import AU, MU_SUN, YEAR
from laserfleet.deflection import DeflectionScenario, simulate_deflection
from laserfleet.experiments import (
    _sweep_rows,
    crossing_states,
    resolve_encounter_epoch,
    run_eccentricity_sweep,
    run_formation_design,
    run_shaped_design,
)
from laserfleet.formation import (
    ShapedControlContext,
    ShapedOrbit,
    natural_orbit_objectives,
    shaped_objectives,
)
from laserfleet.orbits import (
    OrbitalElements,
    bplane_miss,
    elements_to_state,
    kepler_propagate,
)
from laserfleet.scenario import load_scenario
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import mass_flow_rate
from tests.conftest import SCENARIO_DIR


@pytest.fixture(scope="module")
def nominal():
    return load_scenario(SCENARIO_DIR / "apophis_nominal.json")


@pytest.fixture(scope="module")
def sweep_scenario():
    return load_scenario(SCENARIO_DIR / "eccentricity_sweep.json")


def test_encounter_epoch_resolves_to_moid_crossing(nominal):
    t_moid = resolve_encounter_epoch(nominal)
    assert abs(t_moid - nominal.moid_epoch) < 0.5 * YEAR
    s_a = elements_to_state(
        kepler_propagate(nominal.asteroid.elements0, t_moid, MU_SUN), MU_SUN)
    s_e = nominal.earth.state_at(t_moid)
    sep = float(np.linalg.norm(s_a.position - s_e.position))
    # the scenario is phased as a virtual impactor: separation ~ the MOID
    assert sep < 3.5e7


def test_formation_design_reports_empty_feasible_set(nominal):
    # a stand-off no orbit in the design box can satisfy
    impossible = dataclasses.replace(
        nominal, y_limits=(1.0e9,),
        optimizer={"population": 12, "budget": 120, "archive": 16})
    table = run_formation_design(impossible)
    assert len(table.rows) == 0
    assert table.metadata.get("y_lim_1e+09_infeasible") is True


def test_formation_design_rows_are_the_scored_numbers(nominal):
    """Rows hold the optimizer's own J1, J2 and the C kept at scoring."""
    small = dataclasses.replace(nominal, optimizer={"population": 24, "budget": 240,
                                                    "archive": 16})
    table = run_formation_design(small)
    assert len({row[0] for row in table.rows}) == len(nominal.y_limits)
    for row in table.rows:
        res = natural_orbit_objectives(np.array(row[2:7]), nominal.asteroid.elements0,
                                       row[0])
        assert row[7:] == (res["J1"], res["J2"], res["C"])


def test_shaped_design_rows_are_the_scored_numbers(nominal, tmp_path):
    """Rows hold the optimizer's own scores, written as plain numbers."""
    small = dataclasses.replace(nominal, optimizer={"population": 16, "budget": 32,
                                                    "archive": 16})
    table = run_shaped_design(small)
    assert table.rows

    lines = table.write(tmp_path).read_text().splitlines()
    cells = [c for line in lines[1:] for c in line.split(",")]
    assert len(cells) == len(table.rows) * len(table.columns)
    assert all(isinstance(float(c), float) for c in cells)

    # a fresh scoring of each row's shape gives the same bits
    ast = nominal.asteroid
    design = design_from_option(20.0, nominal.design.concentration_ratio,
                                n_spacecraft=10, option="66/45")
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    m_sc = table.metadata["spacecraft_mass_kg"]
    ctx = ShapedControlContext(ast=ast, k_a=ast.elements0, design=design, m_sc=m_sc,
                               isp=nominal.isp,
                               mdot=mass_flow_rate(design, ast, r_peri, 1.0, 10))
    for row in table.rows:
        res = shaped_objectives(ShapedOrbit(np.array(row[:8])), ctx, YEAR, 512)
        assert row[8:] == (res["J1"], res["J2"], res["J3"], res["J3"] * m_sc,
                           res["C1"], res["C2"])


def test_sweep_cell_refinement_oracle(sweep_scenario):
    """One sweep cell re-run with a 10x finer integrator step within 1%."""
    r_p, r_a = 0.7 * AU, 1.5 * AU
    a = 0.5 * (r_p + r_a)
    e = (r_a - r_p) / (r_a + r_p)
    elements = OrbitalElements(a=a, e=e, i=0.0, raan=0.0, argp=0.0,
                               anomaly=0.0, anomaly_kind="mean", epoch=0.0)
    ast = dataclasses.replace(sweep_scenario.asteroid, elements0=elements)
    design = design_from_option(20.0, 5000.0, option="60/40")
    m_sc = mass_budget(design, r_p).m_total
    warning = 9.0 * YEAR

    def cell_b(step_fraction):
        dscn = DeflectionScenario(
            ast=ast, design=design, earth=sweep_scenario.earth, m_sc=m_sc,
            t_start=0.0, t_moid=warning, formation=sweep_scenario.shaped,
            step_fraction=step_fraction)
        out = simulate_deflection(dscn)
        return bplane_miss(*crossing_states(elements, out.elements_final,
                                            out.delta_mean_anomaly))

    coarse = cell_b(1e-3)
    fine = cell_b(1e-4)
    assert abs(coarse - fine) / fine < 0.01


def test_sweep_matches_inline_recipe(sweep_scenario):
    """The experiment's cell evaluation is reproducible from the public API."""
    exp = sweep_scenario.experiments
    small = dataclasses.replace(sweep_scenario, experiments=exp | {
        "eccentricity_sweep": exp["eccentricity_sweep"] | {"n_perihelion": 2,
                                                           "n_aphelion": 2}})
    table = run_eccentricity_sweep(small)
    assert len(table.rows) == 4
    cols = [c[0] for c in table.columns]
    i_in = cols.index("intersects")
    i_b = cols.index("miss_distance")
    # (1.0, 1.0) is the degenerate circular cell
    degenerate = [r for r in table.rows if not r[i_in]]
    assert len(degenerate) == 1
    for row in table.rows:
        if row[i_in]:
            assert row[i_b] > 0.0


def test_sweep_rows_match_cells_with_their_own_tables(sweep_scenario):
    """The cells of a row share one flow table and still give the bits of a
    cell that builds its own; on a 2 x 2 grid the (0.5, 2.0) AU cell runs
    on the table of its row's first orbit, (0.5, 1.0) AU."""
    exp = sweep_scenario.experiments
    small = dataclasses.replace(sweep_scenario, experiments=exp | {
        "eccentricity_sweep": exp["eccentricity_sweep"] | {"n_perihelion": 2,
                                                           "n_aphelion": 2}})
    table = run_eccentricity_sweep(small)
    meta = table.metadata
    design = design_from_option(meta["aperture_m"], meta["concentration_ratio"],
                                n_spacecraft=meta["n_spacecraft"],
                                option=meta["efficiency_option"])
    grid = [(r_p, r_a) for r_p in (np.linspace(0.5, 1.0, 2) * AU).tolist()
            for r_a in (np.linspace(1.0, 2.0, 2) * AU).tolist()]
    # one batch: a row's bits do not depend on the rows beside it
    own = _sweep_rows([(r_p, r_a, sweep_scenario.asteroid, sweep_scenario.earth, design,
                        sweep_scenario.shaped, meta["spacecraft_mass_kg"],
                        meta["warning_yr"] * YEAR, sweep_scenario.scattering_factor, None)
                       for r_p, r_a in grid])
    for row, own_row in zip(table.rows, own, strict=True):
        assert tuple(row) == own_row
