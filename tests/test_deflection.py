import ast as python_ast
import dataclasses
import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from laserfleet import batch, deflection, experiments
from laserfleet.constants import AU, TWO_PI, YEAR
from laserfleet.deflection import (
    DeflectionScenario,
    MdotTable,
    _FlowColumns,
    _position,
    peak_spot_power,
    simulate_deflection,
    simulate_deflections,
)
from laserfleet.formation import NaturalOrbit, ShapedOrbit
from laserfleet.orbits import NonFiniteStateError, OrbitalElements, ProximalConstants
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import ellipse_radius, mass_flow_from_power

NATURAL = NaturalOrbit(dk=np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]))
SHAPED = ShapedOrbit(np.array([0.0, 0.0, -1000.0, 0.0, 0.0, -50.0, 0.0, 0.0]))


def scenario(ast, earth, design, m_sc, warning, formation=NATURAL, **kw):
    return DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=m_sc,
                              t_start=0.0, t_moid=warning, formation=formation,
                              **kw)


def test_mdot_table_matches_direct_quadrature(ast):
    design = design_from_option(10.0, 5000.0, option="60/40")
    table = MdotTable.build(design, ast, p_max=peak_spot_power(design, ast, ast.elements0),
                            n_phases=16)
    spot_radius = design.spot_diameter / 2.0
    angles = (np.arange(16) + 0.5) * math.pi / 16

    def direct(p):
        return float(np.mean([
            mass_flow_from_power(p, ast, float(ast.spin_rate * ellipse_radius(ast, a)),
                                 spot_radius) for a in angles]))

    assert direct(8e5) == 0.0 and table(8e5) == 0.0  # below the dwell threshold
    for p in (1.1e6, 1.3e6, 1.6e6):
        want = direct(p)
        assert want > 0.0
        assert abs(table(p) - want) / want < 2e-3


def test_mdot_table_zero_below_floor(ast):
    design = design_from_option(10.0, 5000.0, option="60/40")
    table = MdotTable.for_orbit(design, ast, ast.elements0)
    assert table(0.0) == 0.0
    assert table(1e5) == 0.0


def test_null_deflection(ast, earth):
    # concentration ratio 1 stays far below the sublimation floor and a
    # massless spacecraft exerts no tug: u_dev = 0 identically
    design = design_from_option(10.0, 1.0, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 0.0, YEAR,
                                       formation=SHAPED))
    assert np.all(out.mdot == 0.0)
    assert abs(out.delta_mean_anomaly) < 1e-12
    assert out.miss_distance < 1.0


def test_zero_warning_time(ast, earth):
    design = design_from_option(10.0, 5000.0, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 1000.0, 0.0))
    assert out.miss_distance == 0.0
    assert out.delta_mean_anomaly == 0.0


def test_initial_flow_scales_with_fleet(ast, earth):
    m_sc = 1000.0
    outs = []
    for n in (1, 2):
        design = design_from_option(10.0, 5000.0, n_spacecraft=n, option="60/40")
        out = simulate_deflection(scenario(ast, earth, design, m_sc, 0.2 * YEAR))
        outs.append(out)
    assert math.isclose(outs[1].mdot[0], 2.0 * outs[0].mdot[0], rel_tol=1e-9)


def test_contamination_monotone_and_mass_decreasing(ast, earth, monkeypatch):
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    monkeypatch.setattr(deflection, "RECORD_EVERY", 20)
    out = simulate_deflection(scenario(ast, earth, design, m_sc, 2 * YEAR))
    assert np.all(np.diff(out.contamination) >= 0.0)
    assert np.all(np.diff(out.asteroid_mass) <= 0.0)
    assert np.all(out.tau > 0.0) and np.all(out.tau <= 1.0)
    assert out.contamination[-1] > 0.0  # natural orbit does get exposed


def test_shaped_formation_stays_clean(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    out = simulate_deflection(scenario(ast, earth, design, 1500.0, 2 * YEAR,
                                       formation=SHAPED))
    assert np.all(out.contamination == 0.0)
    assert np.all(out.tau == 1.0)


def test_deflection_deterministic(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    o1 = simulate_deflection(scenario(ast, earth, design, 1200.0, YEAR))
    o2 = simulate_deflection(scenario(ast, earth, design, 1200.0, YEAR))
    assert o1.miss_distance == o2.miss_distance
    assert np.array_equal(o1.contamination, o2.contamination)


def test_mdot_table_used_matches_internal(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=2, option="60/40")
    table = MdotTable.for_orbit(design, ast, ast.elements0)
    o1 = simulate_deflection(scenario(ast, earth, design, 900.0, YEAR))
    o2 = simulate_deflection(scenario(ast, earth, design, 900.0, YEAR),
                             mdot_table=table)
    assert math.isclose(o1.miss_distance, o2.miss_distance, rel_tol=1e-12)


def test_bplane_requires_relative_velocity():
    from laserfleet.orbits import StateVector, bplane_miss

    s = StateVector(position=np.array([AU, 0.0, 0.0]),
                    velocity=np.array([0.0, 3e4, 0.0]))
    with pytest.raises(ValueError):
        bplane_miss(s, s, s)


def test_moid_epoch_before_start_rejected(ast, earth):
    design = design_from_option(10.0, 5000.0, option="60/40")
    with pytest.raises(ValueError):
        simulate_deflection(DeflectionScenario(
            ast=ast, design=design, earth=earth, m_sc=0.0,
            t_start=YEAR, t_moid=0.0, formation=SHAPED))


def test_thrust_until_before_start_rejected(ast, earth):
    """Every run thrusts from t_start until t_moid. A window that ends before
    it starts is an error on both entry points, not a miss from a negative
    window; one of zero length is a run of no steps and no deflection."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    for days in (1.0, 30.0):
        early = DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=1200.0,
                                   t_start=days * 86400.0, t_moid=0.0, formation=NATURAL)
        with pytest.raises(ValueError, match="precedes the deflection start"):
            simulate_deflection(early)
        with pytest.raises(ValueError, match="precedes the deflection start"):
            simulate_deflections([scenario(ast, earth, design, 1200.0, YEAR), early])
    out = simulate_deflection(scenario(ast, earth, design, 1200.0, 0.0))
    assert out.delta_mean_anomaly == 0.0 and len(out.times) == 1
    assert out.miss_distance == 0.0


def test_every_deflection_field_is_set_by_a_study():
    """A ``DeflectionScenario`` field with a default that no study sets has
    one value in use; it belongs in a module constant (DECISIONS.md,
    "Design constants: one value in use is a constant")."""
    tree = python_ast.parse(inspect.getsource(experiments))
    passed = {kw.arg for node in python_ast.walk(tree)
              if isinstance(node, python_ast.Call) and isinstance(node.func, python_ast.Name)
              and node.func.id == "DeflectionScenario" for kw in node.keywords}
    defaulted = [f.name for f in dataclasses.fields(DeflectionScenario)
                 if f.default is not dataclasses.MISSING
                 or f.default_factory is not dataclasses.MISSING]
    assert [name for name in defaulted if name not in passed] == []


def test_flow_columns_match_table(ast, rng):
    """The batch's flow lookup gives ``MdotTable.__call__``'s bits, at the
    grid points, between them and beyond both ends, for rows on two tables."""
    tables = [MdotTable.for_orbit(design_from_option(d, 5000.0, option="60/40"), ast,
                                  ast.elements0) for d in (5.0, 10.0)]
    columns = _FlowColumns(tables)
    for lo, hi in ((0, 1), (1, 2), (0, 2)):
        ps, want = [], []
        for t in tables[lo:hi]:
            grid = np.array(t.powers)
            p = np.concatenate([grid, rng.uniform(-1.0, 1.2 * grid[-1], 300),
                                [-0.0, 1e300, np.nextafter(grid[-1], 0.0)]])
            ps.append(p)
            want += [t(float(v)) for v in p]
        runs = [(0, ps[0].size, lo)] + ([(ps[0].size, ps[0].size + ps[1].size, 1)]
                                        if hi - lo == 2 else [])
        got = columns.lookup(runs)(np.concatenate(ps))
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


class _CountedGrid(np.ndarray):
    """A power grid that counts the searches made on it."""

    searches = 0

    def searchsorted(self, *args, **kwargs):
        _CountedGrid.searches += 1
        return np.asarray(self).searchsorted(*args, **kwargs)


def test_flow_columns_take_one_search_on_a_shared_grid(ast, rng):
    """Each run of rows whose tables share a power grid takes one search:
    one for the map's rows on two tables of one grid, three for a sweep's
    rows on grids A, A, B, A. The batch gives the floats' flows by ``repr``
    on the grid points, between them, beyond both clamps, at -0.0 and at
    1e300, and NaN passes through both."""
    design = design_from_option(5.0, 5000.0, option="60/40")
    p_max = peak_spot_power(design, ast, ast.elements0)
    a1, a2, a3 = (MdotTable.for_orbit(design_from_option(d, 5000.0, option="60/40"), ast,
                                      ast.elements0) for d in (5.0, 10.0, 20.0))
    b, c = MdotTable.build(design, ast, 0.5 * p_max), MdotTable.build(design, ast, p_max,
                                                                       n_points=40)
    assert a1.powers == a2.powers == a3.powers != b.powers
    for tables, searches in (([a1, a2], 1), ([a1, a2, b, a3], 3), ([b, c, a1], 3), ([c], 1)):
        columns = _FlowColumns(tables)
        columns.grids = [g.view(_CountedGrid) for g in columns.grids]
        ps, want, runs = [], [], []
        for t, table in enumerate(tables):
            grid = np.array(table.powers)
            p = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]),
                                rng.uniform(-1.0, 1.2 * grid[-1], 200),
                                [-0.0, -1.0, 1e300, np.nextafter(grid[-1], 0.0), math.nan]])
            runs.append((sum(x.size for x in ps), sum(x.size for x in ps) + p.size, t))
            ps.append(p)
            want += [table(float(v)) for v in p]
        flow = columns.lookup(runs)
        _CountedGrid.searches = 0
        got = flow(np.concatenate(ps))
        assert _CountedGrid.searches == searches
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]
        assert math.isnan(want[-1]) and math.isnan(got[-1])


def _nan_at(monkeypatch, call, column=None):
    """Make ``eccentric_to_true`` in ``deflection`` give NaN at its ``call``-th
    call (from 1), in one column of a batch or everywhere."""
    relation, calls = deflection.eccentric_to_true, []

    def nan_once(E, e):
        calls.append(None)
        nu = relation(E, e)
        if len(calls) == call:
            if column is None:
                return nu * math.nan
            nu = nu.copy()
            nu[column] = math.nan
        return nu
    monkeypatch.setattr(deflection, "eccentric_to_true", nan_once)
    return calls


def test_float_run_stops_at_a_non_finite_state(ast, earth, monkeypatch):
    """A NaN anomaly in the first stage of step 7 stops the run after that
    step, naming the first component, the step and its time."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=4, option="60/40")
    sc = scenario(ast, earth, design, 1200.0, 0.2 * YEAR)
    dt = float(simulate_deflection(sc).times[1]) / deflection.RECORD_EVERY
    calls = _nan_at(monkeypatch, 1 + 4 * 6 + 1)
    with pytest.raises(NonFiniteStateError, match=r"^deflection state a is nan after step 7 "
                       r"at t = ([0-9.]+) s$") as info:
        simulate_deflection(sc)
    assert info.value.row is None
    assert float(re.search(r"t = ([0-9.]+) s", str(info.value))[1]) == pytest.approx(7 * dt)
    assert len(calls) == 1 + 4 * 7


def test_batch_stops_at_a_non_finite_state(ast, earth, monkeypatch):
    """A NaN in one column of a batch stops it after that step and names the
    run's index in the scenarios; the batch orders its columns by
    formation, so column 2 is scenario 1."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=4, option="60/40")
    cells = [scenario(ast, earth, design, 1200.0, 0.2 * YEAR, formation=f)
             for f in (SHAPED, NATURAL, SHAPED)]
    dt = float(simulate_deflection(cells[1]).times[1]) / deflection.RECORD_EVERY
    _nan_at(monkeypatch, 1 + 4 * 2 + 3, column=2)
    with pytest.raises(NonFiniteStateError, match=r"^deflection state a of scenario 1 is nan "
                       r"after step 3 at t = ([0-9.]+) s$") as info:
        simulate_deflections(cells)
    assert info.value.row == 1
    assert float(re.search(r"t = ([0-9.]+) s", str(info.value))[1]) == pytest.approx(3 * dt)
    # NaN everywhere: the first of the scenarios is named
    _nan_at(monkeypatch, 1 + 4 * 2 + 3)
    with pytest.raises(NonFiniteStateError, match=r"of scenario 0 is nan after step 3 "):
        simulate_deflections(cells)


def _batch_cells(ast, earth):
    """Natural and shaped cells on the 5 m and 10 m tables, warnings of 0, 1
    and 2 yr, a 2.5 yr run and a planar (i = 0) orbit with tables of their own."""
    t_moid = 2.5 * YEAR
    cells = []
    for aperture in (5.0, 10.0):
        design1 = design_from_option(aperture, 5000.0, option="60/40")
        table = MdotTable.for_orbit(design1, ast, ast.elements0)
        m_sc = mass_budget(design1, ast.elements0.a * (1 - ast.elements0.e)).m_total
        for formation, n_sc in ((NATURAL, 4), (SHAPED, 7)):
            design = design_from_option(aperture, 5000.0, n_spacecraft=n_sc, option="60/40")
            for warning in (0.0, 1.0, 2.0):
                cells.append((DeflectionScenario(
                    ast=ast, design=design, earth=earth, m_sc=m_sc,
                    t_start=t_moid - warning * YEAR, t_moid=t_moid, formation=formation),
                    table))
    design = design_from_option(10.0, 5000.0, n_spacecraft=4, option="60/40")
    cells.append((DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=1500.0,
                                     t_start=0.0, t_moid=t_moid, formation=NATURAL), None))
    planar = replace(ast, elements0=OrbitalElements(
        a=1.15 * AU, e=0.7 / 2.3, i=0.0, raan=0.0, argp=0.0, anomaly=0.0,
        anomaly_kind="mean", epoch=0.0))
    cells.append((DeflectionScenario(ast=planar, design=design, earth=earth, m_sc=1500.0,
                                     t_start=0.5 * YEAR, t_moid=t_moid, formation=SHAPED),
                  None))
    return cells


def _bits(out):
    k = out.elements_final
    return (repr(out.delta_mean_anomaly), repr(out.miss_distance),
            [repr(v) for v in (k.a, k.e, k.i, k.raan, k.argp, k.anomaly, k.epoch)],
            [[repr(v) for v in a.tolist()] for a in
             (out.times, out.thrust, out.contamination, out.asteroid_mass, out.tau, out.mdot)])


def test_natural_position_sample_is_its_row(ast):
    """The natural formation's position in the deflection's rates: one float
    sample gives the bits of its row in a batch. Both run
    ``orbits.proximal_factors`` on the osculating radius, which squares by
    a product as numpy squares an array."""
    rng = np.random.default_rng(20261019)
    n = 20_000
    k0 = ast.elements0
    nu = rng.uniform(0.0, TWO_PI, n)
    c, s = np.cos(nu), np.sin(nu)
    r = rng.uniform(k0.a * (1.0 - k0.e), k0.a * (1.0 + k0.e), n)
    formation = NaturalOrbit(dk=np.array([-1e-9, 5e-9, 3e-9, -2e-9, 8e-9]))
    prox = ProximalConstants.of(k0)
    one = _position(formation, prox, batch.FLOAT)
    rows = _position(formation, ProximalConstants._make(np.full(n, v) for v in prox),
                     batch.ARRAY)(c, s, r, nu)
    rows = list(zip(*(col.tolist() for col in rows)))
    differ = [i for i, args in enumerate(zip(c.tolist(), s.tolist(), r.tolist(), nu.tolist()))
              if repr(one(*args)) != repr(rows[i])]
    assert differ == []


def test_deflection_batch_equals_rows(ast, earth):
    """Each row of a mixed batch is the run taken alone on floats, up to the
    last bits numpy's transcendental functions move (DECISIONS.md), and a
    row's bits do not depend on the rows beside it."""
    cells = _batch_cells(ast, earth)
    batch = simulate_deflections([sc for sc, _ in cells], [t for _, t in cells])
    for (sc, table), got in zip(cells, batch, strict=True):
        alone = simulate_deflection(sc, mdot_table=table)
        assert got.times.tolist() == alone.times.tolist()
        assert abs(got.miss_distance - alone.miss_distance) <= 1e-2
        assert got.delta_mean_anomaly == pytest.approx(alone.delta_mean_anomaly,
                                                       rel=1e-9, abs=1e-18)
        for name in ("a", "e", "i", "raan", "argp", "anomaly", "epoch"):
            assert getattr(got.elements_final, name) == pytest.approx(
                getattr(alone.elements_final, name), rel=1e-11, abs=1e-15)
        for name in ("thrust", "contamination", "asteroid_mass", "tau", "mdot"):
            np.testing.assert_allclose(getattr(got, name), getattr(alone, name),
                                       rtol=1e-11, atol=0.0, err_msg=name)

    # the same rows beside other companions, and alone in a batch of one
    for picks in ((3, 12), (9, 0, 13), (13,)):
        again = simulate_deflections([cells[i][0] for i in picks],
                                     [cells[i][1] for i in picks])
        for i, out in zip(picks, again, strict=True):
            assert _bits(out) == _bits(batch[i])
