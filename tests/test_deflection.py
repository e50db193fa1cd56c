import math
from dataclasses import replace

import numpy as np
import pytest

from laserfleet.constants import AU, YEAR
from laserfleet.deflection import (
    DeflectionScenario,
    MdotTable,
    _FlowColumns,
    peak_spot_power,
    simulate_deflection,
    simulate_deflections,
)
from laserfleet.formation import NaturalOrbit, ShapedOrbit
from laserfleet.orbits import OrbitalElements
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


def test_contamination_monotone_and_mass_decreasing(ast, earth):
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    out = simulate_deflection(scenario(ast, earth, design, m_sc, 2 * YEAR,
                                       record_every=20))
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


def test_thrust_until_coast_drift(ast, earth):
    """Stopping the thrust early still grows the miss via anomaly drift."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
    short = simulate_deflection(scenario(ast, earth, design, 1500.0, YEAR,
                                         thrust_until=YEAR))
    coast = simulate_deflection(scenario(ast, earth, design, 1500.0, 3 * YEAR,
                                         thrust_until=YEAR))
    assert coast.miss_distance > short.miss_distance


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
    """A thrust window that ends before it starts is an error on both entry
    points, not a miss from a negative window."""
    design = design_from_option(10.0, 5000.0, n_spacecraft=3, option="60/40")
    for days in (1.0, 30.0):
        early = scenario(ast, earth, design, 1200.0, YEAR, thrust_until=-days * 86400.0)
        with pytest.raises(ValueError, match="thrust_until"):
            simulate_deflection(early)
        with pytest.raises(ValueError, match="thrust_until"):
            simulate_deflections([scenario(ast, earth, design, 1200.0, YEAR), early])
    # a window of zero length is still a coast with no thrust
    out = simulate_deflection(scenario(ast, earth, design, 1200.0, YEAR, thrust_until=0.0))
    assert out.delta_mean_anomaly == 0.0 and len(out.times) == 1
    assert out.miss_distance < 1.0


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


def _batch_cells(ast, earth):
    """Natural and shaped cells on the 5 m and 10 m tables, warnings of 0, 1
    and 2 yr, a coast, and a planar (i = 0) orbit with a table of its own."""
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
                                     t_start=0.0, t_moid=t_moid, formation=NATURAL,
                                     thrust_until=0.7 * YEAR, record_every=37), None))
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
