import json
import math
from pathlib import Path

import numpy as np
import pytest

from laserfleet.cli import main
from laserfleet.constants import AU
from laserfleet.results import ResultTable
from laserfleet.scenario import ScenarioError, load_scenario, parse_scenario

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "apophis_nominal.json"
SWEEP = Path(__file__).resolve().parents[1] / "scenarios" / "eccentricity_sweep.json"


def nominal_doc():
    return json.loads(SCENARIO.read_text())


# ---------------------------------------------------------------------------
# Scenario parsing and unit validation
# ---------------------------------------------------------------------------

def test_load_nominal_scenario():
    sc = load_scenario(SCENARIO)
    assert sc.name == "apophis-nominal"
    assert math.isclose(sc.asteroid.elements0.a, 0.9224 * AU, rel_tol=1e-12)
    assert math.isclose(sc.asteroid.sublimation_enthalpy, 1.97e6, rel_tol=1e-12)
    assert sc.mode == "natural" and sc.natural is not None and sc.shaped is not None
    assert sc.design.n_spacecraft == 5
    assert len(sc.sha256) == 64
    # metadata names every open model parameter
    meta = sc.metadata()
    for key in ("sublimation_enthalpy_J_per_kg", "isp_s", "emissivity",
                "array_flux_limit_suns", "scattering_factor", "seed",
                "scenario_sha256"):
        assert key in meta


def test_wrong_unit_dimension_rejected():
    doc = nominal_doc()
    doc["asteroid"]["mass"] = {"value": 2.7e10, "unit": "m"}
    with pytest.raises(ScenarioError, match="mass"):
        parse_scenario(doc)


def test_unknown_unit_rejected():
    doc = nominal_doc()
    doc["asteroid"]["spin_rate"] = {"value": 3.3e-3, "unit": "furlong"}
    with pytest.raises(ScenarioError, match="unknown unit"):
        parse_scenario(doc)


def test_bare_number_rejected_for_dimensioned_quantity():
    doc = nominal_doc()
    doc["asteroid"]["sublimation_enthalpy"] = 1.97e6
    with pytest.raises(ScenarioError, match="sublimation_enthalpy"):
        parse_scenario(doc)


def test_missing_enthalpy_is_an_error():
    doc = nominal_doc()
    del doc["asteroid"]["sublimation_enthalpy"]
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_formation_mode_must_have_block():
    doc = nominal_doc()
    doc["formation"]["mode"] = "shaped"
    del doc["formation"]["shaped"]
    with pytest.raises(ScenarioError, match="shaped"):
        parse_scenario(doc)


def test_shaped_coefficients_bounded():
    doc = nominal_doc()
    doc["formation"]["shaped"]["x3"] = {"value": -5000.0, "unit": "m"}
    with pytest.raises(ScenarioError, match="design box"):
        parse_scenario(doc)


def test_schema_version_checked():
    doc = nominal_doc()
    doc["schema"] = "other/9"
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario(doc)


def test_molar_mass_units():
    doc = nominal_doc()
    sc1 = parse_scenario(doc)
    doc["asteroid"]["molar_mass"] = {"value": 0.140691, "unit": "kg/mol"}
    sc2 = parse_scenario(doc)
    assert math.isclose(sc1.asteroid.molecular_mass, sc2.asteroid.molecular_mass,
                        rel_tol=1e-12)
    assert math.isclose(sc1.asteroid.molecular_mass, 2.336e-25, rel_tol=1e-3)


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

def test_result_table_round_trip(tmp_path):
    t = ResultTable(name="demo", columns=[("x", "m"), ("label", "")],
                    metadata={"seed": 1})
    t.add_row(1.5, "a")
    t.add_row(0.1 + 0.2, "b")
    path = t.write(tmp_path)
    text = path.read_text()
    assert "x [m]" in text
    assert repr(0.1 + 0.2) in text  # shortest round-trip repr
    meta = json.loads((tmp_path / "demo.meta.json").read_text())
    assert meta["seed"] == 1 and meta["n_rows"] == 2

    with pytest.raises(ValueError):
        t.add_row(1.0)


def test_result_table_writes_numpy_floats_as_numbers(tmp_path):
    t = ResultTable(name="np", columns=[("v", ""), ("w", "")])
    t.add_row(np.float64(-420.7197088277011), np.float32(0.5))
    line = t.write(tmp_path).read_text().splitlines()[1]
    assert line == "-420.7197088277011,0.5"


def test_result_table_byte_identical(tmp_path):
    def make():
        t = ResultTable(name="det", columns=[("v", "")])
        for k in range(50):
            t.add_row(math.sin(k) * 1e-7)
        return t

    p1 = make().write(tmp_path / "a")
    p2 = make().write(tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_requires_scenario(capsys):
    assert main(["deflection-map"]) == 1


def test_cli_bad_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--scenario", str(bad), "deflection-map"]) == 1


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch, capsys):
    import laserfleet.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_deflection_map", boom)
    assert main(["--scenario", str(SCENARIO), "--out", str(tmp_path),
                 "deflection-map"]) == 2


def small_map_scenario(tmp_path) -> Path:
    doc = nominal_doc()
    doc["experiments"]["deflection_map"] = {
        "apertures_m": [10.0], "concentration_ratio": 5000,
        "efficiency_option": "60/40", "n_spacecraft": [1, 4],
        "warning_times_yr": [1, 2], "modes": ["natural", "shaped"]}
    path = tmp_path / "small_map.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_deflection_map_end_to_end(tmp_path, capsys):
    path = small_map_scenario(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--scenario", str(path), "--out", str(out1),
                 "deflection-map"]) == 0
    assert main(["--scenario", str(path), "--out", str(out2),
                 "deflection-map"]) == 0
    csv1 = (out1 / "deflection_map.csv").read_bytes()
    csv2 = (out2 / "deflection_map.csv").read_bytes()
    assert csv1 == csv2  # same scenario + seed -> byte-identical
    assert len(csv1.splitlines()) == 1 + 2 * 2 * 2
    meta = json.loads((out1 / "deflection_map.meta.json").read_text())
    for key in ("sublimation_enthalpy_J_per_kg", "isp_s", "emissivity",
                "array_flux_limit_suns", "scenario_sha256", "seed"):
        assert key in meta


def test_cli_seed_override_changes_nothing_for_grid(tmp_path):
    # grid experiments are seed-independent by construction; the table must
    # still record the seed that was requested
    path = small_map_scenario(tmp_path)
    out = tmp_path / "seeded"
    assert main(["--scenario", str(path), "--out", str(out), "--seed", "7",
                 "deflection-map"]) == 0
    meta = json.loads((out / "deflection_map.meta.json").read_text())
    assert meta["seed"] == 7


def test_cli_threads_reproduce_sequential(tmp_path):
    path = small_map_scenario(tmp_path)
    out1 = tmp_path / "seq"
    out2 = tmp_path / "par"
    assert main(["--scenario", str(path), "--out", str(out1),
                 "deflection-map"]) == 0
    assert main(["--scenario", str(path), "--out", str(out2), "--threads", "2",
                 "deflection-map"]) == 0
    assert (out1 / "deflection_map.csv").read_bytes() == \
        (out2 / "deflection_map.csv").read_bytes()


def test_cli_fleet_design_small(tmp_path):
    doc = nominal_doc()
    doc["optimizer"] = {"population": 8, "budget": 24, "archive": 16}
    doc["experiments"]["fleet_design"] = {
        "warning_yr": 2.0, "modes": ["shaped"], "efficiency_options": ["60/40"]}
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "fleet_out"
    assert main(["--scenario", str(path), "--out", str(out), "fleet-design"]) == 0
    rows = (out / "fleet_design.csv").read_text().splitlines()
    assert len(rows) > 1
    header = rows[0]
    assert "miss_distance [m]" in header and "fleet_mass [kg]" in header
    # integrality of the spacecraft count in every archive row
    n_col = header.split(",").index("n_spacecraft")
    for row in rows[1:]:
        n = float(row.split(",")[n_col])
        assert n == int(n) and 1 <= n <= 10


def test_cli_formation_design_small(tmp_path):
    doc = nominal_doc()
    doc["optimizer"] = {"population": 16, "budget": 400, "archive": 32}
    doc["formation"]["y_limits"] = [{"value": 1000.0, "unit": "m"}]
    path = tmp_path / "formation.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "formation_out"
    assert main(["--scenario", str(path), "--out", str(out),
                 "formation-design"]) == 0
    rows = (out / "formation_design.csv").read_text().splitlines()
    assert len(rows) > 1
    header = rows[0].split(",")
    c_col = header.index("C_clearance [m]")
    fam_col = header.index("family")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[c_col]) > 0.0  # every member respects the stand-off
        assert cells[fam_col] in ("+z", "-z")


def test_sweep_scenario_loads():
    sc = load_scenario(SWEEP)
    assert sc.earth_circular
    assert sc.mode == "shaped"
