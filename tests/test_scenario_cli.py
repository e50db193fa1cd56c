import ast
import copy
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laserfleet.cli as cli_mod
import laserfleet.experiments as experiments_mod
from laserfleet.cli import build_parser, main
from laserfleet.constants import AU
from laserfleet.results import ResultTable
from laserfleet.scenario import Scenario, ScenarioError, load_scenario, parse_scenario

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "apophis_nominal.json"
SWEEP = Path(__file__).resolve().parents[1] / "scenarios" / "eccentricity_sweep.json"
GOLDEN = Path(__file__).with_name("scenario_parse_golden.json")


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
    assert sc.natural is not None and sc.shaped is not None
    assert len(sc.sha256) == 64
    # metadata names every open model parameter
    meta = sc.metadata()
    for key in ("sublimation_enthalpy_J_per_kg", "isp_s", "emissivity",
                "scattering_factor", "seed", "scenario_sha256"):
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


def _as_array(doc):
    return [doc]


def _drop_aperture_min(doc):
    del doc["design_space"]["aperture_diameter"]["min"]
    return doc


def _put(field, value):
    """Set the dotted ``field`` of the document to ``value``."""
    *path, key = field.split(".")

    def edit(doc):
        reduce(getitem, path, doc)[key] = value
        return doc
    return edit


def _drop(field):
    *path, key = field.split(".")

    def edit(doc):
        del reduce(getitem, path, doc)[key]
        return doc
    return edit


@pytest.mark.parametrize("edit, field", [
    (_as_array, "top level"),
    (_drop_aperture_min, "design_space.aperture_diameter.min"),
    (_put("design_space.concentration_ratio", ["a", 2]),
     "design_space.concentration_ratio[0]"),
    (_put("design_space.n_spacecraft", [10, 1]), "design_space.n_spacecraft"),
    (_put("timing.refine_encounter", "no"), "timing.refine_encounter"),
    (_drop("asteroid.elements"), "asteroid.elements"),
    (_put("formation.natural", 5), "formation.natural"),
    (_put("formation.y_limits", 3), "formation.y_limits"),
    (_put("asteroid.semi_axes", {"value": ["a", 1, 2], "unit": "m"}), "asteroid.semi_axes"),
    (_put("experiments.deflection_map.apertures_m", "x"),
     "experiments.deflection_map.apertures_m"),
    (_put("experiments.fleet_design.warning_yr", "soon"),
     "experiments.fleet_design.warning_yr"),
    (_put("timing.refine_encounterr", True), "timing.refine_encounterr"),
    (_put("experiments.deflection_map.aperturez_m", [5.0]),
     "experiments.deflection_map.aperturez_m"),
    (_put("control.isp", {"value": -1.0, "unit": "s"}), "control.isp"),
    (_put("model.scattering_factor", -0.5), "model.scattering_factor"),
    (_drop("asteroid.elements.mean_anomaly"), "asteroid.elements"),
    (_put("asteroid.semi_axes", {"value": [95.0, 135.0, 191.0], "unit": "m"}), "asteroid"),
    (_put("optimizer.archive", 1), "optimizer.archive"),
], ids=["array", "aperture_min", "concentration", "n_spacecraft_order", "refine_flag",
        "no_elements", "natural_number", "y_limits_number", "semi_axes_text",
        "apertures_text", "warning_text", "refine_misspelt", "apertures_misspelt",
        "negative_isp", "negative_scattering", "no_anomaly", "axes_order",
        "archive_of_one"])
def test_cli_malformed_scenario_names_field(edit, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(nominal_doc())))
    assert main(["--scenario", str(path), "--out", str(tmp_path),
                 "deflection-map"]) == 1
    assert f"scenario error: {field}" in capsys.readouterr().err


def test_cli_budget_below_population_names_field(tmp_path, capsys):
    doc = nominal_doc()
    doc["optimizer"] = {"population": 8, "budget": 4}
    path = tmp_path / "small_budget.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path), "shaped-design"]) == 1
    assert "scenario error: optimizer.budget" in capsys.readouterr().err


@pytest.mark.parametrize("study", ["fleet-design", "eccentricity-sweep"])
def test_cli_study_mode_needs_its_formation_block(study, tmp_path, capsys):
    doc = nominal_doc()
    del doc["formation"]["shaped"]
    doc["experiments"]["fleet_design"]["modes"] = ["shaped"]
    doc["experiments"]["eccentricity_sweep"] = {"n_perihelion": 1, "n_aphelion": 1}
    path = tmp_path / "no_shaped.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path), study]) == 1
    assert "scenario error: formation.shaped" in capsys.readouterr().err


def test_formation_block_is_optional(tmp_path, monkeypatch, capsys):
    """Without the formation block the stand-offs take their default and no
    orbit is set; a study that flies one names the block it needs and exits
    1, never 2."""
    doc = nominal_doc()
    del doc["formation"]
    sc = parse_scenario(doc)
    assert sc.y_limits == (500.0, 1000.0)
    assert sc.natural is None and sc.shaped is None
    path = tmp_path / "no_formation.json"
    path.write_text(json.dumps(doc))

    def integrate(*args, **kwargs):
        raise AssertionError("the map integrated cells without a formation orbit")

    monkeypatch.setattr(experiments_mod, "_in_batches", integrate)
    assert main(["--scenario", str(path), "--out", str(tmp_path), "deflection-map"]) == 1
    assert "scenario error: formation.natural" in capsys.readouterr().err


@pytest.mark.parametrize("edit, field", [
    (_put("design", {"aperture_diameter": {"value": 10.0, "unit": "m"},
                     "concentration_ratio": 5000}), "design"),
    (_put("formation.mode", "natural"), "formation.mode"),
    (_put("control.gain_position", 1e-6), "control.gain_position"),
    (_put("control.gain_velocity", 1e-5), "control.gain_velocity"),
], ids=["design", "formation_mode", "gain_position", "gain_velocity"])
def test_removed_key_is_named(edit, field, tmp_path, monkeypatch, capsys):
    """A key no study read left the schema; a document that still holds it
    is an error naming the key, from the parser and from the CLI."""
    doc = edit(nominal_doc())
    with pytest.raises(ScenarioError, match=f"^{field}: unknown key"):
        parse_scenario(doc)
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli_mod, "run_deflection_map",
                        lambda *a, **k: ResultTable(name="stub", columns=[("x", "")]))
    assert main(["--scenario", str(path), "--out", str(tmp_path), "deflection-map"]) == 1
    assert f"scenario error: {field}: unknown key" in capsys.readouterr().err


def _reads(source: str, name: str) -> set:
    """The attributes that ``source`` reads off the variable ``name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name}


def test_every_scenario_field_is_read():
    """A field no study, the CLI or the table metadata reads is a value
    nothing varies; it belongs out of the schema."""
    read = (_reads(inspect.getsource(experiments_mod), "scenario")
            | _reads(inspect.getsource(cli_mod), "scenario")
            | _reads(inspect.getsource(Scenario), "self"))
    assert [f.name for f in dataclasses.fields(Scenario) if f.name not in read] == []


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
                "scenario_sha256", "seed"):
        assert key in meta


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_non_finite_state_exits_1_naming_the_cell(threads, tmp_path, monkeypatch, capsys):
    """A NaN that a relation gives in the third step stops the map: exit 1,
    and the message names the cell, the component, the step and the time."""
    import laserfleet.deflection as deflection_mod

    relation, calls = deflection_mod.eccentric_to_true, []

    def nan_in_step_3(E, e):
        calls.append(None)
        nu = relation(E, e)
        return nu * math.nan if len(calls) == 1 + 4 * 2 + 1 else nu

    monkeypatch.setattr(deflection_mod, "eccentric_to_true", nan_in_step_3)
    path = small_map_scenario(tmp_path)
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--threads", threads,
                 "deflection-map"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: deflection map cell (mode, aperture, n_spacecraft, "
                          "warning_yr) = ('natural', 10.0, 1, 1.0): deflection state a of "
                          "scenario 0 is nan after step 3 at t = "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "deflection_map.csv").exists()


def test_cli_seed_override_changes_nothing_for_grid(tmp_path):
    # grid experiments are seed-independent by construction; the table must
    # still record the seed that was requested
    path = small_map_scenario(tmp_path)
    out = tmp_path / "seeded"
    assert main(["--scenario", str(path), "--out", str(out), "--seed", "7",
                 "deflection-map"]) == 0
    meta = json.loads((out / "deflection_map.meta.json").read_text())
    assert meta["seed"] == 7


@pytest.mark.parametrize("threads, ok", [
    ("1", True), ("4", True), ("0", False), ("-1", False), ("5", False),
    ("5000", False), ("two", False)])
def test_cli_threads_bounded_by_cpu_count(threads, ok, monkeypatch):
    # parse only: no pool is started
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["--threads", threads, "validate"]
    if ok:
        assert build_parser().parse_args(argv).threads == int(threads)
    else:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_worker_pool_sized_from_chunks(monkeypatch):
    started = []

    class InlinePool:
        """Stands in for the process pool; runs the chunks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    rows = experiments_mod._in_batches(lambda cells: [c * 10 for c in cells], [1, 2, 3], 4)
    assert rows == [10, 20, 30]
    assert started == [3]  # one worker per non-empty chunk, not one per thread


STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
import laserfleet
import laserfleet.cli
from laserfleet.scenario import load_scenario
sc = load_scenario(sys.argv[2])
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing")
               or m == "concurrent.futures.process")
assert not heavy, heavy
laserfleet.find_moid(sc.asteroid.elements0, sc.earth.elements)
assert "scipy.optimize" in sys.modules
"""


def test_startup_imports_neither_scipy_nor_the_pool():
    """Start-up loads only what every run uses: scipy comes with the first
    ``find_moid`` call and the process pool with ``--threads > 1``."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", STARTUP, str(src), str(SCENARIO)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("field", ["J1", "C"])
def test_cli_non_finite_objective_exits_1_naming_the_evaluation(field, tmp_path, monkeypatch,
                                                                capsys):
    """A NaN objective J1, or a NaN clearance C, from the fifth evaluation
    stops the formation study: exit 1, and the message names the evaluation,
    its x and the value. The study passes the signed constraint -C: a clamp
    max(0.0, -C) would make a NaN C a met constraint, and rows with C = nan."""
    relation, calls = experiments_mod.natural_orbit_objectives, []

    def nan_at_call_5(x, *args):
        calls.append(x.tolist())
        res = relation(x, *args)
        return res | {field: math.nan} if len(calls) == 5 else res

    monkeypatch.setattr(experiments_mod, "natural_orbit_objectives", nan_at_call_5)
    doc = nominal_doc()
    doc["optimizer"] = {"population": 8, "budget": 16, "archive": 8}
    doc["formation"]["y_limits"] = [{"value": 1000.0, "unit": "m"}]
    path = tmp_path / "formation.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "formation-design"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: optimizer evaluation 5 at x = {calls[4]} gave objectives "
                          f"({'nan, ' if field == 'J1' else ''}"), err
    assert ("and constraints (nan,)" in err) == (field == "C"), err
    assert "Traceback" not in err
    assert len(calls) == 5
    assert not (tmp_path / "out" / "formation_design.csv").exists()


def test_sweep_scenario_loads():
    sc = load_scenario(SWEEP)
    assert sc.earth.elements.e == 0.0 and sc.earth.elements.a == AU
    assert sc.natural is None and sc.shaped is not None


# ---------------------------------------------------------------------------
# Schema: goldens of the shipped scenarios and mutated documents
# ---------------------------------------------------------------------------

def _reprs(x):
    """Leaves as ``repr`` strings: floats compare bit for bit, and an int
    never passes for a float."""
    if isinstance(x, np.ndarray):
        return _reprs(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_reprs(v) for v in x]
    if isinstance(x, dict):
        return {k: _reprs(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {f.name: _reprs(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return repr(x)


@pytest.mark.parametrize("name", ["apophis_nominal", "eccentricity_sweep"])
def test_shipped_scenarios_parse_to_golden(name):
    """Every parsed field, the metadata and each study's settings after
    defaults, as the parser before the schema table gave them (numbers as
    floats, counts as ints)."""
    sc = load_scenario(SCENARIO.with_name(f"{name}.json"))
    got = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)
           if f.name not in ("sha256", "earth", "natural", "shaped", "design_space",
                             "optimizer", "experiments")}
    got |= {"earth": sc.earth, "natural": None if sc.natural is None else sc.natural.dk,
            "shaped": None if sc.shaped is None else sc.shaped.coeffs,
            "design_space": dict(sc.design_space), "optimizer": dict(sc.optimizer),
            "metadata": sc.metadata(),
            "studies": {k: dict(v) for k, v in sc.experiments.items()}}
    assert _reprs(got) == json.loads(GOLDEN.read_text())[name]


DOCS = [json.loads(p.read_text()) for p in (SCENARIO, SWEEP)]
UNITS = ["m", "km", "AU", "s", "yr", "deg", "rad", "deg/s", "kg", "g/mol", "kg/mol",
         "km^3/s^2", "K", "MJ/kg", "kg/m^3", "furlong", ""]
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["value", "unit", "min", "max"]),
                    st.one_of(st.floats(), st.sampled_from(UNITS)), max_size=2))


def _nodes(node, path=()):
    """``(path, node)`` of every object and list in a document, the root first."""
    yield path, node
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(child, (dict, list)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A shipped document with one key dropped, retyped or re-unitted, or
    one key added."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    _, node = draw(st.sampled_from(list(_nodes(doc))))
    action = draw(st.sampled_from(["drop", "retype", "unit", "add"]))
    if action == "add" or not node:
        if isinstance(node, dict):
            node[draw(st.text(min_size=1, max_size=12))] = draw(VALUES)
        else:
            node.append(draw(VALUES))
        return doc
    key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if action == "drop":
        del node[key]
    elif action == "unit" and isinstance(node, dict) and "unit" in node:
        node["unit"] = draw(st.sampled_from(UNITS))
    else:
        node[key] = draw(VALUES)
    return doc


@settings(max_examples=1000, deadline=None)
@given(doc=mutated_documents())
def test_mutated_scenario_is_parsed_or_named_never_a_crash(doc, tmp_path_factory):
    try:
        parse_scenario(doc)
    except ScenarioError:
        pass
    work = tmp_path_factory.mktemp("mutated")
    path = work / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_mod, "run_deflection_map",
                   lambda *a, **k: ResultTable(name="stub", columns=[("x", "")]))
        assert main(["--scenario", str(path), "--out", str(work), "deflection-map"]) != 2
