"""Scenario ingestion: one JSON document drives every experiment.

Every dimensioned quantity in the file carries an explicit unit string and
is converted to SI at the boundary; a wrong or missing unit is a parse
error, not a silent guess. The parsed scenario is frozen and hashed so
result tables can name exactly what produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import AU, DAY, YEAR
from .formation import (
    SHAPED_BOUNDS_LOWER,
    SHAPED_BOUNDS_UPPER,
    NaturalOrbit,
    ShapedOrbit,
)
from .orbits import BodyEphemeris, OrbitalElements
from .sizing import EFFICIENCY_OPTIONS, SpacecraftDesign, design_from_option
from .sublimation import AsteroidModel

SCHEMA = "laserfleet-scenario/1"
AVOGADRO = 6.02214076e23


class ScenarioError(ValueError):
    """Raised for schema, unit or range problems in a scenario file."""


# unit string -> (dimension, factor to SI)
_UNITS = {
    "m": ("length", 1.0), "km": ("length", 1e3), "AU": ("length", AU),
    "s": ("time", 1.0), "day": ("time", DAY), "d": ("time", DAY),
    "yr": ("time", YEAR), "year": ("time", YEAR),
    "rad": ("angle", 1.0), "deg": ("angle", math.pi / 180.0),
    "rad/s": ("angular_rate", 1.0), "deg/s": ("angular_rate", math.pi / 180.0),
    "kg": ("mass", 1.0),
    "m^3/s^2": ("grav_param", 1.0), "km^3/s^2": ("grav_param", 1e9),
    "J/kg": ("specific_energy", 1.0), "MJ/kg": ("specific_energy", 1e6),
    "K": ("temperature", 1.0),
    "J/(kg K)": ("specific_heat", 1.0),
    "W/(m K)": ("conductivity", 1.0),
    "kg/m^3": ("density", 1.0),
    "m/s": ("speed", 1.0), "km/s": ("speed", 1e3),
}


def _quantity(node, dimension: str, where: str) -> float:
    if not isinstance(node, dict) or "value" not in node or "unit" not in node:
        raise ScenarioError(f"{where}: expected {{'value': ..., 'unit': ...}}")
    unit = node["unit"]
    if unit not in _UNITS:
        raise ScenarioError(f"{where}: unknown unit {unit!r}")
    dim, factor = _UNITS[unit]
    if dim != dimension:
        raise ScenarioError(f"{where}: unit {unit!r} is a {dim}, expected {dimension}")
    try:
        value = float(node["value"])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: non-numeric value") from exc
    return value * factor


def _molecular_mass(node, where: str) -> float:
    """Accept a per-molecule mass in kg or a molar mass in g/mol / kg/mol."""
    if not isinstance(node, dict) or "value" not in node or "unit" not in node:
        raise ScenarioError(f"{where}: expected {{'value': ..., 'unit': ...}}")
    unit, value = node["unit"], float(node["value"])
    if unit == "kg":
        return value
    if unit == "kg/mol":
        return value / AVOGADRO
    if unit == "g/mol":
        return value * 1e-3 / AVOGADRO
    raise ScenarioError(f"{where}: unit {unit!r} not usable for a molecular mass")


def _number(node, where: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioError(f"{where}: expected a plain number")
    return float(node)


def _count(node, where: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool) or node < 1:
        raise ScenarioError(f"{where}: positive integer required")
    return node


def _flag(node, where: str) -> bool:
    if not isinstance(node, bool):
        raise ScenarioError(f"{where}: expected true or false")
    return node


def _bounds(lo, hi, where: str) -> tuple:
    if lo > hi:
        raise ScenarioError(f"{where}: min {lo} exceeds max {hi}")
    return lo, hi


def _pair(node, where: str, parse) -> tuple:
    """A [min, max] list, each end read by ``parse``."""
    if not (isinstance(node, list) and len(node) == 2):
        raise ScenarioError(f"{where}: expected a [min, max] list")
    return _bounds(parse(node[0], f"{where}[0]"), parse(node[1], f"{where}[1]"), where)


def _angles(node: dict, where: str) -> OrbitalElements:
    a = _quantity(node.get("semi_major_axis"), "length", f"{where}.semi_major_axis")
    e = _number(node.get("eccentricity"), f"{where}.eccentricity")
    inc = _quantity(node.get("inclination"), "angle", f"{where}.inclination")
    raan = _quantity(node.get("raan"), "angle", f"{where}.raan")
    argp = _quantity(node.get("arg_periapsis"), "angle", f"{where}.arg_periapsis")
    epoch = _quantity(node["epoch"], "time", f"{where}.epoch") if "epoch" in node else 0.0

    if "mean_anomaly" in node:
        anomaly = _quantity(node["mean_anomaly"], "angle", f"{where}.mean_anomaly")
        kind = "mean"
    elif "true_anomaly" in node:
        anomaly = _quantity(node["true_anomaly"], "angle", f"{where}.true_anomaly")
        kind = "true"
    else:
        raise ScenarioError(f"{where}: need mean_anomaly or true_anomaly")
    try:
        return OrbitalElements(a=a, e=e, i=inc, raan=raan, argp=argp,
                               anomaly=anomaly, anomaly_kind=kind, epoch=epoch)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class DesignSpace:
    """Fleet-design variable box (aperture m, spacecraft count, concentration)."""

    aperture: tuple[float, float] = (2.0, 20.0)
    n_spacecraft: tuple[int, int] = (1, 10)
    concentration: tuple[float, float] = (1000.0, 5000.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    asteroid: AsteroidModel
    earth: BodyEphemeris
    earth_circular: bool
    design: SpacecraftDesign
    design_space: DesignSpace
    natural: NaturalOrbit | None
    shaped: ShapedOrbit | None
    mode: str                       # "natural" | "shaped"
    y_limits: tuple[float, ...]     # m, stand-off distances for formation design
    isp: float                      # s
    gain_position: float
    gain_velocity: float
    scattering_factor: float
    moid_epoch: float               # s, virtual encounter epoch
    refine_encounter: bool
    warning_times: tuple[float, ...]  # s
    optimizer: dict
    experiments: dict
    sha256: str

    def formation(self):
        return self.natural if self.mode == "natural" else self.shaped

    def metadata(self) -> dict:
        """Open model parameters every result table must carry."""
        return {
            "scenario": self.name,
            "scenario_sha256": self.sha256,
            "seed": self.seed,
            "sublimation_enthalpy_J_per_kg": self.asteroid.sublimation_enthalpy,
            "isp_s": self.isp,
            "emissivity": self.asteroid.emissivity,
            "array_flux_limit_suns": self.design.array_flux_limit,
            "scattering_factor": self.scattering_factor,
        }


def _parse_asteroid(node: dict) -> AsteroidModel:
    where = "asteroid"
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: missing section")
    semi = node.get("semi_axes")
    if not (isinstance(semi, dict) and isinstance(semi.get("value"), list)
            and len(semi["value"]) == 3):
        raise ScenarioError(f"{where}.semi_axes: expected 3-element value list")
    unit = semi.get("unit")
    if unit not in ("m", "km"):
        raise ScenarioError(f"{where}.semi_axes: unit must be a length")
    factor = _UNITS[unit][1]
    axes = tuple(float(v) * factor for v in semi["value"])

    try:
        return AsteroidModel(
            elements0=_angles(node.get("elements"), f"{where}.elements"),
            mass0=_quantity(node.get("mass"), "mass", f"{where}.mass"),
            mu=_quantity(node.get("mu"), "grav_param", f"{where}.mu"),
            semi_axes=axes,
            spin_rate=_quantity(node.get("spin_rate"), "angular_rate", f"{where}.spin_rate"),
            albedo=_number(node.get("albedo"), f"{where}.albedo"),
            heat_capacity=_quantity(node.get("heat_capacity"), "specific_heat",
                                    f"{where}.heat_capacity"),
            conductivity=_quantity(node.get("conductivity"), "conductivity",
                                   f"{where}.conductivity"),
            density=_quantity(node.get("density"), "density", f"{where}.density"),
            t_sublimation=_quantity(node.get("sublimation_temperature"), "temperature",
                                    f"{where}.sublimation_temperature"),
            t_ambient=_quantity(node.get("ambient_temperature"), "temperature",
                                f"{where}.ambient_temperature"),
            sublimation_enthalpy=_quantity(node.get("sublimation_enthalpy"),
                                           "specific_energy",
                                           f"{where}.sublimation_enthalpy"),
            molecular_mass=_molecular_mass(node.get("molar_mass"), f"{where}.molar_mass"),
            emissivity=_number(node.get("emissivity", 1.0), f"{where}.emissivity"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_earth(node: dict) -> tuple[BodyEphemeris, bool]:
    from .constants import MU_SUN

    where = "earth"
    if not isinstance(node, dict) or "kind" not in node:
        raise ScenarioError(f"{where}: need kind 'keplerian' or 'circular'")
    if node["kind"] == "circular":
        radius = _quantity(node.get("radius"), "length", f"{where}.radius")
        elements = OrbitalElements(a=radius, e=0.0, i=0.0, raan=0.0, argp=0.0,
                                   anomaly=0.0, anomaly_kind="mean", epoch=0.0)
        return BodyEphemeris(elements=elements, mu_central=MU_SUN), True
    if node["kind"] == "keplerian":
        return BodyEphemeris(elements=_angles(node.get("elements"), f"{where}.elements"),
                             mu_central=MU_SUN), False
    raise ScenarioError(f"{where}.kind: unknown {node['kind']!r}")


def _parse_design(node: dict) -> SpacecraftDesign:
    where = "design"
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: missing section")
    option = node.get("efficiency_option", "66/45")
    if option not in EFFICIENCY_OPTIONS:
        raise ScenarioError(f"{where}.efficiency_option: choose from "
                            f"{sorted(EFFICIENCY_OPTIONS)}")
    n_sc = _count(node.get("n_spacecraft", 1), f"{where}.n_spacecraft")
    try:
        design = design_from_option(
            aperture_diameter=_quantity(node.get("aperture_diameter"), "length",
                                        f"{where}.aperture_diameter"),
            concentration_ratio=_number(node.get("concentration_ratio"),
                                        f"{where}.concentration_ratio"),
            n_spacecraft=n_sc, option=option)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    flux = node.get("array_flux_limit")
    if flux is not None:
        from dataclasses import replace
        design = replace(design, array_flux_limit=_number(flux, f"{where}.array_flux_limit"))
    return design


def _parse_formation(node: dict) -> tuple[str, NaturalOrbit | None, ShapedOrbit | None]:
    where = "formation"
    if not isinstance(node, dict) or "mode" not in node:
        raise ScenarioError(f"{where}: need mode 'natural' or 'shaped'")
    mode = node["mode"]
    natural = shaped = None

    nat_node = node.get("natural")
    if nat_node is not None:
        dk = np.array([
            _number(nat_node.get("de"), f"{where}.natural.de"),
            _quantity(nat_node.get("di"), "angle", f"{where}.natural.di"),
            _quantity(nat_node.get("draan"), "angle", f"{where}.natural.draan"),
            _quantity(nat_node.get("dargp"), "angle", f"{where}.natural.dargp"),
            _quantity(nat_node.get("dm"), "angle", f"{where}.natural.dm"),
        ])
        natural = NaturalOrbit(dk=dk)

    shp_node = node.get("shaped")
    if shp_node is not None:
        coeffs = np.array([_quantity(shp_node.get(k), "length", f"{where}.shaped.{k}")
                           for k in ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2")])
        if np.any(coeffs < SHAPED_BOUNDS_LOWER - 1e-9) or \
                np.any(coeffs > SHAPED_BOUNDS_UPPER + 1e-9):
            raise ScenarioError(f"{where}.shaped: coefficients outside the design box")
        shaped = ShapedOrbit(coeffs=coeffs)

    if mode == "natural" and natural is None:
        raise ScenarioError(f"{where}: mode natural but no natural block")
    if mode == "shaped" and shaped is None:
        raise ScenarioError(f"{where}: mode shaped but no shaped block")
    if mode not in ("natural", "shaped"):
        raise ScenarioError(f"{where}.mode: unknown {mode!r}")
    return mode, natural, shaped


def _section(doc: dict, key: str) -> dict:
    """An optional top-level object; absent means empty."""
    node = doc.get(key, {})
    if not isinstance(node, dict):
        raise ScenarioError(f"{key}: expected an object")
    return node


def _parse_design_space(node: dict) -> DesignSpace:
    where = "design_space"
    space = DesignSpace()
    aperture = space.aperture
    if "aperture_diameter" in node:
        ap = node["aperture_diameter"]
        if not isinstance(ap, dict):
            raise ScenarioError(f"{where}.aperture_diameter: expected {{'min': ..., 'max': ...}}")
        aperture = _bounds(*(_quantity(ap.get(k), "length", f"{where}.aperture_diameter.{k}")
                             for k in ("min", "max")), f"{where}.aperture_diameter")
    return DesignSpace(
        aperture=aperture,
        n_spacecraft=_pair(node.get("n_spacecraft", list(space.n_spacecraft)),
                           f"{where}.n_spacecraft", _count),
        concentration=_pair(node.get("concentration_ratio", list(space.concentration)),
                            f"{where}.concentration_ratio", _number),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    text = path.read_bytes()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(doc, sha256=hashlib.sha256(text).hexdigest())


def parse_scenario(doc: dict, sha256: str = "") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"top level: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ScenarioError(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed: non-negative integer required")

    asteroid = _parse_asteroid(doc.get("asteroid"))
    earth, circular = _parse_earth(doc.get("earth"))
    design = _parse_design(doc.get("design"))
    mode, natural, shaped = _parse_formation(doc.get("formation"))

    timing = _section(doc, "timing")
    moid_epoch = _quantity(timing.get("moid_epoch"), "time", "timing.moid_epoch") \
        if "moid_epoch" in timing else 12.0 * YEAR
    warning = tuple(_quantity(w, "time", "timing.warning_times[]")
                    for w in timing.get("warning_times", []))

    control = _section(doc, "control")
    isp = _quantity(control.get("isp"), "time", "control.isp") if "isp" in control \
        else 2000.0
    gain_k = _number(control.get("gain_position", 1e-6), "control.gain_position")
    gain_cd = _number(control.get("gain_velocity", 1e-5), "control.gain_velocity")

    model = _section(doc, "model")
    scattering = _number(model.get("scattering_factor", 2.0 / math.pi),
                         "model.scattering_factor")

    space = _parse_design_space(_section(doc, "design_space"))

    formation_node = doc.get("formation", {})
    y_limits = tuple(_quantity(y, "length", "formation.y_limits[]")
                     for y in formation_node.get("y_limits", []))
    if not y_limits:
        y_limits = (500.0, 1000.0)

    return Scenario(
        name=str(doc.get("name", "unnamed")),
        seed=seed,
        asteroid=asteroid,
        earth=earth,
        earth_circular=circular,
        design=design,
        design_space=space,
        natural=natural,
        shaped=shaped,
        mode=mode,
        y_limits=y_limits,
        isp=isp,
        gain_position=gain_k,
        gain_velocity=gain_cd,
        scattering_factor=scattering,
        moid_epoch=moid_epoch,
        refine_encounter=_flag(timing.get("refine_encounter", True),
                               "timing.refine_encounter"),
        warning_times=warning,
        optimizer=dict(_section(doc, "optimizer")),
        experiments=dict(_section(doc, "experiments")),
        sha256=sha256,
    )

