"""Scenario ingestion: one JSON document drives every experiment.

Every key a scenario may hold is declared once, in ``_SCENARIO``, with its
kind, range and default. One walker reads a document against it: an unknown
key, a wrong or missing unit or a value out of range is an error naming its
dotted field; dimensioned quantities are converted to SI and defaults filled
in. The parsed scenario is frozen and hashed so result tables can name
exactly what produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .constants import AU, DAY, MU_SUN, YEAR
from .formation import SHAPED_BOUNDS_LOWER, SHAPED_BOUNDS_UPPER, NaturalOrbit, ShapedOrbit
from .orbits import BodyEphemeris, OrbitalElements
from .sizing import EFFICIENCY_OPTIONS
from .sublimation import AsteroidModel

SCHEMA = "laserfleet-scenario/1"
AVOGADRO = 6.02214076e23
MODES = ("natural", "shaped")
REQUIRED = object()  # the default of a key every document must give


class ScenarioError(ValueError):
    """Raised for schema, unit or range problems in a scenario file."""


# unit string -> (dimension, factor to SI)
_UNITS = {
    "m": ("length", 1.0), "km": ("length", 1e3), "AU": ("length", AU),
    "s": ("time", 1.0), "day": ("time", DAY), "d": ("time", DAY),
    "yr": ("time", YEAR), "year": ("time", YEAR),
    "rad": ("angle", 1.0), "deg": ("angle", math.pi / 180.0),
    "rad/s": ("angular_rate", 1.0), "deg/s": ("angular_rate", math.pi / 180.0),
    "kg": ("mass", 1.0), "kg/mol": ("molar_mass", 1.0), "g/mol": ("molar_mass", 1e-3),
    "m^3/s^2": ("grav_param", 1.0), "km^3/s^2": ("grav_param", 1e9),
    "J/kg": ("specific_energy", 1.0), "MJ/kg": ("specific_energy", 1e6),
    "K": ("temperature", 1.0), "J/(kg K)": ("specific_heat", 1.0),
    "W/(m K)": ("conductivity", 1.0), "kg/m^3": ("density", 1.0),
    "m/s": ("speed", 1.0), "km/s": ("speed", 1e3),
}

# ---------------------------------------------------------------------------
# Kinds. Each gives a schema key: (read(node, where) -> value, default). The
# default is a document fragment, read like a given value; None leaves an
# absent key out of its block, and REQUIRED makes its absence an error.
# ---------------------------------------------------------------------------

def _kind(check, expected: str, default):
    def read(node, where):
        if not check(node):
            raise ScenarioError(f"{where}: expected {expected}, got {node!r}")
        return node
    return read, default


def flag(default=REQUIRED):
    return _kind(lambda v: type(v) is bool, "true or false", default)


def text(default=REQUIRED):
    return _kind(lambda v: type(v) is str, "a string", default)


def choice(options, default=REQUIRED):
    return _kind(lambda v: type(v) is str and v in options, f"one of {sorted(options)}",
                 default)


def count(low: int = 1, default=REQUIRED):
    return _kind(lambda v: type(v) is int and v >= low, f"an integer >= {low}", default)


def number(interval: str = "(-inf, inf)", default=REQUIRED):
    """A plain number in ``interval``, such as ``"(0, inf)"`` or ``"[0, 1)"``;
    a quantity reads its value through it with the unit's ``scale``."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))

    def read(node, where, scale=float):
        if type(node) not in (int, float):
            raise ScenarioError(f"{where}: expected a plain number, got {node!r}")
        try:
            x = scale(node)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if not (math.isfinite(x) and (lo < x or interval[0] == "[" and x == lo)
                and (x < hi or interval[-1] == "]" and x == hi)):
            raise ScenarioError(f"{where}: {x!r} outside {interval}")
        return x
    return read, default


def quantity(dimension: str, interval: str = "(-inf, inf)", default=REQUIRED,
             size: int | None = None):
    """A ``{"value": ..., "unit": ...}`` object of ``dimension`` in SI, bounded by
    ``interval``; ``size`` reads a list of that many values. A ``molecular_mass``
    is a per-molecule mass in kg, or a molar mass in g/mol or kg/mol."""
    read_number = number(interval)[0]
    accepts = ("mass", "molar_mass") if dimension == "molecular_mass" else (dimension,)

    def read(node, where):
        if type(node) is not dict or node.keys() != {"value", "unit"}:
            raise ScenarioError(f"{where}: expected {{'value': ..., 'unit': ...}}")
        unit, value = node["unit"], node["value"]
        if type(unit) is not str or unit not in _UNITS:
            raise ScenarioError(f"{where}: unknown unit {unit!r}")
        dim, factor = _UNITS[unit]
        if dim not in accepts:
            raise ScenarioError(f"{where}: unit {unit!r} is a {dim}, expected {dimension}")
        per = AVOGADRO if dim == "molar_mass" else 1.0  # x * factor / 1.0 is exact

        def si(v, at):
            return read_number(v, at, lambda x: float(x) * factor / per)
        if size is None:
            return si(value, f"{where}.value")
        if type(value) is not list or len(value) != size:
            raise ScenarioError(f"{where}.value: expected a list of {size} numbers")
        return tuple(si(v, f"{where}.value[{i}]") for i, v in enumerate(value))
    return read, default


def listof(item, default=REQUIRED, size: int | None = None, build=None):
    """A non-empty list (of ``size`` entries, if given) of ``item``, as a tuple."""
    def read(node, where):
        if type(node) is not list or not node or size not in (None, len(node)):
            raise ScenarioError(f"{where}: expected a list of {size or 'one or more'} entries")
        return _built(build, tuple(item[0](v, f"{where}[{i}]") for i, v in enumerate(node)),
                      where)
    return read, default


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def block(fields: dict, default=REQUIRED, build=None):
    """An object of the keys in ``fields``, as a read-only mapping, or what
    ``build`` makes of it. A key outside ``fields`` is an error; absent keys
    take their default."""
    def read(node, where):
        if type(node) is not dict:
            raise ScenarioError(f"{where or 'top level'}: expected a JSON object")
        out = {}
        for key, (read_key, key_default) in fields.items():
            at = _at(where, key)
            if key in node:
                out[key] = read_key(node[key], at)
            elif key_default is REQUIRED:
                raise ScenarioError(f"{at}: required")
            elif key_default is not None:
                out[key] = read_key(key_default, at)
        unknown = [key for key in node if key not in fields]
        if unknown:
            raise ScenarioError(f"{_at(where, unknown[0])}: unknown key")
        return _built(build, MappingProxyType(out), where)
    return read, default


def _built(build, value, where: str):
    """``build(value)``, if given; its ValueError names the field."""
    try:
        return value if build is None else build(value)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _ordered(bounds) -> tuple:
    if bounds[0] > bounds[1]:
        raise ValueError(f"min {bounds[0]} exceeds max {bounds[1]}")
    return tuple(bounds)


# --- model objects built from parsed blocks ---------------------------------

def _elements(v: Mapping) -> OrbitalElements:
    if ("mean_anomaly" in v) == ("true_anomaly" in v):
        raise ValueError("give one of mean_anomaly and true_anomaly")
    kind = "mean" if "mean_anomaly" in v else "true"
    return OrbitalElements(a=v["semi_major_axis"], e=v["eccentricity"], i=v["inclination"],
                           raan=v["raan"], argp=v["arg_periapsis"],
                           anomaly=v[f"{kind}_anomaly"], anomaly_kind=kind,
                           epoch=v["epoch"])


def _asteroid(v: Mapping) -> AsteroidModel:
    return AsteroidModel(
        elements0=v["elements"], mass0=v["mass"], mu=v["mu"], semi_axes=v["semi_axes"],
        spin_rate=v["spin_rate"], albedo=v["albedo"], heat_capacity=v["heat_capacity"],
        conductivity=v["conductivity"], density=v["density"],
        t_sublimation=v["sublimation_temperature"], t_ambient=v["ambient_temperature"],
        sublimation_enthalpy=v["sublimation_enthalpy"], molecular_mass=v["molar_mass"],
        emissivity=v["emissivity"])


def _earth(v: Mapping) -> BodyEphemeris:
    """The ephemeris of a keplerian or circular Earth."""
    circular = v["kind"] == "circular"
    need = "radius" if circular else "elements"
    if v.keys() != {"kind", need}:
        raise ValueError(f"kind {v['kind']} takes {need} and no other key")
    elements = OrbitalElements(a=v["radius"], e=0.0, i=0.0, raan=0.0, argp=0.0,
                               anomaly=0.0) if circular else v["elements"]
    return BodyEphemeris(elements=elements, mu_central=MU_SUN)


def _shaped(v: Mapping) -> ShapedOrbit:
    coeffs = np.array([v[k] for k in _SHAPED_KEYS])
    if np.any(coeffs < SHAPED_BOUNDS_LOWER - 1e-9) or \
            np.any(coeffs > SHAPED_BOUNDS_UPPER + 1e-9):
        raise ValueError("coefficients outside the design box")
    return ShapedOrbit(coeffs=coeffs)


# --- the schema ------------------------------------------------------------

POSITIVE = "(0, inf)"
_SHAPED_KEYS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2")
_ELEMENTS = {
    "semi_major_axis": quantity("length", POSITIVE),
    "eccentricity": number("[0, 1)"),
    "inclination": quantity("angle", f"[0, {math.pi!r}]"),
    "raan": quantity("angle"),
    "arg_periapsis": quantity("angle"),
    "mean_anomaly": quantity("angle", default=None),
    "true_anomaly": quantity("angle", default=None),
    "epoch": quantity("time", default={"value": 0.0, "unit": "s"}),
}

_SCENARIO = block({
    "schema": choice((SCHEMA,)),
    "name": text(default="unnamed"),
    "seed": count(low=0, default=0),
    "notes": listof(text(), default=None),
    "asteroid": block({
        "name": text(default=None),
        "elements": block(_ELEMENTS, build=_elements),
        "mass": quantity("mass", POSITIVE),
        "mu": quantity("grav_param", POSITIVE),
        "semi_axes": quantity("length", POSITIVE, size=3),
        "spin_rate": quantity("angular_rate", POSITIVE),
        "albedo": number("[0, 1]"),
        "heat_capacity": quantity("specific_heat", POSITIVE),
        "conductivity": quantity("conductivity", POSITIVE),
        "density": quantity("density", POSITIVE),
        "sublimation_temperature": quantity("temperature", POSITIVE),
        "ambient_temperature": quantity("temperature", POSITIVE),
        "sublimation_enthalpy": quantity("specific_energy", POSITIVE),
        "molar_mass": quantity("molecular_mass", POSITIVE),
        "emissivity": number("(0, 1]", default=1.0),
    }, build=_asteroid),
    "earth": block({
        "kind": choice(("keplerian", "circular")),
        "elements": block(_ELEMENTS, default=None, build=_elements),
        "radius": quantity("length", POSITIVE, default=None),
    }, build=_earth),
    # the fleet-design search box: (min, max) of each variable
    "design_space": block({
        "aperture_diameter": block(
            {"min": quantity("length", POSITIVE), "max": quantity("length", POSITIVE)},
            default={"min": {"value": 2.0, "unit": "m"}, "max": {"value": 20.0, "unit": "m"}},
            build=lambda v: _ordered((v["min"], v["max"]))),
        "n_spacecraft": listof(count(), default=[1, 10], size=2, build=_ordered),
        "concentration_ratio": listof(number(POSITIVE), default=[1000, 5000], size=2,
                                      build=_ordered),
    }, default={}),
    "formation": block({
        "y_limits": listof(quantity("length", POSITIVE), default=[
            {"value": 500.0, "unit": "m"}, {"value": 1000.0, "unit": "m"}]),
        "natural": block({
            "de": number(),
            **{k: quantity("angle") for k in ("di", "draan", "dargp", "dm")},
        }, default=None, build=lambda v: NaturalOrbit(dk=np.array(
            [v["de"], v["di"], v["draan"], v["dargp"], v["dm"]]))),
        "shaped": block({k: quantity("length") for k in _SHAPED_KEYS},
                        default=None, build=_shaped),
    }, default={}),
    "timing": block({
        "moid_epoch": quantity("time", default={"value": 12.0, "unit": "yr"}),
        "refine_encounter": flag(default=True),
    }, default={}),
    "control": block({
        "isp": quantity("time", POSITIVE, default={"value": 2000.0, "unit": "s"}),
    }, default={}),
    "model": block({
        "scattering_factor": number("[0, 1]", default=2.0 / math.pi),
    }, default={}),
    # each study has its own optimizer settings; these override them
    "optimizer": block({"population": count(default=None), "budget": count(default=None),
                        "archive": count(low=2, default=None)}, default={}),
    "experiments": block({
        "formation_design": block({}, default={}),
        "shaped_design": block({
            "aperture_m": number(POSITIVE, default=20.0),
            "concentration_ratio": number(POSITIVE, default=5000.0),
            "n_spacecraft": count(default=10),
            "duration_yr": number(POSITIVE, default=1.0),
            "control_samples": count(low=2, default=512),
            "efficiency_option": choice(EFFICIENCY_OPTIONS, default="66/45"),
        }, default={}),
        "fleet_design": block({
            "warning_yr": number(POSITIVE, default=8.0),
            "modes": listof(choice(MODES), default=list(MODES)),
            "efficiency_options": listof(choice(EFFICIENCY_OPTIONS),
                                         default=["60/40", "66/45"]),
        }, default={}),
        "deflection_map": block({
            "apertures_m": listof(number(POSITIVE), default=[5.0, 10.0]),
            "concentration_ratio": number(POSITIVE, default=5000.0),
            "efficiency_option": choice(EFFICIENCY_OPTIONS, default="60/40"),
            "n_spacecraft": listof(count(), default=list(range(1, 11))),
            "warning_times_yr": listof(number("[0, inf)"), default=[1, 3, 5, 8, 12]),
            "modes": listof(choice(MODES), default=list(MODES)),
        }, default={}),
        "eccentricity_sweep": block({
            "n_perihelion": count(default=11),
            "n_aphelion": count(default=11),
            "warning_yr": number(POSITIVE, default=9.0),
            "aperture_m": number(POSITIVE, default=20.0),
            "concentration_ratio": number(POSITIVE, default=5000.0),
            "n_spacecraft": count(default=1),
            "efficiency_option": choice(EFFICIENCY_OPTIONS, default="60/40"),
        }, default={}),
    }, default={}),
})


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    asteroid: AsteroidModel
    earth: BodyEphemeris
    design_space: Mapping           # variable -> (min, max), aperture in m
    natural: NaturalOrbit | None
    shaped: ShapedOrbit | None
    y_limits: tuple[float, ...]     # m, stand-off distances for formation design
    isp: float                      # s
    scattering_factor: float
    moid_epoch: float               # s, virtual encounter epoch
    refine_encounter: bool
    optimizer: Mapping              # the optimizer keys the scenario gives
    experiments: Mapping            # study name -> its settings, defaults filled
    sha256: str

    def metadata(self) -> dict:
        """Open model parameters every result table must carry."""
        return {
            "scenario": self.name,
            "scenario_sha256": self.sha256,
            "seed": self.seed,
            "sublimation_enthalpy_J_per_kg": self.asteroid.sublimation_enthalpy,
            "isp_s": self.isp,
            "emissivity": self.asteroid.emissivity,
            "scattering_factor": self.scattering_factor,
        }


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    data = path.read_bytes()
    try:
        doc = json.loads(data)
    except ValueError as exc:  # malformed JSON, bad UTF-8, an over-long integer
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(doc, sha256=hashlib.sha256(data).hexdigest())


def parse_scenario(doc: dict, sha256: str = "") -> Scenario:
    v = _SCENARIO[0](doc, "")
    formation, timing = v["formation"], v["timing"]
    return Scenario(
        name=v["name"], seed=v["seed"], asteroid=v["asteroid"], earth=v["earth"],
        design_space=v["design_space"], natural=formation.get("natural"),
        shaped=formation.get("shaped"), y_limits=formation["y_limits"],
        isp=v["control"]["isp"], scattering_factor=v["model"]["scattering_factor"],
        moid_epoch=timing["moid_epoch"], refine_encounter=timing["refine_encounter"],
        optimizer=v["optimizer"], experiments=v["experiments"], sha256=sha256)
