"""Command-line entry point: scenario-driven experiments plus self checks.

Subcommands mirror the study structure: ``formation-design``,
``shaped-design``, ``fleet-design``, ``deflection-map``,
``eccentricity-sweep`` and ``validate`` (runs the built-in oracle suite
against independently computed references).

Exit codes: 0 success, 1 validation failure (bad scenario, failed oracle
or a state that is no longer finite), 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .constants import AU, MU_SUN, SOLAR_FLUX_1AU, STEFAN_BOLTZMANN, YEAR
from .experiments import (
    run_deflection_map,
    run_eccentricity_sweep,
    run_fleet_design,
    run_formation_design,
    run_shaped_design,
)
from .orbits import NonFiniteStateError
from .scenario import ScenarioError, load_scenario


def _threads(text: str) -> int:
    """A worker count from 1 to the machine's CPU count."""
    n, n_cpu = (int(text) if text.isdecimal() else 0), os.cpu_count() or 1
    if not 1 <= n <= n_cpu:
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to {n_cpu}, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laserfleet",
        description="Asteroid deflection by a formation of solar-pumped lasers: "
                    "simulation and design studies.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--scenario", type=Path, help="scenario JSON file")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory for CSV tables")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--threads", type=_threads, default=1,
                        help="worker processes for grid experiments, at most the CPU count")

    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("formation-design", "shaped-design", "fleet-design",
                 "deflection-map", "eccentricity-sweep"):
        sub.add_parser(name, help=f"run the {name.replace('-', ' ')} study")
    sub.add_parser("validate", help="run the built-in oracle checks")
    return parser


def _require_scenario(args):
    if args.scenario is None:
        raise ScenarioError("this command needs --scenario <path>")
    return load_scenario(args.scenario)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            ok = run_validation()
            return 0 if ok else 1
        scenario = _require_scenario(args)
        seed = args.seed if args.seed is not None else scenario.seed

        if args.command == "formation-design":
            tables = [run_formation_design(scenario, seed)]
        elif args.command == "shaped-design":
            tables = [run_shaped_design(scenario, seed)]
        elif args.command == "fleet-design":
            tables = [run_fleet_design(scenario, seed)]
        elif args.command == "deflection-map":
            tables = [run_deflection_map(scenario, seed, threads=args.threads)]
        elif args.command == "eccentricity-sweep":
            tables = [run_eccentricity_sweep(scenario, seed, threads=args.threads)]
        else:  # pragma: no cover - argparse guards this
            raise RuntimeError(f"unknown command {args.command}")

        for table in tables:
            table.metadata["seed"] = seed
            path = table.write(args.out)
            print(f"wrote {path}")
        return 0
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


# ---------------------------------------------------------------------------
# Built-in oracle suite
# ---------------------------------------------------------------------------

def run_validation() -> bool:
    checks = [
        ("element/state round trip (200 random orbits)", _check_roundtrip),
        ("Kepler propagation periodicity", _check_periodicity),
        ("Gauss rates: unperturbed null and tangential window", _check_gauss),
        ("sublimation quadrature vs brute-force grid", _check_quadrature),
        ("physics spot values", _check_spot_values),
        ("optimizer benchmark front", _check_optimizer),
        ("null deflection", _check_null_deflection),
    ]
    all_ok = True
    for label, fn in checks:
        try:
            fn()
            status = "PASS"
        except AssertionError as exc:
            status = f"FAIL ({exc})"
            all_ok = False
        except Exception as exc:  # hard error counts as failure
            status = f"FAIL ({type(exc).__name__}: {exc})"
            all_ok = False
        print(f"[{status.split(' ')[0]:4s}] {label}"
              + ("" if status.startswith("PASS") else f" -> {status}"))
    return all_ok


def _check_roundtrip():
    from .orbits import OrbitalElements, elements_to_state, state_to_elements

    rng = np.random.default_rng(7)
    for _ in range(200):
        k = OrbitalElements(
            a=AU * (0.5 + 2.0 * rng.random()), e=0.7 * rng.random(),
            i=math.pi * 0.9 * rng.random() + 0.01, raan=rng.random() * 6.0,
            argp=rng.random() * 6.0, anomaly=rng.random() * 6.0, anomaly_kind="true")
        k2 = state_to_elements(elements_to_state(k, MU_SUN), MU_SUN)
        assert abs(k2.a - k.a) / k.a < 1e-9, "semi-major axis drifted"
        assert abs(k2.e - k.e) < 1e-9, "eccentricity drifted"


def _check_periodicity():
    from .sublimation import apophis_model

    ast = apophis_model(sublimation_enthalpy=2e6)
    k = ast.elements0
    from .orbits import kepler_propagate
    k2 = kepler_propagate(k, k.period(MU_SUN), MU_SUN)
    dm = abs((k2.mean_anomaly() - k.mean_anomaly() + math.pi) % (2 * math.pi) - math.pi)
    assert dm < 1e-10, f"anomaly shifted by {dm} after one period"


def _check_gauss():
    from .orbits import gauss_rates, integrate_gauss
    from .sublimation import apophis_model

    ast = apophis_model(sublimation_enthalpy=2e6)
    k = ast.elements0
    rates = gauss_rates(k, np.zeros(3), MU_SUN)
    assert np.allclose(rates[:5], 0.0), "unperturbed slow elements move"
    assert abs(rates[5] - k.mean_motion(MU_SUN)) < 1e-18, "mean motion wrong"

    hist = integrate_gauss(k, lambda t, karr: np.array([1e-7, 0.0, 0.0]),
                           0.0, 30 * 86400.0, MU_SUN)
    da = hist.final().a - k.a
    # independent scale check: da/dt = 2 a^2 v / mu * u_t at the start
    from .orbits import elements_to_state
    v = float(np.linalg.norm(elements_to_state(k, MU_SUN).velocity))
    da_linear = 2.0 * k.a**2 * v / MU_SUN * 1e-7 * 30 * 86400.0
    assert abs(da - da_linear) / da_linear < 0.2, "tangential-thrust da off scale"


def _check_quadrature():
    from .sizing import design_from_option
    from .sublimation import (
        apophis_model,
        conduction_loss,
        input_power_density,
        mass_flow_rate,
        radiation_loss,
        surface_speed,
    )

    ast = apophis_model(sublimation_enthalpy=2e6)
    design = design_from_option(10.0, 2500.0)
    r_a = ast.elements0.a * (1.0 - ast.elements0.e)
    got = mass_flow_rate(design, ast, r_a, 1.0, 1)

    # brute-force midpoint grid over (y, t)
    p_in = input_power_density(design, r_a, 1.0, ast.albedo)
    q_rad = radiation_loss(ast.t_sublimation, ast.emissivity)
    radius = design.spot_diameter / 2.0
    v_rot = surface_speed(ast)
    n_y, n_t = 400, 4000
    total = 0.0
    for j in range(n_y):
        y = (j + 0.5) / n_y * radius
        t_out = 2.0 * math.sqrt(radius**2 - y**2) / v_rot
        dt = t_out / n_t
        acc = 0.0
        for m in range(n_t):
            t = (m + 0.5) * dt
            net = p_in - q_rad - conduction_loss(t, ast)
            if net > 0.0:
                acc += net * dt
        total += acc * radius / n_y
    want = 2.0 * v_rot * total / ast.sublimation_enthalpy
    assert abs(got - want) / want < 0.01, f"quadrature {got} vs grid {want}"


def _check_spot_values():
    from .plume import degradation_factor
    from .sublimation import apophis_model, exhaust_velocity, radiation_loss

    ast = apophis_model(sublimation_enthalpy=2e6)
    v_bar = exhaust_velocity(ast)
    want = math.sqrt(8.0 * 1.380649e-23 * 1800.0 / (math.pi * ast.molecular_mass))
    assert abs(v_bar - want) < 1e-9, "exhaust velocity formula drifted"
    assert abs(v_bar - 520.5) < 0.1, f"exhaust velocity {v_bar} not ~520.5"

    q = radiation_loss(1800.0, 1.0)
    assert abs(q - STEFAN_BOLTZMANN * 1800.0**4) < 1e-6 * q
    assert abs(degradation_factor(1e-6) - math.exp(-2.0)) < 1e-12
    assert abs(314.0 * SOLAR_FLUX_1AU - 429.2e3) < 0.002 * 429.2e3


def _check_optimizer():
    from .moo import ProblemSpec, hypervolume_2d, optimize

    def evaluate(x):
        return np.array([x[0]**2, (x[0] - 2.0)**2]), np.zeros(0)

    problem = ProblemSpec(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)
    result = optimize(problem, budget=3000, seed=11, population=32)
    hv = hypervolume_2d(result.archive.objective_array(), (4.0, 4.0))
    assert hv > 0.97 * 40.0 / 3.0, f"hypervolume {hv} below 97% of analytic front"
    result.archive.validate()


def _check_null_deflection():
    from .deflection import DeflectionScenario, simulate_deflection
    from .orbits import BodyEphemeris, OrbitalElements
    from .sizing import design_from_option
    from .sublimation import apophis_model

    ast = apophis_model(sublimation_enthalpy=2e6)
    earth = BodyEphemeris(
        elements=OrbitalElements(a=AU, e=0.0167, i=0.0, raan=0.0, argp=1.8,
                                 anomaly=0.0, anomaly_kind="mean"),
        mu_central=MU_SUN)
    # concentration ratio 1 never reaches the sublimation threshold
    design = design_from_option(10.0, 1.0)
    dscn = DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=0.0,
                              t_start=0.0, t_moid=YEAR)
    out = simulate_deflection(dscn)
    assert abs(out.delta_mean_anomaly) < 1e-12, "null thrust left an anomaly change"
    assert out.miss_distance < 1.0, f"null thrust missed by {out.miss_distance} m"


if __name__ == "__main__":
    sys.exit(main())
