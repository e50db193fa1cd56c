"""Output checks, one set per workload, none of them a copy of a past output.

Each check reads the study's CSV and ``meta.json`` and returns a list of
faults; an empty list means the output is right. The references are
derived here from the scenario: the formation fronts against absolute
Keplerian states, the shaped front against dense samples of its Fourier
shape.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

from laserfleet.formation import SHAPED_BOUNDS_LOWER, SHAPED_BOUNDS_UPPER
from laserfleet.orbits import OrbitalElements

J1_TOLERANCE = 1e-5         # relative, natural J1 against absolute states
SHAPE_TOLERANCE = 1e-6      # relative, shaped J2/C1/C2 against dense samples
FORMATION_SAMPLES = 8       # rows per front whose J1 is recomputed


def _cell(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    if text.startswith("np.float64(") and text.endswith(")"):
        # numpy scalars reach the CSV as their repr; the number is intact
        text = text[len("np.float64("):-1]
    try:
        return float(text)
    except ValueError:
        return text


def read_table(csv_path: Path) -> tuple[list[dict], dict]:
    """Rows keyed by column name without the unit, and the metadata."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        names = [h.split(" [")[0] for h in next(reader)]
        rows = [dict(zip(names, map(_cell, rec))) for rec in reader]
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text())
    return rows, meta


def _numbers(row: dict) -> list[float]:
    return [v for v in row.values() if isinstance(v, float)]


def operations(rows: list[dict]) -> tuple[int, int]:
    """(attempted, failed) grid cells: a cell fails on a non-finite number."""
    failed = sum(1 for row in rows if not all(map(math.isfinite, _numbers(row))))
    return len(rows), failed


def _dominated(points: np.ndarray) -> list[int]:
    """Indices of rows that another row dominates (all <=, one <)."""
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=2)
    dom = le & lt                       # dom[i, j]: i dominates j
    return [int(j) for j in np.where(dom.any(axis=0))[0]]


def _kepler(m: np.ndarray, e: float) -> np.ndarray:
    ecc = m + e * np.sin(m)
    for _ in range(60):
        step = (ecc - e * np.sin(ecc) - m) / (1.0 - e * np.cos(ecc))
        ecc = ecc - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return ecc


# ---------------------------------------------------------------------------
# deflection-map
# ---------------------------------------------------------------------------

def check_deflection_map(rows, meta, scenario, seed) -> list[str]:
    exp = scenario.experiments["deflection_map"]
    grid = [(mode, float(ap), float(n), float(w))
            for mode in exp["modes"] for ap in exp["apertures_m"]
            for n in exp["n_spacecraft"] for w in exp["warning_times_yr"]]
    keys = [(r["mode"], r["aperture"], r["n_spacecraft"], r["warning_time"]) for r in rows]
    if len(keys) != len(grid) or any(
            k[:3] != g[:3] or not math.isclose(k[3], g[3], rel_tol=1e-12)
            for k, g in zip(keys, grid)):
        return ["map rows are not the scenario grid in mode, aperture, n_sc, "
                "warning order"]
    faults = []
    b = {g: r["miss_distance"] for g, r in zip(grid, rows)}
    tau = {g: r["tau_end"] for g, r in zip(grid, rows)}
    for g, r in zip(grid, rows):
        mode, ap, n, w = g
        if not all(map(math.isfinite, _numbers(r))):
            faults.append(f"{g}: non-finite value")
        if not 0.0 < r["tau_end"] <= 1.0:
            faults.append(f"{g}: tau_end {r['tau_end']} outside (0, 1]")
        if not r["asteroid_mass_end"] < scenario.asteroid.mass0:
            faults.append(f"{g}: asteroid mass did not fall")
        # Where contamination cuts the thrust, the impulse depends on the
        # orbital phase at the start, and b need not rise with warning time;
        # criterion 8 asserts the rise on the 5 m grid.
        later = [k for k in grid if k[:3] == g[:3] and k[3] > w]
        if later:
            nxt = min(later)
            clean = tau[g] == 1.0 and tau[nxt] == 1.0
            if (clean or ap == 5.0) and not b[nxt] > b[g]:
                faults.append(f"{g}: b does not rise with warning time")
        more = [k for k in grid if k[:2] == g[:2] and k[3] == w and k[2] > n]
        if more and not b[min(more)] > b[g]:
            faults.append(f"{g}: b does not rise with n_sc")
        if mode == "shaped" and ("natural", ap, n, w) in b \
                and not b[g] >= b["natural", ap, n, w]:
            faults.append(f"{g}: shaped below natural")
    return faults


# ---------------------------------------------------------------------------
# formation-design
# ---------------------------------------------------------------------------

def _positions(a, e, i, raan, argp, m):
    """Heliocentric positions (N, 3) of an orbit at mean anomalies ``m``."""
    ecc = _kepler(m, e)
    xp, yp = a * (np.cos(ecc) - e), a * math.sqrt(1.0 - e * e) * np.sin(ecc)
    co, so, cw, sw = math.cos(raan), math.sin(raan), math.cos(argp), math.sin(argp)
    ci, si = math.cos(i), math.sin(i)
    return np.stack([(co * cw - so * sw * ci) * xp - (co * sw + so * cw * ci) * yp,
                     (so * cw + co * sw * ci) * xp + (co * cw * ci - so * sw) * yp,
                     sw * si * xp + cw * si * yp], axis=-1)


def natural_j1(k_a: OrbitalElements, dk, n: int = 2**15) -> float:
    """Largest distance between the asteroid and the neighbouring orbit.

    Both are absolute Keplerian orbits with the same semi-major axis, the
    neighbour offset by dk = (de, di, draan, dargp, dM), sampled at the
    same instants on a dense mean-anomaly grid.
    """
    de, di, draan, dargp, dm = dk
    m = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    chief = _positions(k_a.a, k_a.e, k_a.i, k_a.raan, k_a.argp, m)
    deputy = _positions(k_a.a, k_a.e + de, k_a.i + di, k_a.raan + draan,
                        k_a.argp + dargp, m + dm)
    return float(np.max(np.linalg.norm(deputy - chief, axis=1)))


def check_formation_design(rows, meta, scenario, seed) -> list[str]:
    faults = []
    lo, hi = np.array(meta["bounds_lower"]), np.array(meta["bounds_upper"])
    pick = random.Random(seed)
    for y_lim in scenario.y_limits:
        front = [r for r in rows if r["y_lim"] == y_lim]
        if not front or meta.get(f"y_lim_{y_lim:g}_infeasible"):
            faults.append(f"y_lim={y_lim:g}: no feasible front")
            continue
        dk = np.array([[r["de"], r["di"], r["draan"], r["dargp"], r["dm"]] for r in front])
        objs = np.array([[r["J1_max_distance"], r["J2_neg_min_plume_angle"]] for r in front])
        if not np.all(np.isfinite(objs)):
            faults.append(f"y_lim={y_lim:g}: non-finite objective")
            continue
        if np.any(dk < lo) or np.any(dk > hi):
            faults.append(f"y_lim={y_lim:g}: a design outside the search box")
        if any(r["C_clearance"] < 0.0 for r in front):
            faults.append(f"y_lim={y_lim:g}: a front member violates the stand-off")
        dominated = _dominated(objs)
        if dominated:
            faults.append(f"y_lim={y_lim:g}: rows {dominated} are dominated")
        for j in sorted(pick.sample(range(len(front)), min(FORMATION_SAMPLES, len(front)))):
            ref = natural_j1(scenario.asteroid.elements0, dk[j])
            if not abs(objs[j, 0] / ref - 1.0) < J1_TOLERANCE:
                faults.append(f"y_lim={y_lim:g} row {j}: J1 {objs[j, 0]:.9g} m, "
                              f"absolute states give {ref:.9g} m")
    return faults


def hypervolume_2d(points, ref) -> float:
    """Area dominated by ``points`` (minimised) inside the box below ``ref``."""
    pts = sorted((float(a), float(b)) for a, b in points if a < ref[0] and b < ref[1])
    area, best = 0.0, ref[1]
    for f1, f2 in pts:
        if f2 < best:
            area += (ref[0] - f1) * (best - f2)
            best = f2
    return area


def front_hypervolume(rows, scenario) -> float:
    """Mean share of the box [y_lim, 4 y_lim] x [-pi/2, 0] that each front dominates."""
    shares = []
    for y_lim in scenario.y_limits:
        pts = [(r["J1_max_distance"], r["J2_neg_min_plume_angle"])
               for r in rows if r["y_lim"] == y_lim]
        box = 3.0 * y_lim * 0.5 * math.pi
        shares.append(hypervolume_2d(pts, (4.0 * y_lim, 0.0)) / box)
    return sum(shares) / len(shares) if shares else 0.0


# ---------------------------------------------------------------------------
# shaped-design
# ---------------------------------------------------------------------------

def check_shaped_design(rows, meta, scenario, seed) -> list[str]:
    if not rows or not meta.get("feasible_found"):
        return ["no feasible shaped front"]
    faults = []
    nu = np.linspace(0.0, 2.0 * math.pi, 2**16, endpoint=False)
    c, s = np.cos(nu), np.sin(nu)
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2")
    objs = []
    for j, r in enumerate(rows):
        if not all(map(math.isfinite, _numbers(r))):
            faults.append(f"row {j}: non-finite value")
            continue
        x1, x2, x3, y1, y2, y3, z1, z2 = coeffs = np.array([r[k] for k in names])
        if np.any(coeffs < SHAPED_BOUNDS_LOWER) or np.any(coeffs > SHAPED_BOUNDS_UPPER):
            faults.append(f"row {j}: coefficients outside the search box")
        x, y, z = x1 * c + x2 * s + x3, y1 * c + y2 * s + y3, z1 * c + z2 * s
        dense = {"J2_max_distance": float(np.max(np.sqrt(x * x + y * y + z * z))),
                 "C1_max_x": float(np.max(x)), "C2_max_y": float(np.max(y))}
        for key, ref in dense.items():
            scale = max(abs(ref), float(np.max(np.abs(coeffs))))
            if not abs(r[key] - ref) <= SHAPE_TOLERANCE * scale:
                faults.append(f"row {j}: {key} {r[key]:.9g}, dense samples give {ref:.9g}")
        if not (r["C1_max_x"] <= 0.0 and r["C2_max_y"] <= 0.0):
            faults.append(f"row {j}: infeasible shape (C1 {r['C1_max_x']:.4g}, "
                          f"C2 {r['C2_max_y']:.4g})")
        if not 0.0 < r["J1_propellant_fraction"] < 1.0 or not r["J3_max_accel"] > 0.0:
            faults.append(f"row {j}: J1 or J3 out of range")
        thrust = r["J3_max_accel"] * meta["spacecraft_mass_kg"]
        if not math.isclose(r["max_thrust"], thrust, rel_tol=1e-12):
            faults.append(f"row {j}: max_thrust {r['max_thrust']} != J3 * m_sc {thrust}")
        objs.append([r["J1_propellant_fraction"], r["J2_max_distance"], r["J3_max_accel"]])
    if len(objs) == len(rows):
        dominated = _dominated(np.array(objs))
        if dominated:
            faults.append(f"rows {dominated} are dominated")
    return faults


CHECKS = {
    "deflection-map": check_deflection_map,
    "formation-design": check_formation_design,
    "shaped-design": check_shaped_design,
}
