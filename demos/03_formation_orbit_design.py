"""
Natural formation orbits and their design trade-off
===================================================

A companion spacecraft on slightly different Keplerian elements traces a
periodic relative orbit around the asteroid. Good formation orbits stay
close (easy pointing) while keeping away from the plume axis along the
velocity direction; a stand-off along the transverse axis is enforced as a
hard constraint. This is a two-objective design problem, solved here with
a short archive-based Pareto run.
"""

import numpy as np

from laserfleet.formation import (
    NATURAL_BOUNDS_LOWER,
    NATURAL_BOUNDS_UPPER,
    mirror_natural_orbit,
    natural_family_label,
    natural_orbit_objectives,
)
from laserfleet.moo import ProblemSpec, optimize
from laserfleet.orbits import linear_proximal_position
from laserfleet.sublimation import apophis_model

ast = apophis_model(sublimation_enthalpy=1.97e6)
k_a = ast.elements0
y_lim = 1000.0

# the shipped natural orbit: a kilometre-scale loop 760 m clear of the body
dk = np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9])
nus = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
pos = linear_proximal_position(k_a, dk, nus)
print("relative orbit samples (x, y, z) in metres:")
for nu, p in zip(nus, pos):
    print(f"  nu={np.degrees(nu):5.0f} deg   ({p[0]:+8.1f}, {p[1]:+8.1f}, {p[2]:+8.1f})")

res = natural_orbit_objectives(dk, k_a, y_lim)
print(f"\nJ1 (max excursion)      = {res['J1']:.0f} m")
print(f"J2 (-min plume angle)   = {res['J2']:.4f} rad")
print(f"C  (stand-off clearance)= {res['C']:+.0f} m")

# mirror family: flip the out-of-plane geometry, same objectives
mirror = mirror_natural_orbit(dk, k_a.i)
print(f"family {natural_family_label(dk, k_a, y_lim)} mirrors to "
      f"{natural_family_label(mirror, k_a, y_lim)} with identical objectives")

# a small Pareto run over the published element-delta box
def evaluate(x):
    r = natural_orbit_objectives(x, k_a, y_lim)
    return (r["J1"], r["J2"]), (-r["C"],)  # the constraint -C <= 0 keeps C >= 0

problem = ProblemSpec(lower=NATURAL_BOUNDS_LOWER, upper=NATURAL_BOUNDS_UPPER,
                      evaluate=evaluate)
result = optimize(problem, budget=1200, seed=1, population=24)
members = result.archive.members
print(f"\nPareto archive after 1200 evaluations: {len(members)} members")
print("   J1 [m]    J2 [rad]   family")
for m in members[:: max(1, len(members) // 10)]:
    fam = natural_family_label(m.x, k_a, y_lim)
    print(f" {m.objectives[0]:8.0f}   {m.objectives[1]:+.4f}   {fam}")
print("closer orbits pay with a shallower worst-case plume angle, and the")
print("two z-families land on the same front.")
