"""
An end-to-end deflection campaign
=================================

Five spacecraft with 10 m mirrors fly a natural formation orbit around the
virtual impactor and ablate it for eight years. The coupled simulation
integrates the osculating elements under the sublimation thrust and
gravity tug together with the optics contamination and the asteroid mass,
then projects the achieved separation onto the Earth b-plane at the
encounter.
"""

import math

import numpy as np

from laserfleet.constants import AU, MU_SUN, YEAR
from laserfleet.deflection import DeflectionScenario, simulate_deflection
from laserfleet.formation import NaturalOrbit, ShapedOrbit
from laserfleet.orbits import BodyEphemeris, OrbitalElements
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import apophis_model

ast = apophis_model(sublimation_enthalpy=1.97e6)
earth = BodyEphemeris(
    elements=OrbitalElements(a=1.00000011 * AU, e=0.01671022,
                             i=math.radians(5e-5), raan=math.radians(348.73936),
                             argp=math.radians(114.20783),
                             anomaly=math.radians(90.813551)),
    mu_central=MU_SUN)
t_moid = 13.0242 * YEAR  # virtual impact: Earth phased onto the MOID point

design = design_from_option(10.0, 5000.0, n_spacecraft=5, option="60/40")
r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
m_sc = mass_budget(design, r_peri).m_total
print(f"fleet: {design.n_spacecraft} x {design.aperture_diameter:.0f} m, "
      f"{m_sc:.0f} kg each, {design.n_spacecraft * m_sc / 1e3:.1f} t total")

for label, formation in (
        ("natural", NaturalOrbit(dk=np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]))),
        ("shaped", ShapedOrbit(np.array([0., 0., -1000., 0., 0., -50., 0., 0.])))):
    sc = DeflectionScenario(ast=ast, design=design, earth=earth, m_sc=m_sc,
                            t_start=t_moid - 8 * YEAR, t_moid=t_moid,
                            formation=formation)
    out = simulate_deflection(sc)
    years = (out.times - out.times[0]) / YEAR
    print(f"\n== {label} formation, 8-year warning ==")
    print(" t [yr]   thrust [N]   tau      m_dot [g/s]")
    for k in range(0, len(years), max(1, len(years) // 8)):
        print(f" {years[k]:5.2f}   {out.thrust[k]:9.3f}   {out.tau[k]:.4f} "
              f"  {out.mdot[k] * 1e3:8.3f}")
    print(f"expelled mass: {(out.asteroid_mass[0] - out.asteroid_mass[-1]) / 1e3:.0f} t")
    print(f"anomaly offset at encounter: {out.delta_mean_anomaly:+.3e} rad")
    print(f"b-plane miss distance: {out.miss_distance / 1e3:.0f} km")

print("\nThe natural formation loses thrust whenever contamination builds up")
print("during its excursions above the plume; the shaped formation keeps its")
print("optics dark and converts the same sunlight all the way to the encounter.")
