"""
Orbit mechanics and the anatomy of a deflection
===============================================

Walks the two-body layer end to end: Keplerian elements and Cartesian
states, propagation, the Gauss variational equations under a small
tangential thrust, the accumulated mean-anomaly offset at a virtual
encounter, and the resulting miss distance on the Earth b-plane.
"""

import math

import numpy as np

from laserfleet.constants import AU, DAY, MU_SUN, YEAR
from laserfleet.orbits import (
    BodyEphemeris,
    OrbitalElements,
    delta_m_at_moid,
    elements_to_state,
    find_moid,
    impact_parameter,
    integrate_gauss,
    kepler_propagate,
    state_to_elements,
)
from laserfleet.sublimation import apophis_model

ast = apophis_model(sublimation_enthalpy=1.97e6)
k0 = ast.elements0

print("== the test asteroid ==")
print(f"a = {k0.a / AU:.4f} AU, e = {k0.e}, i = {math.degrees(k0.i):.4f} deg")
print(f"period = {k0.period(MU_SUN) / DAY:.4f} days")

# elements -> state -> elements round trip
s = elements_to_state(k0, MU_SUN)
print(f"|r| = {np.linalg.norm(s.position) / AU:.4f} AU, "
      f"|v| = {np.linalg.norm(s.velocity) / 1e3:.3f} km/s")
k_back = state_to_elements(s, MU_SUN)
print(f"round trip da/a = {abs(k_back.a - k0.a) / k0.a:.2e}")

# one full period returns the same anomaly
k_one = kepler_propagate(k0, k0.period(MU_SUN), MU_SUN)
print(f"anomaly after one period moved by "
      f"{abs(math.remainder(k_one.mean_anomaly() - k0.mean_anomaly(), 2 * math.pi)):.2e} rad")

# a year of constant tangential acceleration, the scale of laser ablation
u_t = 1e-9  # m/s^2
print(f"\n== one year under {u_t:g} m/s^2 of along-track thrust ==")
hist = integrate_gauss(k0, lambda t, k: np.array([u_t, 0.0, 0.0]), 0.0, YEAR, MU_SUN)
kf = hist.final()
print(f"da = {kf.a - k0.a:+.1f} m, de = {kf.e - k0.e:+.2e}")

n0 = k0.mean_motion(MU_SUN)
ni = kf.mean_motion(MU_SUN)
t_moid = 8 * YEAR
dm = delta_m_at_moid(hist.mean_anomaly_integral(), 0.0, YEAR, t_moid, n0, ni)
print(f"anomaly offset at the encounter epoch (8 yr): {dm:+.3e} rad "
      f"(~{abs(dm) * k0.a / 1e3:.0f} km along track)")

# Earth phased as a virtual impactor at t ~ 13 yr (see the shipped scenario)
earth = BodyEphemeris(
    elements=OrbitalElements(a=1.00000011 * AU, e=0.01671022,
                             i=math.radians(5e-5), raan=math.radians(348.73936),
                             argp=math.radians(114.20783),
                             anomaly=math.radians(90.813551)),
    mu_central=MU_SUN)

moid = find_moid(k0, earth.elements)
print(f"\nMOID of the two orbits: {moid.distance / 1e3:.0f} km "
      f"(asteroid true anomaly {math.degrees(moid.nu_1):.1f} deg)")

b = impact_parameter(hist.final(), k0, earth, 13.0242 * YEAR, MU_SUN)
print(f"b-plane miss distance at the virtual encounter: {b / 1e3:.1f} km")
