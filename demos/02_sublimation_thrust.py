"""
Surface power balance and ablation thrust
=========================================

How much rock does a beamed kilowatt actually boil off? The spot power
balance pits the delivered flux against black-body re-radiation and
transient conduction into the body; whatever net power survives pays the
sublimation enthalpy, and the expelled vapour thrusts the asteroid.
"""

import numpy as np

from laserfleet.constants import AU, SCATTERING_FACTOR
from laserfleet.sizing import design_from_option
from laserfleet.sublimation import (
    apophis_model,
    conduction_loss,
    exhaust_velocity,
    input_power_density,
    mass_flow_rate,
    radiation_loss,
)

ast = apophis_model(sublimation_enthalpy=1.97e6)
design = design_from_option(10.0, 5000.0, n_spacecraft=1, option="60/40")

print(f"collector {design.aperture_diameter} m -> spot diameter "
      f"{design.spot_diameter * 100:.1f} cm at C_r = {design.concentration_ratio:g}")
print(f"vapour mean speed: {exhaust_velocity(ast):.1f} m/s")
print(f"radiation floor at the sublimation front: "
      f"{radiation_loss(ast.t_sublimation, ast.emissivity) / 1e3:.0f} kW/m^2")
print(f"conduction loss 1 s / 10 s after spot entry: "
      f"{conduction_loss(1.0, ast) / 1e3:.0f} / {conduction_loss(10.0, ast) / 1e3:.0f} kW/m^2")

r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
r_apo = ast.elements0.a * (1.0 + ast.elements0.e)

print("\n r [AU]   P_in [kW/m^2]   mdot [g/s]   u_sub [m/s^2]")
for r in np.linspace(r_peri, r_apo, 8):
    p = input_power_density(design, float(r), 1.0, ast.albedo)
    mdot = mass_flow_rate(design, ast, float(r), 1.0, 1)
    u = SCATTERING_FACTOR * exhaust_velocity(ast) * mdot / ast.mass0  # S v_bar mdot / m
    print(f" {r / AU:6.3f}   {p / 1e3:12.0f}   {mdot * 1e3:10.3f}   {u:12.3e}")

print("\nThe flow dies where the delivered density falls under the radiation")
print("floor plus the conduction transient: high-aphelion arcs coast unlit.")

# contamination feedback: the same flow scaled by the optics degradation
print("\n tau     mdot at perihelion [g/s]")
for tau in (1.0, 0.9, 0.75, 0.6, 0.5):
    mdot = mass_flow_rate(design, ast, r_peri, tau, 1)
    print(f" {tau:4.2f}    {mdot * 1e3:10.3f}")
