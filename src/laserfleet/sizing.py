"""Spacecraft subsystem sizing and mass budget.

Each spacecraft: a primary parabolic mirror feeding a secondary mirror that
illuminates a solar array behind the primary; the array pumps a
semiconductor fibre laser whose beam a steering mirror directs at the
asteroid. Radiators reject the heat the array, laser and secondary mirror
do not convert.

Radiator areas come from steady-state thermal balance, the laser input
power from the efficiency chain, and the wet mass from specific masses and
margins on every subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import AU, SOLAR_FLUX_1AU, STEFAN_BOLTZMANN

# Efficiency options: (laser, solar cells). The reflectors and the power
# regulation line are common to both.
EFFICIENCY_OPTIONS = {"66/45": (0.66, 0.45), "60/40": (0.60, 0.40)}
MIRROR_REFLECTIVITY = 0.90
LINE_EFFICIENCY = 0.85          # power regulation and transmission
# Small optics as fractions of the primary area; sub-2% mass effect.
SECONDARY_AREA_FRACTION = 0.05
STEERING_AREA_FRACTION = 0.05
# Concentrated flux on the array, in local solar constants.
ARRAY_FLUX_LIMIT = 10.0

# Steady-state thermal parameters of the powertrain surfaces.
ALPHA_ARRAY = 0.8               # solar-array absorptivity
EPS_ARRAY = 0.8                 # solar-array emissivity
T_ARRAY = 373.0                 # K
T_M2 = 373.0                    # K, secondary mirror
ALPHA_M2 = 0.01                 # secondary-mirror absorptivity
EPS_RADIATOR = 0.9
T_LASER = 313.0                 # K
T_RADIATOR_ARRAY = 373.0        # K, radiator loop of the array

# Specific masses, margins and fixed masses of the bus.
RHO_MIRROR = 0.1                # kg/m^2
RHO_STEERING = 0.1              # kg/m^2
RHO_LASER = 0.005               # kg/W of laser output
RHO_ARRAY = 1.0                 # kg/m^2
RHO_RADIATOR = 1.4              # kg/m^2
M_BUS = 500.0                   # kg
MF_HARNESS = 0.2
MF_PROPELLANT = 0.3
MF_TANK = 0.1


@dataclass(frozen=True)
class SpacecraftDesign:
    """One spacecraft of the formation: optics and the efficiency option.
    Every other value of the sizing is a module constant."""

    aperture_diameter: float        # m, primary mirror
    concentration_ratio: float
    n_spacecraft: int = 1
    eta_laser: float = 0.66
    eta_array: float = 0.45

    def __post_init__(self):
        if self.aperture_diameter <= 0.0 or self.concentration_ratio <= 0.0:
            raise ValueError("aperture and concentration ratio must be positive")
        if self.n_spacecraft < 1:
            raise ValueError("n_spacecraft must be at least 1")
        for name in ("eta_laser", "eta_array"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    @property
    def collector_area(self) -> float:
        """A_M1, m^2."""
        return math.pi * (self.aperture_diameter / 2.0) ** 2

    @property
    def eta_sys(self) -> float:
        """End-to-end beam efficiency: cells * reflector * line * laser."""
        return self.eta_array * MIRROR_REFLECTIVITY * LINE_EFFICIENCY * self.eta_laser

    @property
    def spot_area(self) -> float:
        return self.collector_area / self.concentration_ratio

    @property
    def spot_diameter(self) -> float:
        return 2.0 * math.sqrt(self.spot_area / math.pi)

    @property
    def solar_array_area(self) -> float:
        """Array sized so the twice-reflected beam stays under the flux limit."""
        return MIRROR_REFLECTIVITY**2 * self.collector_area / ARRAY_FLUX_LIMIT


def design_from_option(aperture_diameter: float, concentration_ratio: float,
                       n_spacecraft: int = 1, option: str = "66/45") -> SpacecraftDesign:
    eta_l, eta_s = EFFICIENCY_OPTIONS[option]
    return SpacecraftDesign(aperture_diameter=aperture_diameter,
                            concentration_ratio=concentration_ratio,
                            n_spacecraft=n_spacecraft,
                            eta_laser=eta_l, eta_array=eta_s)


@dataclass(frozen=True)
class MassBudget:
    """Component masses (kg), radiator areas (m^2) and laser input power (W)."""

    m_laser: float
    m_array: float
    m_mirrors: float
    m_radiators: float
    m_harness: float
    m_bus: float
    m_dry: float
    m_propellant: float
    m_total: float
    a_radiator_array: float
    a_radiator_laser: float
    a_radiator_m2: float
    p_laser: float


def secondary_input_power(design: SpacecraftDesign, r_a: float) -> float:
    """Power reaching the secondary mirror after one reflection, W."""
    return (MIRROR_REFLECTIVITY * design.collector_area * SOLAR_FLUX_1AU
            * (AU / r_a) ** 2)


def radiator_areas(design: SpacecraftDesign, r_a: float) -> tuple[float, float, float]:
    """Steady-state radiator areas (array, laser, secondary mirror), m^2.

    Each surface balances absorbed-minus-converted power against its
    radiator emission; an analytically negative area means the surface
    radiates enough on its own and clamps to zero.
    """
    p_im2 = secondary_input_power(design, r_a)
    a_s = design.solar_array_area
    sigma = STEFAN_BOLTZMANN
    eta_mirror = MIRROR_REFLECTIVITY

    a_rs = ((ALPHA_ARRAY * eta_mirror * p_im2
             - design.eta_array * eta_mirror * p_im2
             - 2.0 * EPS_ARRAY * sigma * a_s * T_ARRAY**4)
            / (EPS_RADIATOR * sigma * T_RADIATOR_ARRAY**4))
    a_rl = (design.eta_array * eta_mirror * p_im2 * (1.0 - design.eta_laser)
            / (EPS_RADIATOR * sigma * T_LASER**4))
    a_m2 = SECONDARY_AREA_FRACTION * design.collector_area
    a_rm2 = ((ALPHA_M2 * p_im2 - 2.0 * T_M2**4 * EPS_ARRAY * sigma * a_m2)
             / (EPS_RADIATOR * sigma * T_M2**4))

    return max(a_rs, 0.0), max(a_rl, 0.0), max(a_rm2, 0.0)


def laser_power(design: SpacecraftDesign, r_a: float) -> float:
    """Electrical input power to the laser, W.

    Product of the array output (two mirror reflections onto the cells) and
    the 15% regulation-and-transmission loss.
    """
    if r_a <= 0.0:
        raise ValueError("heliocentric distance must be positive")
    return (LINE_EFFICIENCY * design.eta_array * MIRROR_REFLECTIVITY**2
            * design.collector_area * SOLAR_FLUX_1AU * (AU / r_a) ** 2)


def mass_budget(design: SpacecraftDesign, r_a_sizing: float) -> MassBudget:
    """Wet mass of one spacecraft with radiators and laser sized at r_a_sizing.

    Margins: 15% on the array (high-efficiency cells), 50% on the laser
    (never flown at this scale), 20% on radiators, 25% on mirrors, and a
    20% system margin on the dry mass. Propellant is a fixed fraction of
    dry mass with a 10% tankage allowance.
    """
    a_rs, a_rl, a_rm2 = radiator_areas(design, r_a_sizing)
    p_l = laser_power(design, r_a_sizing)

    m_array = 1.15 * RHO_ARRAY * design.solar_array_area
    m_laser = 1.5 * RHO_LASER * p_l * design.eta_laser
    m_harness = MF_HARNESS * (m_array + m_laser)
    m_radiators = 1.2 * (a_rs + a_rl + a_rm2) * RHO_RADIATOR
    a_m1 = design.collector_area
    m_mirrors = 1.25 * (RHO_STEERING * STEERING_AREA_FRACTION * a_m1
                        + RHO_MIRROR * a_m1
                        + RHO_MIRROR * SECONDARY_AREA_FRACTION * a_m1)

    m_dry = 1.2 * (m_harness + m_array + m_mirrors + m_laser + m_radiators + M_BUS)
    m_prop = m_dry * MF_PROPELLANT
    m_total = m_dry + m_prop * (1.0 + MF_TANK)

    return MassBudget(m_laser=m_laser, m_array=m_array, m_mirrors=m_mirrors,
                      m_radiators=m_radiators, m_harness=m_harness, m_bus=M_BUS,
                      m_dry=m_dry, m_propellant=m_prop, m_total=m_total,
                      a_radiator_array=a_rs, a_radiator_laser=a_rl,
                      a_radiator_m2=a_rm2, p_laser=p_l)
