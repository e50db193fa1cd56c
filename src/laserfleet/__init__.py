"""Design toolkit for asteroid deflection by formations of solar-pumped lasers."""

__version__ = "0.1.0"

from .orbits import (  # noqa: F401
    BodyEphemeris,
    FrameBasis,
    OrbitalElements,
    StateVector,
    elements_to_state,
    find_moid,
    gauss_rates,
    impact_parameter,
    integrate_gauss,
    kepler_propagate,
    linear_proximal_position,
    state_to_elements,
)
from .sublimation import (  # noqa: F401
    AsteroidModel,
    apophis_model,
    exhaust_velocity,
    mass_flow_rate,
)
from .plume import SpotGeometry, degradation_factor, plume_density  # noqa: F401
from .sizing import MassBudget, SpacecraftDesign, design_from_option, mass_budget  # noqa: F401
from .formation import NaturalOrbit, ShapedOrbit  # noqa: F401
from .deflection import (  # noqa: F401
    DeflectionOutcome,
    DeflectionScenario,
    simulate_deflection,
    simulate_deflections,
)
from .moo import ParetoArchive, ProblemSpec, dominates, optimize  # noqa: F401
from .scenario import Scenario, ScenarioError, load_scenario  # noqa: F401
