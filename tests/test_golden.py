"""Golden outputs of the formation objectives.

Shaped orbits: J1, J2, J3, C1 and C2 of six fixed shapes, recorded from the
per-sample control inversion (one scalar call per time sample) that the
time-grid version replaced. Together the shapes take every branch of the
inversion: plume on the optics, occluded or averted optics, samples outside
the expansion cone, samples inside the body and its bounding sphere, and no
flow. A seventh, recorded with every force and frame term switched off,
pins the shape's own acceleration from ``shaped_orbit_eval``.

J2, C1 and C2 come from the shape alone and must match exactly. J1 and J3
integrate the control over the grid; numpy's arctan2, arccos and power may
differ from libm by an ulp, and the nearly cancelling frame terms of the
Hill-frame acceleration amplify that, so they match to 1e-11 against the
per-sample version. The same five cases pin the grid inversion itself to
the bit: a digest of its (512, 3) control, its delta-v and its peak, as
recorded on numpy 2.4.6 with AVX-512 dispatch before the inversion moved
from 3-vectors to components.

Natural orbits: J1, J2 and C of seventeen designs, recorded from the
version that evaluated every refinement sample as a one-element array and
swept the grid three times. They must match exactly: the one-sample path
keeps numpy's trigonometry and squares by products (DECISIONS.md).

Orbit core: the outputs of ``simulate_deflection``, ``integrate_gauss`` and
``simulate_tracking``, recorded while each integrator still carried its own
Gauss rates, RK4 loop and b-plane projection; the tracking ones were
re-recorded since, each time with its before and after values declared
(the comment above ``TRACKING``). They must match by ``repr``; recorded
arrays are compared through a digest of the ``repr`` of their values.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from laserfleet.constants import AU, G0, MU_SUN, TWO_PI, YEAR
from laserfleet.deflection import DeflectionScenario, simulate_deflection
from laserfleet.formation import (
    NaturalOrbit,
    ShapedControlContext,
    ShapedOrbit,
    _asteroid_polar,
    natural_orbit_objectives,
    shaped_objectives,
    shaped_orbit_control,
    shaped_orbit_eval,
    simulate_tracking,
)
from laserfleet.orbits import OrbitalElements, integrate_gauss, mean_to_true
from laserfleet.sizing import design_from_option, mass_budget
from laserfleet.sublimation import mass_flow_rate
from tests.conftest import SCENARIO_DIR

PLUME_ON = [300.0, 200.0, 400.0, 200.0, 100.0, 1500.0, 100.0, 50.0]
BEHIND = [50.0, -80.0, -900.0, 60.0, 40.0, -700.0, 70.0, -30.0]

# name: (coefficients, context changes, (J1, J2, J3, C1, C2))
GOLDEN = {
    # the plume reaches the optics on 220 of 512 samples
    "plume_on": (PLUME_ON, {}, (
        0.0010238388397684206, 1886.599043507801, 1.146706312674622e-06,
        760.5551275463989, 1723.606797749979)),
    # below and behind: the body hides the spot, or the optics face away
    "occluded_or_averted": (BEHIND, {}, (
        0.002307164615221402, 1228.2332900316542, 1.7135619125631394e-06,
        -805.660188679434, -627.8889744907202)),
    # ahead and behind the spot: every visible sample is outside the cone
    "outside_cone": ([200.0, 100.0, 1000.0, 100.0, 50.0, -1500.0, 50.0, 0.0], {}, (
        0.0010247067906347107, 1851.0299128843676, 6.675793252935269e-07,
        1223.606797749979, -1388.1966011250106)),
    # 42 of 512 samples inside the ellipsoid, 100 inside the bounding sphere
    "inside_body": ([300.0, 0.0, -150.0, 0.0, 300.0, -100.0, 0.0, 150.0], {}, (
        0.04097837805462967, 489.71808487246636, 9.210321932397143e-05,
        150.0, 200.0)),
    "no_plume": (PLUME_ON, {"mdot": 0.0}, (
        0.0013897205468171858, 1886.599043507801, 1.146706312674622e-06,
        760.5551275463989, 1723.606797749979)),
}

# name: (sha256 of the repr of the control on the objectives' 512-sample grid,
# as a list of rows; delta-v; peak |u|), for the cases of GOLDEN
INVERSION = {
    "plume_on": ("64a37d5a53dbb83dd6335d6a2d2beab7e4f26799732682f777cedfee13a97f37",
                 "20.09114511932106", "1.146706312674622e-06"),
    "occluded_or_averted": ("ee6b26cdf5f6c48b14a30edcd7da2a27019de37f78f9ada2131dc2528c36ba65",
                            "45.30339305950769", "1.7135619125631394e-06"),
    "outside_cone": ("8c37f2107db56bce42ae3a2fa0de52176fcf26a73f9ad86fb52cc5b06051a8e3",
                     "20.10818595451247", "6.675793252935269e-07"),
    "inside_body": ("0e9ee858c721735edff5bc1a1b20fba46a644a3d1082664f4ad269a7d91237db",
                    "820.6529909950964", "9.210321932397143e-05"),
    "no_plume": ("7ab782a5282d78f276c9dc482e4d00cf066f493110022e57b26038ff263dffc3",
                 "27.27596337720352", "1.146706312674622e-06"),
}

# J1 and J3 of BEHIND from the shape's acceleration alone, with no force or
# frame term to cancel
KINEMATIC = (9.54353140958375e-09, 1.281073758321268e-11)


@pytest.fixture(scope="module")
def shaped_ctx():
    """The shaped-design study's context on the nominal scenario."""
    from laserfleet.scenario import load_scenario

    scenario = load_scenario(SCENARIO_DIR / "apophis_nominal.json")
    ast = scenario.asteroid
    c_r = scenario.experiments["shaped_design"]["concentration_ratio"]
    design = design_from_option(20.0, c_r, n_spacecraft=10, option="66/45")
    r_peri = ast.elements0.a * (1.0 - ast.elements0.e)
    return ShapedControlContext(ast=ast, k_a=ast.elements0, design=design,
                                m_sc=mass_budget(design, r_peri).m_total,
                                isp=scenario.isp,
                                mdot=mass_flow_rate(design, ast, r_peri, 1.0, 10))


@pytest.mark.parametrize("name", GOLDEN)
def test_shaped_objectives_golden(shaped_ctx, name):
    coeffs, changes, (j1, j2, j3, c1, c2) = GOLDEN[name]
    res = shaped_objectives(ShapedOrbit(np.array(coeffs)), replace(shaped_ctx, **changes),
                            YEAR, 512)
    assert (res["J2"], res["C1"], res["C2"]) == (j2, c1, c2)
    assert res["J1"] == pytest.approx(j1, rel=1e-11, abs=0.0)
    assert res["J3"] == pytest.approx(j3, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("name", GOLDEN)
def test_shaped_inversion_golden(shaped_ctx, name):
    """The grid inversion of each golden shape, every row to the bit."""
    coeffs, changes, _ = GOLDEN[name]
    history = shaped_orbit_control(ShapedOrbit(np.array(coeffs)),
                                   replace(shaped_ctx, **changes), YEAR, 512)
    assert history.accel.shape == (512, 3)
    got = (hashlib.sha256(repr(history.accel.tolist()).encode()).hexdigest(),
           repr(history.delta_v), repr(history.max_accel))
    assert got == INVERSION[name]


def test_shaped_kinematic_control_golden(shaped_ctx):
    """The propellant fraction and peak of the shape's own acceleration over
    the objectives' time grid, as ``shaped_orbit_control`` integrates them."""
    k_a = shaped_ctx.k_a
    times = np.linspace(0.0, YEAR, 512)
    m0 = k_a.mean_anomaly() + k_a.mean_motion(MU_SUN) * (times - k_a.epoch)
    nu = mean_to_true(m0 % TWO_PI, k_a.e)
    _, _, nu_dot, nu_ddot, _ = _asteroid_polar(k_a, nu)
    _, _, acc = shaped_orbit_eval(ShapedOrbit(np.array(BEHIND)), nu, nu_dot, nu_ddot)
    mags = np.linalg.norm(acc, axis=1)
    delta_v = float(np.trapezoid(mags, times))
    j1 = 1.0 - math.exp(-delta_v / (shaped_ctx.isp * G0))
    assert (j1, float(np.max(mags))) == pytest.approx(KINEMATIC, rel=1e-11, abs=0.0)


SHIPPED_DK = [-1e-09, 5e-09, 0.0, 0.0, 8e-09]

# name: (dk, y_lim, n_sweep, refine, (J1, J2, C))
NATURAL_GOLDEN = {
    # every position is zero: the plume angle is 0 on the axis, so J2 is -0.0
    "zero": ([0.0] * 5, 1000.0, 720, True, (0.0, -0.0, -1000.0)),
    # out of plane only: y_t = +0 everywhere, so every angle is pi/2
    "plane_only": ([0.0, 5e-09, 0.0, 0.0, 0.0], 1000.0, 720, True,
                   (791.6692764378488, -1.5707963267948966, -1000.0)),
    "shipped": (SHIPPED_DK, 1000.0, 720, True,
                (1573.6647517772096, -0.03117922262520641, -239.81415066079785)),
    "shipped_coarse": (SHIPPED_DK, 500.0, 90, True,
                       (1573.6647517772092, -0.03117922262520943, 260.18584933920215)),
    "shipped_unrefined": (SHIPPED_DK, 500.0, 720, False,
                          (1573.6627190060622, -0.03127536188928662, 260.1882855552002)),
    # uniform draws from the optimizer's box (numpy seed 20261018)
    "random_0": ([-1.2537249231377987e-10, -2.2779286567143625e-09, -8.387003791867876e-08,
                  7.022633736739632e-08, 4.154153089547205e-08], 500.0, 720, True,
                 (5475.2213053983705, -0.044986487007787485, 2003.5951832362643)),
    "random_1": ([-2.3004615273021793e-10, 3.326293270534573e-09, -8.665984214379863e-08,
                  -1.4930233917226938e-07, 4.8153148525283553e-08], 1000.0, 720, True,
                 (33286.754123222396, 0.24474815445196732, 17254.215131289977)),
    "random_2": ([-1.3150607663569857e-10, 4.517996102354889e-09, -6.196904711370057e-08,
                  -7.618099709071089e-08, -2.9303721383781264e-09], 500.0, 720, True,
                 (23025.63109918463, 0.1925614158789575, 15397.1212455122)),
    "random_3": ([-2.1967761278972619e-10, 5.2626609043028595e-09, -5.8662241463354286e-08,
                  -1.4186745836517698e-07, 3.9093070191774077e-08], 1000.0, 720, True,
                 (28502.97619854835, 0.24233451491088207, 14822.226262168206)),
    "random_4": ([-8.643307167794521e-10, -8.619563067429843e-09, -6.85679414050474e-08,
                  -1.0713218181110311e-07, 1.4599553429049748e-08], 500.0, 720, True,
                 (27249.875405395578, 0.21093446074757263, 16644.513347886772)),
    "random_5": ([-1.5051880428091076e-10, -2.6154228473253617e-10, 6.134258771477055e-08,
                  -7.546196675048861e-08, -8.669449459530368e-09], 1000.0, 720, True,
                 (3338.4011208758025, 0.20375978751756618, 2021.506625648466)),
    "random_6": ([-2.934383587962629e-10, -8.938631307316551e-09, -1.8564904376866905e-09,
                  1.5225976809304272e-08, 2.6844914997878936e-08], 500.0, 720, True,
                 (6066.51741735938, -0.03195993661920446, 4732.186782238782)),
    "random_7": ([-3.4274908905438507e-10, 2.0896033123753053e-09, 6.551333755846725e-08,
                  3.128453311107739e-09, 3.571972590453015e-08], 1000.0, 720, True,
                 (15344.237952849477, -0.032380001682819834, 12616.70070134111)),
    "random_8": ([-8.909741450329605e-10, -8.801339193864574e-09, 7.576096531806649e-08,
                  -4.393338001891401e-08, 2.8278284240999222e-08], 500.0, 720, True,
                 (8552.323124067005, -0.016207948881008218, 7443.379695582995)),
    "random_9": ([-9.556849973531406e-10, -3.315755231388593e-09, 3.673605677091774e-08,
                  7.246466738436972e-08, 4.03539751929771e-08], 1000.0, 720, True,
                 (22543.400108126873, -0.006637887215884678, 17905.309477236642)),
    "random_10": ([-4.924231619374716e-10, 5.8197913581759994e-09, -5.529248874797161e-09,
                   1.4754018980702648e-07, 2.368478939182695e-08], 500.0, 720, True,
                  (26049.746346222873, -0.02439303456515123, 19312.467848533608)),
    "random_11": ([-1.498694573633198e-10, 8.257598825852622e-10, 5.405301980309083e-08,
                   -1.3203889655067912e-07, 2.3488279887448272e-08], 1000.0, 720, True,
                  (10171.708923249524, 0.28118654517651626, 3780.098406534944)),
}


@pytest.fixture(scope="module")
def apophis_elements():
    from laserfleet.scenario import load_scenario

    return load_scenario(SCENARIO_DIR / "apophis_nominal.json").asteroid.elements0


@pytest.mark.parametrize("name", NATURAL_GOLDEN)
def test_natural_orbit_objectives_golden(apophis_elements, name):
    dk, y_lim, n_sweep, refine, expected = NATURAL_GOLDEN[name]
    res = natural_orbit_objectives(np.array(dk), apophis_elements, y_lim,
                                   n_sweep=n_sweep, refine=refine)
    got = (res["J1"], res["J2"], res["C"])
    assert got == expected
    # == does not tell -0.0 from 0.0; the CSV does
    assert [repr(v) for v in got] == [repr(v) for v in expected]


NATURAL = NaturalOrbit(dk=np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]))   # di != 0: u_w != 0
SHAPED = ShapedOrbit(np.array([0.0, 0.0, -1000.0, 0.0, 0.0, -50.0, 0.0, 0.0]))  # u_w = 0
T_MOID = 13.0242 * YEAR

# name: (formation, warning, n_spacecraft, thrust window or None, planar orbit)
CELLS = {
    "natural_8yr": (NATURAL, 8 * YEAR, 4, None, False),
    "shaped_8yr": (SHAPED, 8 * YEAR, 4, None, False),
    "planar_sweep": (SHAPED, 9 * YEAR, 1, None, True),
    "coast": (NATURAL, 3 * YEAR, 4, 1 * YEAR, False),
    "zero_warning": (NATURAL, 0.0, 4, None, False),
}

# name: (miss distance, delta M, final (a, e, i, raan, argp, M, epoch),
#        record count, tau digest, mdot digest, asteroid-mass digest)
DEFLECTION = {
    "natural_8yr": (
        "652337.0843254962", "-4.992190667962859e-06",
        ("137989085252.9631", "0.19120004326486817", "0.05814040800403351",
         "3.568200006556833", "2.206099565694377", "4.408131182070932", "411012493.92"),
        182, "cc9ca6d10cffadda", "4a8979c9c283f79c", "ecc324f4d3be10da"),
    "shaped_8yr": (
        "4653435.0035545975", "-3.5749685082464566e-05",
        ("137989187289.33008", "0.19120053075429674", "0.0581404080424351",
         "3.5681999919962633", "2.206099661836494", "4.408100424576517", "411012493.92"),
        182, "8801c2ac9eb0c8e5", "661624499cd2c753", "9d6f5df3ff250713"),
    "planar_sweep": (
        "354442.1178370925", "-2.9833816128643775e-06",
        ("172037566586.94406", "0.30434788415094205", "0.0", "0.0",
         "3.688624508918887e-09", "1.870663934515001", "411012493.92"),
        147, "73ebd12f72339dbe", "8f942058d1bff221", "3a33897ba8921601"),
    "coast": (
        "176290.65040001657", "-1.227106984913462e-06",
        ("137989082892.02457", "0.1912000332730767", "0.05814040803528875",
         "3.568199994159342", "2.2060995805925097", "2.789722851222569", "347897293.92"),
        24, "3f2ef81524788906", "2aeed48a828e8e52", "1b3902faa491cdd0"),
    "zero_warning": (
        "0.0", "0.0",
        ("137989075933.68", "0.1912", "0.0581404080424351", "3.5681999919962633",
         "2.2060996651793365", "4.4081361742616", "411012493.92"),
        1, "c2272c0a862f11de", "c7e1e747ad32cf37", "fb08a4e6d75cae43"),
}

# final [a, e, i, raan, argp, M unwrapped] after one year of thrust u_tnh
GAUSS = {
    (1e-7, 0.0, 0.0): ("138017504862.5344", "0.19120238229308484", "0.0581404080424351",
                       "3.5681999919962633", "2.2061542008184065", "7.09126122302641"),
    (0.0, 0.0, 1e-7): ("137989075933.68", "0.1912", "0.05814719536304951",
                       "3.567888911702271", "2.2064102207718252", "7.0923918916152795"),
}


def _digest(values) -> str:
    return hashlib.sha256(repr(np.asarray(values).tolist()).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_deflection_golden(name, ast, earth):
    formation, warning, n_sc, thrust_for, planar = CELLS[name]
    t0 = T_MOID - warning
    if planar:
        # a sweep orbit: r_p = 0.8 AU, r_a = 1.5 AU, i = 0, at perihelion at t0
        ast = replace(ast, elements0=OrbitalElements(
            a=0.5 * (0.8 + 1.5) * AU, e=0.7 / 2.3, i=0.0, raan=0.0, argp=0.0,
            anomaly=0.0, anomaly_kind="mean", epoch=t0))
    design = design_from_option(10.0, 5000.0, n_spacecraft=n_sc, option="60/40")
    m_sc = mass_budget(design, ast.elements0.a * (1 - ast.elements0.e)).m_total
    out = simulate_deflection(DeflectionScenario(
        ast=ast, design=design, earth=earth, m_sc=m_sc, t_start=t0, t_moid=T_MOID,
        formation=formation,
        thrust_until=None if thrust_for is None else t0 + thrust_for))

    k = out.elements_final
    got = (repr(out.miss_distance), repr(out.delta_mean_anomaly),
           tuple(repr(v) for v in (k.a, k.e, k.i, k.raan, k.argp, k.anomaly, k.epoch)),
           len(out.tau), _digest(out.tau), _digest(out.mdot), _digest(out.asteroid_mass))
    assert got == DEFLECTION[name]


@pytest.mark.parametrize("u_tnh", sorted(GAUSS))
def test_integrate_gauss_golden(u_tnh, ast):
    hist = integrate_gauss(ast.elements0, lambda t, k: np.array(u_tnh), 0.0, YEAR, MU_SUN)
    assert tuple(repr(v) for v in hist.elements[-1].tolist()) == GAUSS[u_tnh]


# name: (plant settings, with_design, (delta_v, max_tracking_error,
# digest of the Lyapunov values, digest of the control accelerations)). The
# last case was first recorded from the version whose right-hand side built
# a state object and numpy arrays at every stage. All four were re-recorded
# when tracking moved to floats: the design model's length, the tracking
# error and V now sum their squares as (x² + z²) + y², where a 3-vector's
# dot product rounded as fma(z, z, fma(y, y, x²)) (DECISIONS.md)
TRACKING = {
    "full": ({"plant": "full"}, True, (
        "1.7463090853482508", "0.07529108146803636", "7c0bac48ce84cd28",
        "626a2f846b3d84c7")),
    "full_mdot": ({"plant": "full", "mdot": 0.3}, True, (
        "1.4128646432317686", "0.07529108146803636", "17669a737a6ba2d7",
        "24dca02dffe36918")),
    "model": ({"plant": "model", "ref_hold_steps": 8}, True, (
        "1.7679405140669002", "0.5988097835627455", "1589cab124ec73e9",
        "892156f5cb4a9943")),
    "model_no_design": ({"plant": "model", "ref_hold_steps": 8}, False, (
        "1.6091888322030787", "0.5988097835627455", "952c98383dcd2ded",
        "1fd6ae18ed36c47f")),
}


def test_tracking_golden(ast, design_20m):
    m_sc = mass_budget(design_20m, ast.elements0.a * (1 - ast.elements0.e)).m_total
    got = {}
    for name, (settings, with_design, _) in TRACKING.items():
        result = simulate_tracking(np.array([-1e-9, 5e-9, 0.0, 0.0, 8e-9]), ast,
                                   design_20m if with_design else None, m_sc,
                                   duration=0.05 * YEAR, step=400.0, **settings)
        got[name] = (repr(result.control.delta_v), repr(result.max_tracking_error),
                     _digest(result.lyapunov), _digest(result.control.accel))
    assert got == {name: case[2] for name, case in TRACKING.items()}
