"""Spans and counts around the public functions of each laserfleet module.

The wrappers are installed from here, never from ``src/``: each one
replaces a module attribute by a timed or counting copy. Where a module
takes a function with ``from .x import f``, the wrapper goes on the name
in the calling module (``laserfleet.deflection.solve_kepler``), since that
is the name the call looks up.

A span records calls, total time and self time (total minus the time of
the spans opened inside it). Time outside every span is not attributed;
``covered_s`` is the time inside outermost spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.covered_s = 0.0
        self._stack = []            # child time of each open span

    def span(self, name, fn):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.covered_s += dt
        return wrapper

    def count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def patch(owner, attr, wrap):
        """Replace ``owner.attr`` by ``wrap(original)``; raises if it is gone."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, staticmethod(wrap(getattr(owner, attr))))
        else:
            setattr(owner, attr, wrap(original))


class Operations:
    """Design points attempted and failed: one optimizer evaluation each.

    A point fails when its evaluation raises or returns a non-finite
    objective or violation. Grid cells are counted from the result table.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.evaluations = 0
        self.generations = 0

    def evaluate(self, fn):
        @functools.wraps(fn)
        def wrapper(x):
            self.attempted += 1
            try:
                objs, cons = fn(x)
            except Exception:
                self.failed += 1
                raise
            if not (np.all(np.isfinite(objs)) and np.all(np.isfinite(cons))):
                self.failed += 1
            return objs, cons
        return wrapper


def install(lf, ops: Operations, traced: bool) -> Tracer:
    """Wrap the study path of the imported ``laserfleet`` package ``lf``.

    The operation count is always installed; the spans only when traced.
    """
    ex = lf.experiments
    t = Tracer()

    def wrap_optimize(optimize):
        timed = t.span("moo.optimize", optimize) if traced else optimize

        @functools.wraps(optimize)
        def wrapper(problem, *args, **kwargs):
            evaluate = t.span("moo.evaluate", problem.evaluate) if traced else problem.evaluate
            result = timed(replace(problem, evaluate=ops.evaluate(evaluate)), *args, **kwargs)
            ops.evaluations += result.n_evaluations
            ops.generations += result.generations
            return result
        return wrapper

    t.patch(ex, "optimize", wrap_optimize)
    if not traced:
        return t
    span = lambda name: lambda fn: t.span(name, fn)  # noqa: E731
    count = lambda name: lambda fn: t.count(name, fn)  # noqa: E731

    t.patch(ex, "resolve_encounter_epoch", span("experiments.encounter_epoch"))
    t.patch(ex, "simulate_deflection", span("deflection.simulate"))
    # rates() looks up the flow table once per call
    t.patch(lf.deflection.MdotTable, "__call__", count("deflection.rates"))
    t.patch(lf.deflection.MdotTable, "build", span("sublimation.table_build"))
    for mod in (lf.deflection, lf.sublimation):
        t.patch(mod, "mass_flow_from_power", span("sublimation.mass_flow"))
    for mod in (lf.deflection, lf.orbits):
        t.patch(mod, "solve_kepler", span("orbits.solve_kepler"))
    for mod in (ex, lf.deflection, lf.orbits):
        t.patch(mod, "kepler_propagate", count("orbits.propagate"))
    t.patch(ex, "shaped_objectives", span("formation.shaped_objectives"))
    t.patch(lf.formation, "shaped_control_accel", span("formation.control_accel"))
    t.patch(ex, "natural_orbit_objectives", span("formation.natural_objectives"))
    for name in ("line_of_sight_occluded", "plume_density", "plume_force", "spot_position",
                 "spot_to_spacecraft", "srp_force", "steering_geometry",
                 "view_factor_angle"):
        t.patch(lf.formation, name, span("plume"))
    t.patch(lf.moo, "dominates", count("moo.dominates"))

    def wrap_add(add):
        @functools.wraps(add)
        def wrapper(archive, member):
            accepted = add(archive, member)
            t.calls["moo.archive_add"] += 1
            t.calls["moo.archive_accept"] += int(bool(accepted))
            return accepted
        return wrapper

    t.patch(lf.moo.ParetoArchive, "add", wrap_add)
    t.patch(lf.results.ResultTable, "write", span("results.write"))
    return t


def layer_metrics(t: Tracer, ops: Operations, wall_s: float) -> dict:
    """Per-layer figures of one traced round, named ``<module>.<metric>``."""
    c, s, own = t.calls, t.total, t.self_time
    bookkeeping = s["moo.optimize"] - s["moo.evaluate"]
    objective_calls = c["formation.natural_objectives"] + c["formation.shaped_objectives"]
    return {
        "experiments.encounter_epoch_calls": c["experiments.encounter_epoch"],
        "experiments.encounter_epoch_s": s["experiments.encounter_epoch"],
        "deflection.simulate_calls": c["deflection.simulate"],
        "deflection.simulate_s": s["deflection.simulate"],
        "deflection.simulate_self_s": own["deflection.simulate"],
        "deflection.rates_calls": c["deflection.rates"],
        "sublimation.table_builds": c["sublimation.table_build"],
        "sublimation.table_build_s": s["sublimation.table_build"],
        "sublimation.mass_flow_calls": c["sublimation.mass_flow"],
        "sublimation.mass_flow_s": s["sublimation.mass_flow"],
        "orbits.solve_kepler_calls": c["orbits.solve_kepler"],
        "orbits.solve_kepler_s": s["orbits.solve_kepler"],
        "orbits.propagate_calls": c["orbits.propagate"],
        "formation.shaped_objectives_calls": c["formation.shaped_objectives"],
        "formation.shaped_objectives_s": s["formation.shaped_objectives"],
        "formation.control_accel_calls": c["formation.control_accel"],
        "formation.control_accel_s": s["formation.control_accel"],
        "formation.natural_objectives_calls": c["formation.natural_objectives"],
        "formation.natural_objectives_s": s["formation.natural_objectives"],
        "plume.calls": c["plume"],
        "plume.s": s["plume"],
        "moo.evaluations": ops.evaluations,
        "moo.generations": ops.generations,
        "moo.bookkeeping_s": bookkeeping,
        "moo.bookkeeping_per_eval_ms": (1e3 * bookkeeping / ops.evaluations
                                        if ops.evaluations else 0.0),
        "moo.dominates_calls": c["moo.dominates"],
        "moo.archive_accept_ratio": (c["moo.archive_accept"] / c["moo.archive_add"]
                                     if c["moo.archive_add"] else 0.0),
        "moo.reevaluations": (objective_calls - ops.evaluations) if ops.evaluations else 0,
        "results.write_s": s["results.write"],
        "trace.span_coverage": t.covered_s / wall_s if wall_s > 0.0 else 0.0,
    }


# Figures that depend on the work alone; two traced rounds must agree on them
DETERMINISTIC = ("experiments.encounter_epoch_calls", "deflection.simulate_calls",
          "deflection.rates_calls", "sublimation.table_builds",
          "sublimation.mass_flow_calls", "orbits.solve_kepler_calls",
          "orbits.propagate_calls", "formation.shaped_objectives_calls",
          "formation.control_accel_calls", "formation.natural_objectives_calls",
          "plume.calls", "moo.evaluations", "moo.generations", "moo.dominates_calls",
          "moo.archive_accept_ratio", "moo.reevaluations")

