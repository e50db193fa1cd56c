"""Constrained multi-objective optimization with a bounded Pareto archive.

Elitist archive-based evolutionary scheme over mixed real/integer boxes:
binary tournaments, simulated-binary crossover, polynomial mutation, and a
pattern-search polish on archive members each generation. Constraints are
handled feasibility-first: any feasible point beats any infeasible one,
and infeasible points rank by total violation.

Evaluations are pure functions of the decision vector; for a fixed seed
the whole run, and therefore the final archive, is bit-reproducible.

The work of one evaluation runs on Python floats: a decision vector is a
list until it is scored, and a member's objectives and violations are
tuples. numpy calls cost microseconds on vectors of one to eight
elements, so they are kept for the matrices: the archive's (n, m)
objectives and the population's dominance matrix. Float arithmetic gives
the bits that numpy scalars gave, so a run is the one the array version
made (DECISIONS.md, "Optimizer bookkeeping on floats").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# at import, so that no optimizer run loads numpy.random inside its study
from numpy.random import default_rng

from .orbits import NonFiniteStateError

N_POLISH = 2  # pattern-search polishes from archive members, per generation


@dataclass(frozen=True)
class ProblemSpec:
    """Box-bounded problem with optional integer dimensions and constraints.

    ``evaluate(x)`` takes ``x`` as a float array and returns (objectives,
    violations), two sequences of floats; violations are non-negative with
    zero meaning satisfied.
    """

    lower: np.ndarray
    upper: np.ndarray
    n_objectives: int
    evaluate: Callable[[np.ndarray], tuple[Sequence[float], Sequence[float]]]
    integer_mask: np.ndarray | None = None
    n_constraints: int = 0

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("lower bounds must not exceed upper bounds")
        if self.n_objectives < 1:
            raise ValueError("need at least one objective")
        mask = (np.zeros(lo.size, dtype=bool) if self.integer_mask is None
                else np.asarray(self.integer_mask, dtype=bool))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "integer_mask", mask)
        # the bounds as floats and the integer dimensions, for the operators
        object.__setattr__(self, "bounds", (lo.tolist(), hi.tolist()))
        object.__setattr__(self, "integer_dims", tuple(np.flatnonzero(mask).tolist()))

    @property
    def n_vars(self) -> int:
        return self.lower.size

    def repair(self, x: Sequence[float]) -> list[float]:
        """``x`` clipped into the box, integer dimensions rounded half to even."""
        lower, upper = self.bounds
        x = _clip(x, lower, upper)
        if self.integer_dims:
            for k in self.integer_dims:
                x[k] = round(x[k], 0)  # np.rint's value, the sign of a zero included
            x = _clip(x, lower, upper)
        return x


def _clip(x: Sequence[float], lower: list[float], upper: list[float]) -> list[float]:
    """np.clip on floats: a value at or past a bound gives the bound."""
    return [v if lo < v < hi else (lo if v <= lo else hi) for v, lo, hi in zip(x, lower, upper)]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    if len(a) != len(b):
        raise ValueError(f"objective arity mismatch: {len(a)} vs {len(b)}")
    strict = False
    for u, v in zip(a, b):
        if not u <= v:
            return False
        strict = strict or u < v
    return strict


class ArchiveMember:
    """A scored design: ``x``, and its objectives and violations as tuples
    of floats.

    ``feasible`` and ``violation``, read on every tournament, ranking and
    archive update, are formed once, here. ``violation`` is the sum of the
    positive violations as np.sum forms it: from eight terms on, its
    pairwise order is not a left-to-right sum's. A feasible member's is 0.0.
    """

    __slots__ = ("x", "objectives", "violations", "feasible", "violation")

    def __init__(self, x: np.ndarray, objectives: Sequence[float],
                 violations: Sequence[float]):
        self.x = x
        self.objectives = tuple(map(float, objectives))
        self.violations = tuple(map(float, violations))
        self.feasible = all(v <= 0.0 for v in self.violations)
        self.violation = 0.0 if self.feasible else \
            float(np.sum(np.maximum(self.violations, 0.0)))


class ParetoArchive:
    """Bounded non-dominated set with feasibility-first acceptance.

    While no feasible point has been seen the archive holds the
    least-violating candidates (flagged via ``feasible_found``); the first
    feasible arrival flushes them.

    With a ``reference_point`` set (bi-objective only), capacity pruning
    drops the member with the smallest exclusive hypervolume against that
    fixed reference; the dominated hypervolume is then non-decreasing
    across updates. Without one, pruning falls back to crowding with
    immortal extremes.
    """

    def __init__(self, capacity: int = 128,
                 reference_point: tuple[float, float] | None = None):
        if capacity < 2:
            raise ValueError("archive capacity must be at least 2")
        self.capacity = capacity
        self.reference_point = reference_point
        self.members = []
        self.feasible_found = False

    @property
    def members(self) -> list[ArchiveMember]:
        return self._members

    @members.setter
    def members(self, members: list[ArchiveMember]):
        # the objectives ride along as an (n, m) array, row k for member k
        self._members = list(members)
        self._objs = np.array([m.objectives for m in self._members])

    def __len__(self) -> int:
        return len(self._members)

    def add(self, member: ArchiveMember) -> bool:
        if member.feasible:
            if not self.feasible_found:
                self.members = []
                self.feasible_found = True
            return self._add_feasible(member)
        if self.feasible_found:
            return False
        self.members = sorted(self._members + [member],
                              key=lambda m: m.violation)[:self.capacity]
        return True

    def _add_feasible(self, member: ArchiveMember) -> bool:
        if not self._members:
            self.members = [member]
            return True
        objs, new = self._objs, member.objectives
        if objs.shape[1] != len(new):
            raise ValueError(f"objective arity mismatch: {objs.shape[1]} vs {len(new)}")
        # a member at or below the candidate everywhere dominates or equals it
        if (objs <= new).all(axis=1).any():
            return False
        # none equals it, so one at or above it everywhere is dominated
        keep = ~(objs >= new).all(axis=1)
        self._members = [m for m, k in zip(self._members, keep.tolist()) if k]
        self._members.append(member)
        self._objs = np.concatenate([objs[keep], [new]])
        if len(self._members) > self.capacity:
            self._prune()
        return True

    def _prune(self):
        objs = self._objs
        if objs.shape[1] == 2 and self.reference_point is not None:
            drop = int(np.argmin(self._exclusive_hv(objs)))
        elif objs.shape[1] == 2:
            # no fixed reference: neighbour-rectangle crowding, extremes kept
            order = np.lexsort((objs[:, 1], objs[:, 0]))
            f = objs[order]
            contrib = np.full(len(order), np.inf)
            contrib[1:-1] = (f[2:, 0] - f[1:-1, 0]) * (f[:-2, 1] - f[1:-1, 1])
            drop = int(order[int(np.argmin(contrib))])
        else:
            crowd = crowding_distance(objs)
            drop = int(np.argmin(crowd))
        del self._members[drop]
        self._objs = np.delete(objs, drop, axis=0)

    def _exclusive_hv(self, objs: np.ndarray) -> np.ndarray:
        """Exclusive hypervolume of each member against the fixed reference.

        Members outside the reference box (or duplicated) contribute zero
        and are pruned first; dropping the minimal contributor can never
        reduce the archive hypervolume below its pre-insertion value.
        """
        r1, r2 = self.reference_point
        n = len(objs)
        contrib = np.zeros(n)
        inside = (objs[:, 0] < r1) & (objs[:, 1] < r2)
        idx = np.where(inside)[0]
        if idx.size == 0:
            return contrib
        pts = objs[idx]
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        f = pts[order]
        right_f1 = np.append(f[1:, 0], r1)
        upper_f2 = np.concatenate([[r2], f[:-1, 1]])
        contrib[idx[order]] = (right_f1 - f[:, 0]) * np.maximum(upper_f2 - f[:, 1], 0.0)
        return contrib

    def objective_array(self) -> np.ndarray:
        return self._objs.copy()

    def sorted_members(self) -> list[ArchiveMember]:
        if not self.feasible_found:
            return sorted(self._members, key=lambda m: (m.violation, m.objectives))
        return sorted(self._members, key=lambda m: m.objectives)

    def validate(self):
        """Raise if any feasible member dominates another (invariant check)."""
        if not self.feasible_found or len(self._members) < 2:
            return
        if dominance_matrix(self._objs).any():
            raise AssertionError("archive holds a dominated pair")


def dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """(n, n) booleans: entry [i, j] is ``dominates(objs[i], objs[j])``."""
    # column-major, so that the reductions run over n, not over m
    objs = np.asfortranarray(objs)
    a, b = objs[:, None, :], objs[None, :, :]
    return (a <= b).all(axis=2) & (a < b).any(axis=2)


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-style crowding distance; boundary points get infinity."""
    n, m = objs.shape
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(objs[:, k], kind="stable")
        span = objs[order[-1], k] - objs[order[0], k]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span <= 0.0 or n < 3:
            continue
        dist[order[1:-1]] += (objs[order[2:], k] - objs[order[:-2], k]) / span
    return dist


def hypervolume_2d(objs: np.ndarray, ref: tuple[float, float]) -> float:
    """Dominated hypervolume of a bi-objective set against a reference point."""
    pts = np.asarray(objs, dtype=float)
    pts = pts[(pts[:, 0] < ref[0]) & (pts[:, 1] < ref[1])]
    if pts.size == 0:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    hv = 0.0
    prev_f2 = ref[1]
    prev_f1 = None
    for f1, f2 in pts:
        if f2 >= prev_f2:
            continue  # dominated in this scan
        if prev_f1 is not None and f1 == prev_f1:
            continue
        hv += (ref[0] - f1) * (prev_f2 - f2)
        prev_f2 = f2
        prev_f1 = f1
    return hv


# ---------------------------------------------------------------------------
# Evolutionary operators
# ---------------------------------------------------------------------------

def _sbx_crossover(p1, p2, lower, upper, rng, eta=15.0, prob=0.9):
    c1, c2 = list(p1), list(p2)
    if rng.random() > prob:
        return c1, c2
    for k, (a, b) in enumerate(zip(p1, p2)):
        if rng.random() > 0.5 or a == b:
            continue
        u = rng.random()
        beta = (2.0 * u) ** (1.0 / (eta + 1.0)) if u <= 0.5 \
            else (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0))
        c1[k] = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
        c2[k] = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    return _clip(c1, lower, upper), _clip(c2, lower, upper)


def _poly_mutation(x, lower, upper, rng, eta=20.0):
    y = list(x)
    prob = 1.0 / len(x)
    for k, (lo, hi) in enumerate(zip(lower, upper)):
        if rng.random() > prob:
            continue
        span = hi - lo
        if span <= 0.0:
            continue
        u = rng.random()
        delta = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0 if u < 0.5 \
            else 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
        y[k] = x[k] + delta * span
    return _clip(y, lower, upper)


def _better(a: ArchiveMember, b: ArchiveMember) -> int:
    """-1 if a wins, +1 if b wins, 0 tie (feasibility-first comparison)."""
    if a.feasible and not b.feasible:
        return -1
    if b.feasible and not a.feasible:
        return 1
    if not a.feasible and not b.feasible:
        if a.violation < b.violation:
            return -1
        if b.violation < a.violation:
            return 1
        return 0
    if dominates(a.objectives, b.objectives):
        return -1
    if dominates(b.objectives, a.objectives):
        return 1
    return 0


def _rank_population(members: list[ArchiveMember], limit: int | None = None) -> list[int]:
    """Indices sorted best-first: feasible non-dominated fronts, then violation.

    The fronts come from the fast non-dominated sort of Deb et al. (NSGA-II,
    IEEE TEC 2002): a member joins the next front once every member that
    dominates it has been placed. A front lists its members in input order,
    then orders them by falling crowding distance, ties kept in that order.
    With a ``limit``, the sort stops once that many members are placed and
    returns the first ``limit`` of the full order.
    """
    limit = len(members) if limit is None else limit
    feas = [i for i, m in enumerate(members) if m.feasible]

    ordered: list[int] = []
    if feas:
        objs = np.array([members[i].objectives for i in feas])
        dom = dominance_matrix(objs)
        n_over = dom.sum(axis=0)      # members that dominate each one and are unplaced
        unplaced = np.ones(len(feas), dtype=bool)
        feas = np.array(feas)
        while len(ordered) < limit and unplaced.any():
            front = np.flatnonzero(unplaced & (n_over == 0))
            unplaced[front] = False
            n_over -= dom[front].sum(axis=0)
            crowd = crowding_distance(objs[front]) if front.size > 1 else np.array([np.inf])
            ordered.extend(feas[front[np.argsort(-crowd, kind="stable")]].tolist())
    if len(ordered) < limit:
        ordered.extend(sorted((i for i, m in enumerate(members) if not m.feasible),
                              key=lambda i: members[i].violation))
    return ordered[:limit]


@dataclass
class OptimizeResult:
    archive: ParetoArchive
    n_evaluations: int
    generations: int


def optimize(problem: ProblemSpec, budget: int, seed: int,
             population: int = 64, archive_size: int = 128,
             on_generation=None,
             reference_point: tuple[float, float] | None = None) -> OptimizeResult:
    """Run the archive-based evolutionary search.

    Deterministic for a fixed (problem, budget, seed, population) tuple.
    An evaluation with an objective or a violation that is not finite
    raises ``orbits.NonFiniteStateError`` naming its number and ``x``.
    ``on_generation(gen, archive, n_evals)`` is called after every archive
    update round, e.g. to assert archive invariants generation by
    generation.
    """
    if budget < population:
        raise ValueError("budget must cover at least one population")
    rng = default_rng(seed)
    archive = ParetoArchive(capacity=archive_size, reference_point=reference_point)
    evaluate = problem.evaluate
    lower, upper = problem.bounds
    evals = 0

    def make_member(x: list[float]) -> ArchiveMember:
        nonlocal evals
        x = np.array(x)
        objs, cons = evaluate(x)
        evals += 1
        m = ArchiveMember(x, objs, cons)
        if not all(map(math.isfinite, m.objectives + m.violations)):
            raise NonFiniteStateError(
                f"optimizer evaluation {evals} at x = {x.tolist()} gave objectives "
                f"{m.objectives} and violations {m.violations}, not all finite")
        return m

    span = [hi - lo for lo, hi in zip(lower, upper)]
    pop = []
    for _ in range(population):
        draw = rng.random(problem.n_vars).tolist()
        m = make_member(problem.repair([lo + u * w for lo, u, w in zip(lower, draw, span)]))
        pop.append(m)
        archive.add(m)

    gen = 0
    if on_generation is not None:
        on_generation(gen, archive, evals)

    def tournament() -> ArchiveMember:
        # two draws give the stream one draw of size 2 gives (DECISIONS.md)
        i, j = rng.integers(0, len(pop)), rng.integers(0, len(pop))
        cmp = _better(pop[i], pop[j])
        if cmp < 0:
            return pop[i]
        if cmp > 0:
            return pop[j]
        return pop[i] if rng.random() < 0.5 else pop[j]

    while evals < budget:
        gen += 1
        children = []
        while len(children) < population and evals < budget:
            p1, p2 = tournament(), tournament()
            c1, c2 = _sbx_crossover(p1.x.tolist(), p2.x.tolist(), lower, upper, rng)
            for c in (c1, c2):
                if evals >= budget or len(children) >= population:
                    break
                m = make_member(problem.repair(_poly_mutation(c, lower, upper, rng)))
                children.append(m)
                archive.add(m)

        # Memetic polish: short pattern search from random archive members
        if archive.members:
            step = 0.5 ** (2 + gen % 10)
            for _ in range(N_POLISH):
                if evals >= budget:
                    break
                base = archive.members[int(rng.integers(0, len(archive.members)))]
                incumbent = base
                for k in range(problem.n_vars):
                    if evals >= budget:
                        break
                    for direction in (+1.0, -1.0):
                        if evals >= budget:
                            break
                        x = incumbent.x.tolist()
                        trial = list(x)
                        delta = step * span[k]
                        if k in problem.integer_dims:
                            delta = max(1.0, round(delta))
                        trial[k] += direction * delta
                        trial = problem.repair(trial)
                        if trial == x:
                            continue
                        m = make_member(trial)
                        archive.add(m)
                        children.append(m)
                        if _better(m, incumbent) < 0:
                            incumbent = m

        merged = pop + children
        pop = [merged[i] for i in _rank_population(merged, population)]

        if on_generation is not None:
            on_generation(gen, archive, evals)

    archive.members = archive.sorted_members()
    return OptimizeResult(archive=archive, n_evaluations=evals, generations=gen)
