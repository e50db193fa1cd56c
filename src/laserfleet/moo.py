"""Constrained multi-objective optimization with a bounded Pareto archive.

Elitist archive-based evolutionary scheme over mixed real/integer boxes:
binary tournaments, simulated-binary crossover, polynomial mutation, and a
pattern-search polish on archive members each generation. Constraints are
handled feasibility-first: any feasible point beats any infeasible one,
and infeasible points rank by total violation.

Evaluations are pure functions of the decision vector; for a fixed seed
the whole run, and therefore the final archive, is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
# at import, so that no optimizer run loads numpy.random inside its study
from numpy.random import default_rng

N_POLISH = 2  # pattern-search polishes from archive members, per generation


@dataclass(frozen=True)
class ProblemSpec:
    """Box-bounded problem with optional integer dimensions and constraints.

    ``evaluate(x)`` returns (objectives, violations); violations are
    non-negative with zero meaning satisfied.
    """

    lower: np.ndarray
    upper: np.ndarray
    n_objectives: int
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
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

    @property
    def n_vars(self) -> int:
        return self.lower.size

    def repair(self, x: np.ndarray) -> np.ndarray:
        x = np.clip(x, self.lower, self.upper)
        if self.integer_mask.any():
            x = x.copy()
            x[self.integer_mask] = np.rint(x[self.integer_mask])
            x = np.clip(x, self.lower, self.upper)
        return x


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective arity mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


@dataclass(frozen=True)
class ArchiveMember:
    x: np.ndarray
    objectives: np.ndarray
    violations: np.ndarray

    # read on every tournament, ranking and archive update
    @cached_property
    def feasible(self) -> bool:
        return bool(np.all(self.violations <= 0.0))

    @cached_property
    def violation(self) -> float:
        return float(np.sum(np.maximum(self.violations, 0.0)))


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
        new = np.asarray(member.objectives, dtype=float)
        if not self._members:
            self.members = [member]
            return True
        objs = self._objs
        if objs.shape[1:] != new.shape:
            raise ValueError(f"objective arity mismatch: {objs.shape[1:]} vs {new.shape}")
        # a member at or below the candidate everywhere dominates or equals it
        if (objs <= new).all(axis=1).any():
            return False
        # none equals it, so one at or above it everywhere is dominated
        keep = ~(new <= objs).all(axis=1)
        self._members = [m for m, k in zip(self._members, keep.tolist()) if k]
        self._members.append(member)
        self._objs = np.concatenate([objs[keep], new[None, :]])
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
            return sorted(self._members, key=lambda m: (m.violation,
                                                        tuple(m.objectives)))
        return sorted(self._members, key=lambda m: tuple(m.objectives))

    def validate(self):
        """Raise if any feasible member dominates another (invariant check)."""
        if not self.feasible_found or len(self._members) < 2:
            return
        if dominance_matrix(self._objs).any():
            raise AssertionError("archive holds a dominated pair")


def dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """(n, n) booleans: entry [i, j] is ``dominates(objs[i], objs[j])``."""
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
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() > prob:
        return c1, c2
    for k in range(p1.size):
        if rng.random() > 0.5 or p1[k] == p2[k]:
            continue
        u = rng.random()
        beta = (2.0 * u) ** (1.0 / (eta + 1.0)) if u <= 0.5 \
            else (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0))
        c1[k] = 0.5 * ((1.0 + beta) * p1[k] + (1.0 - beta) * p2[k])
        c2[k] = 0.5 * ((1.0 - beta) * p1[k] + (1.0 + beta) * p2[k])
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def _poly_mutation(x, lower, upper, rng, eta=20.0):
    y = x.copy()
    prob = 1.0 / x.size
    for k in range(x.size):
        if rng.random() > prob:
            continue
        span = upper[k] - lower[k]
        if span <= 0.0:
            continue
        u = rng.random()
        delta = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0 if u < 0.5 \
            else 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
        y[k] = x[k] + delta * span
    return np.clip(y, lower, upper)


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


def _rank_population(members: list[ArchiveMember]) -> list[int]:
    """Indices sorted best-first: feasible non-dominated fronts, then violation.

    The fronts come from the fast non-dominated sort of Deb et al. (NSGA-II,
    IEEE TEC 2002): a member joins the next front once every member that
    dominates it has been placed. A front lists its members in input order,
    then orders them by falling crowding distance, ties kept in that order.
    """
    feasible = [m.feasible for m in members]
    feas = np.array([i for i, f in enumerate(feasible) if f], dtype=int)
    infeas = [i for i, f in enumerate(feasible) if not f]

    ordered: list[int] = []
    if feas.size:
        objs = np.array([members[i].objectives for i in feas])
        dom = dominance_matrix(objs)
        n_over = dom.sum(axis=0)      # members that dominate each one and are unplaced
        unplaced = np.ones(feas.size, dtype=bool)
        while unplaced.any():
            front = np.flatnonzero(unplaced & (n_over == 0))
            unplaced[front] = False
            n_over -= dom[front].sum(axis=0)
            crowd = crowding_distance(objs[front]) if front.size > 1 else np.array([np.inf])
            ordered.extend(feas[front[np.argsort(-crowd, kind="stable")]].tolist())
    ordered.extend(sorted(infeas, key=lambda i: members[i].violation))
    return ordered


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
    ``on_generation(gen, archive, n_evals)`` is called after every archive
    update round, e.g. to assert archive invariants generation by
    generation.
    """
    if budget < population:
        raise ValueError("budget must cover at least one population")
    rng = default_rng(seed)
    archive = ParetoArchive(capacity=archive_size, reference_point=reference_point)
    evals = 0

    def make_member(x: np.ndarray) -> ArchiveMember:
        nonlocal evals
        objs, cons = problem.evaluate(x)
        evals += 1
        return ArchiveMember(x=x.copy(),
                             objectives=np.atleast_1d(np.asarray(objs, dtype=float)),
                             violations=np.atleast_1d(np.asarray(cons, dtype=float)))

    span = problem.upper - problem.lower
    pop = []
    for _ in range(population):
        x = problem.repair(problem.lower + rng.random(problem.n_vars) * span)
        m = make_member(x)
        pop.append(m)
        archive.add(m)

    gen = 0
    if on_generation is not None:
        on_generation(gen, archive, evals)

    def tournament() -> ArchiveMember:
        i, j = rng.integers(0, len(pop), size=2)
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
            c1, c2 = _sbx_crossover(p1.x, p2.x, problem.lower, problem.upper, rng)
            for c in (c1, c2):
                if evals >= budget or len(children) >= population:
                    break
                c = problem.repair(_poly_mutation(c, problem.lower, problem.upper, rng))
                m = make_member(c)
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
                        trial = incumbent.x.copy()
                        delta = step * span[k]
                        if problem.integer_mask[k]:
                            delta = max(1.0, round(delta))
                        trial[k] += direction * delta
                        trial = problem.repair(trial)
                        if np.array_equal(trial, incumbent.x):
                            continue
                        m = make_member(trial)
                        archive.add(m)
                        children.append(m)
                        if _better(m, incumbent) < 0:
                            incumbent = m

        merged = pop + children
        order = _rank_population(merged)
        pop = [merged[i] for i in order[:population]]

        if on_generation is not None:
            on_generation(gen, archive, evals)

    archive.members = archive.sorted_members()
    return OptimizeResult(archive=archive, n_evaluations=evals, generations=gen)
