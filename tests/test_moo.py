import hashlib
import math

import numpy as np
import pytest

from laserfleet.moo import (
    ArchiveMember,
    ParetoArchive,
    ProblemSpec,
    _rank_population,
    crowding_distance,
    dominates,
    hypervolume_2d,
    optimize,
)
from laserfleet.orbits import NonFiniteStateError


def biobjective_problem():
    def evaluate(x):
        return np.array([x[0] ** 2, (x[0] - 2.0) ** 2]), np.zeros(0)

    return ProblemSpec(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------

def test_dominates_truth_table():
    assert dominates([1.0, 1.0], [2.0, 2.0])
    assert not dominates([1.0, 2.0], [2.0, 1.0])
    assert not dominates([2.0, 1.0], [1.0, 2.0])
    assert not dominates([1.0, 1.0], [1.0, 1.0])
    assert dominates([1.0, 1.0], [1.0, 2.0])
    assert dominates([1.0], [2.0])  # single objective works too


def test_dominates_arity_mismatch():
    with pytest.raises(ValueError):
        dominates([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Archive mechanics
# ---------------------------------------------------------------------------

def member(x, objs, viol=()):
    return ArchiveMember(x=np.atleast_1d(np.asarray(x, dtype=float)),
                         objectives=np.asarray(objs, dtype=float),
                         constraints=np.asarray(viol if len(viol) else [0.0]) * 1.0
                         if len(viol) else np.zeros(0))


def test_archive_rejects_dominated():
    arc = ParetoArchive(capacity=10)
    assert arc.add(member(0.0, [1.0, 2.0]))
    assert not arc.add(member(0.1, [2.0, 3.0]))
    assert arc.add(member(0.2, [0.5, 2.5]))
    assert len(arc) == 2
    arc.validate()


def test_archive_feasibility_first():
    arc = ParetoArchive(capacity=10)
    bad = ArchiveMember(x=np.array([0.0]), objectives=np.array([0.0, 0.0]),
                        constraints=np.array([3.0]))
    worse = ArchiveMember(x=np.array([1.0]), objectives=np.array([0.0, 0.0]),
                          constraints=np.array([5.0]))
    arc.add(bad)
    arc.add(worse)
    assert not arc.feasible_found
    assert len(arc) == 2 and arc.members[0].violation == 3.0

    good = member(2.0, [9.0, 9.0])
    arc.add(good)
    assert arc.feasible_found
    assert len(arc) == 1 and arc.members[0].violation == 0.0
    # infeasible candidates no longer enter
    assert not arc.add(bad)


def test_archive_add_reports_whether_the_member_is_kept():
    """``add`` is True only for a member the archive still holds after it:
    an infeasible one past capacity, or a feasible one that the crowding
    cut drops at once, was offered but not kept."""
    arc = ParetoArchive(capacity=2)
    offered = [ArchiveMember(x=np.array([v]), objectives=np.array([0.0, 0.0]),
                             constraints=np.array([v])) for v in (1.0, 2.0, 3.0)]
    assert [arc.add(m) for m in offered] == [True, True, False]
    assert [m.violation for m in arc.members] == [1.0, 2.0]

    arc = ParetoArchive(capacity=3)
    for j, objs in enumerate([(0.0, 10.0), (10.0, 0.0), (5.0, 5.0)]):
        assert arc.add(member(float(j), objs))
    crowded = member(3.0, [5.1, 4.9])  # the smallest neighbour rectangle
    assert not arc.add(crowded)
    assert all(m is not crowded for m in arc.members) and len(arc) == 3


def test_archive_prune_keeps_extremes():
    arc = ParetoArchive(capacity=3)
    pts = [(0.0, 10.0), (10.0, 0.0), (5.0, 5.0), (4.0, 5.5), (5.5, 4.0)]
    for j, (f1, f2) in enumerate(pts):
        arc.add(member(float(j), [f1, f2]))
    assert len(arc) == 3
    objs = arc.objective_array()
    assert [0.0, 10.0] in objs.tolist()
    assert [10.0, 0.0] in objs.tolist()


def test_crowding_distance_boundaries():
    objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    d = crowding_distance(objs)
    assert math.isinf(d[0]) and math.isinf(d[3])
    assert d[1] > 0.0 and not math.isinf(d[1])


def test_hypervolume_2d():
    assert hypervolume_2d(np.array([[1.0, 1.0]]), (2.0, 2.0)) == 1.0
    hv = hypervolume_2d(np.array([[0.0, 1.0], [1.0, 0.0]]), (2.0, 2.0))
    assert math.isclose(hv, 4.0 - 1.0, rel_tol=1e-12)
    # dominated and out-of-reference points contribute nothing
    hv2 = hypervolume_2d(np.array([[0.0, 1.0], [1.0, 0.0], [1.5, 1.5],
                                   [3.0, 0.0]]), (2.0, 2.0))
    assert math.isclose(hv2, 3.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_budget_must_cover_population():
    with pytest.raises(ValueError):
        optimize(biobjective_problem(), budget=10, seed=1, population=32)


def test_benchmark_front_shape_and_invariants():
    def on_generation(gen, archive, evals):
        archive.validate()  # no dominated pair, every generation

    result = optimize(biobjective_problem(), budget=6000, seed=7, population=48,
                      on_generation=on_generation)
    xs = np.array([m.x[0] for m in result.archive.members])
    assert np.all(xs > -0.05) and np.all(xs < 2.05)
    objs = result.archive.objective_array()
    # front shape: f2 = (sqrt(f1) - 2)^2; a member at -eps sits 8*eps off
    # the curve without being dominated by anything in the archive
    for f1, f2 in objs:
        assert abs(f2 - (math.sqrt(f1) - 2.0) ** 2) < 1e-2


def test_single_feasible_point_problem():
    def evaluate(x):
        return np.array([1.0, 2.0]), np.array([0.0])

    problem = ProblemSpec(lower=np.array([0.0]), upper=np.array([1.0]), evaluate=evaluate)
    result = optimize(problem, budget=200, seed=3, population=16)
    assert len(result.archive) == 1
    assert np.allclose(result.archive.members[0].objectives, [1.0, 2.0])


def test_constraint_boundary_convergence():
    def evaluate(x):
        return np.array([x[0]]), np.array([max(0.0, 1.0 - x[0])])

    problem = ProblemSpec(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)
    result = optimize(problem, budget=4000, seed=5, population=32)
    best = result.archive.members[0]
    assert best.feasible
    assert abs(best.x[0] - 1.0) <= 1e-3


def test_integrality_mask_respected():
    def evaluate(x):
        return np.array([x[0] ** 2 + (x[1] - 3.3) ** 2]), np.zeros(0)

    problem = ProblemSpec(lower=np.array([1.0, 0.0]), upper=np.array([10.0, 5.0]),
                          integer_mask=np.array([True, False]), evaluate=evaluate)
    result = optimize(problem, budget=600, seed=9, population=16)
    for m in result.archive.members:
        assert m.x[0] == round(m.x[0])
        assert 1.0 <= m.x[0] <= 10.0


def test_same_seed_bit_identical():
    r1 = optimize(biobjective_problem(), budget=1500, seed=42, population=24)
    r2 = optimize(biobjective_problem(), budget=1500, seed=42, population=24)
    assert len(r1.archive) == len(r2.archive)
    for m1, m2 in zip(r1.archive.members, r2.archive.members):
        assert np.array_equal(m1.x, m2.x)
        assert np.array_equal(m1.objectives, m2.objectives)
    r3 = optimize(biobjective_problem(), budget=1500, seed=43, population=24)
    assert any(not np.array_equal(m1.x, m3.x)
               for m1, m3 in zip(r1.archive.members, r3.archive.members))


def test_no_feasible_point_flagged():
    def evaluate(x):
        return np.array([x[0]]), np.array([1.0 + abs(x[0])])

    problem = ProblemSpec(lower=np.array([-1.0]), upper=np.array([1.0]), evaluate=evaluate)
    result = optimize(problem, budget=100, seed=2, population=16)
    assert not result.archive.feasible_found
    assert len(result.archive) > 0
    viols = [m.violation for m in result.archive.members]
    assert viols == sorted(viols)


@pytest.mark.parametrize("where, bad", [("objective", math.nan), ("violation", math.inf)])
def test_non_finite_evaluation_stops_the_run(where, bad):
    """An objective or violation that is not finite stops the run at its
    evaluation, naming its number and x. A NaN member is dominated by no
    one: without the check, the NaN run ended with 117 of its 128 members
    carrying NaN."""
    seen = []

    def evaluate(x):
        seen.append(x.tolist())
        f2 = (x[0] - 2.0) ** 2
        if where == "objective":
            return np.array([x[0] ** 2, bad if x[0] > 0.5 else f2]), np.zeros(1)
        return np.array([x[0] ** 2, f2]), np.array([bad if x[0] > 0.5 else 0.0])

    problem = ProblemSpec(lower=np.array([-5.0]), upper=np.array([5.0]), evaluate=evaluate)
    with pytest.raises(NonFiniteStateError) as info:
        optimize(problem, budget=200, seed=0, population=8)
    assert seen[-1][0] > 0.5 and all(x[0] <= 0.5 for x in seen[:-1])
    assert str(info.value).startswith(f"optimizer evaluation {len(seen)} at x = {seen[-1]} "
                                      "gave objectives ("), str(info.value)
    assert repr(bad) in str(info.value)


# ---------------------------------------------------------------------------
# Array bookkeeping against the pairwise loops it replaced
# ---------------------------------------------------------------------------

def _pairwise_rank(members):
    """Front peeling with one dominates() call per ordered pair."""
    feas = [i for i, m in enumerate(members) if m.feasible]
    infeas = [i for i, m in enumerate(members) if not m.feasible]
    ordered = []
    remaining = list(feas)
    while remaining:
        objs = np.array([members[i].objectives for i in remaining])
        front = [remaining[i] for i in range(len(remaining))
                 if not any(dominates(objs[j], objs[i])
                            for j in range(len(remaining)) if j != i)]
        front_objs = np.array([members[i].objectives for i in front])
        crowd = crowding_distance(front_objs) if len(front) > 1 else np.array([np.inf])
        for j in np.argsort(-crowd, kind="stable"):
            ordered.append(front[int(j)])
        remaining = [i for i in remaining if i not in front]
    ordered.extend(sorted(infeas, key=lambda i: members[i].violation))
    return ordered


class _PairwiseArchive(ParetoArchive):
    """Acceptance with one dominates() call per member."""

    def _add_feasible(self, member):
        for m in self.members:
            if dominates(m.objectives, member.objectives) or \
                    np.array_equal(m.objectives, member.objectives):
                return False
        self.members = [m for m in self.members
                        if not dominates(member.objectives, m.objectives)] + [member]
        if len(self.members) > self.capacity:
            self._prune()
        return any(m is member for m in self.members)


def _pairwise_dominated_pair(members):
    return any(i != j and dominates(a.objectives, b.objectives)
               for i, a in enumerate(members) for j, b in enumerate(members))


def _random_members(rng, n, n_obj):
    """Objectives on a coarse integer grid, so ties and duplicates are
    common; about a third of the members are infeasible, with tied
    violations among them."""
    objs = rng.integers(0, 5, size=(n, n_obj)).astype(float)
    viol = np.where(rng.random(n) < 0.3, rng.integers(1, 4, n), 0).astype(float)
    return [ArchiveMember(x=np.array([float(k)]), objectives=objs[k],
                          constraints=np.array([viol[k]])) for k in range(n)]


def test_fast_sort_matches_pairwise_fronts():
    rng = np.random.default_rng(20261018)
    for trial in range(300):
        members = _random_members(rng, int(rng.integers(1, 70)), 1 + trial % 3)
        assert _rank_population(members) == _pairwise_rank(members)


def test_ranking_limit_gives_the_prefix_of_the_full_order():
    rng = np.random.default_rng(20261021)
    for trial in range(150):
        members = _random_members(rng, int(rng.integers(1, 70)), 1 + trial % 3)
        full = _rank_population(members)
        assert sorted(full) == list(range(len(members)))
        for limit in range(len(members) + 2):
            assert _rank_population(members, limit) == full[:limit]


def test_array_archive_matches_pairwise_decisions():
    rng = np.random.default_rng(20261019)
    for trial in range(120):
        n_obj = 1 + trial % 3
        capacity = int(rng.integers(2, 12))
        arc = ParetoArchive(capacity=capacity)
        oracle = _PairwiseArchive(capacity=capacity)
        for m in _random_members(rng, 80, n_obj):
            assert arc.add(m) == oracle.add(m)
            assert [a.x[0] for a in arc.members] == [b.x[0] for b in oracle.members]
            assert arc.feasible_found == oracle.feasible_found
            if arc.members:
                assert np.array_equal(arc.objective_array(),
                                      np.array([a.objectives for a in arc.members]))
        arc.validate()


def test_validate_matches_pairwise_check():
    rng = np.random.default_rng(20261020)
    raised = 0
    for trial in range(200):
        members = [m for m in _random_members(rng, int(rng.integers(1, 12)), 1 + trial % 3)
                   if m.feasible]
        arc = ParetoArchive(capacity=16)
        arc.members, arc.feasible_found = members, True
        if _pairwise_dominated_pair(members):
            raised += 1
            with pytest.raises(AssertionError):
                arc.validate()
        else:
            arc.validate()
    assert 0 < raised < 200


# ---------------------------------------------------------------------------
# Goldens: whole runs, to the bit
# ---------------------------------------------------------------------------

def _front_problem():
    """Two objectives on a convex front; pruned by neighbour rectangles."""
    def evaluate(x):
        g = 1.0 + 4.5 * (x[1] + x[2])
        return np.array([x[0], g * (1.0 - math.sqrt(x[0] / g))]), np.zeros(0)

    return ProblemSpec(lower=np.zeros(3), upper=np.ones(3), evaluate=evaluate)


def _sphere_problem():
    """Three objectives on an octant of a sphere; pruned by crowding."""
    def evaluate(x):
        r = 1.0 + ((x[2] - 0.5) ** 2 + (x[3] - 0.5) ** 2)
        a, b = 0.5 * math.pi * x[0], 0.5 * math.pi * x[1]
        return np.array([r * math.cos(a) * math.cos(b), r * math.cos(a) * math.sin(b),
                         r * math.sin(a)]), np.zeros(0)

    return ProblemSpec(lower=np.zeros(4), upper=np.ones(4), evaluate=evaluate)


def _constrained_problem():
    """Two constraints that no point of the first population meets, and an
    integer dimension, so feasibility-first ranking and rounding both run."""
    def evaluate(x):
        return (np.array([x[0] ** 2 + x[1], (x[0] - 3.0) ** 2 + x[2] ** 2]),
                np.array([max(0.0, 13.5 - x[0] - x[1]), max(0.0, abs(x[2] - 1.5) - 0.3)]))

    return ProblemSpec(lower=np.array([0.0, 0.0, -2.0]), upper=np.array([5.0, 10.0, 2.0]),
                       integer_mask=np.array([False, True, False]), evaluate=evaluate)


# name: (problem, optimize keywords, feasible after the first population,
#        (sha256 of the repr of every member's x and objectives in archive
#         order, archive size, evaluations, generations))
RUN_GOLDEN = {
    "front": (_front_problem, dict(budget=700, seed=11, population=24, archive_size=12),
              True, ("2d8c1c7d70d98661", 12, 700, 21)),
    "sphere": (_sphere_problem, dict(budget=600, seed=12, population=20, archive_size=12),
               True, ("1a377f5e6e5c9be4", 12, 600, 17)),
    "constrained": (_constrained_problem, dict(budget=500, seed=13, population=16,
                                               archive_size=10), False,
                    ("de5370f1f981673b", 4, 500, 19)),
}


@pytest.mark.parametrize("name", sorted(RUN_GOLDEN))
def test_run_matches_golden(name):
    """Recorded while the bookkeeping still ran on numpy arrays of one to
    five elements; the float bookkeeping must give the same run."""
    problem, kwargs, feasible_at_start, expected = RUN_GOLDEN[name]
    at_start = []

    def on_generation(gen, archive, evals):
        if gen == 0:
            at_start.append(archive.feasible_found)

    result = optimize(problem(), on_generation=on_generation, **kwargs)
    text = repr([([float(v) for v in m.x], [float(v) for v in m.objectives])
                 for m in result.archive.members])
    assert at_start == [feasible_at_start] and result.archive.feasible_found
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], len(result.archive),
            result.n_evaluations, result.generations) == expected
