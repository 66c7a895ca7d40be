import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breguq.oracles import qp_project
from breguq.projections import (Box, ConstraintStack, L1Ball, L2Ball, TVBall,
                                constraint_violation, is_feasible,
                                project_intersection, total_variation,
                                tv_diff_adjoint, tv_forward_diff)

finite_vec = hnp.arrays(np.float64, 6,
                        elements=st.floats(-5, 5, allow_nan=False, width=64))
finite_grid = hnp.arrays(np.float64, (3, 4),
                         elements=st.floats(-3, 3, allow_nan=False, width=64))


def project_one(spec, x):
    """`x` projected onto the one-set stack of `spec`, in `x`'s shape."""
    return project_intersection(np.atleast_2d(x), ConstraintStack((spec,))).x.reshape(
        np.shape(x))


# --- box ---

def test_box_inside_unchanged():
    x = np.array([0.1, 0.5, -0.2])
    np.testing.assert_array_equal(project_one(Box(-1, 1), x), x)

def test_box_clamps():
    np.testing.assert_array_equal(project_one(Box(0.0, 1.0), np.array([-3.0, 0.2, 9.0])),
                                  [0.0, 0.2, 1.0])

def test_box_degenerate():
    np.testing.assert_array_equal(project_one(Box(0.5, 0.5), np.array([-3.0, 9.0])),
                                  [0.5, 0.5])

def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box(1.0, 0.0)


# --- l2 ball ---

def test_l2_inside_unchanged():
    x = np.array([0.3, 0.4])
    np.testing.assert_array_equal(project_one(L2Ball(1.0), x), x)

def test_l2_radial_scaling():
    np.testing.assert_allclose(project_one(L2Ball(1.0), np.array([3.0, 4.0])),
                               [0.6, 0.8], rtol=1e-15)

def test_l2_matches_qp_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(7)
        ref = qp_project(x, ConstraintStack((L2Ball(1.5),)))
        assert np.max(np.abs(project_one(L2Ball(1.5), x) - ref)) < 1e-8


# --- l1 ball ---

def test_l1_inside_unchanged():
    x = np.array([0.2, -0.3, 0.1])
    np.testing.assert_array_equal(project_one(L1Ball(1.0), x), x)

def test_l1_axis_point():
    np.testing.assert_allclose(project_one(L1Ball(1.0), np.array([3.0, 0.0])),
                               [1.0, 0.0], atol=1e-15)

def test_l1_symmetric_split():
    np.testing.assert_allclose(project_one(L1Ball(2.0), np.array([2.0, 2.0])),
                               [1.0, 1.0], atol=1e-15)

def test_l1_matches_qp_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(8)
        ref = qp_project(x, ConstraintStack((L1Ball(2.0),)))
        got = project_one(L1Ball(2.0), x)
        assert np.max(np.abs(got - ref)) < 1e-8
        assert np.abs(got).sum() <= 2.0 + 1e-12


def l1_ball_reference(v, radius):
    """Sort-and-threshold projection onto the l1 ball (Duchi et al., ICML 2008)."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, u.size + 1) > css - radius)[0][-1] + 1
    return np.sign(v) * np.maximum(a - (css[rho - 1] - radius) / rho, 0.0)


# few distinct values, so draws repeat magnitudes (ties) and hold zeros
tie_prone = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0]),
                      st.floats(-5, 5, allow_nan=False, width=64))


# no box (one sort, no start kinks), a symmetric box (one q), an
# asymmetric one (one q per sign, two sorted runs) and one that excludes 0
L1_SEARCH_BOXES = [None, Box(-1.0, 1.0), Box(-0.4, 1.0), Box(0.1, 0.9)]


@given(v=hnp.arrays(np.float64, st.integers(1, 32), elements=tie_prone),
       box=st.sampled_from(L1_SEARCH_BOXES), radius=st.floats(1e-3, 20.0))
@example(v=np.array([0.7]), box=None, radius=0.35)
@example(v=np.array([1.0, -1.0, 1.0, 0.0]), box=None, radius=1.5)
@example(v=np.array([2.0, -1.0, 0.0]), box=None, radius=3.0)
@example(v=np.zeros(3), box=None, radius=1e-3)
# each of these ends on a case that stalls a naive walk: a flat piece of
# the norm exactly at the radius (the result is [1, 1, 0]), a root exactly
# on a kink, a box that misses the ball (the result is [0.5, 0.5, 0.5]),
# and a single entry
@example(v=np.array([3.0, 3.0, 0.1]), box=Box(-1.0, 1.0), radius=2.0)
@example(v=np.array([3.0, -2.5, 0.5, 1.5]), box=Box(-1.0, 1.0), radius=3.0)
@example(v=np.array([5.0, -5.0, 5.0]), box=Box(0.5, 1.0), radius=1.0)
@example(v=np.array([-4.0]), box=Box(-0.4, 1.0), radius=0.25)
@settings(max_examples=200, deadline=None)
def test_l1_search_matches_sort_and_threshold(v, box, radius):
    # the one l1 search: the Newton walk over the sorted kinks, as the
    # box-l1 stack, the l1 stack and the TV dual prox (no box) run it
    if box is None:
        got, ref = project_one(L1Ball(radius), v), l1_ball_reference(v, radius)
    else:
        got = project_intersection(np.atleast_2d(v), ConstraintStack((box, L1Ball(radius)))).x
        ref = _box_l1_by_bisection(v, box.lo, box.hi, radius)
    assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(v))))


# --- tv differences ---

TV_SHAPES = [(1, 5), (5, 1), (2, 3), (3, 4), (64, 64)]


@pytest.mark.parametrize("shape", TV_SHAPES, ids=str)
def test_tv_differences_equal_the_rolled_formulas(shape):
    rng = np.random.default_rng(31)
    x, p = rng.standard_normal(shape), rng.standard_normal((2,) + shape)
    np.testing.assert_array_equal(tv_forward_diff(x), np.stack(
        (np.roll(x, -1, axis=0) - x, np.roll(x, -1, axis=1) - x)))
    np.testing.assert_array_equal(
        tv_diff_adjoint(p),
        (np.roll(p[0], 1, axis=0) - p[0]) + (np.roll(p[1], 1, axis=1) - p[1]))


@pytest.mark.parametrize("shape", TV_SHAPES, ids=str)
def test_tv_difference_adjoint_identity(shape):
    rng = np.random.default_rng(32)
    for _ in range(5):
        x, p = rng.standard_normal(shape), rng.standard_normal((2,) + shape)
        lhs = float(np.vdot(tv_forward_diff(x), p))
        rhs = float(np.vdot(x, tv_diff_adjoint(p)))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


# --- tv ball ---

def project_tv(x, radius, **knobs):
    return project_intersection(x, ConstraintStack((TVBall(radius),), **knobs))


def test_tv_constant_grid_fixed_point():
    x = np.full((4, 4), 0.7)
    res = project_tv(x, 0.5)
    assert res.converged
    np.testing.assert_array_equal(res.x, x)

def test_tv_feasible_input_unchanged():
    x = np.random.default_rng(23).standard_normal((4, 5))
    res = project_tv(x, total_variation(x) + 1.0)
    np.testing.assert_array_equal(res.x, x)

def test_tv_zero_radius_gives_mean():
    x = np.random.default_rng(24).standard_normal((3, 3))
    res = project_tv(x, 0.0)
    np.testing.assert_allclose(res.x, np.full((3, 3), x.mean()), rtol=1e-15)

def test_tv_two_level_grid_matches_qp_oracle():
    x = np.zeros((3, 3))
    x[:, 2] = 1.0  # two-level step image
    radius = 0.25 * total_variation(x)
    res = project_tv(x, radius)
    assert res.converged
    ref = qp_project(x, ConstraintStack((TVBall(radius),)))
    obj_mine = 0.5 * np.sum((res.x - x) ** 2)
    obj_ref = 0.5 * np.sum((ref - x) ** 2)
    assert abs(obj_mine - obj_ref) / max(1.0, obj_ref) < 1e-4
    assert np.max(np.abs(res.x - ref)) < 1e-4
    assert total_variation(res.x) <= radius * (1 + 1e-6)

def test_tv_nonconvergence_is_flagged_with_gap():
    x = np.random.default_rng(25).standard_normal((5, 5))
    res = project_tv(x, 0.05 * total_variation(x), tv_max_iters=1)
    assert not res.converged
    assert res.tv_gap > 0
    assert total_variation(res.x) <= 0.05 * total_variation(x) * (1 + 1e-9)


# --- intersections ---

def test_intersection_feasible_point_unchanged():
    stack = ConstraintStack((Box(-1, 1), L2Ball(10.0)))
    x = np.full((2, 2), 0.25)
    res = project_intersection(x, stack)
    assert res.converged
    np.testing.assert_array_equal(res.x, x)

def test_intersection_single_set_reduces_to_box():
    stack = ConstraintStack((Box(0.0, 1.0),))
    x = np.array([[-3.0, 0.2], [9.0, 0.5]])
    res = project_intersection(x, stack)
    np.testing.assert_array_equal(res.x, np.clip(x, 0.0, 1.0))
    assert res.converged and res.sweeps == 1

def test_intersection_inactive_ball():
    stack = ConstraintStack((Box(0.0, 1.0), L2Ball(10.0)))
    x = np.array([[-3.0, 0.2], [9.0, 0.5]])
    res = project_intersection(x, stack)
    np.testing.assert_allclose(res.x, np.clip(x, 0.0, 1.0), atol=1e-12)

def test_intersection_matches_qp_oracle():
    rng = np.random.default_rng(26)
    stack = ConstraintStack((Box(-0.6, 0.8), L1Ball(1.5)))
    for _ in range(10):
        x = 2.0 * rng.standard_normal((2, 3))
        res = project_intersection(x, stack)
        assert res.converged
        assert np.max(np.abs(res.x - qp_project(x, stack))) < 1e-6

def test_intersection_empty_flags_nonconvergence():
    stack = ConstraintStack((Box(0.0, 0.0), Box(1.0, 1.0)))
    res = project_intersection(np.zeros((2, 2)), stack)
    assert not res.converged
    assert res.violations.max() > 0.1


def test_unconverged_tv_solve_flags_single_set_stack():
    x = np.random.default_rng(0).standard_normal((8, 8))
    ball = TVBall(0.2 * total_variation(x))
    assert not project_intersection(x, ConstraintStack((ball,), tv_max_iters=2)).converged
    assert project_intersection(x, ConstraintStack((ball,))).converged

def test_unconverged_box_tv_solve_is_flagged():
    # the capped solve returns a feasible point, yet one far from the
    # projection a converged solve reaches
    x = np.random.default_rng(0).standard_normal((8, 8))
    sets = (Box(-1.0, 1.0), TVBall(0.2 * total_variation(x)))
    capped = project_intersection(x, ConstraintStack(sets, tv_max_iters=2))
    exact = project_intersection(
        x, ConstraintStack(sets, tv_max_iters=5000, tv_tol=1e-12))
    assert capped.sweeps == 2 and not capped.converged
    assert exact.converged
    assert np.max(np.abs(capped.x - exact.x)) > 0.1


def test_intersection_reports_final_sweep_tv_gap():
    x = np.random.default_rng(0).standard_normal((8, 8))
    sets = (Box(-1.0, 1.0), TVBall(0.2 * total_variation(x)))
    capped = ConstraintStack(sets, tv_max_iters=2)
    res = project_intersection(x, capped)
    # the capped solves stop far from tv_tol, and the result says by how much
    assert res.tv_gap > 1e3 * capped.tv_tol
    exact = project_intersection(
        x, ConstraintStack(sets, tv_max_iters=5000, tv_tol=1e-12))
    assert 0.0 <= exact.tv_gap < res.tv_gap
    single = project_tv(x, sets[1].radius, tv_max_iters=2)
    assert single.sweeps == 2 and not single.converged
    assert np.isfinite(single.tv_gap) and single.tv_gap > capped.tv_tol
    assert project_intersection(x, ConstraintStack((Box(-1.0, 1.0),))).tv_gap is None
    assert project_intersection(
        x, ConstraintStack((Box(-1.0, 1.0), L1Ball(5.0)))).tv_gap is None


BOX_L1_BOXES = [Box(-0.6, 0.8), Box(0.1, 0.9), Box(-0.9, -0.2), Box(0.3, 0.3)]


@pytest.mark.parametrize("box", BOX_L1_BOXES, ids=lambda b: f"{b.lo},{b.hi}")
@pytest.mark.parametrize("box_first", [True, False], ids=["box_l1", "l1_box"])
def test_box_l1_closed_form_matches_qp_oracle(box, box_first):
    rng = np.random.default_rng(30)
    for n in range(2, 9):
        for _ in range(4):
            x = 2.0 * rng.standard_normal((1, n))
            # at least the box's least l1 norm, so the sets always meet
            radius = n * max(box.lo, -box.hi, 0.0) + rng.uniform(0.2, 1.5)
            sets = (box, L1Ball(radius)) if box_first else (L1Ball(radius), box)
            res = project_intersection(x, ConstraintStack(sets))
            assert res.converged and res.sweeps == 1
            assert np.max(np.abs(res.x - qp_project(x, ConstraintStack(sets)))) <= 1e-8


def _box_l1_by_bisection(v, lo, hi, radius):
    """clip(soft(v, theta), lo, hi) with the multiplier theta bisected until
    the l1 norm meets the radius; the norm is non-increasing in theta."""
    def at(theta):
        return np.clip(np.sign(v) * np.maximum(np.abs(v) - theta, 0.0), lo, hi)

    below, above = 0.0, float(np.abs(v).max())
    while above - below > 1e-15 * max(1.0, above):
        mid = 0.5 * (below + above)
        below, above = (mid, above) if np.abs(at(mid)).sum() > radius else (below, mid)
    return at(above)


def test_box_l1_closed_form_matches_exact_bisection():
    rng = np.random.default_rng(31)
    box, ball = Box(-1.0, 1.0), L1Ball(2100.0)
    layered = np.linspace(-40.0, 60.0, 64)[:, None] + 10.0 * rng.standard_normal((64, 64))
    noise = 30.0 * rng.standard_normal((64, 64))
    cases = [
        (box, ball, noise),
        (box, ball, layered),
        (box, ball, np.round(noise, 1)),  # tied magnitudes, so repeated kinks
        (Box(-0.4, 1.0), ball, noise),  # asymmetric: one upper bound per sign
        (Box(-0.4, 1.0), ball, np.round(noise, 1)),  # per-sign runs with ties
        (Box(0.1, 0.9), L1Ball(1000.0), noise),  # excludes 0: p > 0
        (None, ball, noise),  # l1 alone: q_i = |v_i|
        (box, L1Ball(0.5), np.array([[-5.0]])),  # n = 1
    ]
    for box_i, ball_i, x in cases:
        sets = (ball_i,) if box_i is None else (box_i, ball_i)
        lo, hi = (-np.inf, np.inf) if box_i is None else (box_i.lo, box_i.hi)
        exact = project_intersection(x, ConstraintStack(sets))
        ref = _box_l1_by_bisection(x, lo, hi, ball_i.radius)
        assert exact.converged
        assert np.max(np.abs(exact.x - ref)) <= 1e-9
        assert np.abs(exact.x).sum() == pytest.approx(ball_i.radius, abs=1e-8)


def _separable_by_bisection(v, sets):
    """Projection onto a stack without a TV ball: _box_l1_by_bisection(s*v)
    with the l2 scale s in [0, 1] bisected until the l2 norm meets the
    radius (s = 1 when it is inside); the norm is non-decreasing in s."""
    lo, hi = next(((b.lo, b.hi) for b in sets if isinstance(b, Box)), (-np.inf, np.inf))
    r1, r2 = (next((b.radius for b in sets if isinstance(b, kind)), np.inf)
              for kind in (L1Ball, L2Ball))
    inner = lambda s: _box_l1_by_bisection(s * v, lo, hi, r1)
    if np.linalg.norm(inner(1.0)) <= r2:
        return inner(1.0)
    below, above = 0.0, 1.0
    for _ in range(60):  # down to an interval of 2**-60
        mid = 0.5 * (below + above)
        below, above = (mid, above) if np.linalg.norm(inner(mid)) <= r2 else (below, mid)
    return inner(below)


def test_three_set_stack_matches_qp_oracle():
    rng = np.random.default_rng(32)
    stack = ConstraintStack((Box(-0.6, 0.8), L1Ball(1.5), L2Ball(100.0)),
                            tv_tol=1e-12)
    for _ in range(10):
        x = 2.0 * rng.standard_normal((2, 3))
        res = project_intersection(x, stack)
        assert res.converged and res.sweeps == 1
        assert np.max(np.abs(res.x - qp_project(x, stack))) < 1e-8
        assert np.max(np.abs(res.x - _separable_by_bisection(x, stack.sets))) <= 1e-10


@pytest.mark.parametrize("box_first", [True, False], ids=["box_l1", "l1_box"])
def test_box_missing_l1_ball_flags_nonconvergence(box_first):
    box, ball = Box(0.5, 1.0), L1Ball(1.0)
    sets = (box, ball) if box_first else (ball, box)
    res = project_intersection(np.full((2, 2), 3.0), ConstraintStack(sets))
    assert not res.converged
    # the box point of least l1 norm: inside the box, 1.0 over the radius
    np.testing.assert_array_equal(res.x, np.full((2, 2), 0.5))
    assert res.violations[sets.index(ball)] == pytest.approx(1.0)
    assert res.violations[sets.index(box)] == 0.0


@pytest.mark.parametrize("box_first", [True, False], ids=["box_l2", "l2_box"])
def test_box_missing_l2_ball_flags_nonconvergence(box_first):
    box, ball = Box(0.5, 1.0), L2Ball(0.9)
    sets = (box, ball) if box_first else (ball, box)
    res = project_intersection(np.full((2, 2), 3.0), ConstraintStack(sets))
    assert not res.converged
    # the box point of least l2 norm: inside the box, 0.1 over the radius
    np.testing.assert_array_equal(res.x, np.full((2, 2), 0.5))
    assert res.violations[sets.index(ball)] == pytest.approx(0.1)
    assert res.violations[sets.index(box)] == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_box_tv_matches_qp_oracle(seed):
    rng = np.random.default_rng(40 + seed)
    x = 2.0 * rng.standard_normal((3, 4))
    lo, hi = -0.8, 0.6
    radius = rng.uniform(0.2, 0.6) * total_variation(np.clip(x, lo, hi))
    stack = ConstraintStack((Box(lo, hi), TVBall(radius)))
    res = project_intersection(x, stack)
    assert res.converged and res.sweeps > 1 and res.tv_gap is not None
    ref = qp_project(x, stack)
    obj_mine = 0.5 * np.sum((res.x - x) ** 2)
    obj_ref = 0.5 * np.sum((ref - x) ** 2)
    assert abs(obj_mine - obj_ref) / max(1.0, obj_ref) < 1e-4
    assert np.max(np.abs(res.x - ref)) < 1e-4


def _clip(x):
    return np.clip(x, -0.8, 0.6)


# stacks without a TV ball, on the fixed-point inputs; the box_l1_l2 radii
# keep both balls active
CLOSED_FORM_STACKS = {
    "box_l2": lambda x: (Box(-0.8, 0.6), L2Ball(0.5 * np.linalg.norm(_clip(x)))),
    "l1_l2": lambda x: (L1Ball(2.0), L2Ball(1.2)),
    "box_l1_l2": lambda x: (Box(-0.8, 0.6), L1Ball(0.5 * np.abs(_clip(x)).sum()),
                            L2Ball(0.6 * np.linalg.norm(_clip(x)))),
}

# box_l2 and l1_l2 skip the dual solve, so its knobs must leave them exact;
# box_tv_far puts v far outside the sets
FIXED_POINT_STACKS = {
    "box_l2": (2.0, CLOSED_FORM_STACKS["box_l2"]),
    "l1_l2": (2.0, CLOSED_FORM_STACKS["l1_l2"]),
    "box_l1_tv": (2.0, lambda x: (Box(-0.8, 0.6), L1Ball(0.5 * np.abs(_clip(x)).sum()),
                                  TVBall(0.4 * total_variation(_clip(x))))),
    "box_tv_far": (30.0, lambda x: (Box(-0.8, 0.6), TVBall(0.4 * total_variation(_clip(x))))),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", FIXED_POINT_STACKS)
def test_dual_solve_fixed_point_matches_qp_oracle(name, seed):
    # what the solve converges to, at a tolerance far below the shipped one
    scale, sets = FIXED_POINT_STACKS[name]
    x = scale * np.random.default_rng(50 + seed).standard_normal((3, 4))
    stack = ConstraintStack(sets(x), tv_tol=1e-13, tv_max_iters=200_000)
    res = project_intersection(x, stack)
    assert res.converged
    assert np.max(np.abs(res.x - qp_project(x, stack))) <= 1e-6


@pytest.mark.parametrize("name", ["box_l2", "l1_l2"])
def test_dual_solve_without_tv_ball_reports_its_gap(name):
    # no dual solve runs, so there is no gap to report, and a cap on the
    # solve's iterations cannot stop the projection short
    x = 2.0 * np.random.default_rng(51).standard_normal((3, 4))
    for knobs in ({}, {"tv_max_iters": 2}):
        res = project_intersection(x, ConstraintStack(CLOSED_FORM_STACKS[name](x), **knobs))
        assert res.converged and res.sweeps == 1 and res.tv_gap is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CLOSED_FORM_STACKS)
def test_stack_without_tv_ball_is_projected_in_closed_form(name, seed):
    # exact whatever the dual solve's knobs, which govern TV stacks only
    x = 2.0 * np.random.default_rng(50 + seed).standard_normal((3, 4))
    sets = CLOSED_FORM_STACKS[name](x)
    ref = qp_project(x, ConstraintStack(sets))
    exact = _separable_by_bisection(x, sets)
    for knobs in ({}, {"tv_max_iters": 1}):
        res = project_intersection(x, ConstraintStack(sets, **knobs))
        assert res.converged and res.sweeps == 1 and res.tv_gap is None
        assert np.max(np.abs(res.x - ref)) <= 1e-8
        assert np.max(np.abs(res.x - exact)) <= 1e-10


def test_tv_stack_whose_box_misses_l1_ball_flags_nonconvergence():
    sets = (Box(0.5, 1.0), L1Ball(1.0), TVBall(0.5))
    x = 3.0 + np.random.default_rng(52).standard_normal((2, 2))
    res = project_intersection(x, ConstraintStack(sets))
    assert not res.converged
    # the box point of least l1 norm: inside the box and the TV ball, 1.0
    # over the l1 radius
    np.testing.assert_array_equal(res.x, np.full((2, 2), 0.5))
    np.testing.assert_allclose(res.violations, [0.0, 1.0, 0.0])


# --- feasibility ---

def test_feasibility_after_projection():
    stack = ConstraintStack((Box(-0.5, 0.5),))
    x = np.random.default_rng(27).standard_normal((3, 3))
    report = is_feasible(project_intersection(x, stack).x, stack, 1e-8)
    assert report and report.violations.max() == 0.0

def test_feasibility_violation_magnitude():
    report = is_feasible(np.full((2, 2), 2.0), ConstraintStack((Box(0.0, 1.0),)), 1e-8)
    assert not report
    assert report.violations[0] == pytest.approx(1.0)

def test_dykstra_output_feasible_at_its_tol():
    rng = np.random.default_rng(28)
    stack = ConstraintStack((Box(-0.6, 0.8), L1Ball(1.5)))
    x = 3.0 * rng.standard_normal((3, 3))
    res = project_intersection(x, stack)
    assert is_feasible(res.x, stack, stack.dykstra_tol)


# --- invariant properties ---

SINGLE_SETS = [Box(-0.5, 0.75), L2Ball(1.2), L1Ball(1.5)]
BOX, L2, L1 = SINGLE_SETS
PROPERTY_STACKS = {
    **{type(spec).__name__: (spec,) for spec in SINGLE_SETS},
    "box_l1": (BOX, L1), "box_l2": (BOX, L2), "l1_l2": (L1, L2), "box_l1_l2": (BOX, L1, L2),
}


def project_stack(name, x):
    return project_intersection(np.atleast_2d(x), ConstraintStack(PROPERTY_STACKS[name])).x


@pytest.mark.parametrize("name", PROPERTY_STACKS)
@given(x=finite_vec)
@settings(max_examples=40, deadline=None)
def test_idempotence(name, x):
    once = project_stack(name, x)
    twice = project_stack(name, once)
    assert np.max(np.abs(twice - once)) <= 1e-10

@given(x=finite_grid)
@settings(max_examples=25, deadline=None)
def test_idempotence_tv(x):
    once = project_one(TVBall(2.0), x)
    twice = project_one(TVBall(2.0), once)
    assert np.max(np.abs(twice - once)) <= 1e-10

@pytest.mark.parametrize("name", PROPERTY_STACKS)
@given(x=finite_vec, y=finite_vec)
@settings(max_examples=40, deadline=None)
def test_non_expansiveness(name, x, y):
    px = project_stack(name, x)
    py = project_stack(name, y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

BOX_TV = ConstraintStack((Box(-0.5, 0.75), TVBall(2.0)))

@given(x=finite_grid)
@settings(max_examples=25, deadline=None)
def test_idempotence_box_tv(x):
    once = project_intersection(x, BOX_TV).x
    twice = project_intersection(once, BOX_TV).x
    assert np.max(np.abs(twice - once)) <= 1e-10

@given(x=finite_grid, y=finite_grid)
@settings(max_examples=25, deadline=None)
def test_non_expansiveness_box_tv(x, y):
    # inexact dual solves get a tolerance-scale allowance
    px = project_intersection(x, BOX_TV).x
    py = project_intersection(y, BOX_TV).x
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-6

@given(x=finite_grid, y=finite_grid)
@settings(max_examples=25, deadline=None)
def test_non_expansiveness_tv(x, y):
    # inexact dual solves get a tolerance-scale allowance
    px = project_one(TVBall(1.0), x)
    py = project_one(TVBall(1.0), y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-6

@pytest.mark.parametrize("spec", SINGLE_SETS + [TVBall(1.0)],
                         ids=lambda s: type(s).__name__)
def test_projection_lands_inside(spec):
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = 3.0 * rng.standard_normal((3, 3))
        out = project_one(spec, x)
        assert constraint_violation(spec, out) <= 1e-8
