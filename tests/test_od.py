"""Entropy OD matrix estimation."""

import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from equiflow import od
from equiflow import (
    balancing_oracle,
    build_elp,
    primal_value,
    solve_entropy_od,
)

from conftest import wide_kernel_draw


def random_balanced(rng, nr, nc):
    L = rng.uniform(0.5, 2.0, size=nr)
    W = rng.uniform(0.5, 2.0, size=nc)
    W *= L.sum() / W.sum()
    T = rng.uniform(0.0, 3.0, size=(nr, nc))
    return L, W, T


def euclidean_zones(rng, n):
    """Distance costs between random zones and marginals as the bench draws them."""
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    T = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    L = rng.uniform(1.0, 10.0, size=n)
    W = rng.uniform(1.0, 10.0, size=n)
    W *= L.sum() / W.sum()
    return L, W, T


def bench_od_instance(seed, call, n):
    """(L, W, T) of the benchmark's od_entropy call `call` of run `seed`."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    inst = workloads.od_entropy(random.Random(f"od_entropy:{seed}:{call}"), n)
    return np.array(inst["rows"]), np.array(inst["cols"]), np.array(inst["costs"])


def dense_constraints(nr, nc):
    """Row sums, then column sums, as an explicit matrix."""
    A = np.zeros((nr + nc, nr * nc))
    for i in range(nr):
        A[i, i * nc:(i + 1) * nc] = 1.0
    for j in range(nc):
        A[nr + j, j::nc] = 1.0
    return A


class TestBuildElp:
    def test_shapes_and_normalization(self):
        p = build_elp([1.0, 3.0], [2.0, 2.0], np.zeros((2, 2)), 0.5)
        assert p.A.shape == (4, 4)  # 2 row and 2 column marginals
        assert p.b == pytest.approx([0.25, 0.75, 0.5, 0.5])
        assert p.mass == 4.0

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="unbalanced"):
            build_elp([1.0, 1.0], [1.0, 2.0], np.zeros((2, 2)), 0.5)

    def test_nonpositive_marginal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_elp([1.0, 0.0], [0.5, 0.5], np.zeros((2, 2)), 0.5)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            build_elp([1.0], [1.0], np.zeros((1, 1)), 0.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            build_elp([1.0], [1.0], np.zeros((1, 1)), gamma)

    @pytest.mark.parametrize("L, W", [([], []), ([1.0], [])], ids=["both", "columns"])
    def test_empty_marginals_rejected(self, L, W):
        # the solve failed on a max over zero logits
        with pytest.raises(ValueError, match="empty marginals"):
            build_elp(L, W, np.zeros((len(L), len(W))), 1.0)

    @pytest.mark.parametrize("L", [[1e308, 1e308], [1.0, math.nan]], ids=["overflow", "nan"])
    def test_non_finite_totals_rejected(self, L):
        # an overflowing total warned, then failed as "eps must be positive"
        with pytest.raises(ValueError, match="marginal totals must be finite"):
            build_elp(L, [1.0, 1.0], np.zeros((2, 2)), 1.0)


    def test_cost_matrix_shape_checked(self):
        with pytest.raises(ValueError) as info:
            build_elp([1.0], [1.0], np.zeros((2, 2)), 1.0)
        assert str(info.value) == "cost matrix shape (2, 2) != (1, 1)"


class TestMarginalMap:
    @pytest.mark.parametrize("nr, nc", [(1, 1), (1, 5), (5, 1), (3, 4), (7, 5)])
    def test_matches_dense_matrix(self, nr, nc):
        rng = np.random.default_rng(nr * 10 + nc)
        A = build_elp(np.ones(nr), np.full(nc, nr / nc), np.zeros((nr, nc)), 1.0).A
        dense = dense_constraints(nr, nc)
        assert A.shape == dense.shape and A.T.shape == dense.T.shape
        assert A.nbytes == 0
        x = rng.random(nr * nc)
        y = rng.normal(size=nr + nc)
        assert np.abs(A @ x - dense @ x).max() <= 1e-15
        assert np.abs(A.T @ y - dense.T @ y).max() <= 1e-15


class TestDualOracle:
    def test_uniform_at_zero(self):
        p = build_elp([1.0, 1.0], [1.0, 1.0], np.zeros((2, 2)), 1.0)
        x = od.ElpDualOracle(p).primal(np.zeros(4))
        assert x == pytest.approx([0.25] * 4)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(31)
        p = build_elp(*random_balanced(rng, 3, 3), gamma=0.7)
        y = rng.normal(size=p.A.shape[0])
        oracle = od.ElpDualOracle(p)
        _, grad = oracle.value_grad(y)
        h = 1e-6
        for k in range(len(y)):
            yp, ym = y.copy(), y.copy()
            yp[k] += h
            ym[k] -= h
            fd = (oracle.value_grad(yp)[0] - oracle.value_grad(ym)[0]) / (2 * h)
            assert abs(fd - grad[k]) <= 1e-6 * max(1.0, abs(grad[k]))

    def test_gap_soundness(self):
        # dual value + primal value >= 0 for any multiplier / simplex pair
        rng = np.random.default_rng(32)
        p = build_elp(*random_balanced(rng, 2, 3), gamma=0.5)
        oracle = od.ElpDualOracle(p)
        for _ in range(20):
            y = rng.normal(size=p.A.shape[0])
            x = rng.dirichlet(np.ones(p.n))
            assert oracle.value_grad(y)[0] + primal_value(p, x) >= -1e-12

    def test_one_softmax_per_point(self, monkeypatch):
        # the solve loop reads primal(y) after value_grad(y) and primal(x)
        # after the line search's value(x): two points, two softmaxes
        calls = []
        real = od.ElpDualOracle._by_products
        monkeypatch.setattr(od.ElpDualOracle, "_by_products",
                            lambda self, y: calls.append(1) or real(self, y))
        rng = np.random.default_rng(33)
        p = build_elp(*random_balanced(rng, 3, 2), gamma=0.5)
        y, x = rng.normal(size=(2, p.A.shape[0]))
        oracle = od.ElpDualOracle(p)
        _, grad = oracle.value_grad(y)
        oracle.value(x)
        x_at_y, x_at_x = oracle.primal(y), oracle.primal(x)
        assert len(calls) == 2
        assert np.array_equal(p.b - p.A @ x_at_y, grad)
        assert np.array_equal(x_at_x, od.ElpDualOracle(p).primal(x))

    def test_value_is_read_from_the_held_record(self):
        # the dual value is one of a point's by-products: value and value_grad
        # read it from the record, and form it nowhere else
        p = build_elp([1.0, 2.0], [1.5, 1.5], np.ones((2, 2)), 0.5)
        y = np.array([0.5, -0.25, 1.0, 0.75])
        oracle = od.ElpDualOracle(p)
        oracle.value(y)
        key, (_, x) = oracle._valued
        oracle._valued = (key, (0.125, x))
        assert oracle.value(y) == oracle.value_grad(y)[0] == 0.125
        assert oracle.primal(y) is x

    def test_held_softmax_is_read_only(self):
        # every later read of the point shares it
        p = build_elp([1.0, 2.0], [1.5, 1.5], np.ones((2, 2)), 0.5)
        x = od.ElpDualOracle(p).primal(np.zeros(4))
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


class TestSolveEntropyOd:
    @pytest.mark.parametrize("kwargs,message", [
        # before the check: a divide-by-zero warning in the certificate, and
        # iterations = -3 in the report
        (dict(eps_residual=0.0), "eps_residual must be positive and finite, got 0.0"),
        (dict(max_iter=-3), "max_iter must be nonnegative, got -3"),
        (dict(eps=math.nan), "eps must be positive and finite, got nan"),
    ], ids=["eps-residual-zero", "max-iter-negative", "eps-nan"])
    def test_bad_tolerance_or_budget_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            solve_entropy_od([2.0], [2.0], np.array([[1.0]]), 0.5, **{"max_iter": 5, **kwargs})
        assert str(info.value) == message

    @pytest.mark.parametrize("eps, given", [(1e-200, "1e-200"), (1e200, "1e+200")],
                             ids=["underflows", "overflows"])
    def test_eps_outside_the_unit_mass_range_rejected(self, monkeypatch, eps, given):
        # the line search's slack is (eps / max(mass, 1))**2: it underflowed to
        # 0 and was rejected as "got 0.0", or overflowed with a RuntimeWarning
        # and was rejected as "got inf", values the caller never gave
        monkeypatch.setattr(od, "umt_minimize", None)  # no step is taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                solve_entropy_od([2.0, 1.0], [1.5, 1.5], np.array([[0.3, 1.2], [0.8, 0.1]]),
                                 0.5, eps=eps)
        assert str(info.value) == (f"eps out of range, got {given}: "
                                   "(eps / max(marginal total, 1))**2 must be positive and finite")

    def test_single_cell(self):
        sol = solve_entropy_od([2.0], [2.0], np.array([[1.0]]), 0.5)
        assert sol.converged
        assert sol.matrix.ravel() == pytest.approx([2.0], abs=1e-9)

    def test_symmetric_two_by_two(self):
        sol = solve_entropy_od([1.0, 1.0], [1.0, 1.0], np.ones((2, 2)), 1.0)
        assert sol.converged
        assert sol.matrix == pytest.approx(np.full((2, 2), 0.5), abs=1e-8)

    def test_matches_balancing_three_by_three(self):
        rng = np.random.default_rng(33)
        L, W, T = random_balanced(rng, 3, 3)
        sol = solve_entropy_od(L, W, T, 0.5, eps=1e-10, eps_residual=1e-8)
        ref, ok = balancing_oracle(L, W, T, 0.5)
        assert sol.converged and ok
        assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_marginals_and_positivity(self):
        rng = np.random.default_rng(34)
        L, W, T = random_balanced(rng, 4, 2)
        sol = solve_entropy_od(L, W, T, 0.8, eps=1e-9, eps_residual=1e-8)
        assert sol.converged
        assert sol.matrix.min() > 0
        assert sol.matrix.sum(axis=1) == pytest.approx(L, abs=1e-6)
        assert sol.matrix.sum(axis=0) == pytest.approx(W, abs=1e-6)

    def test_scaling_equivariance(self):
        # scaling costs and gamma together leaves the matrix unchanged
        rng = np.random.default_rng(35)
        L, W, T = random_balanced(rng, 3, 3)
        a = solve_entropy_od(L, W, T, 0.5, eps=1e-10, eps_residual=1e-8)
        b = solve_entropy_od(L, W, 10.0 * T, 5.0, eps=1e-10, eps_residual=1e-8)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-6

    def test_stop_makes_no_dual_call(self, monkeypatch):
        # every value() call comes from a line search, the accelerated
        # method's or the Newton steps' backtracking; certifying a step of
        # either phase reuses its value
        calls = []
        value = od.ElpDualOracle.value
        monkeypatch.setattr(od.ElpDualOracle, "value",
                            lambda self, y: calls.append(1) or value(self, y))
        rng = np.random.default_rng(39)
        sol = solve_entropy_od(*random_balanced(rng, 4, 3), 0.5)
        rep = sol.solver
        accelerated = len(rep.alpha_trace)
        assert sol.converged and accelerated > 0 and sol.newton_steps > 0
        assert len(rep.gap_trace) == accelerated + sol.newton_steps  # one certificate a step
        assert len(calls) == rep.value_calls - rep.grad_calls

    def test_newton_steps_count_in_iterations(self):
        L, W, T = bench_od_instance(387, 1, 14)
        sol = solve_entropy_od(L, W, T, 1.0)
        rep = sol.solver
        accelerated = len(rep.alpha_trace)
        assert sol.converged and rep.termination == "certified_newton"
        assert rep.iterations + 1 == accelerated + sol.newton_steps  # iterations count from 0
        # a budget that ends one step after the hand-over allows one Newton step
        cut = solve_entropy_od(L, W, T, 1.0, max_iter=accelerated)
        assert not cut.converged and cut.solver.termination == "max_iter"
        assert cut.newton_steps == 1 and cut.solver.iterations == accelerated

    def test_failed_newton_step_hands_back(self, monkeypatch):
        # an ascent direction is no Newton step: the accelerated method goes
        # on from the same point and still certifies
        real = od.newton_direction
        monkeypatch.setattr(od, "newton_direction", lambda x, g, gamma: -real(x, g, gamma))
        rng = np.random.default_rng(41)
        L, W, T = random_balanced(rng, 3, 4)
        sol = solve_entropy_od(L, W, T, 0.5)
        ref, ok = balancing_oracle(L, W, T, 0.5)
        assert sol.converged and ok and sol.solver.termination == "certified"
        assert sol.newton_steps == 0 and sol.solver.restarts > 0
        assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_last_iterate_certifies_ten_zones_sooner(self):
        # the accelerated phase restarts when the dual value rises: without
        # that rule this instance takes 74 steps, restarting once (a Newton
        # step handing the solve back), with it 53
        steps_without_restart = 74
        rng = np.random.default_rng(43)
        L, W, T = euclidean_zones(rng, 10)
        sol = solve_entropy_od(L, W, T, 0.1)
        ref, ok = balancing_oracle(L, W, T, 0.1)
        assert sol.converged and ok
        assert sol.solver.iterations < 0.8 * steps_without_restart
        assert sol.solver.restarts > 1
        assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_rounding_rise_does_not_restart(self):
        # near the optimum the dual value moves by a few ulps either way;
        # restarting the accelerated method on those rises took 2,960 steps
        # and 623 restarts here.  Newton steps now take that tail
        L, W, T = euclidean_zones(np.random.default_rng(0), 40)
        sol = solve_entropy_od(L, W, T, 1.0)
        ref, ok = balancing_oracle(L, W, T, 1.0)
        assert sol.converged and ok
        assert sol.solver.iterations < 1000 and sol.solver.restarts < 20
        assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_bench_call_passes_verify(self):
        # seed 387 call 1: a step-weighted average of the softmax points since
        # the last restart certified it at deviation 1.37e-6 from the balanced
        # matrix; the last iterate certifies it within 1e-7.  The others, with
        # the last column marginal dropped from the dual, certified at
        # deviations 1.98e-6, 1.14e-6 and 1.13e-6; with every marginal kept,
        # 5.4e-8, 1.4e-8 and 1.2e-7
        for seed, call, n, gamma in [(387, 1, 14, 1.0), (501, 5, 50, 0.1),
                                     (500, 3, 26, 0.3), (500, 5, 50, 0.3)]:
            L, W, T = bench_od_instance(seed, call, n)
            sol = solve_entropy_od(L, W, T, gamma)
            ref, ok = balancing_oracle(L, W, T, gamma)
            assert sol.converged and ok, (seed, call)
            assert np.abs(sol.matrix - ref).max() <= 1e-6, (seed, call)

    def test_unequal_totals_certify_every_column(self):
        # totals 5e-10 apart (relative) pass build_elp.  A column block of
        # W / sum(L) sums to 1 + 5e-10, so the dual is unbounded along "all
        # columns +c" and the residual stays at 1.1e-6: never certified.
        # Dropping the last column put the whole 4.6e-6 difference there.
        L, W, T = euclidean_zones(np.random.default_rng(1), 20)
        L *= 1e4 / L.sum()
        W *= 1e4 / W.sum() * (1 + 5e-10)
        sol = solve_entropy_od(L, W, T, 1.0, max_iter=5000)
        assert sol.converged
        assert np.abs(sol.matrix.sum(axis=1) - L).max() <= 1e-6
        assert np.abs(sol.matrix.sum(axis=0) - W * L.sum() / W.sum()).max() <= 1e-6

    def test_negative_gap_does_not_certify(self, monkeypatch):
        # a primal value 1 too low makes every gap about -3 (the mass is 3);
        # a one-sided test `gap <= eps` certified this in 17 steps.  Neither
        # the accelerated steps nor the Newton steps may certify
        real = od.primal_value
        monkeypatch.setattr(od, "primal_value", lambda problem, x: real(problem, x) - 1.0)
        T = np.array([[0.3, 1.2], [0.8, 0.1]])
        sol = solve_entropy_od([2.0, 1.0], [1.5, 1.5], T, 1.0, max_iter=100)
        assert not sol.converged and sol.solver.termination == "max_iter"
        assert sol.newton_steps > 0 and len(sol.solver.gap_trace) == 101
        assert sol.gap < -1.0 and max(sol.solver.gap_trace) < -0.5  # unit mass: about -1

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3])
    def test_small_gamma_certifies(self, gamma):
        # restarts at the line search's full eps slack stalled these solves
        # a few eps away from the dual optimum, never reaching |gap| <= eps
        for seed in range(4):
            rng = np.random.default_rng(seed)
            L, W, T = random_balanced(rng, *rng.integers(2, 5, size=2))
            sol = solve_entropy_od(L, W, T, gamma, max_iter=5000)
            ref, ok = balancing_oracle(L, W, T, gamma)
            assert sol.converged and ok
            assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_nan_certificate_still_returns_a_matrix(self, monkeypatch):
        monkeypatch.setattr(od, "primal_value", lambda problem, x: math.nan)
        rng = np.random.default_rng(40)
        L, W, T = random_balanced(rng, 2, 3)
        sol = solve_entropy_od(L, W, T, 0.5, max_iter=5)
        assert not sol.converged
        assert sol.matrix.shape == (2, 3) and np.isfinite(sol.matrix).all()

    def test_large_gamma_approaches_outer_product(self):
        rng = np.random.default_rng(36)
        L, W, T = random_balanced(rng, 3, 3)
        sol = solve_entropy_od(L, W, T, 1e4, eps=1e-10, eps_residual=1e-9)
        outer = np.outer(L, W) / L.sum()
        assert np.abs(sol.matrix - outer).max() <= 1e-3


class TestNewtonDirection:
    def test_solves_the_newton_system(self):
        # against the dense Hessian (A diag(x) A^T - (A x)(A x)^T) / gamma
        rng = np.random.default_rng(42)
        for nr, nc in [(1, 3), (3, 1), (4, 3), (6, 6)]:
            p = build_elp(*random_balanced(rng, nr, nc), gamma=0.7)
            y = rng.normal(size=nr + nc)
            oracle = od.ElpDualOracle(p)
            _, g = oracle.value_grad(y)
            x = oracle.primal(y)
            A = dense_constraints(nr, nc)
            hess = (A @ np.diag(x) @ A.T - np.outer(A @ x, A @ x)) / p.gamma
            d = od.newton_direction(x.reshape(nr, nc), g, p.gamma)
            assert np.abs(hess @ d + g).max() <= 1e-12
            assert d[-1] == 0.0  # the last column multiplier is fixed

    def test_split_matrix_gives_no_step(self):
        # exp(-T/gamma) underflowed to two blocks: the reduced system is
        # singular, and the direction is NaN, which no Newton step takes
        x = np.array([[0.3, 0.2, 0.0], [0.0, 0.0, 0.5]])
        g = np.array([0.05, -0.05, 0.1, -0.1, 0.0])
        d = od.newton_direction(x, g, 1.0)
        assert np.isnan(d[:-1]).all() and np.isnan(g @ d)

    def test_cholesky_matches_lapack(self):
        rng = np.random.default_rng(43)
        for n in (0, 1, 5, 30):
            B = rng.normal(size=(n, n))
            a, b = B @ B.T + np.eye(n), rng.normal(size=n)
            assert np.abs(od._cholesky_solve(a, b) - np.linalg.solve(a, b)).max(initial=0) <= 1e-12
        assert np.isnan(od._cholesky_solve(-np.eye(2), np.ones(2))).all()


def large_mass_draw(s):
    """Call s of the large-mass set: 10-30 zones, marginals scaled by 10^U(1, 5)."""
    rng = np.random.default_rng(1000 + s)
    n = int(rng.integers(10, 31))
    scale = 10 ** rng.uniform(1, 5)
    L = rng.uniform(1, 10, n) * scale
    W = rng.uniform(1, 10, n) * scale
    pts = rng.uniform(0, 4, (n, 2))
    W *= L.sum() / W.sum()
    return L, W, np.linalg.norm(pts[:, None] - pts[None], axis=2)


def long_double_balancing(L, W, T, gamma):
    """Row/column scaling in extended precision, to 1e-18 on the unit-mass rows."""
    L, W = np.asarray(L, dtype=np.longdouble), np.asarray(W, dtype=np.longdouble)
    p, q = L / L.sum(), W / W.sum()
    C = np.asarray(T, dtype=np.longdouble)
    C = C - C.min(axis=1, keepdims=True)
    K = np.exp(-(C - C.min(axis=0, keepdims=True)) / np.longdouble(gamma))
    v = np.ones(len(W), dtype=np.longdouble)
    for _ in range(100000):
        u = p / (K @ v)
        v = q / (K.T @ u)
        if np.abs(u * (K @ v) - p).max() <= 1e-18:
            break
    return ((u[:, None] * K) * v[None, :] * L.sum()).astype(float)


class TestLargeMass:
    def test_reference_stays_within_1e8(self):
        # mass 8.33e6: at 1e-12 on the unit-mass row sums the balanced matrix
        # was 4.65e-6 from its own limit, and a certified answer 5e-9 from
        # that limit printed "verification FAIL"
        L, W, T = large_mass_draw(22)
        assert L.sum() == pytest.approx(8.33e6, rel=1e-3)
        ref, ok = balancing_oracle(L, W, T, 0.3)
        assert ok
        assert np.abs(ref - long_double_balancing(L, W, T, 0.3)).max() <= 1e-8
        sol = solve_entropy_od(L, W, T, 0.3)
        assert sol.converged and np.abs(sol.matrix - ref).max() <= 1e-6

    @pytest.mark.parametrize("s, gamma", [(12, 1.0), (15, 1.0), (17, 0.3)])
    def test_newton_certifies_large_masses(self, s, gamma):
        # masses 1.9e6, 3.0e5 and 2.9e6: the gap tolerance on the unit-mass
        # problem is eps / mass, near the rounding of the dual value, and the
        # accelerated method alone ran out of 20,000 steps short of it
        L, W, T = large_mass_draw(s)
        sol = solve_entropy_od(L, W, T, gamma, max_iter=20000)
        ref, ok = balancing_oracle(L, W, T, gamma)
        assert sol.converged and ok and sol.solver.iterations < 100
        assert np.abs(sol.matrix - ref).max() <= 1e-6


class TestBalancingOracle:
    def test_zero_costs_give_outer_product(self):
        L = np.array([1.0, 2.0])
        W = np.array([1.5, 1.5])
        d, ok = balancing_oracle(L, W, np.zeros((2, 2)), 1.0)
        assert ok
        assert d == pytest.approx(np.outer(L, W) / L.sum(), abs=1e-10)

    def test_large_mass_certified_answer_verifies(self):
        # mass 1.03e5: row sums of ~5e3 never met an absolute 1e-12, so
        # 100,000 sweeps ended unbalanced and the certified answer failed
        rng = np.random.default_rng(3)
        L = rng.uniform(1.0, 10.0, 20) * 1e3
        W = rng.uniform(1.0, 10.0, 20) * 1e3
        pts = rng.uniform(0.0, 4.0, size=(20, 2))
        W *= L.sum() / W.sum()
        T = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        sol = solve_entropy_od(L, W, T, 1.0)
        ref, ok = balancing_oracle(L, W, T, 1.0)
        assert sol.converged and ok
        assert np.abs(sol.matrix - ref).max() <= 1e-6
        assert ref.sum(axis=1) == pytest.approx(L, rel=1e-9)

    def test_underflowing_kernel_rows(self):
        # exp(-80 / 0.1) underflows, so the first row of exp(-T/gamma) was all
        # zeros and the balancing divided 0 by 0
        T = np.array([[80.0, 90.0, 100.0], [85.0, 5.0, 95.0], [99.0, 97.0, 90.0]])
        L, W = [1.0, 2.0, 3.0], [2.0, 2.0, 2.0]
        sol = solve_entropy_od(L, W, T, 0.1)
        ref, ok = balancing_oracle(L, W, T, 0.1)
        assert sol.converged and ok
        assert np.abs(sol.matrix - ref).max() <= 1e-6

    def test_kernel_beyond_the_float_range(self):
        # the scalings overflowed: the balancing ran 100,000 sweeps of NaN,
        # warned, and failed a solve that certified at gap 5.9e-14
        L, W, T = wide_kernel_draw()
        sol = solve_entropy_od(L, W, T, 0.1)
        ref, ok = balancing_oracle(L, W, T, 0.1)
        assert sol.converged and ok is True
        assert np.isfinite(ref).all()
        assert np.abs(ref - sol.matrix).max() <= 1e-6

    def test_agrees_across_seeds(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            L, W, T = random_balanced(rng, 3, 4)
            sol = solve_entropy_od(L, W, T, 0.6, eps=1e-10, eps_residual=1e-8)
            ref, ok = balancing_oracle(L, W, T, 0.6)
            assert sol.converged and ok
            assert np.abs(sol.matrix - ref).max() <= 1e-6
