"""Accelerated method, restarts and mirror descent."""

import math

import numpy as np
import pytest

from equiflow import (
    DivergedOracleError,
    EuclideanProx,
    FunctionOracle,
    SmoothOracle,
    mirror_descent_constrained,
    restart_wrapper,
    umt_minimize,
    umt_stochastic,
)


def quadratic_oracle(scale=1.0):
    return FunctionOracle(
        lambda x: 0.5 * scale * float(x @ x),
        lambda x: scale * np.asarray(x, dtype=float),
    )


def abs_oracle():
    return FunctionOracle(
        lambda x: float(np.abs(x).sum()),
        lambda x: np.sign(x),
    )


def chain_oracle(n, delta):
    """Coupled-coordinate quadratic with known minimizer, curvature <= 4."""

    def amul(x):
        y = 2.0 * x
        y[:-1] -= x[1:]
        y[1:] -= x[:-1]
        return y

    b = np.zeros(n)
    b[0] = delta
    A = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) \
        + np.diag(np.full(n - 1, -1.0), -1)
    xstar = np.linalg.solve(A, b)
    oracle = FunctionOracle(
        lambda x: 0.5 * float(x @ amul(x)) - float(b @ x),
        lambda x: amul(x) - b,
    )
    return oracle, 0.5 * float(xstar @ xstar)


class TestUmtMinimize:
    def test_quadratic_to_tight_tolerance(self):
        x, rep = umt_minimize(quadratic_oracle(), EuclideanProx(), np.ones(5),
                              eps=1e-8, r2=2.5)
        assert np.abs(x).max() <= 1e-4
        assert rep.termination == "certified"
        assert 0.5 * float(x @ x) <= 1e-8

    @pytest.mark.parametrize("kwargs, message", [
        # before the check: x ~ 1.4e154 with overflow warnings, a
        # DivergedOracleError, and a step taken and reported as max_iter
        (dict(eps=math.inf), "eps must be positive and finite, got inf"),
        (dict(eps=math.nan), "eps must be positive and finite, got nan"),
        (dict(eps=1e-6, max_iter=-3), "max_iter must be nonnegative, got -3"),
    ], ids=["eps-inf", "eps-nan", "max-iter-negative"])
    def test_budget_rejected_with_the_parameter_named(self, kwargs, message):
        oracle = FunctionOracle(lambda x: float(x @ x), lambda x: 2 * x)
        with pytest.raises(ValueError) as info:
            umt_minimize(oracle, EuclideanProx(), np.ones(2), **{"max_iter": 50, **kwargs})
        assert str(info.value) == message

    def test_nonsmooth_abs_within_budget(self):
        x0 = np.array([0.02])
        x, rep = umt_minimize(abs_oracle(), EuclideanProx(), x0, eps=1e-3,
                              r2=0.5 * 0.02 ** 2)
        assert abs(x[0]) <= 1e-3
        # crude nonsmooth-regime budget ~ (R/eps)^2 up to constants
        assert rep.iterations <= 100 * (0.02 / 1e-3) ** 2

    def test_reference_run_oracle(self):
        # mildly nonquadratic smooth convex objective; reference from a
        # much tighter run stands in for the unknown optimum
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)

        def f(x):
            z = A @ x - b
            return float(np.sum(np.log(np.cosh(z))))

        def grad(x):
            return A.T @ np.tanh(A @ x - b)

        oracle = FunctionOracle(f, grad)
        ref, _ = umt_minimize(oracle, EuclideanProx(), np.zeros(4), eps=1e-12, r2=10.0)
        x, _ = umt_minimize(oracle, EuclideanProx(), np.zeros(4), eps=1e-6, r2=10.0)
        assert f(x) - f(ref) <= 1e-6

    def test_alpha_recurrence(self):
        for mu in (0.0, 0.3):
            _, rep = umt_minimize(quadratic_oracle(), EuclideanProx(), np.ones(4),
                                  eps=1e-10, mu=mu, r2=2.0)
            A = np.cumsum(rep.alpha_trace)
            for k in range(1, len(A)):
                lhs = A[k] * (1.0 + A[k - 1] * mu)
                rhs = rep.lipschitz_trace[k] * rep.alpha_trace[k] ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_bounded_iterates(self):
        # minimizer 0; iterates must stay within the theoretical ball
        trail = []
        x0 = np.full(3, 2.0)
        umt_minimize(quadratic_oracle(), EuclideanProx(), x0, eps=1e-10, r2=6.0,
                     stop=lambda s: trail.append(s.u.copy()))
        r2 = 0.5 * float(x0 @ x0)
        worst = max(float(u @ u) for u in trail)
        assert worst <= 4.0 * r2 + 1e-9

    def test_oracle_call_accounting(self):
        _, rep = umt_minimize(abs_oracle(), EuclideanProx(), np.array([0.05]),
                              eps=1e-4, r2=0.5 * 0.05 ** 2)
        n = max(rep.iterations, 1)
        # amortized line-search cost: ~4 values and ~2 grads per iteration
        assert rep.value_calls / n <= 8.0
        assert rep.grad_calls / n <= 4.0

    def test_inconsistent_gradient_diverges(self):
        # the eps slack absorbs a wrong gradient g once L ~ |g|^2/eps, so at
        # the 1e18 ceiling a unit-scale one (-x) runs on; this one cannot fit
        bad = FunctionOracle(lambda x: float(x @ x), lambda x: -1e6 * np.asarray(x))
        with pytest.raises(DivergedOracleError, match="ceiling"):
            umt_minimize(bad, EuclideanProx(), np.ones(2), eps=1e-8, max_iter=500)

    def test_max_iter_reported(self):
        _, rep = umt_minimize(abs_oracle(), EuclideanProx(), np.array([1.0]),
                              eps=1e-12, max_iter=10)
        assert rep.termination == "max_iter"
        assert rep.iterations == 10

    def test_box_composite(self):
        # min 0.5|x|^2 + <1, x> on [0.5, 2]^2 -> x = 0.5 at the bound
        prox = EuclideanProx(lower=np.full(2, 0.5), upper=np.full(2, 2.0),
                             linear=np.ones(2))
        x, _ = umt_minimize(quadratic_oracle(), prox, np.ones(2), eps=1e-10, r2=2.0)
        assert x == pytest.approx([0.5, 0.5], abs=1e-6)


class TestRegimeScaling:
    def grind(self, oracle, x0, r2, epss):
        iters = []
        for eps in epss:
            _, rep = umt_minimize(oracle, EuclideanProx(), x0, eps=eps, r2=r2)
            iters.append(max(rep.iterations, 1))
        return np.array(iters, dtype=float)

    def test_nonsmooth_slope(self):
        epss = [1e-2, 1e-3, 1e-4]
        iters = self.grind(abs_oracle(), np.array([0.02]), 0.5 * 0.02 ** 2, epss)
        slope = np.polyfit(np.log10(epss), np.log10(iters), 1)[0]
        assert abs(slope - (-2.0)) <= 0.3

    def test_smooth_slope(self):
        # worst-case smooth chain: no first-order method beats ~eps^{-1/2}
        # here, so the adaptive line search cannot shortcut the regime
        oracle, r2 = chain_oracle(800, 0.1)
        epss = [1e-2, 1e-3, 1e-4]
        iters = []
        for eps in epss:
            _, rep = umt_minimize(oracle, EuclideanProx(), np.zeros(800),
                                  eps=eps, r2=r2)
            iters.append(max(rep.iterations, 1))
        slope = np.polyfit(np.log10(epss), np.log10(iters), 1)[0]
        assert abs(slope - (-0.5)) <= 0.3


class TestRestarts:
    def test_geometric_envelope(self):
        # ill-conditioned quadratic, mu = smallest eigenvalue
        diag = np.array([0.01, 0.05, 0.2, 1.0])
        oracle = FunctionOracle(
            lambda x: 0.5 * float(x @ (diag * x)),
            lambda x: diag * x,
        )
        x0 = np.ones(4)
        mu, lip = 0.01, 1.0
        values = []
        _, rep = restart_wrapper(oracle, EuclideanProx(), x0, mu=mu, lipschitz=lip,
                                 eps=1e-14, restarts=6,
                                 callback=lambda leg, p, r: values.append(r.final_value))
        # one run of 7 legs of ceil(sqrt(16 * lip / mu)) + 1 = 41 steps each
        assert rep.restarts == 6 and rep.iterations == 7 * 41 - 1
        assert len(values) == 7 and values[-1] == rep.final_value
        r0_sq = float(x0 @ x0)
        for k, v in enumerate(values):
            assert v <= 2.0 * mu * r0_sq / 2.0 ** (k + 1) + 1e-14

    def test_zero_restarts_single_run(self):
        oracle = quadratic_oracle()
        p1, _ = restart_wrapper(oracle, EuclideanProx(), np.ones(3), mu=1.0,
                                lipschitz=1.0, eps=1e-8, restarts=0)
        n_inner = math.ceil(math.sqrt(16.0 * 1.0 / 1.0))
        p2, _ = umt_minimize(oracle, EuclideanProx(), np.ones(3), eps=1e-8,
                             max_iter=n_inner)
        assert np.array_equal(p1, p2)

    def test_overestimated_mu_still_converges(self):
        diag = np.array([0.01, 1.0])
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ (diag * x)),
                                lambda x: diag * x)
        p, _ = restart_wrapper(oracle, EuclideanProx(), np.ones(2), mu=0.04,
                               lipschitz=1.0, eps=1e-10, restarts=20)
        assert 0.5 * float(p @ (diag * p)) <= 1e-6

    def test_rejects_r2(self):
        with pytest.raises(ValueError, match="r2"):
            restart_wrapper(quadratic_oracle(), EuclideanProx(), np.ones(2),
                            mu=1.0, lipschitz=1.0, eps=1e-6, restarts=0, r2=1.0)

    def test_rejects_zero_mu(self):
        with pytest.raises(ValueError):
            restart_wrapper(quadratic_oracle(), EuclideanProx(), np.ones(2),
                            mu=0.0, lipschitz=1.0, eps=1e-6, restarts=1)


class TestMirrorDescent:
    def test_inactive_constraint(self):
        # min |x|^2 on a box; constraint already satisfied at the optimum
        prox = EuclideanProx(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        xb, rep = mirror_descent_constrained(
            lambda x, rng: 2 * x, prox, eps=0.05, M_f=4.0, M_g=1.0, N=5000,
            x0=np.array([0.9, -0.9]),
            g_value=lambda x: x[0] - 0.5, g_grad=lambda x, rng: np.array([1.0, 0.0]),
            f_value=lambda x: float(x @ x))
        assert xb[0] - 0.5 <= 0.05
        assert rep.final_value <= 0.1

    def test_step_sizes_literal(self):
        prox = EuclideanProx(lower=np.zeros(2), upper=np.ones(2))
        eps, M_f, M_g = 0.05, 2.0, 1.5
        _, rep = mirror_descent_constrained(
            lambda x, rng: np.array([1.0, 0.5]), prox, eps=eps, M_f=M_f, M_g=M_g,
            N=200, x0=np.full(2, 0.5),
            g_value=lambda x: x[0] - 0.4, g_grad=lambda x, rng: np.array([1.0, 0.0]))
        h_f, h_g = eps / (M_f * M_g), eps / M_g ** 2
        assert rep.productive + rep.nonproductive == 200
        assert set(rep.step_trace) <= {h_f, h_g}
        assert rep.step_trace.count(h_f) == rep.productive

    def test_infeasibility_report(self):
        prox = EuclideanProx(lower=np.zeros(1), upper=np.ones(1))
        xb, rep = mirror_descent_constrained(
            lambda x, rng: np.ones(1), prox, eps=0.01, M_f=1.0, M_g=1.0, N=50,
            x0=np.zeros(1),
            g_value=lambda x: 5.0, g_grad=lambda x, rng: np.zeros(1))
        assert xb is None
        assert rep.termination == "infeasibility-suspected"


class _NoisyQuadratic(SmoothOracle):
    def __init__(self, sigma):
        self.sigma = sigma
        self.variance_bound = sigma ** 2

    def value(self, x):
        return 0.5 * float(x @ x)

    def value_grad(self, x):
        return self.value(x), np.asarray(x, dtype=float)

    def stochastic_grad(self, x, rng, batch):
        noise = rng.normal(0.0, self.sigma, size=(batch, len(x))).mean(axis=0)
        return np.asarray(x, dtype=float) + noise


class _CountingQuadratic(SmoothOracle):
    """0.5*c*|x|^2 that logs the kind and point of every call."""

    def __init__(self, c, variance_bound=None):
        self.c = c
        self.variance_bound = variance_bound
        self.calls = []

    def value(self, x):
        self.calls.append(("value", np.array(x)))
        return 0.5 * self.c * float(x @ x)

    def value_grad(self, x):
        self.calls.append(("value_grad", np.array(x)))
        return 0.5 * self.c * float(x @ x), self.c * np.asarray(x, dtype=float)

    def stochastic_grad(self, x, rng, batch):
        self.calls.append(("stochastic_grad", np.array(x)))
        return self.c * np.asarray(x, dtype=float)


class TestStepZero:
    @pytest.mark.parametrize("minibatch", [False, True])
    def test_one_gradient_however_many_trials(self, minibatch):
        oracle = _CountingQuadratic(1e4, variance_bound=1.0 if minibatch else None)
        y0 = np.ones(3)
        run = umt_stochastic if minibatch else umt_minimize
        _, rep = run(oracle, EuclideanProx(), y0, eps=1e-6, max_iter=0)
        assert rep.iterations == 0
        trials = int(math.log2(rep.lipschitz_trace[0])) + 1
        assert trials == 15  # l0 = 1 doubles up to the curvature
        grads = [x for kind, x in oracle.calls if kind != "value"]
        assert len(grads) == 1 and np.array_equal(grads[0], y0)
        assert rep.value_calls == 1 + trials
        assert rep.grad_calls == (0 if minibatch else 1)
        assert len(rep.batch_trace) == (1 if minibatch else 0)


class TestRestart:
    def test_restart_is_a_fresh_step_zero(self):
        oracle = _CountingQuadratic(1e4)
        seen = []

        def stop(state):
            seen.append((state, len(oracle.calls)))
            return "restart" if state.k == 3 else None

        _, rep = umt_minimize(oracle, EuclideanProx(), np.ones(3), eps=1e-6,
                              max_iter=5, stop=stop)
        (before, start), (after, end) = seen[3], seen[4]
        # the step after the restart is step 0 of a fresh run from x, which
        # settles at the same L
        fresh = _CountingQuadratic(1e4)
        x0, rep0 = umt_minimize(fresh, EuclideanProx(), before.x, eps=1e-6, max_iter=0)
        assert np.array_equal(after.x, x0) and after.alpha == rep0.alpha_trace[0]
        assert after.A == after.alpha and after.L == rep0.lipschitz_trace[0] == before.L
        assert np.array_equal(after.y, before.x)
        # a plain gradient step at the kept L
        assert np.allclose(after.x, before.x - 1e4 * before.x / after.L, rtol=0, atol=1e-15)
        replay = oracle.calls[start:end]
        assert [kind for kind, _ in replay] == [kind for kind, _ in fresh.calls[::15]]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(replay, fresh.calls[::15]))
        # one gradient and one trial at the kept L; 16 when a restart tried
        # L = 1 first again, as the fresh run does
        assert len(replay) == 2 and rep0.value_calls == 16
        assert rep.trial_trace == [15, 1, 1, 1, 1, 1]
        # one report counts across the restart
        assert rep.restarts == 1 and rep.termination == "max_iter"
        assert rep.iterations == 5 and len(rep.alpha_trace) == 6
        assert rep.value_calls == len(oracle.calls)
        assert rep.grad_calls == sum(kind == "value_grad" for kind, _ in oracle.calls)

    def test_restart_voids_the_radius_certificate(self):
        with pytest.raises(ValueError, match="r2"):
            umt_minimize(quadratic_oracle(), EuclideanProx(), np.ones(2), eps=1e-8,
                         r2=1.0, stop=lambda state: "restart")


class TestLineSearch:
    """A step opens at L/2 only if the step before would have passed there."""

    @staticmethod
    def first_trials(rep):
        # each rejected trial doubles L up to the accepted one
        return [L / 2.0 ** (n - 1) for L, n in zip(rep.lipschitz_trace, rep.trial_trace)]

    def test_settled_quadratic_takes_one_trial_a_step(self):
        # curvature 3: L settles at 4 in step 0, and L = 2 never passes
        oracle = _CountingQuadratic(3.0)
        _, rep = umt_minimize(oracle, EuclideanProx(), np.ones(4), eps=1e-20, max_iter=25)
        assert rep.lipschitz_trace == [4.0] * 26
        assert rep.trial_trace == [3] + [1] * 25  # step 0 tries L = 1, 2, 4
        # opening every step at L/2 took 103 calls: a rejected trial a step
        assert rep.value_calls == len(oracle.calls) == 54

    def test_accepted_steps_pass_and_the_rule_picks_the_opening(self):
        rng = np.random.default_rng(0)
        A, b = rng.normal(size=(6, 4)), rng.normal(size=6)
        calls = {}

        def f(x):
            calls[x.tobytes()] = value = float(np.sum(np.log(np.cosh(A @ x - b))))
            return value

        def grad(x):
            return A.T @ np.tanh(A @ x - b)

        eps = 1e-9
        steps = []
        _, rep = umt_minimize(FunctionOracle(f, grad), EuclideanProx(), np.zeros(4), eps=eps,
                              max_iter=60, stop=lambda s: steps.append(
                                  (s.y.copy(), s.x.copy(), s.L, s.alpha, s.A, s.fx)))
        opens = [1.0]  # step 0 tries L = 1 first
        for y, x, L, alpha, A_new, fx in steps:
            assert y.tobytes() in calls and calls[x.tobytes()] == fx  # both were valued
            d = x - y
            model = f(y) + float(grad(y) @ d) + 0.5 * L * float(d @ d) + alpha / (2 * A_new) * eps
            assert fx <= model
            opens.append(L / 2.0 if fx <= model - 0.25 * L * float(d @ d) else L)
        assert self.first_trials(rep) == opens[:-1]
        halved = [o < L for o, L in zip(opens[1:], rep.lipschitz_trace)]
        assert any(halved) and not all(halved)

    @staticmethod
    def quartic():
        # x^4/4 flattens towards its minimizer 0
        return FunctionOracle(lambda x: 0.25 * float(np.sum(x ** 4)), lambda x: x ** 3)

    def test_lipschitz_estimate_falls_with_the_curvature(self):
        _, rep = umt_minimize(self.quartic(), EuclideanProx(), np.full(2, 4.0), eps=1e-8,
                              max_iter=60)
        assert rep.lipschitz_trace[0] == 64.0
        assert rep.lipschitz_trace[-1] <= 1e-3

    def test_restart_keeps_the_opening(self):
        run = dict(eps=1e-8, max_iter=8)
        _, plain = umt_minimize(self.quartic(), EuclideanProx(), np.full(2, 4.0), **run)
        _, rep = umt_minimize(self.quartic(), EuclideanProx(), np.full(2, 4.0), **run,
                              stop=lambda state: "restart" if state.k == 5 else None)
        assert rep.restarts == 1
        # without the restart, step 6 opens at half of step 5's L = 4
        assert self.first_trials(plain) == [1.0, 64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        assert self.first_trials(rep)[:6] == self.first_trials(plain)[:6]
        # and so it does after the restart, which opened at L = 1 when it
        # reset the estimate
        assert self.first_trials(rep)[6] == 2.0


class TestFinish:
    def test_finish_steps_count_in_the_run(self):
        seen = []

        def finish(x, report, budget):
            seen.append((budget, report.value_calls))
            report.value_calls += 1
            return np.zeros_like(x), "finished", 3

        stop = lambda state: "finish" if state.k == 2 else None  # noqa: E731
        x, rep = umt_minimize(quadratic_oracle(), EuclideanProx(), np.ones(2), eps=1e-8,
                              max_iter=10, stop=stop, finish=finish)
        assert [budget for budget, _ in seen] == [8]  # steps 3 to 10 are left
        assert np.array_equal(x, np.zeros(2)) and rep.termination == "finished"
        assert rep.iterations == 5 and len(rep.alpha_trace) == 3  # steps 3-5 were finish's
        assert rep.value_calls == seen[0][1] + 1  # finish's call is in the report

    def test_finish_without_reason_goes_on_as_a_restart(self):
        # finish hands back from a point of its own; the run restarts there
        points = []

        def stop(state):
            points.append(state.x.copy())
            return "finish" if state.k == 1 else None

        def finish(x, report, budget):
            return np.full_like(x, 0.5), None, 2

        _, rep = umt_minimize(quadratic_oracle(), EuclideanProx(), np.ones(2), eps=1e-8,
                              max_iter=6, stop=stop, finish=finish)
        fresh, _ = umt_minimize(quadratic_oracle(), EuclideanProx(), np.full(2, 0.5),
                                eps=1e-8, max_iter=0)
        assert rep.restarts == 1 and rep.termination == "max_iter"
        assert rep.iterations == 6 and len(points) == 5  # steps 0, 1, then 4-6
        assert np.array_equal(points[2], fresh)


class TestStochastic:
    def test_noisy_quadratic_mean_gap(self):
        eps = 1e-2
        gaps = []
        for seed in range(20):
            oracle = _NoisyQuadratic(0.5)
            x, _ = umt_stochastic(oracle, EuclideanProx(), np.ones(3), eps=eps,
                                  seed=seed, r2=1.5, max_iter=2000)
            gaps.append(0.5 * float(x @ x))
        assert np.mean(gaps) <= eps

    def test_zero_variance_matches_deterministic(self):
        oracle = _NoisyQuadratic(0.0)
        xs, rs = umt_stochastic(oracle, EuclideanProx(), np.ones(4), eps=1e-8,
                                seed=3, r2=2.0)
        xd, rd = umt_minimize(oracle, EuclideanProx(), np.ones(4), eps=1e-8, r2=2.0)
        assert np.array_equal(xs, xd)
        assert rs.value_trace == rd.value_trace
        assert rs.alpha_trace == rd.alpha_trace

    def test_batch_rule(self):
        oracle = _NoisyQuadratic(0.3)
        eps = 1e-3
        _, rep = umt_stochastic(oracle, EuclideanProx(), np.ones(2), eps=eps,
                                seed=0, r2=1.0, max_iter=300)
        # recompute the declared rule from the accepted traces
        A = np.cumsum(rep.alpha_trace)
        D = oracle.variance_bound
        # each trial that forms a gradient point draws one batch, sized at
        # that trial's L; steps 0 and 1 form one point, y = x, at their first
        expect = []
        for k, (L, trials) in enumerate(zip(rep.lipschitz_trace, rep.trial_trace)):
            A_k = A[k - 1] if k else 0.0
            for j in range(1 if k < 2 else trials):
                L_j = L / 2.0 ** (trials - 1 - j)
                base = 1.0 / (2.0 * L_j)
                alpha = base + math.sqrt(base * base + A_k / L_j)
                expect.append(max(1, math.ceil(8.0 * D * (A_k + alpha) / (L_j * alpha * eps))))
        assert len(expect) > len(rep.alpha_trace)  # some steps formed several points
        assert rep.batch_trace == expect

    def test_batch_rule_reads_the_variance_in_the_dual_norm(self):
        # sum g_i^2 / w_i <= |g|^2 / min(w): a bound D on |g|^2 is D / min(w)
        # in the dual of the scaled norm, 4 here; step 0's first trial sizes
        # its batch at L = 1, A = alpha = 1
        batches = []
        for prox, D in ((EuclideanProx(scale=[0.5, 0.25, 2.0]), 1.0), (EuclideanProx(), 4.0)):
            _, rep = umt_stochastic(_CountingQuadratic(1.0, variance_bound=D), prox,
                                    np.ones(3), eps=1e-3, max_iter=0)
            batches.append(rep.batch_trace)
        assert batches[0] == batches[1] == [math.ceil(8.0 * 4.0 / 1e-3)]

    def test_requires_variance_bound(self):
        with pytest.raises(ValueError):
            umt_stochastic(quadratic_oracle(), EuclideanProx(), np.ones(2), eps=1e-3)


class TestProxSetups:
    @pytest.mark.parametrize("mu", [0.0, 0.7])
    def test_scaled_model_argmin_matches_brute_force(self, mu):
        # coordinate 0 ends clipped at its lower bound, coordinate 1 inside
        w, linear = np.array([0.3, 2.5]), np.array([0.4, -0.2])
        lower, upper = np.array([-1.0, 0.0]), np.array([1.0, 1.5])
        prox = EuclideanProx(lower=lower, upper=upper, linear=linear, scale=w)
        y0, G, Y, S = np.array([0.2, 0.9]), np.array([0.5, -1.1]), np.array([0.3, 1.2]), 1.5

        def model(x):  # the points run over the last axis
            return (0.5 * (w * (x - y0) ** 2).sum(-1) + x @ G
                    + 0.5 * mu * (S * (w * x * x).sum(-1) - 2.0 * x @ (w * Y)) + S * x @ linear)

        x = prox.model_argmin(y0, G, S, mu, Y)
        axes = [np.linspace(lo, hi, 801) for lo, hi in zip(lower, upper)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values = model(grid)
        assert x[0] == lower[0] and lower[1] < x[1] < upper[1]
        assert model(x) <= values.min() + 1e-12
        assert np.abs(x - grid[values.argmin()]).max() <= (upper - lower).max() / 800

    def test_scaled_mirror_step_moves_in_the_metric(self):
        # argmin <v, z> + sum_i w_i (z_i - x_i)^2 / 2 on the box: x - v/w, clipped
        box = dict(lower=np.zeros(2), upper=np.full(2, 2.0))
        x, v = np.ones(2), np.array([1.0, -2.0])
        assert np.array_equal(EuclideanProx(**box, scale=[0.5, 4.0]).mirror_step(x, v), [0.0, 1.5])
        assert np.array_equal(EuclideanProx(**box).mirror_step(x, v), [0.0, 2.0])

    def test_euclidean_model_argmin_closed_form(self):
        prox = EuclideanProx(lower=np.zeros(2), upper=np.ones(2))
        y0 = np.array([0.5, 0.5])
        G = np.array([2.0, -2.0])
        x = prox.model_argmin(y0, G, 1.0, 0.0, y0)
        assert x == pytest.approx([0.0, 1.0])
