"""Dual objective oracle, certificates, and equilibrium solves."""

import math

import numpy as np
import pytest

from equiflow import (
    DualOracle,
    EdgeCostModel,
    FlowState,
    LevelGraph,
    Network,
    capacity_violation,
    complementarity_residual,
    dual_value_grad,
    duality_gap,
    frank_wolfe_gap,
    solve_assignment,
    solve_multistage,
    stochastic_origin_oracle,
    umt_stochastic,
)

from equiflow.dual import MODELS, experienced_times

from conftest import (
    braess_network, edge_conjugate, edge_cost, edge_integral, fixed_edge, linear_edge,
    random_network,
)


def two_origin_network():
    lg = LevelGraph(3, plain_edges=[
        (0, 2, EdgeCostModel("bpr", 1.0, 1.0, 0.5, 0.5)),
        (0, 1, EdgeCostModel("bpr", 0.5, 2.0, 0.3, 1.0)),
        (1, 2, EdgeCostModel("bpr", 1.0, 1.0, 0.4, 0.25)),
    ])
    return Network([lg], {(0, 2): 1.0, (1, 2): 2.0})


def count_assignments(monkeypatch):
    """Patch dual.assignment_flows to append 1 to the returned list per call."""
    import equiflow.dual as dual

    calls = []
    real = dual.assignment_flows
    monkeypatch.setattr(dual, "assignment_flows",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


class TestDualOracle:
    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            net = random_network(rng, gamma=0.5)
            t = net.free_flow_times() + rng.uniform(0.05, 0.8, size=net.n_times)
            _, grad, _ = dual_value_grad(net, t)
            h = 1e-5
            for e in range(net.n_times):
                tp, tm = t.copy(), t.copy()
                tp[e] += h
                tm[e] -= h
                vp = DualOracle(net).value(tp)
                vm = DualOracle(net).value(tm)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - grad[e]) <= 1e-5 * max(1.0, abs(grad[e]))

    def test_gradient_at_free_flow_is_negated_loading(self, pigou_network):
        # conjugate derivatives vanish at free-flow times, leaving -flows
        net = pigou_network
        t = net.free_flow_times()
        _, grad, flow = dual_value_grad(net, t)
        assert grad == pytest.approx(-flow.plain_flat(), abs=1e-12)

    def test_value_convex_along_segment(self):
        rng = np.random.default_rng(22)
        net = random_network(rng, gamma=0.5)
        oracle = DualOracle(net)
        base = net.free_flow_times()
        a = base + rng.uniform(0.05, 1.0, size=net.n_times)
        b = base + rng.uniform(0.05, 1.0, size=net.n_times)
        mid = 0.5 * (a + b)
        assert oracle.value(mid) <= 0.5 * (oracle.value(a) + oracle.value(b)) + 1e-10

    def test_strong_convexity_detected_for_linear_costs(self, pigou_network):
        # free edge: linear cost, curvature capacity/(gain * t_free) = 1;
        # the fixed-cost edge is pinned and does not cap the bound
        assert DualOracle(pigou_network).strong_convexity() == pytest.approx(1.0)

    def test_strong_convexity_zero_with_fractional_power(self):
        rng = np.random.default_rng(23)
        net = random_network(rng)  # powers drawn from {0.25, 0.5, 1.0}
        kinds = {m.bpr_power for m in net.cost_models}
        if kinds != {1.0}:
            assert DualOracle(net).strong_convexity() == 0.0

    def test_prox_box_pins_fixed_edges(self, pigou_network):
        prox = DualOracle(pigou_network).prox()
        assert prox.upper[0] == prox.lower[0] == 1.0  # fixed-cost edge
        assert math.isinf(prox.upper[1])


class TestAssignmentMemo:
    def point(self, seed=22):
        rng = np.random.default_rng(seed)
        net = random_network(rng, gamma=0.5)
        return net, net.free_flow_times() + rng.uniform(0.05, 0.8, size=net.n_times)

    def test_one_assignment_per_point(self, monkeypatch):
        calls = count_assignments(monkeypatch)
        net, t = self.point()
        oracle = DualOracle(net)
        v = oracle.value(t)
        v2, _ = oracle.value_grad(t.copy())
        oracle.point(t)
        assert len(calls) == 1 and v == v2
        oracle.value(t + 0.1)
        assert len(calls) == 2

    def test_trial_values_keep_the_gradient_point(self, monkeypatch):
        # the initial line search values several trial points after one
        # value_grad(y); the stop test then reads y's flows without a new sweep
        calls = count_assignments(monkeypatch)
        net, t = self.point()
        oracle = DualOracle(net)
        oracle.value_grad(t)
        oracle.value(t + 0.1)
        oracle.value(t + 0.2)
        flow = oracle.point(t)[1]
        oracle.point(t + 0.2)
        assert len(calls) == 3
        _, _, flow_ref = dual_value_grad(net, t)
        assert np.array_equal(flow.plain_flat(), flow_ref.plain_flat())

    @pytest.mark.parametrize("model", ["stochastic", "multistage"])
    def test_one_assignment_per_solver_call(self, monkeypatch, model):
        calls = count_assignments(monkeypatch)
        net = random_network(np.random.default_rng(27), m=1 if model == "stochastic" else 2,
                             gamma=0.5)
        rep = solve_assignment(net, model=model, eps=1e-6)
        assert rep.converged and rep.solver.iterations > 5
        assert len(calls) == rep.solver.value_calls

    @pytest.mark.parametrize("model", ["stochastic", "multistage"])
    def test_one_conjugate_per_point(self, monkeypatch, model):
        # the stop test certifies y, x and the average at x with the
        # conjugates the oracle evaluated there
        from equiflow.network import EdgeTable

        points = []
        real = EdgeTable.conjugate
        monkeypatch.setattr(EdgeTable, "conjugate",
                            lambda self, t: points.append(np.asarray(t).tobytes()) or real(self, t))
        net = random_network(np.random.default_rng(27), m=1 if model == "stochastic" else 2,
                             gamma=0.5)
        rep = solve_assignment(net, model=model, eps=1e-6)
        assert rep.converged and rep.solver.iterations > 5
        # one per evaluated point, and one for the report
        assert len(points) == rep.solver.value_calls + 1
        assert len(set(points[:-1])) == len(points) - 1

    def test_new_point_not_stale(self):
        net, t = self.point()
        oracle = DualOracle(net)
        oracle.value(t)
        t2 = t + 0.3
        v, g = oracle.value_grad(t2)
        v_ref, g_ref = DualOracle(net).value_grad(t2)
        assert v == v_ref
        assert np.array_equal(g, g_ref)

    def test_in_place_mutation_not_stale(self):
        net, t = self.point()
        oracle = DualOracle(net)
        oracle.value(t)
        t[0] += 0.25
        v, g = oracle.value_grad(t)
        v_ref, g_ref = DualOracle(net).value_grad(t.copy())
        assert v == v_ref
        assert np.array_equal(g, g_ref)
        flow_ref = DualOracle(net).point(t.copy())[1]
        assert np.array_equal(oracle.point(t)[1].plain_flat(), flow_ref.plain_flat())

    def test_held_arrays_are_read_only(self):
        # every later read of the point shares them
        net, t = self.point()
        _, flow, conjugate = DualOracle(net).point(t)
        for a in (*conjugate, flow.values, flow.plain_flat(), flow.plain[0]):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestForwardOnlyValue:
    """value() sweeps forward only; flows are finished when first read."""

    def test_value_then_value_grad(self, monkeypatch):
        from equiflow import softmin

        calls = []
        for name in ("_sweep_forward", "_sweep_backward"):
            real = getattr(softmin, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(softmin, name, counting)
        rng = np.random.default_rng(26)
        net = random_network(rng, gamma=0.5)
        t = net.free_flow_times() + rng.uniform(0.05, 0.8, size=net.n_times)
        oracle = DualOracle(net)
        v = oracle.value(t)
        assert calls == ["_sweep_forward"]
        v2, g = oracle.value_grad(t)
        assert calls == ["_sweep_forward", "_sweep_backward"]
        v_ref, g_ref = DualOracle(net).value_grad(t)
        assert v == v2 == v_ref
        assert np.array_equal(g, g_ref)


class TestDualityGap:
    def test_zero_when_times_match_costs(self):
        rng = np.random.default_rng(24)
        net = random_network(rng)
        f = rng.uniform(0.1, 2.0, size=net.n_times)
        t = net.edges.cost(f)
        _, total = duality_gap(net, t, f)
        assert abs(total) <= 1e-10

    def test_terms_nonnegative(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            net = random_network(rng)
            f = rng.uniform(0.0, 2.0, size=net.n_times)
            t = net.free_flow_times() + rng.uniform(0.0, 1.0, size=net.n_times)
            terms, _ = duality_gap(net, t, f)
            assert terms.min() >= -1e-12

    def test_sd_term_uses_capped_flow(self, sd_two_link):
        net = sd_two_link
        terms, _ = duality_gap(net, np.array([1.5, 2.0]), np.array([1.3, 0.7]))
        # capacitated edge: (t - t_free) * (cap - min(f, cap)) = 0.5 * 0
        assert terms[0] == pytest.approx(0.0, abs=1e-15)
        assert terms[1] == 0.0  # infinite capacity contributes nothing
        assert capacity_violation(net, np.array([1.3, 0.7])) == pytest.approx(0.3)
        assert complementarity_residual(net, [1.5, 2.0], [0.5, 1.5]) == pytest.approx(0.25)

    def test_pinned_time_one_ulp_above_free_flow(self):
        # the solver's averaging steps can round a pinned time just above t_free
        lg = LevelGraph(2, plain_edges=[
            (0, 1, fixed_edge(1e-6)),
            (0, 1, EdgeCostModel("sd", 2.5, math.inf)),
            (0, 1, EdgeCostModel("sd", 1.0, 2.0)),
        ])
        net = Network([lg], {(0, 1): 1.0})
        t = np.nextafter(net.free_flow_times(), math.inf)
        f = np.array([0.7, 0.3, 2.0])
        terms, total = duality_gap(net, t, f)
        assert terms.tolist() == [1e-6 * f[0] - f[0] * t[0], 0.0, 0.0]
        assert total == terms[0]


class TestEdgeKinds:
    """Array certificates against a per-edge loop over the cost models."""

    def network(self):
        lg = LevelGraph(3, plain_edges=[
            (0, 1, EdgeCostModel("bpr", 1.0, 1.0, 0.5, 0.5)),
            (1, 2, EdgeCostModel("sd", 1.0, 0.6)),
            (0, 2, EdgeCostModel("sd", 2.5, math.inf)),
            (0, 2, fixed_edge(3.0)),
            (0, 1, EdgeCostModel("bpr", 0.5, 2.0, 0.3, 1.0)),
            (1, 2, EdgeCostModel("sd", 0.4, 1.2)),
        ])
        return Network([lg], {(0, 2): 1.0})

    def test_matches_per_edge_reference(self):
        net = self.network()
        models = net.cost_models
        t = net.free_flow_times() + np.array([0.3, 0.2, 0.0, 0.0, 0.7, 0.0])
        f = np.array([0.4, 0.9, 0.3, 0.2, 1.1, 0.5])
        terms, conj_grad, tau = [], [], []
        for m, tk, fk in zip(models, t, f):
            if m.kind == "bpr":
                conj = (0.0, 0.0) if m.bpr_gain == 0.0 else edge_conjugate(m, tk)
                terms.append(edge_integral(m, fk) - fk * tk + conj[0])
                conj_grad.append(conj[1])
                tau.append(edge_cost(m, fk))
            else:
                capped = math.isfinite(m.capacity)
                terms.append((tk - m.t_free) * (m.capacity - min(fk, m.capacity))
                             if capped else 0.0)
                conj_grad.append(0.0)
                tau.append(tk)
        got, total = duality_gap(net, t, f)
        assert got == pytest.approx(terms, abs=1e-14)
        assert total == pytest.approx(sum(terms), abs=1e-14)
        assert capacity_violation(net, f) == pytest.approx(0.3)
        assert complementarity_residual(net, t, f) == pytest.approx(0.2 * 0.3)
        assert np.array_equal(experienced_times(net, t, f), tau)
        oracle = DualOracle(net, gammas=[0.5])
        _, grad = oracle.value_grad(t)
        assert grad + oracle.point(t)[1].plain_flat() == pytest.approx(conj_grad, abs=1e-14)
        assert oracle.upper.tolist() == [math.inf, math.inf, 2.5, 3.0, math.inf, math.inf]
        assert oracle.linear.tolist() == [0.0, 0.6, 0.0, 0.0, 0.0, 1.2]
        assert oracle.strong_convexity() == 0.0  # capacitated edges are free


class TestBeckmannSolve:
    def test_pigou_equilibrium(self, pigou_network):
        rep = solve_assignment(pigou_network, model="beckmann", eps=1e-9)
        assert rep.converged
        f = rep.flows.plain_flat()
        assert f[0] == pytest.approx(0.0, abs=1e-4)
        assert f[1] == pytest.approx(1.0, abs=1e-4)
        assert rep.total_time == pytest.approx(1.0, abs=1e-3)
        assert rep.fw_gap <= 1e-9

    def test_braess_costs(self):
        rep = solve_assignment(braess_network(True), model="beckmann", eps=1e-9)
        assert rep.converged
        assert rep.total_time == pytest.approx(2.0, abs=1e-4)
        base = solve_assignment(braess_network(False), model="beckmann", eps=1e-9)
        assert base.total_time == pytest.approx(1.5, abs=1e-4)

    @pytest.mark.parametrize("max_iter", [0, -4])
    @pytest.mark.parametrize("model", MODELS)
    def test_mirror_descent_takes_at_least_one_step(self, pigou_network, model, max_iter):
        # iterations count from 0: a zero budget stops after step 0
        rep = solve_assignment(pigou_network, model=model, max_iter=max_iter)
        assert rep.solver.iterations == 0 and len(rep.solver.gap_trace) == 1

    def test_mirror_descent_variant(self, pigou_network):
        rep = solve_assignment(pigou_network, model="beckmann_md", eps=1e-3,
                               max_iter=50000)
        assert rep.converged
        f = rep.flows.plain_flat()
        assert f[1] == pytest.approx(1.0, abs=0.05)
        assert frank_wolfe_gap(pigou_network, f) <= 1e-3

    def test_stochastic_model_certifies_fenchel_gap(self, pigou_network):
        rep = solve_assignment(pigou_network, model="stochastic", eps=1e-6,
                               gammas=[0.2])
        assert rep.converged
        assert rep.total_gap <= 1e-6

    def test_multilevel_rejected_for_single_level_models(self):
        rng = np.random.default_rng(26)
        net = random_network(rng, m=2)
        with pytest.raises(ValueError):
            solve_assignment(net, model="beckmann")


class TestStableDynamicsSolve:
    def test_two_link_certificates(self, sd_two_link):
        rep = solve_assignment(sd_two_link, model="stable_dynamics", eps=1e-6)
        assert rep.converged
        assert rep.total_gap <= 1e-6
        assert rep.capacity_violation <= 1e-6
        assert rep.complementarity <= 1e-5
        f = rep.flows.plain_flat()
        assert f[0] == pytest.approx(1.0, abs=1e-3)
        assert f[1] == pytest.approx(1.0, abs=1e-3)
        # both links equalize at time 2; congestion multiplier 1 on link 1
        assert rep.t[0] == pytest.approx(2.0, abs=2e-2)
        assert rep.multipliers[0] == pytest.approx(1.0, abs=2e-2)

    def test_total_time_nonincreasing_in_capacity(self):
        times = []
        for cap in (0.8, 1.0, 1.5):
            e1 = EdgeCostModel("sd", 1.0, cap)
            e2 = EdgeCostModel("sd", 2.0, math.inf)
            net = Network([LevelGraph(2, plain_edges=[(0, 1, e1), (0, 1, e2)])],
                          {(0, 1): 2.0})
            rep = solve_assignment(net, model="stable_dynamics", eps=1e-6)
            assert rep.converged
            times.append(rep.total_time)
        assert times[0] >= times[1] - 1e-4 >= times[2] - 2e-4


class TestOneCertificateRule:
    """A smooth dual model certifies gap, capacity violation and complementarity."""

    @staticmethod
    def assert_certificate_holds(rep):
        if rep.converged:
            assert rep.total_gap <= rep.eps
            assert rep.capacity_violation <= rep.eps_residual
            assert rep.complementarity <= 10 * max(rep.eps, rep.eps_residual)

    def test_stochastic_on_capacitated_link(self, sd_two_link):
        # the Fenchel gap clamps flow to capacity, so it alone certified an
        # overloaded link at step 0
        rep = solve_assignment(sd_two_link, model="stochastic")
        self.assert_certificate_holds(rep)
        assert rep.converged
        assert rep.flows.plain_flat() == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_multistage_with_capacitated_inner_level(self):
        inner = LevelGraph(2, plain_edges=[
            (0, 1, EdgeCostModel("sd", 1.0, 1.0)),
            (0, 1, EdgeCostModel("sd", 2.0, math.inf)),
        ], gamma=0.1)
        outer = LevelGraph(2, nested_edges=[(0, 1, (0, 1))], gamma=0.1)
        net = Network([outer, inner], {(0, 1): 2.0})
        rep = solve_multistage(net, max_iter=5000)
        # neither y nor x meets the capacity within the budget; the
        # step-weighted average of the flows at y does
        assert rep.converged
        self.assert_certificate_holds(rep)

    @pytest.mark.parametrize("seed,levels,gamma,model", [(16, 1, 0.3, "stochastic"),
                                                         (9, 2, 1.0, "multistage")])
    def test_average_counts_its_route_choice_gap(self, seed, levels, gamma, model):
        # the step-weighted average of logit flows is no logit assignment at x;
        # on its edge Fenchel terms alone it certified these runs first, with
        # flows 0.028 and 0.011 off the assignment at the written times
        net = random_network(np.random.default_rng(seed), m=levels, gamma=gamma)
        rep = solve_assignment(net, model=model, eps=1e-4)
        assert rep.converged
        flows = dual_value_grad(net, rep.t)[2]
        assert np.abs(flows.plain_flat() - rep.flows.plain_flat()).max() <= 1e-12


class TestStochasticOracle:
    def test_full_support_batch_matches_deterministic(self):
        net = two_origin_network()
        t = net.free_flow_times() + 0.3
        _, grad, _ = dual_value_grad(net, t)
        # origins drawn exactly at their demand shares (1:2): the
        # inverse-probability reweighting cancels and the estimate is exact
        est = stochastic_origin_oracle(net, t, [0, 1, 1])
        assert est == pytest.approx(grad, abs=1e-12)

    def test_single_origin_draw_is_exact(self, pigou_network):
        t = pigou_network.free_flow_times() + 0.2
        _, grad, _ = dual_value_grad(pigou_network, t)
        est = stochastic_origin_oracle(pigou_network, t, [0])
        assert est == pytest.approx(grad, abs=1e-12)

    def test_monte_carlo_mean_unbiased(self):
        net = two_origin_network()
        oracle = DualOracle(net, variance_bound=1.0)
        t = net.free_flow_times() + 0.4
        _, grad = oracle.value_grad(t)
        rng = np.random.default_rng(0)
        n = 4000
        draws = np.array([oracle.stochastic_grad(t, rng, 1) for _ in range(n)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - grad) <= 3 * se + 1e-12)

    def test_empty_batch_rejected(self, pigou_network):
        with pytest.raises(ValueError):
            stochastic_origin_oracle(pigou_network, [1.0, 1.0], [])

    def test_origin_without_demand_rejected(self):
        net = two_origin_network()
        with pytest.raises(ValueError, match="origin 2 has no demand"):
            stochastic_origin_oracle(net, net.free_flow_times(), [0, 2, 1])

    def test_batch_is_one_assignment(self, monkeypatch):
        net = two_origin_network()
        t = net.free_flow_times() + 0.3
        batch = [0, 1, 1, 0, 1]
        per_draw = np.mean([stochastic_origin_oracle(net, t, [o]) for o in batch], axis=0)
        calls = count_assignments(monkeypatch)
        est = stochastic_origin_oracle(net, t, batch)
        assert len(calls) == 1
        assert np.abs(est - per_draw).max() <= 1e-12

    def test_minibatch_solve_is_one_assignment_per_batch(self, monkeypatch):
        calls = count_assignments(monkeypatch)
        rep = solve_assignment(two_origin_network(), model="stochastic", eps=1e-4,
                               variance_bound=0.1, seed=0)
        assert rep.converged
        TestOneCertificateRule.assert_certificate_holds(rep)
        assert len(calls) <= rep.solver.value_calls + len(rep.solver.batch_trace)

    def test_single_origin_batch_reads_the_gradient_point(self, monkeypatch):
        # every draw is the only origin, whose reweighted demands are its own
        calls = count_assignments(monkeypatch)
        net = random_network(np.random.default_rng(16), gamma=1.0)
        rep = solve_assignment(net, model="stochastic", eps=1e-3, variance_bound=0.1, seed=0)
        assert rep.converged
        assert len(calls) == rep.solver.value_calls == 57  # 85 with a second assignment
        oracle = DualOracle(net, variance_bound=0.1)
        t = net.free_flow_times() + 0.3
        est = oracle.stochastic_grad(t, np.random.default_rng(0), 7)
        assert np.array_equal(est, stochastic_origin_oracle(net, t, net.origins() * 7))
        assert np.array_equal(est, oracle.value_grad(t)[1])

    @pytest.mark.parametrize("model,network,run", [
        ("stochastic", "pigou_network", dict(gammas=[0.2], eps=1e-6)),
        ("mixed", "sd_two_link", dict(eps=1e-3)),
        ("stable_dynamics", "sd_two_link", dict(eps=1e-3)),
    ], ids=["stochastic", "mixed", "stable_dynamics"])
    def test_zero_variance_matches_deterministic_solver(self, request, model, network, run):
        # one origin: every mini-batch draw is the exact gradient
        net = request.getfixturevalue(network)
        det = solve_assignment(net, model=model, **run)
        sto = solve_assignment(net, model=model, variance_bound=0.0, **run)
        assert sto.converged
        assert sto.solver.iterations == det.solver.iterations
        assert np.array_equal(det.t, sto.t)
        assert np.array_equal(det.flows.plain_flat(), sto.flows.plain_flat())


class TestMultistage:
    def test_degenerate_nesting_matches_flat(self):
        # single inner edge: the nested edge prices exactly as a plain one
        inner = LevelGraph(2, plain_edges=[(0, 1, linear_edge())], gamma=0.3)
        outer = LevelGraph(
            2,
            plain_edges=[(0, 1, fixed_edge(1.0))],
            nested_edges=[(0, 1, (0, 1))],
            gamma=0.3,
        )
        nested_net = Network([outer, inner], {(0, 1): 1.0})
        flat = Network(
            [LevelGraph(2, plain_edges=[(0, 1, fixed_edge(1.0)), (0, 1, linear_edge())],
                        gamma=0.3)],
            {(0, 1): 1.0},
        )
        rep_n = solve_multistage(nested_net, eps=1e-8)
        rep_f = solve_assignment(flat, model="stochastic", eps=1e-8)
        assert rep_n.converged and rep_f.converged
        # plain edges flatten as [outer fixed, inner linear] in both layouts
        assert rep_n.flows.plain_flat() == pytest.approx(
            rep_f.flows.plain_flat(), abs=1e-4)

    def test_two_level_solve_certifies(self):
        rng = np.random.default_rng(27)
        net = random_network(rng, m=2, gamma=0.5)
        rep = solve_multistage(net, eps=1e-6)
        assert rep.converged
        assert rep.total_gap <= 1e-6
        # nested flows equal the inner-level demand they induce
        assert rep.flows.nested[0].sum() >= 0.0

    def test_wrapper_is_solve_assignment(self):
        net = random_network(np.random.default_rng(27), m=2, gamma=0.5)
        a = solve_multistage(net, eps=1e-6)
        b = solve_assignment(net, model="multistage", eps=1e-6)
        assert a.model == b.model == "multistage"
        assert a.solver.iterations == b.solver.iterations
        assert a.solver.gap_trace == b.solver.gap_trace
        assert np.array_equal(a.t, b.t)
        for fa, fb in zip(a.flows.plain + a.flows.nested, b.flows.plain + b.flows.nested):
            assert np.array_equal(fa, fb)
        assert np.array_equal(a.per_edge_gap, b.per_edge_gap)

    def test_zero_gamma_level_certifies(self):
        # the inner level loads all-or-nothing; only multistage accepts that
        net = random_network(np.random.default_rng(27), m=2)
        rep = solve_multistage(net, gammas=[0.5, 0.0])
        assert rep.converged and rep.total_gap <= 1e-6
        assert rep.solver.iterations == 60
        with pytest.raises(ValueError, match="positive smoothing"):
            solve_assignment(net, model="mixed", gammas=[0.5, 0.0])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'wardrop'"):
            solve_assignment(random_network(np.random.default_rng(3)), model="wardrop")
