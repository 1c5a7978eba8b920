"""Dual objective oracle, certificates, and equilibrium solves."""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from equiflow import (
    DualOracle,
    EdgeCostModel,
    FlowState,
    LevelGraph,
    Network,
    assignment_flows,
    capacity_violation,
    complementarity_residual,
    dual_value_grad,
    duality_gap,
    effective_weights,
    frank_wolfe_gap,
    load_network,
    solve_assignment,
    solve_multistage,
    stochastic_origin_oracle,
)

from equiflow.dual import MODELS, experienced_times
from equiflow.solvers import SmoothOracle

from conftest import (
    braess_network, edge_conjugate, edge_cost, edge_integral, edge_layouts, fixed_edge,
    flows_around_capacity, linear_edge, mask_conjugate, mask_integral, random_network,
    record_solve_points, times_around_free,
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


def record_points(monkeypatch):
    """Patch SmoothOracle._per_point, the one lookup through which value,
    value_grad and point read, to add the bytes of every point requested to
    the returned set."""
    points = set()
    real = SmoothOracle._per_point
    monkeypatch.setattr(SmoothOracle, "_per_point", lambda self, t, read:
                        points.add(np.asarray(t, dtype=float).tobytes()) or real(self, t, read))
    return points


def mixed_edge_network(nested):
    """Smooth BPR, zero-gain BPR, capped SD and uncapped SD edges, on one
    level or on the inner level of a nested network."""
    lg = LevelGraph(3, plain_edges=[
        (0, 1, EdgeCostModel("bpr", 1.0, 1.0, 0.5, 1.0)),
        (1, 2, EdgeCostModel("bpr", 1.0, 1.0, 0.3, 0.5)),
        (0, 2, fixed_edge(2.5)),
        (0, 1, EdgeCostModel("sd", 1.2, 0.4)),
        (1, 2, EdgeCostModel("sd", 3.0, math.inf)),
    ], gamma=0.5)
    if not nested:
        return Network([lg], {(0, 2): 2.0})
    outer = LevelGraph(2, plain_edges=[(0, 1, EdgeCostModel("bpr", 2.0, 1.0, 0.4, 1.0))],
                       nested_edges=[(0, 1, (0, 2))], gamma=0.5)
    return Network([outer, lg], {(0, 1): 2.0})


def congested_grid(k=4, gamma=1.0, power=None):
    """k x k BPR grid, both directions, mixed powers (or all `power`); eight
    ODs of about one unit."""
    edges = []
    for v in range(k * k):
        r, c = divmod(v, k)
        for w in ([v + 1] if c + 1 < k else []) + ([v + k] if r + 1 < k else []):
            for a, b in ((v, w), (w, v)):
                edges.append((a, b, EdgeCostModel(
                    "bpr", 1.0 + 0.25 * ((a + 2 * b) % 5), 1.0 + 0.5 * ((a + b) % 5),
                    0.5 + 0.125 * ((a * b) % 5),
                    power or (0.25, 0.5, 1.0)[(2 * a + b) % 3])))
    n = k * k
    pairs = [(0, n - 1), (n - 1, 0), (k - 1, n - k), (n - k, k - 1),
             (1, n - 2), (k, 2 * k - 1), (n - 2, 1), (2 * k + 1, k + 2)]
    return Network([LevelGraph(n, plain_edges=edges, gamma=gamma)],
                   {od: 0.75 + 0.125 * (i % 5) for i, od in enumerate(pairs)})


def bench_network(tmp_path, workload, key, **kwargs):
    """The network of bench/workloads.py's `workload` drawn from
    random.Random(key), loaded from its file as the CLI loads it."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    path = tmp_path / "in.net"
    workloads.write_network(path, getattr(workloads, workload)(random.Random(key), **kwargs))
    return load_network(path)


def record_stops(monkeypatch):
    """Patch the solve's umt_minimize to append what its stop test returns
    after each step to the returned list."""
    import equiflow.dual as dual

    reasons = []
    real = dual.umt_minimize

    def umt(*args, stop, **kwargs):
        return real(*args, stop=lambda state: reasons.append(stop(state)) or reasons[-1],
                    **kwargs)

    monkeypatch.setattr(dual, "umt_minimize", umt)
    return reasons


def count_gap_calls(monkeypatch):
    """Patch dual.duality_gap and the solve's umt_minimize; returns (points,
    steps): the number of dimensions of t in every duality_gap call, the
    stop test's and any after the last step (the report's), and (what the
    stop test returned, its duality_gap calls) per step."""
    import equiflow.dual as dual

    points, steps = [], []
    real_gap, real_umt = dual.duality_gap, dual.umt_minimize
    monkeypatch.setattr(dual, "duality_gap", lambda network, t, *args: points.append(
        np.ndim(t)) or real_gap(network, t, *args))

    def umt(*args, stop, **kwargs):
        def counted(state):
            before = len(points)
            reason = stop(state)
            steps.append((reason, len(points) - before))
            return reason
        return real_umt(*args, stop=counted, **kwargs)

    monkeypatch.setattr(dual, "umt_minimize", umt)
    return points, steps


class TestStart:
    """Models certified by the triple start at the costs of the free-flow loads."""

    @pytest.mark.parametrize("model,nested", [("stochastic", False), ("multistage", True),
                                              ("mixed", True)])
    def test_first_gradient_point_is_the_free_flow_costs(self, monkeypatch, model, nested):
        seen = record_solve_points(monkeypatch)
        net = mixed_edge_network(nested)
        rep = solve_assignment(net, model=model, max_iter=2)
        e, t_free = net.edges, net.free_flow_times()
        f = DualOracle(net, rep.gammas).point(t_free)[1].plain_flat()
        start = np.where(e.smooth, e.cost(f), t_free)
        assert e.pinned[~e.is_sd].any() and e.capped.any() and e.pinned[e.is_sd].any()
        assert np.all(start[e.smooth] > t_free[e.smooth])
        assert np.array_equal(start[~e.smooth], t_free[~e.smooth])
        assert np.array_equal(seen["value_grad"][0], t_free)
        assert np.array_equal(seen["y0"][0], start)
        assert np.array_equal(seen["value_grad"][1], start)

    @pytest.mark.parametrize("model", ["beckmann", "beckmann_md"])
    def test_frank_wolfe_models_start_at_free_flow(self, monkeypatch, pigou_network, model):
        seen = record_solve_points(monkeypatch)
        rep = solve_assignment(pigou_network, model=model, max_iter=2)
        t_free = pigou_network.free_flow_times()
        assert np.array_equal(seen["y0"][0], t_free)
        assert np.array_equal(seen["value_grad"][0], t_free)
        assert [rep.solver.value_calls, rep.solver.grad_calls] == list(seen["umt_calls"][0])

    @pytest.mark.parametrize("model", ["beckmann", "beckmann_md"])
    def test_frank_wolfe_models_reject_sd_edges_before_any_sweep(self, monkeypatch,
                                                                  sd_two_link, model):
        # the Frank-Wolfe gap needs a cost map on every edge: checked before any work
        from equiflow import softmin

        sweeps = []
        real = softmin._sweep_forward
        monkeypatch.setattr(softmin, "_sweep_forward",
                            lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
        with pytest.raises(ValueError, match="^equilibrium gap needs BPR cost maps on every edge$"):
            solve_assignment(sd_two_link, model=model)
        assert sweeps == []

    def test_reported_calls_count_the_start(self, monkeypatch):
        seen = record_solve_points(monkeypatch)
        rep = solve_assignment(two_origin_network(), model="stochastic", eps=1e-4)
        assert rep.converged
        grads, values = len(seen["value_grad"]), len(seen["value"])
        assert (rep.solver.value_calls, rep.solver.grad_calls) == (grads + values, grads)
        inner_values, inner_grads = seen["umt_calls"][0]
        assert (rep.solver.value_calls, rep.solver.grad_calls) == (inner_values + 1,
                                                                   inner_grads + 1)

    def test_grid_certifies_in_fewer_steps(self):
        rep = solve_assignment(congested_grid(), model="stochastic", eps=1e-6)
        assert rep.converged and rep.total_gap <= 1e-6
        # 18 steps and 55 value calls in the plain Euclidean norm; 25 steps when
        # the solve started at t_free; 68 calls, in 16 steps, when every step
        # opened at L/2; 10 steps and 28 calls without the gradient phase; 7
        # steps and 18 calls when its steps opened at the last accepted L, all
        # in the start's metric
        assert rep.solver.iterations == 5
        assert rep.solver.value_calls == 16


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

    def test_strong_convexity_is_a_modulus_in_the_scaled_norm(self):
        # linear costs of curvature capacity/(gain * t_free) = 2, 1 and 0.5;
        # the zero-gain edge is pinned and its weight does not count
        lg = LevelGraph(3, plain_edges=[
            (0, 1, EdgeCostModel("bpr", 1.0, 2.0, 1.0, 1.0)),
            (1, 2, EdgeCostModel("bpr", 1.0, 1.0, 1.0, 1.0)),
            (0, 2, EdgeCostModel("bpr", 2.0, 2.0, 2.0, 1.0)),
            (0, 2, fixed_edge(2.5)),
        ])
        net = Network([lg], {(0, 2): 1.5})
        scale = np.array([8.0, 0.5, 1.0, 1e-9])
        oracle = DualOracle(net, [0.5])
        mu = oracle.strong_convexity(scale)
        assert mu == 2.0 / 8.0
        assert oracle.strong_convexity() == 0.5
        rng = np.random.default_rng(4)
        lower, pinned = net.free_flow_times(), net.edges.pinned
        for _ in range(20):
            a, b = (np.where(pinned, lower, lower + rng.uniform(0.0, 2.0, 4)) for _ in "ab")
            va, ga = oracle.value_grad(a)
            d = b - a
            assert oracle.value(b) >= va + ga @ d + 0.5 * mu * (d @ (scale * d)) - 1e-12

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
        # the step after a fresh start or a restart, and the step after that
        # one, take y = x, a point the line search has valued: its value_grad
        # is a call that sweeps nothing new
        calls = count_assignments(monkeypatch)
        points = record_points(monkeypatch)
        # seed 21 at 1e-8: 10 and 10 steps, 2 restarts each; at 1e-6 it took 7
        # and 7 before the phase steps opened at their secants, 4 and 4 after;
        # seed 23 took 7 and 8 steps without the gradient phase, 5 and 6 with
        # it; seed 27 took 26 and 37 in the Euclidean norm, 4 and 4 in the
        # curvature-scaled one
        net = random_network(np.random.default_rng(21), m=1 if model == "stochastic" else 2,
                             gamma=0.5)
        rep = solve_assignment(net, model=model, eps=1e-8)
        assert rep.converged and rep.solver.iterations > 5
        assert 0 < rep.solver.restarts < rep.solver.iterations
        assert len(calls) == len(points) == rep.solver.value_calls - 1 - rep.solver.restarts

    @pytest.mark.parametrize("model", ["stochastic", "multistage"])
    def test_one_conjugate_per_point(self, monkeypatch, model):
        # the stop test certifies y and x (and, off the metric path, the
        # average at x) with the conjugates the oracle evaluated there
        from equiflow.network import EdgeTable

        conjugated = []
        real = EdgeTable.conjugate
        monkeypatch.setattr(EdgeTable, "conjugate", lambda self, t:
                            conjugated.append(np.asarray(t).tobytes()) or real(self, t))
        points = record_points(monkeypatch)
        # seed 21 at 1e-8: 10 and 10 steps (see test_one_assignment_per_solver_call)
        net = random_network(np.random.default_rng(21), m=1 if model == "stochastic" else 2,
                             gamma=0.5)
        rep = solve_assignment(net, model=model, eps=1e-8)
        assert rep.converged and rep.solver.iterations > 5
        # one per distinct point requested: the report carries the winner's
        # certificate as the stop test computed it
        assert len(conjugated) == len(points)
        assert set(conjugated) == points

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

    def test_value_is_read_from_the_held_record(self):
        # the dual value is one of a point's by-products: value and value_grad
        # read it from the record, and form it nowhere else
        net, t = self.point()
        oracle = DualOracle(net)
        oracle.value_grad(t)
        key, record = oracle._read
        oracle._read = (key, (0.125, *record[1:]))
        assert oracle.value(t) == oracle.value_grad(t)[0] == 0.125
        assert all(a is b for a, b in zip(oracle.point(t), record[1:], strict=True))

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


def mask_duality_gap(network, t, f):
    """duality_gap by boolean masks over the whole table, kept as the
    reference for the cached edge groups."""
    e = network.edges
    conj = mask_conjugate(e, t)[0]
    bpr = mask_integral(e, f) - f * t + np.where(e.pinned, 0.0, conj)
    sd = (t - e.t_free) * np.maximum(np.where(e.capped, e.capacity, f) - f, 0.0)
    terms = np.where(e.is_sd, sd, bpr)
    return terms, float(terms.sum())


def mask_capacity_terms(network, t, f):
    """capacity_violation and complementarity_residual by boolean masks."""
    e = network.edges
    c = e.capped
    violation = float(np.max(f[c] - e.capacity[c], initial=0.0))
    residual = (t[c] - e.t_free[c]) * (e.capacity[c] - f[c])
    return violation, float(np.max(np.abs(residual), initial=0.0))


class TestCertificateGroups:
    """One-point certificates over the cached edge groups against the masks, bit for bit."""

    @staticmethod
    def layouts(seed):
        """(network, times, flows) per grouping of edge kinds."""
        rng = np.random.default_rng(seed)
        for models in edge_layouts(rng):
            net = Network([LevelGraph(2, [(0, 1, m) for m in models])], {(0, 1): 1.0})
            e = net.edges
            for _ in range(3):
                yield (net, times_around_free(e.t_free, rng),
                       flows_around_capacity(e.capacity, rng))

    def test_duality_gap_matches_the_masks(self):
        for net, t, f in self.layouts(97):
            want, want_total = mask_duality_gap(net, t, f)
            for conjugate in (None, net.edges.conjugate(t)[0]):
                terms, total = duality_gap(net, t, f, conjugate)
                assert terms.shape == f.shape and terms.tobytes() == want.tobytes()
                assert type(total) is float and total == want_total

    def test_capacity_terms_match_the_masks(self):
        uncapped = 0
        for net, t, f in self.layouts(98):
            got = capacity_violation(net, f), complementarity_residual(net, t, f)
            want = mask_capacity_terms(net, t, f)
            assert all(type(x) is float for x in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            if not net.edges.capped.any():
                uncapped += 1
                assert got == (0.0, 0.0)
        assert uncapped > 0


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


class TestBudgetChecks:
    """solve_assignment rejects tolerances and budgets before any work."""

    @pytest.mark.parametrize("kwargs,message", [
        # before the check: a DivergedOracleError, "certified" after 0 steps,
        # and two silent runs to the step budget
        (dict(eps=math.nan), "eps must be positive and finite, got nan"),
        (dict(eps=math.inf), "eps must be positive and finite, got inf"),
        (dict(eps_residual=math.nan), "eps_residual must be positive and finite, got nan"),
        (dict(eps_residual=-1.0), "eps_residual must be positive and finite, got -1.0"),
        (dict(max_iter=-3), "max_iter must be nonnegative, got -3"),
    ], ids=["eps-nan", "eps-inf", "eps-residual-nan", "eps-residual-negative",
            "max-iter-negative"])
    def test_rejected_with_the_parameter_named(self, pigou_network, kwargs, message):
        with pytest.raises(ValueError) as info:
            solve_assignment(pigou_network, model="stochastic", **{"max_iter": 5, **kwargs})
        assert str(info.value) == message


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

    @pytest.mark.parametrize("max_iter", [0])
    @pytest.mark.parametrize("model", MODELS)
    def test_mirror_descent_takes_at_least_one_step(self, pigou_network, model, max_iter):
        # iterations count from 0: a zero budget stops after step 0 (a
        # negative one is rejected, TestBudgetChecks)
        rep = solve_assignment(pigou_network, model=model, max_iter=max_iter)
        assert rep.solver.iterations == 0 and len(rep.solver.gap_trace) == 1

    def test_mirror_descent_variant(self, pigou_network):
        rep = solve_assignment(pigou_network, model="beckmann_md", eps=1e-3,
                               max_iter=50000)
        assert rep.converged
        f = rep.flows.plain_flat()
        assert f[1] == pytest.approx(1.0, abs=0.05)
        assert frank_wolfe_gap(pigou_network, f) <= 1e-3

    def test_frank_wolfe_gap_rejects_a_nested_network(self):
        net = mixed_edge_network(nested=True)
        with pytest.raises(ValueError) as info:
            frank_wolfe_gap(net, np.zeros(net.n_times))
        assert str(info.value) == "equilibrium gap is defined for single-level networks"

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

    @staticmethod
    def capped_links(rng, levels):
        """Parallel links 0 -> 1: one to three capped SD links, a BPR link and,
        half the time, an uncapped SD backup; with two levels, the inner level."""
        edges = [(0, 1, EdgeCostModel("sd", rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0)))
                 for _ in range(int(rng.integers(1, 4)))]
        edges.append((0, 1, EdgeCostModel("bpr", rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0),
                                          rng.uniform(0.1, 1.0), rng.choice([0.25, 0.5, 1.0]))))
        if rng.random() < 0.5:
            edges.append((0, 1, EdgeCostModel("sd", rng.uniform(1.5, 3.0), math.inf)))
        demands = {(0, 1): rng.uniform(0.5, 3.0)}
        if levels == 1:
            return Network([LevelGraph(2, plain_edges=edges, gamma=0.3)], demands)
        inner = LevelGraph(2, plain_edges=edges, gamma=0.3)
        return Network([LevelGraph(2, nested_edges=[(0, 1, (0, 1))], gamma=0.3), inner], demands)

    @pytest.mark.parametrize("seed,levels,model", [(142, 1, "mixed"), (9, 2, "multistage")])
    def test_average_counts_its_route_choice_gap(self, seed, levels, model):
        # the step-weighted average of logit flows is no logit assignment at x,
        # so its certificate adds a bound on its route-choice term; on these
        # capped networks the average certified, with edge terms summing to
        # 6e-9 and 1e-9 and route-choice bounds of 2.5e-5 and 2.4e-5
        rep = solve_assignment(self.capped_links(np.random.default_rng(seed), levels),
                               model=model, eps=1e-4)
        self.assert_certificate_holds(rep)
        assert rep.converged and rep.route_gap > 0.0 and rep.per_edge_gap.sum() > 0.0
        assert rep.total_gap == float(rep.per_edge_gap.sum()) + rep.route_gap


class TestCarriedCertificate:
    """The report carries the winning candidate's certificate as the stop test
    computed it; the Frank-Wolfe models' report computes it once, at tau(f)."""

    CASES = {
        "stochastic": (congested_grid, dict(eps=1e-6)),
        "multistage": (lambda: random_network(np.random.default_rng(21), m=2, gamma=0.5),
                       dict(eps=1e-8)),
        # the step-weighted average certifies, with a route-choice bound
        "mixed": (lambda: TestOneCertificateRule.capped_links(np.random.default_rng(142), 1),
                  dict(eps=1e-4)),
        # uncertified at the budget: the rank picks a candidate of an earlier step
        "stable_dynamics": (
            lambda: TestOneCertificateRule.capped_links(np.random.default_rng(140), 1),
            dict(eps=1e-6, max_iter=5)),
        "beckmann": (congested_grid, dict(max_iter=20)),
        "beckmann_md": (congested_grid, dict(max_iter=20)),
    }

    @pytest.mark.parametrize("model", MODELS)
    def test_report_is_its_certificate_recomputed(self, monkeypatch, model):
        import equiflow.dual as dual

        last, real = [], dual.umt_minimize

        def umt(*args, stop, **kwargs):
            def recorded(state):
                last[:] = [state.y.copy(), state.x.copy()]
                return stop(state)
            return real(*args, stop=recorded, **kwargs)

        monkeypatch.setattr(dual, "umt_minimize", umt)
        make, kwargs = self.CASES[model]
        net = make()
        rep = solve_assignment(net, model=model, **kwargs)
        f = rep.flows.plain_flat()
        per_edge, total = duality_gap(net, rep.t, f)
        assert np.array_equal(rep.per_edge_gap, per_edge)
        # the route-choice bound is added to the edge terms' sum as the stop test added it
        assert rep.total_gap == total + rep.route_gap
        assert rep.capacity_violation == capacity_violation(net, f)
        assert rep.complementarity == complementarity_residual(net, rep.t, f)
        if model in ("beckmann", "beckmann_md"):
            assert np.array_equal(rep.t, net.edges.cost(f))
            assert rep.fw_gap == frank_wolfe_gap(net, f) and rep.route_gap == 0.0
        else:
            assert math.isnan(rep.fw_gap)
        if model == "mixed":
            assert rep.converged and rep.route_gap > 0.0
        if model == "stable_dynamics":
            assert rep.solver.termination == "max_iter" and not rep.converged
            assert not any(np.array_equal(rep.t, t) for t in last)

    @pytest.mark.parametrize("model,report_calls", [
        ("beckmann_md", 1), ("stochastic", 0), ("mixed", 0)])
    def test_only_a_frank_wolfe_report_certifies(self, monkeypatch, model, report_calls):
        import equiflow.dual as dual

        points, steps = count_gap_calls(monkeypatch)
        residuals = []
        for name in ("capacity_violation", "complementarity_residual"):
            monkeypatch.setattr(dual, name, lambda *args, real=getattr(dual, name):
                                residuals.append(1) or real(*args))
        make, kwargs = self.CASES[model]
        rep = solve_assignment(make(), model=model, **kwargs)
        assert rep.solver.iterations > 1
        # the calls after the last stop test are the report's; each of the stop
        # test's duality_gap calls comes with one capacity_violation and one
        # complementarity call, and a Frank-Wolfe model (no SD edge) makes none
        checked = sum(n for _, n in steps)
        assert len(points) - checked == report_calls and len(residuals) == 2 * checked


class TestGradientPhase:
    """Metric-path solves restart after every step that halves the gap, until one does not."""

    @pytest.mark.parametrize("workload,key,model", [
        ("grid_stochastic", "grid_stochastic:3303:24", "stochastic"),
        *[("grid_stochastic", f"grid_stochastic:{s}", "stochastic") for s in range(6)],
        *[("nested_multistage", f"nested_multistage:{s}", "multistage") for s in range(6)],
    ])
    def test_written_flows_are_the_assignment_at_the_written_times(
            self, tmp_path, workload, key, model):
        # the step-weighted average of one restart leg is no logit assignment
        # at x; certified with it, the bench's grid_stochastic seed 3303 call
        # 24 wrote flows 0.00528 off the assignment at the written times
        kwargs = dict(k=4, n_od=8) if workload == "grid_stochastic" else {}
        net = bench_network(tmp_path, workload, key, **kwargs)
        rep = solve_assignment(net, model=model, eps=1e-4)
        assert rep.converged and rep.solver.restarts > 0 and rep.route_gap == 0.0
        flows = dual_value_grad(net, rep.t)[2]
        assert np.abs(flows.plain_flat() - rep.flows.plain_flat()).max() <= 1e-12

    @pytest.mark.parametrize("workload,key,model,gammas", [
        # at gamma 1 no bench grid key from 0 to 39 ends its phase before the certificate
        ("grid_stochastic", "grid_stochastic:4", "stochastic", [0.3]),
        ("nested_multistage", "nested_multistage:14", "multistage", None),
        ("nested_multistage", "nested_multistage:30", "multistage", None),
    ])
    def test_phase_ends_at_the_first_step_that_does_not_halve_the_gap(
            self, monkeypatch, tmp_path, workload, key, model, gammas):
        reasons = record_stops(monkeypatch)
        kwargs = dict(k=4, n_od=8) if workload == "grid_stochastic" else {}
        rep = solve_assignment(bench_network(tmp_path, workload, key, **kwargs), model=model,
                               eps=1e-4, gammas=gammas)
        gaps = rep.solver.gap_trace
        halved = [k == 0 or gaps[k] <= 0.5 * gaps[k - 1] for k in range(len(gaps))]
        expect = ["restart" if all(halved[:k + 1]) else None for k in range(len(gaps))]
        expect[-1] = "certified"
        # a restart carries the L its next step opens at
        assert rep.converged and [r[0] if isinstance(r, tuple) else r for r in reasons] == expect
        # the phase ended before the certificate: the run went on accelerated
        restarts = [r for r in reasons if isinstance(r, tuple)]
        assert 0 < rep.solver.restarts == len(restarts) < rep.solver.iterations

    def test_phase_steps_certify_x_alone(self, monkeypatch, tmp_path):
        # a step after a restart starts at y = the x the step before certified;
        # off the metric path (a capped network) every step certifies y, x and
        # the average.  Every call takes one point, and all are the stop test's:
        # the report carries the winner's certificate
        points, steps = count_gap_calls(monkeypatch)
        net = bench_network(tmp_path, "grid_stochastic", "grid_stochastic:4", k=4, n_od=8)
        rep = solve_assignment(net, model="stochastic", eps=1e-4, gammas=[0.3])
        after_restart = [False] + [isinstance(r, tuple) for r, _ in steps[:-1]]
        assert rep.converged and 0 < rep.solver.restarts < rep.solver.iterations
        calls = [1 if fresh else 2 for fresh in after_restart]
        assert [n for _, n in steps] == calls and points == [1] * sum(calls)
        points.clear()
        steps.clear()
        net = TestOneCertificateRule.capped_links(np.random.default_rng(142), 1)
        rep = solve_assignment(net, model="mixed", eps=1e-4)
        assert rep.converged and rep.solver.iterations > 1
        assert [n for _, n in steps] == [3] * len(steps) and points == [1] * (3 * len(steps))

    @pytest.mark.parametrize("key,gammas", [("grid_stochastic:1:0", None),
                                            ("grid_stochastic:4", [0.3])])
    def test_phase_steps_open_at_the_last_steps_secant(self, monkeypatch, tmp_path, key, gammas):
        import equiflow.dual as dual

        steps, real = [], dual.umt_minimize

        def umt(*args, stop, **kwargs):
            def recorded(state):
                steps.append((state.y.copy(), state.x.copy(), stop(state)))
                return steps[-1][2]
            return real(*args, stop=recorded, **kwargs)

        monkeypatch.setattr(dual, "umt_minimize", umt)
        net = bench_network(tmp_path, "grid_stochastic", key, k=4, n_od=8)
        rep = solve_assignment(net, model="stochastic", eps=1e-4, gammas=gammas)
        oracle, opened = DualOracle(net, rep.gammas), 0
        for k, (y, x, reason) in enumerate(steps):
            if not isinstance(reason, tuple):
                continue
            curvature = net.edges.curvature(x)
            w = np.fmax(curvature, curvature.max() / 100.0)
            dg = oracle.value_grad(x)[1] - oracle.value_grad(y)[1]
            secant = math.sqrt(np.sum(dg * dg / w) / np.sum(w * (x - y) ** 2))
            assert reason[1] == pytest.approx(secant, rel=1e-12)
            # the next step's first trial is at the secant; each failed trial doubles L
            trials = rep.solver.trial_trace[k + 1]
            assert rep.solver.lipschitz_trace[k + 1] == reason[1] * 2.0 ** (trials - 1)
            opened += 1
        assert rep.converged and opened == rep.solver.restarts >= 2

    def test_eight_by_eight_grids_at_small_gamma(self, tmp_path):
        # median 75.5 steps with every phase step opening at the last accepted
        # L in the start's metric; 33.5 at the secants
        steps = []
        for s in range(200, 206):
            net = bench_network(tmp_path, "grid_stochastic", f"grid8:{s}", k=8, n_od=16)
            rep = solve_assignment(net, model="stochastic", eps=1e-6, gammas=[0.3])
            assert rep.converged
            steps.append(rep.solver.iterations)
        assert np.median(steps) <= 40

    def test_metric_with_constant_curvature_is_the_starts(self, monkeypatch):
        # mu > 0 only when every smooth edge has power 1; the curvature is then
        # constant, so the metric re-measured at each restart is the start's
        import equiflow.dual as dual

        scales, real = [], dual.umt_minimize

        def umt(oracle, prox, *args, stop, **kwargs):
            scales.append(prox.scale.copy())

            def recorded(state):
                reason = stop(state)
                scales.append(prox.scale.copy())
                return reason
            return real(oracle, prox, *args, stop=recorded, **kwargs)

        monkeypatch.setattr(dual, "umt_minimize", umt)
        net = congested_grid()
        rep = solve_assignment(net, model="stochastic", eps=1e-6)
        # the metric moves on a grid of mixed powers
        assert rep.solver.restarts > 0 and not np.array_equal(scales[0], scales[-1])
        scales.clear()
        net = congested_grid(power=1.0)
        rep = solve_assignment(net, model="stochastic", eps=1e-6)
        assert DualOracle(net).strong_convexity(scales[0]) > 0.0
        assert rep.converged and rep.solver.restarts > 0
        assert all(np.array_equal(scale, scales[0]) for scale in scales)

    @pytest.mark.parametrize("case", ["capped", "frank-wolfe"])
    def test_no_restart_off_the_metric_path(self, monkeypatch, tmp_path, case):
        reasons = record_stops(monkeypatch)
        if case == "capped":
            net = bench_network(tmp_path, "capacity_mixed", "capacity_mixed:1", k=3)
            rep = solve_assignment(net, model="mixed", eps=1e-3)
        else:
            rep = solve_assignment(congested_grid(), model="beckmann", max_iter=20)
        # on the metric path step 0 restarts
        assert rep.solver.iterations > 3
        assert rep.solver.restarts == 0 and "restart" not in reasons
        assert rep.converged == (case != "frank-wolfe")


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
        # one origin per estimate, drawn in proportion to its demand
        net = two_origin_network()
        t = net.free_flow_times() + 0.4
        _, grad, _ = dual_value_grad(net, t)
        n = 4000
        totals = np.array(net.plan.totals())
        origins = np.random.default_rng(0).choice(net.origins(), size=n, p=totals / totals.sum())
        draws = np.array([stochastic_origin_oracle(net, t, [int(o)]) for o in origins])
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

    def test_single_origin_batch_reads_the_gradient_point(self):
        # every draw is the only origin, whose reweighted demands are its own
        net = random_network(np.random.default_rng(16), gamma=1.0)
        t = net.free_flow_times() + 0.3
        est = stochastic_origin_oracle(net, t, net.origins() * 7)
        assert np.array_equal(est, DualOracle(net).value_grad(t)[1])

    def test_assignment_solve_takes_no_minibatch(self):
        # its certificate assigns every gradient point in full, so the solve samples nothing
        net = two_origin_network()
        with pytest.raises(TypeError):
            solve_assignment(net, model="stochastic", variance_bound=0.1)
        with pytest.raises(TypeError):
            solve_assignment(net, model="stochastic", seed=0)
        with pytest.raises(TypeError):
            DualOracle(net, variance_bound=0.1)
        assert "stochastic_grad" not in vars(DualOracle)


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
        # 37 in the Euclidean norm; 4 when its steps opened at the last accepted L
        assert rep.solver.iterations == 2
        with pytest.raises(ValueError, match="positive smoothing"):
            solve_assignment(net, model="mixed", gammas=[0.5, 0.0])

    BAD_GAMMAS = {
        "short": ([0.5], "2 finite values, one per level"),
        "long": ([0.5, 0.5, 0.5], "2 finite values, one per level"),
        "nan": ([0.5, math.nan], "^level 2: gamma must be finite and nonnegative, got nan$"),
        "inf": ([0.5, math.inf], "^level 2: gamma must be finite and nonnegative, got inf$"),
    }

    @pytest.mark.parametrize("case", ["short", "long", "nan", "inf"])
    def test_bad_gammas_rejected(self, case):
        # one finite value per level, checked before any sweep runs
        gammas, message = self.BAD_GAMMAS[case]
        net = random_network(np.random.default_rng(3), m=2)
        with pytest.raises(ValueError, match=message):
            solve_assignment(net, model="multistage", gammas=gammas)

    @pytest.mark.parametrize("case", ["short", "long", "nan"])
    def test_bad_gammas_rejected_by_the_oracles(self, case):
        # the oracles share solve_assignment's check
        gammas, message = self.BAD_GAMMAS[case]
        net = random_network(np.random.default_rng(3), m=2)
        with pytest.raises(ValueError, match=message):
            DualOracle(net, gammas)
        with pytest.raises(ValueError, match=message):
            stochastic_origin_oracle(net, net.free_flow_times(), net.origins(), gammas)

    @pytest.mark.parametrize("entry", ["DualOracle", "stochastic_origin_oracle",
                                       "assignment_flows", "effective_weights"])
    @pytest.mark.parametrize("levels,gammas", [(1, [-1.0]), (2, [0.5, -0.1])],
                             ids=["level1", "level2"])
    def test_negative_gamma_rejected(self, entry, levels, gammas):
        # at gamma -1 the forward sweep was a soft-max (value -4.416 against
        # -3.245 at gamma 0) under gamma 0's all-or-nothing gradient
        net = (two_origin_network() if levels == 1
               else random_network(np.random.default_rng(3), m=2))
        t = net.free_flow_times() + 0.3
        run = {"DualOracle": lambda g: DualOracle(net, g).value_grad(t),
               "stochastic_origin_oracle": lambda g: stochastic_origin_oracle(
                   net, t, net.origins(), g),
               "assignment_flows": lambda g: assignment_flows(net, t, g)[1].plain_flat(),
               "effective_weights": lambda g: effective_weights(net, t, g)}[entry]
        with pytest.raises(ValueError, match=f"level {levels}: gamma must be finite and "
                                             f"nonnegative, got {gammas[-1]}"):
            run(gammas)
        run([0.0] * levels)  # a zero scale loads all-or-nothing, as before

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'wardrop'"):
            solve_assignment(random_network(np.random.default_rng(3)), model="wardrop")
