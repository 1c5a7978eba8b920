"""Soft-min potentials, Gibbs flows, hard shortest paths, nested pricing."""

import functools
import math
import operator
import tracemalloc
import weakref

import numpy as np
import pytest

from equiflow import softmin
from equiflow import (
    EdgeCostModel,
    FlowState,
    LevelGraph,
    Network,
    NetworkError,
    UnreachableError,
    all_or_nothing,
    assignment_flows,
    effective_weights,
    hard_shortest,
    softmin_flows,
    softmin_potentials,
)

from conftest import (
    braess_network, deadline, enumerate_walks, enumerated_softmin, fixed_edge, grid_graph,
    random_network,
)


def chain_graph():
    return LevelGraph(3, plain_edges=[(0, 1, fixed_edge(1.0)), (1, 2, fixed_edge(2.0))])


def parallel_graph():
    return LevelGraph(2, plain_edges=[(0, 1, fixed_edge(1.0)), (0, 1, fixed_edge(1.0))])


def random_graph(rng, n, m):
    """m random edges over n vertices, some of them possibly unreachable."""
    pairs = [rng.choice(n, size=2, replace=False) for _ in range(m)]
    return LevelGraph(n, plain_edges=[(int(a), int(b), fixed_edge(1.0)) for a, b in pairs])


def fold(w, walk):
    """Walk length summed left to right, as a forward sweep adds it."""
    return functools.reduce(operator.add, (w[e] for e in walk), 0.0)


def simple_path_minima(graph, w, origin):
    """Per vertex, the least left-folded length over simple paths from origin.

    With nonnegative weights no walk is shorter, in floating point too:
    cutting a cycle out of a walk never raises a left-folded sum.
    """
    best = [math.inf] * graph.n_vertices
    best[origin] = 0.0

    def rec(v, length, seen):
        for e in range(graph.n_edges):
            h = graph.heads[e]
            if graph.tails[e] == v and h not in seen:
                nxt = length + w[e]
                best[h] = min(best[h], nxt)
                rec(h, nxt, seen | {h})

    rec(origin, 0.0, {origin})
    return best


class TestPotentials:
    def test_single_walk_equals_plain_min(self):
        u = softmin_potentials(chain_graph(), [1.0, 2.0], 0, gamma=1.0, hops=3)
        assert u[2] == pytest.approx(3.0, abs=1e-12)
        assert u[0] == 0.0

    def test_two_parallel_unit_edges(self):
        u = softmin_potentials(parallel_graph(), [1.0, 1.0], 0, gamma=1.0, hops=1)
        assert u[1] == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_small_gamma_brackets_shortest(self):
        u = softmin_potentials(parallel_graph(), [1.0, 1.0], 0, gamma=0.01, hops=1)
        assert 1.0 - 0.01 * math.log(2.0) <= u[1] <= 1.0

    def test_unreachable_is_inf(self):
        g = LevelGraph(3, plain_edges=[(0, 1, fixed_edge(1.0))])
        u = softmin_potentials(g, [1.0], 0, gamma=1.0, hops=2)
        assert math.isinf(u[2])

    def test_never_exceeds_hard_shortest(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = random_network(rng)
            lg = net.levels[0]
            w = rng.uniform(0.2, 2.0, size=lg.n_edges)
            u = softmin_potentials(lg, w, 0, gamma=0.5, hops=lg.n_vertices - 1)
            dist, _ = hard_shortest(lg, w, 0)
            finite = np.isfinite(dist)
            assert np.all(u[finite] <= dist[finite] + 1e-12)

    def test_monotone_in_gamma(self):
        g = parallel_graph()
        w = [1.0, 1.3]
        values = [softmin_potentials(g, w, 0, gamma, 1)[1] for gamma in (1.0, 0.5, 0.1, 0.01)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        # within gamma * ln(#walks) of the hard minimum
        for gamma, v in zip((1.0, 0.5, 0.1, 0.01), values):
            assert 1.0 - gamma * math.log(2) <= v <= 1.0


class TestFlows:
    def test_symmetric_split(self):
        value, flows = softmin_flows(parallel_graph(), [1.0, 1.0], {(0, 1): 1.0},
                                     gamma=0.3, hops=1)
        assert flows == pytest.approx([0.5, 0.5], abs=1e-12)
        assert value == pytest.approx(1.0 - 0.3 * math.log(2.0), abs=1e-12)

    def test_zero_weights_count_paths(self):
        value, _ = softmin_flows(parallel_graph(), [0.0, 0.0], {(0, 1): 1.0},
                                 gamma=1.0, hops=1)
        assert value == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            net = random_network(rng)
            lg = net.levels[0]
            w = rng.uniform(0.3, 2.0, size=lg.n_edges)
            demands = {(0, lg.n_vertices - 1): 1.3}
            hops = lg.n_vertices - 1
            _, flows = softmin_flows(lg, w, demands, 1.0, hops)
            h = 1e-5
            for e in range(lg.n_edges):
                wp, wm = w.copy(), w.copy()
                wp[e] += h
                wm[e] -= h
                vp, _ = softmin_flows(lg, wp, demands, 1.0, hops)
                vm, _ = softmin_flows(lg, wm, demands, 1.0, hops)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - flows[e]) <= 1e-6 * max(1.0, abs(flows[e]))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        net = braess_network(True)
        lg = net.levels[0]
        w = rng.uniform(0.2, 1.5, size=lg.n_edges)
        value, flows = softmin_flows(lg, w, {(0, 3): 1.0}, 0.7, 3)
        ev, ef = enumerated_softmin(lg, w, 0, 3, 0.7, 3)
        assert value == pytest.approx(ev, abs=1e-10)
        assert flows == pytest.approx(ef, abs=1e-10)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            net = random_network(rng)
            lg = net.levels[0]
            w = rng.uniform(0.3, 2.0, size=lg.n_edges)
            d = 1.7
            dest = lg.n_vertices - 1
            _, flows = softmin_flows(lg, w, {(0, dest): d}, 0.5, lg.n_vertices - 1)
            div = np.zeros(lg.n_vertices)  # out minus in per vertex
            np.add.at(div, lg.tails, flows)
            np.subtract.at(div, lg.heads, flows)
            assert div[0] == pytest.approx(d, abs=1e-9 * d)
            assert div[dest] == pytest.approx(-d, abs=1e-9 * d)
            interior = [v for v in range(lg.n_vertices) if v not in (0, dest)]
            assert np.abs(div[interior]).max() <= 1e-9 * d

    def test_unreachable_names_pair(self):
        g = LevelGraph(3, plain_edges=[(0, 1, fixed_edge(1.0))])
        with pytest.raises(UnreachableError, match="0 to 2"):
            softmin_flows(g, [1.0], {(0, 2): 1.0}, 1.0, 2)

    def test_hessian_bounded_by_demand_hop_scale(self):
        # largest curvature of the smoothed value is at most
        # (1/gamma) * sum_w d_w * (max walk length)^2
        rng = np.random.default_rng(4)
        net = random_network(rng)
        lg = net.levels[0]
        w = rng.uniform(0.5, 2.0, size=lg.n_edges)
        gamma, d = 0.5, 1.2
        hops = lg.n_vertices - 1
        demands = {(0, lg.n_vertices - 1): d}
        h = 1e-5
        n = lg.n_edges
        jac = np.zeros((n, n))
        for e in range(n):
            wp, wm = w.copy(), w.copy()
            wp[e] += h
            wm[e] -= h
            _, fp = softmin_flows(lg, wp, demands, gamma, hops)
            _, fm = softmin_flows(lg, wm, demands, gamma, hops)
            jac[:, e] = (fp - fm) / (2 * h)
        sym = 0.5 * (jac + jac.T)
        lam = np.abs(np.linalg.eigvalsh(sym)).max()
        assert lam <= (1.0 / gamma) * d * hops ** 2 + 1e-6


class TestHardShortest:
    def test_pigou_weights(self):
        g = parallel_graph()
        dist, pred_edge = hard_shortest(g, [1.0, 0.3], 0)
        assert dist[1] == 0.3
        assert pred_edge[1] == 1

    def test_tie_break_prefers_smaller_edge(self):
        g = parallel_graph()
        _, pred_edge = hard_shortest(g, [1.0, 1.0], 0)
        assert pred_edge[1] == 0

    def test_braess_routes(self):
        net = braess_network(True)
        lg = net.levels[0]
        w = np.array([0.1, 1.0, 1.0, 0.1, 0.05])
        dist, _ = hard_shortest(lg, w, 0)
        walks_best = 0.1 + 0.05 + 0.1  # via the shortcut
        assert dist[3] == pytest.approx(walks_best, abs=1e-12)

    def test_matches_walk_enumeration(self):
        # tied integer weights, zero weights, unreachable vertices and
        # negative weights w = base + p[tail] - p[head] (no negative cycle)
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(3, 7))
            lg = random_graph(rng, n, int(rng.integers(2, 2 * n + 1)))
            w = rng.integers(0, 4, size=lg.n_edges).astype(float)
            if trial % 2:
                p = rng.integers(-3, 4, size=n)
                w += p[lg.tails] - p[lg.heads]
            for o in range(n):
                dist, pred_edge = hard_shortest(lg, w, o)
                ref = [0.0 if v == o else math.inf for v in range(n)]
                for v in range(n):
                    for walk in enumerate_walks(lg, o, v, n - 1):
                        ref[v] = min(ref[v], fold(w, walk))
                assert dist.tolist() == ref
                for v in range(n):
                    tight = [(lg.tails[e], e) for e in range(lg.n_edges) if lg.heads[e] == v
                             and ref[lg.tails[e]] + w[e] == ref[v]]
                    reached = v != o and math.isfinite(ref[v])
                    assert pred_edge[v] == (min(tight)[1] if reached else -1)


class TestAllOrNothing:
    def test_pigou_loading(self):
        g = parallel_graph()
        _, flows = all_or_nothing(g, [1.0, 0.3], {(0, 1): 1.0})
        assert flows == pytest.approx([0.0, 1.0])

    def test_tie_not_split(self):
        g = parallel_graph()
        _, flows = all_or_nothing(g, [1.0, 1.0], {(0, 1): 1.0})
        assert flows == pytest.approx([1.0, 0.0])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        net = braess_network(True)
        lg = net.levels[0]
        w = rng.uniform(0.2, 1.5, size=lg.n_edges)
        value, flows = all_or_nothing(lg, w, {(0, 3): 2.0})
        walks = enumerate_walks(lg, 0, 3, 3)
        best = min(sum(w[e] for e in walk) for walk in walks)
        assert value == pytest.approx(2.0 * best, abs=1e-12)
        assert flows.sum() > 0

    def test_zero_weight_cycle_raises(self):
        # 0 -> 1 and 1 -> 0 both cost 0, so each is the other's tight
        # predecessor and the walk back from 0 never reaches origin 2
        e = fixed_edge(1.0)
        g = LevelGraph(3, [(0, 1, e), (1, 0, e), (2, 0, e), (2, 1, e)])
        assert hard_shortest(g, [0.0, 0.0, 1.0, 1.0], 2)[1].tolist() == [1, 0, -1]
        with deadline(10), pytest.raises(ValueError, match=r"level 1: .* OD 2->0; .*cycle"):
            all_or_nothing(g, [0.0, 0.0, 1.0, 1.0], {(2, 0): 1.0})

    def test_cycle_behind_a_tight_origin_edge_raises(self):
        # 3 -> 1 is tight, but 2 -> 1 (0 + 1 == 1) wins the tie-break by its
        # tail, and 1 -> 2 is 2's predecessor: the walk back from 1 cycles
        e = fixed_edge(1.0)
        g = LevelGraph(4, [(3, 1, e), (3, 2, e), (1, 2, e), (2, 1, e)])
        with deadline(10), pytest.raises(ValueError, match=r"^level 1: .* OD 3->1; .*cycle"):
            all_or_nothing(g, [1.0, 1.0, 0.0, 0.0], {(3, 1): 1.0})
        # at 0.5 across, 3 -> 1 alone is tight
        value, flows = all_or_nothing(g, [1.0, 1.0, 0.5, 0.5], {(3, 1): 1.0})
        assert value == 1.0 and flows.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_batched_origins_on_grid(self):
        # 4x4 grid, every ordered pair among 6 origins: edges carry 3+ ODs
        rng = np.random.default_rng(9)
        lg = grid_graph(4)
        w = rng.integers(1, 4, size=lg.n_edges).astype(float)
        zones = [0, 3, 5, 10, 12, 15]
        demands = {(o, d): float(rng.uniform(0.1, 2.0)) for o in zones for d in zones if o != d}
        value, flows = all_or_nothing(lg, w, demands)
        ref = {o: simple_path_minima(lg, w, o) for o in zones}
        expected = 0.0
        for (o, d), dem in demands.items():
            expected += dem * ref[o][d]
        assert value == expected
        # one OD at a time, summed in demand order: the same flows
        per_od = [all_or_nothing(lg, w, {od: dem})[1] for od, dem in demands.items()]
        assert np.array_equal(flows, sum(per_od, np.zeros(lg.n_edges)))
        assert max(np.count_nonzero([f[e] for f in per_od]) for e in range(lg.n_edges)) >= 3
        net = np.zeros(lg.n_vertices)
        np.add.at(net, lg.heads, flows)
        np.subtract.at(net, lg.tails, flows)
        for (o, d), dem in demands.items():
            net[d] -= dem
            net[o] += dem
        assert net == pytest.approx(0.0, abs=1e-12)
        for e in np.flatnonzero(flows):
            t, h = lg.tails[e], lg.heads[e]
            assert any(ref[o][t] + w[e] == ref[o][h] for o in zones)


class TestNestedPricing:
    def test_single_inner_edge_any_gamma(self):
        inner = LevelGraph(2, plain_edges=[(0, 1, fixed_edge(5.0))], gamma=2.0)
        outer = LevelGraph(2, nested_edges=[(0, 1, (0, 1))], gamma=1.0)
        net = Network([outer, inner], {(0, 1): 1.0})
        w = effective_weights(net, np.array([5.0]))
        assert w[0][0] == pytest.approx(5.0, abs=1e-12)

    def test_two_parallel_inner_edges(self):
        inner = LevelGraph(
            2, plain_edges=[(0, 1, fixed_edge(1.0)), (0, 1, fixed_edge(1.0))], gamma=1.0
        )
        outer = LevelGraph(2, nested_edges=[(0, 1, (0, 1))], gamma=1.0)
        net = Network([outer, inner], {(0, 1): 1.0})
        w = effective_weights(net, np.array([1.0, 1.0]))
        assert w[0][0] == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_single_level_is_noop(self):
        g = parallel_graph()
        net = Network([g], {(0, 1): 1.0})
        w = effective_weights(net, np.array([1.0, 2.0]))
        assert w[0] == pytest.approx([1.0, 2.0])

    def test_two_level_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            net = random_network(rng, m=2, gamma=1.0)
            t = net.free_flow_times() + rng.uniform(0.1, 0.5, size=net.n_times)
            value, flow = assignment_flows(net, t)
            flat = flow.plain_flat()
            h = 1e-5
            for e in range(net.n_times):
                tp, tm = t.copy(), t.copy()
                tp[e] += h
                tm[e] -= h
                vp, _ = assignment_flows(net, tp)
                vm, _ = assignment_flows(net, tm)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - flat[e]) <= 1e-6 * max(1.0, abs(flat[e]))

    def test_zero_gamma_level_uses_hard_paths(self):
        inner = LevelGraph(
            2, plain_edges=[(0, 1, fixed_edge(1.0)), (0, 1, fixed_edge(1.0))], gamma=0.0
        )
        outer = LevelGraph(2, nested_edges=[(0, 1, (0, 1))], gamma=1.0)
        net = Network([outer, inner], {(0, 1): 1.0})
        w = effective_weights(net, np.array([1.0, 1.2]))
        assert w[0][0] == pytest.approx(1.0, abs=1e-12)  # hard minimum, no -ln 2


def reference_rounds(graph, weights, origin, gamma, hops):
    """Per-origin forward rounds, one scatter (ufunc.at) pass per hop."""
    n = graph.n_vertices
    tails, heads = graph.tails, graph.heads
    u = np.full(n, math.inf)
    u[origin] = 0.0
    rounds = [u]
    for _ in range(hops):
        cand = weights + u[tails]
        finite = np.isfinite(cand)
        shift = np.full(n, math.inf)
        np.minimum.at(shift, heads[finite], cand[finite])
        shift[origin] = min(shift[origin], 0.0)
        acc = np.zeros(n)
        np.add.at(acc, heads[finite], np.exp(-(cand[finite] - shift[heads[finite]]) / gamma))
        acc[origin] += math.exp(shift[origin] / gamma)
        nxt = np.full(n, math.inf)
        ok = acc > 0.0
        nxt[ok] = shift[ok] - gamma * np.log(acc[ok])
        rounds.append(nxt)
        u = nxt
    return rounds


def reference_flows(graph, weights, demands, gamma, hops):
    """Per-origin soft-min value and Gibbs flows by the adjoint recursion."""
    weights = np.asarray(weights, dtype=float)
    tails, heads = graph.tails, graph.heads
    value, flows = 0.0, np.zeros(graph.n_edges)
    for o in sorted({o for o, _ in demands}):
        rounds = reference_rounds(graph, weights, o, gamma, hops)
        p = np.zeros(graph.n_vertices)
        for (oo, d), dem in demands.items():
            if oo == o:
                value += dem * rounds[-1][d]
                p[d] += dem
        for h in range(hops, 0, -1):
            with np.errstate(invalid="ignore"):
                expo = rounds[h][heads] - weights - rounds[h - 1][tails]
            live = np.isfinite(expo) & (p[heads] > 0.0)
            contrib = np.zeros(graph.n_edges)
            contrib[live] = p[heads[live]] * np.exp(np.minimum(expo[live] / gamma, 0.0))
            flows += contrib
            p = np.zeros(graph.n_vertices)
            np.add.at(p, tails, contrib)
    return value, flows


def ragged_graph():
    """Vertex 0 has no in-edges, 5 no out-edges, 6 no edges at all;
    1 -> 2 is doubled and 1 -> 2 -> 3 -> 1 is a cycle."""
    pairs = [(0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (4, 5)]
    return LevelGraph(7, plain_edges=[(a, b, fixed_edge(1.0)) for a, b in pairs])


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def sweep_kernel(g, w, gamma, hops):
    """The kernel a sweep of these data takes: 'dense', 'sparse' (phi = 0) or
    'reference' (the sparse kernel against min-plus distances that move)."""
    _, (_, refs, kernel) = softmin._sweep_forward(g, w, [0], gamma, hops, keep=True)
    return "reference" if kernel == "sparse" and len(refs) > 1 else kernel


class TestBatchedSweep:
    """The one batched sweep against the per-origin reference above."""

    def test_potentials_from_every_vertex(self):
        rng = np.random.default_rng(30)
        g = ragged_graph()
        w = rng.uniform(0.2, 2.0, size=g.n_edges)
        for gamma in (0.3, 1.0):
            for o in range(g.n_vertices):
                expect = reference_rounds(g, w, o, gamma, 6)[-1]
                got = softmin_potentials(g, w, o, gamma, 6)
                close(got, expect)
        # unreachable: the isolated vertex, and vertex 0 from anywhere else
        u = softmin_potentials(g, w, 3, 1.0, 6)
        assert math.isinf(u[6]) and math.isinf(u[0])

    def test_shared_destinations_and_dead_ends(self):
        rng = np.random.default_rng(31)
        g = ragged_graph()
        w = rng.uniform(0.2, 2.0, size=g.n_edges)
        w[3] = w[2]
        demands = {(0, 5): 1.0, (0, 4): 0.5, (1, 5): 2.0, (2, 5): 0.7, (3, 4): 1.1, (2, 1): 0.4}
        value, flows = softmin_flows(g, w, demands, 0.8, 6)
        ev, ef = reference_flows(g, w, demands, 0.8, 6)
        assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
        close(flows, ef)
        assert flows[2] == pytest.approx(flows[3], rel=1e-12)  # parallel twins

    def test_random_networks_all_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            lg = random_network(rng).levels[0]
            w = rng.uniform(0.2, 2.0, size=lg.n_edges)
            hops = lg.n_vertices - 1
            dist = [hard_shortest(lg, w, o)[0] for o in range(lg.n_vertices)]
            demands = {(o, d): float(rng.uniform(0.5, 2.0))
                       for o in range(lg.n_vertices) for d in range(lg.n_vertices)
                       if o != d and math.isfinite(dist[o][d])}
            value, flows = softmin_flows(lg, w, demands, 0.5, hops)
            ev, ef = reference_flows(lg, w, demands, 0.5, hops)
            assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
            close(flows, ef)

    def test_origins_beyond_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(33)
        g = ragged_graph()
        w = rng.uniform(0.2, 2.0, size=g.n_edges)
        hops = 6
        demands = {(0, 5): 1.0, (1, 5): 2.0, (2, 4): 0.7, (3, 5): 1.1, (4, 5): 0.3}
        # room for the kept hops of two origins per chunk
        monkeypatch.setattr(softmin, "ROUNDS_CAP_BYTES", 2 * softmin._kept_bytes(g, hops))
        sweeps = []
        forward = softmin._sweep_forward

        def counting(graph, weights, origins, *args, **kwargs):
            sweeps.append(len(origins))
            return forward(graph, weights, origins, *args, **kwargs)

        monkeypatch.setattr(softmin, "_sweep_forward", counting)
        value, flows = softmin_flows(g, w, demands, 0.6, hops)
        assert sweeps == [2, 2, 1]
        ev, ef = reference_flows(g, w, demands, 0.6, hops)
        assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
        close(flows, ef)

    def test_two_level_nested(self):
        rng = np.random.default_rng(34)
        inner = random_network(rng).levels[0]
        n_in = inner.n_vertices
        refs = [(0, n_in - 1), (0, n_in - 2), (1, n_in - 1), (0, n_in - 1)]
        outer = LevelGraph(
            3,
            plain_edges=[(0, 1, fixed_edge(1.0)), (1, 2, fixed_edge(1.0)), (0, 2, fixed_edge(3.0))],
            nested_edges=[(0, 1, refs[0]), (0, 2, refs[1]), (1, 2, refs[2]), (0, 2, refs[3])],
            gamma=0.7,
        )
        inner = LevelGraph(n_in, inner.plain_edges, gamma=0.4)
        net = Network([outer, inner], {(0, 2): 1.5, (1, 2): 0.5})
        t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
        t_in = t[net.plain_slices[1]]
        hops = [2, n_in - 1]

        w = effective_weights(net, t)
        nested_w = [reference_rounds(inner, t_in, o, 0.4, hops[1])[-1][d] for o, d in refs]
        close(w[0][3:], nested_w)

        value, flow = assignment_flows(net, t)
        ev, ef_out = reference_flows(outer, w[0], net.demands, 0.7, hops[0])
        inner_demands = {}
        for od, f in zip(refs, ef_out[3:]):
            inner_demands[od] = inner_demands.get(od, 0.0) + f
        _, ef_in = reference_flows(inner, t_in, inner_demands, 0.4, hops[1])
        assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
        close(flow.plain[0], ef_out[:3])
        close(flow.nested[0], ef_out[3:])
        close(flow.plain[1], ef_in)


def eager_assignment(net, t, gammas, hops):
    """Level-by-level assignment with eager softmin_flows at every level."""
    weights = effective_weights(net, t, gammas)
    demands, values, flows = dict(net.demands), [], []
    for k, lg in enumerate(net.levels):
        v, f = softmin_flows(lg, weights[k], demands, gammas[k], hops[k], level=k + 1)
        values.append(v)
        flows.append(f)
        demands = {}
        for (_, _, od), fe in zip(lg.nested_edges, f[len(lg.plain_edges):]):
            if fe > 0.0:
                demands[od] = demands.get(od, 0.0) + fe
    return values[0], flows


class TestDeferredFlows:
    """assignment_flows runs the forward sweeps; the flows wait for a read."""

    def ragged_network(self):
        g = ragged_graph()
        demands = {(0, 5): 1.0, (0, 4): 0.5, (1, 5): 2.0, (2, 5): 0.7, (3, 4): 1.1, (2, 1): 0.4}
        return Network([LevelGraph(7, g.plain_edges, gamma=0.8)], demands)

    def two_level_network(self, rng):
        inner = random_network(rng).levels[0]
        n_in = inner.n_vertices
        refs = [(0, n_in - 1), (0, n_in - 2), (1, n_in - 1), (0, n_in - 1)]
        outer = LevelGraph(
            3,
            plain_edges=[(0, 1, fixed_edge(1.0)), (1, 2, fixed_edge(1.0)), (0, 2, fixed_edge(3.0))],
            nested_edges=[(0, 1, refs[0]), (0, 2, refs[1]), (1, 2, refs[2]), (0, 2, refs[3])],
            gamma=0.7,
        )
        inner = LevelGraph(n_in, inner.plain_edges, gamma=0.4)
        return Network([outer, inner], {(0, 2): 1.5, (1, 2): 0.5})

    def check(self, net, t):
        gammas = net.gammas()
        hops = [lg.n_vertices - 1 for lg in net.levels]
        value, flow = assignment_flows(net, t)
        ev, eflows = eager_assignment(net, t, gammas, hops)
        assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
        for k, lg in enumerate(net.levels):
            n_plain = len(lg.plain_edges)
            close(flow.plain[k], eflows[k][:n_plain])
            close(flow.nested[k], eflows[k][n_plain:])

    def test_ragged(self):
        net = self.ragged_network()
        rng = np.random.default_rng(40)
        self.check(net, rng.uniform(0.2, 2.0, size=net.n_times))

    def test_random(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            net = random_network(rng, gamma=0.5)
            self.check(net, net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times))

    def test_beyond_one_chunk(self, monkeypatch):
        net = self.ragged_network()
        # room for the kept hops of two origins per chunk
        monkeypatch.setattr(softmin, "ROUNDS_CAP_BYTES",
                            2 * softmin._kept_bytes(net.levels[0], net.levels[0].n_vertices - 1))
        rng = np.random.default_rng(42)
        self.check(net, rng.uniform(0.2, 2.0, size=net.n_times))

    def test_two_level(self):
        rng = np.random.default_rng(43)
        net = self.two_level_network(rng)
        self.check(net, net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times))

    def count_sweeps(self, monkeypatch):
        calls = []
        for name in ("_sweep_forward", "_sweep_backward"):
            real = getattr(softmin, name)

            def counting(graph, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, graph))
                return _real(graph, *args, **kwargs)

            monkeypatch.setattr(softmin, name, counting)
        return calls

    def test_one_read_only_array(self):
        # values lays the per-level arrays end to end, plain flows first;
        # every level's plain and nested flows, and plain_flat(), are views of it
        rng = np.random.default_rng(47)
        net = self.two_level_network(rng)
        t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
        _, flow = assignment_flows(net, t)
        _, eflows = eager_assignment(net, t, net.gammas(), [lg.n_vertices - 1 for lg in net.levels])
        cut = [len(lg.plain_edges) for lg in net.levels]
        plain = [f[:n] for f, n in zip(eflows, cut)]
        nested = [f[n:] for f, n in zip(eflows, cut)]
        assert flow.values.tobytes() == np.concatenate(plain + nested).tobytes()
        assert flow.plain_flat().tobytes() == np.concatenate(plain).tobytes()
        for k in range(net.n_levels):
            assert flow.plain[k].tobytes() == plain[k].tobytes()
            assert flow.nested[k].tobytes() == nested[k].tobytes()
        views = [flow.plain_flat(), *flow.plain, flow.nested[0]]  # nested[1] is empty
        for view in views:
            assert view.base is flow.values and np.shares_memory(view, flow.values)
        for a in (flow.values, *views):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_fill_runs_once_and_is_released(self):
        net = self.two_level_network(np.random.default_rng(48))
        calls = []

        def fill_from(kept):
            return lambda values: calls.append(1) or np.copyto(values, kept)

        kept = np.arange(net.n_flows, dtype=float)
        held, flow = weakref.ref(kept), FlowState(net, fill_from(kept))
        del kept
        assert calls == [] and held() is not None
        for _ in range(2):
            flow.plain_flat(), flow.plain, flow.nested, flow.values
        assert calls == [1] and held() is None
        assert flow.values.tolist() == list(range(net.n_flows))

    def test_flows_wait_for_first_read(self, monkeypatch):
        net = self.ragged_network()
        t = np.random.default_rng(44).uniform(0.2, 2.0, size=net.n_times)
        calls = self.count_sweeps(monkeypatch)
        _, flow = assignment_flows(net, t)
        assert [name for name, _ in calls] == ["_sweep_forward"]
        flow.plain_flat()
        flow.nested
        assert [name for name, _ in calls] == ["_sweep_forward", "_sweep_backward"]

    def test_two_level_sweeps_inner_level_forward_once(self, monkeypatch):
        rng = np.random.default_rng(45)
        net = self.two_level_network(rng)
        t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
        calls = self.count_sweeps(monkeypatch)
        assignment_flows(net, t)[1].plain_flat()
        outer, inner = net.levels
        assert calls == [("_sweep_forward", inner), ("_sweep_forward", outer),
                         ("_sweep_backward", outer), ("_sweep_backward", inner)]

    def test_vertex_without_in_edges_stays_unreachable(self):
        g = ragged_graph()  # vertex 0 has no in-edges, 6 no edges at all
        w = np.random.default_rng(46).uniform(0.2, 2.0, size=g.n_edges)
        s, _ = softmin._sweep_forward(g, w, [0, 3, 1], 0.5, 6)
        assert s[0].tolist() == [0.0, math.inf, math.inf]
        assert np.isinf(s[6]).all() and np.isfinite(s[5]).all()
        with pytest.raises(UnreachableError, match="no walk from 3 to 0"):
            softmin_flows(g, w, {(0, 5): 1.0, (3, 0): 1.0}, 0.5, 6)
        net = Network([LevelGraph(7, g.plain_edges, gamma=0.5)], {(1, 5): 1.0, (3, 0): 1.0})
        with pytest.raises(UnreachableError, match="no walk from 3 to 0"):
            assignment_flows(net, w)


class TestShiftedSweep:
    """The once-per-sweep shifted kernel against the per-hop stabilized reference."""

    def reachable_demands(self, g, w, gamma, hops, rng):
        demands = {}
        for o in range(g.n_vertices):
            u = reference_rounds(g, w, o, gamma, hops)[-1]
            for d in range(g.n_vertices):
                if d != o and math.isfinite(u[d]):
                    demands[(o, d)] = float(rng.uniform(0.5, 2.0))
        return demands

    @pytest.mark.parametrize("gamma", [1e-6, 0.1, 1.0, 5.0])
    def test_matches_reference(self, gamma):
        # hop bounds below n-1 = 6, negative weights as nested pricing gives
        # (and possibly a negative cycle 1 -> 2 -> 3 -> 1), unreachable vertices
        rng = np.random.default_rng(50)
        g = ragged_graph()
        for hops in (2, 3, 5):
            w = rng.uniform(-0.5, 2.0, size=g.n_edges)
            for o in range(g.n_vertices):
                close(softmin_potentials(g, w, o, gamma, hops),
                      reference_rounds(g, w, o, gamma, hops)[-1])
            demands = self.reachable_demands(g, w, gamma, hops, rng)
            value, flows = softmin_flows(g, w, demands, gamma, hops)
            ev, ef = reference_flows(g, w, demands, gamma, hops)
            assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
            # the reference's Gibbs ratios exp((u_head - w - u_tail)/gamma) round
            # by about eps*|u|/gamma, 2e-10 at gamma = 1e-6; walk enumeration
            # forms each walk's ratio from its length
            close(flows, sum(dem * enumerated_softmin(g, w, o, d, gamma, hops)[1]
                             for (o, d), dem in demands.items()))
            if gamma >= 0.1:
                close(flows, ef)

    def test_both_references_are_taken(self, monkeypatch):
        # phi = 0 while H * (max|w|/gamma + log fan-in) stays within range,
        # else the hop-bounded distances of a min-plus sweep
        g = ragged_graph()
        w = np.random.default_rng(51).uniform(0.2, 2.0, size=g.n_edges)
        assert sweep_kernel(g, w, 1.0, 6) == "dense"
        assert sweep_kernel(g, w, 1e-3, 6) == "reference"
        monkeypatch.setattr(softmin, "DENSE_MAX_VERTICES", 0)
        assert sweep_kernel(g, w, 1.0, 6) == "sparse"
        assert sweep_kernel(g, w, 1e-3, 6) == "reference"

    def test_reference_renewed_where_the_hop_bound_binds(self):
        # a is 1 away in one hop and 0.3 in three, so against its 3-hop
        # distance its 1-hop sum would underflow; the walk 0 -> a -> x it
        # carries is the only one of 3 hops or fewer to x.  Each hop takes
        # its own distances as the reference, so the sum keeps its walk
        e = fixed_edge(1.0)
        g = LevelGraph(5, [(0, 1, e), (0, 2, e), (2, 3, e), (3, 1, e), (1, 4, e)])
        w = np.array([1.0, 0.1, 0.1, 0.1, 1.0])
        assert sweep_kernel(g, w, 1e-6, 3) == "reference"
        u = softmin_potentials(g, w, 0, 1e-6, 3)
        close(u, reference_rounds(g, w, 0, 1e-6, 3)[-1])
        assert u[4] == 2.0
        _, flows = softmin_flows(g, w, {(0, 4): 1.0, (0, 1): 1.0}, 1e-6, 3)
        close(flows, [1.0, 1.0, 1.0, 1.0, 1.0])

    def test_every_hop_renewed(self, monkeypatch):
        # a zero range forces the min-plus references, one per hop
        monkeypatch.setattr(softmin, "WALK_SUM_RANGE", 0.0)
        rng = np.random.default_rng(52)
        g = ragged_graph()
        w = rng.uniform(-0.5, 2.0, size=g.n_edges)
        assert sweep_kernel(g, w, 0.7, 6) == "reference"
        demands = self.reachable_demands(g, w, 0.7, 6, rng)
        value, flows = softmin_flows(g, w, demands, 0.7, 6)
        ev, ef = reference_flows(g, w, demands, 0.7, 6)
        assert value == pytest.approx(ev, rel=1e-12, abs=1e-12)
        close(flows, ef)

    def test_potentials_do_not_depend_on_the_batch(self):
        # each origin's distances settle at their own hop
        g = ragged_graph()
        w = np.random.default_rng(53).uniform(-0.5, 2.0, size=g.n_edges)
        u, _ = softmin._sweep_forward(g, w, list(range(7)), 1e-6, 4)
        for o in range(7):
            assert np.array_equal(u[:, o], softmin_potentials(g, w, o, 1e-6, 4))

    def test_diverging_walk_sum_raises(self):
        # 8 zero-time edges each way: 8^h walks of h hops, all of length 0
        e = fixed_edge(1.0)
        inner = LevelGraph(2, [(0, 1, e)] * 8 + [(1, 0, e)] * 8)
        w = np.zeros(inner.n_edges)
        # 8^300 ~ e^624 walks still fit
        u = softmin_potentials(inner, w, 0, 1.0, 300)
        close(u, reference_rounds(inner, w, 0, 1.0, 300)[-1])
        with pytest.raises(NetworkError, match="level 1: the soft-min walk sum diverges"):
            softmin_potentials(inner, w, 0, 1.0, 400)
        with pytest.raises(NetworkError, match="level 2: the soft-min walk sum diverges"):
            softmin_flows(inner, w, {(0, 1): 1.0}, 1.0, 400, level=2)
        outer = LevelGraph(2, nested_edges=[(0, 1, (0, 1))])
        net = Network([outer, LevelGraph(401, inner.plain_edges)], {(0, 1): 1.0})
        with pytest.raises(NetworkError, match="level 2: the soft-min walk sum diverges"):
            assignment_flows(net, w)

    def test_sum_out_of_range_at_an_earlier_hop_raises(self):
        # 0 -> a at 30, a <-> b by 8 zero-time edges each way and a 344-edge
        # chain 0 -> ... -> a of length 10.  Before the chain arrives, 8^h
        # walks of length 30 pass e^700; against the chain's 10 the final
        # shifted sums are back below it, but the sweep checks once, at its
        # end, and the sum overflowed on the way
        e = fixed_edge(1.0)
        chain = [0, *range(3, 346), 1]
        g = LevelGraph(346, [(0, 1, e)] + [(1, 2, e)] * 8 + [(2, 1, e)] * 8
                       + [(a, b, e) for a, b in zip(chain, chain[1:])])
        w = np.array([30.0] + [0.0] * 16 + [10.0 / 344] * 344)
        log_shifted = hard_shortest(g, w, 0)[0] - reference_rounds(g, w, 0, 1.0, 345)[-1]
        np.testing.assert_allclose(log_shifted[[1, 2]], [695.34, 693.26], atol=0.01)
        with pytest.raises(NetworkError, match="level 1: the soft-min walk sum diverges: "
                                               "at some hop of at most 345 it passed e"):
            softmin_potentials(g, w, 0, 1.0, 345)
        with pytest.raises(NetworkError, match="level 3: the soft-min walk sum diverges"):
            softmin_flows(g, w, {(0, 2): 1.0}, 1.0, 345, level=3)

    def test_kept_hops_fit_the_cap(self, monkeypatch):
        # the cap bounds the per-hop stack of the sparse hop; a dense sweep
        # keeps only Z_H
        g = ragged_graph()
        hops = 6
        per_origin = softmin._kept_bytes(g, hops)
        cap = 3 * per_origin + per_origin // 2
        monkeypatch.setattr(softmin, "ROUNDS_CAP_BYTES", cap)
        monkeypatch.setattr(softmin, "DENSE_MAX_VERTICES", 0)
        kept = []
        forward = softmin._sweep_forward

        def recording(*args, **kwargs):
            u, k = forward(*args, **kwargs)
            kept.append(k[0].nbytes)
            return u, k

        monkeypatch.setattr(softmin, "_sweep_forward", recording)
        w = np.random.default_rng(54).uniform(0.2, 2.0, size=g.n_edges)
        softmin_flows(g, w, {(o, 5): 1.0 for o in range(5)}, 0.6, hops)
        assert kept == [3 * per_origin, 2 * per_origin]
        assert max(kept) <= cap

    def test_min_plus_reference_holds_no_hop_per_origin(self):
        # an unkept sweep on the min-plus path holds O((slots + V) x B),
        # never the (H+1) x V x B of every min-plus round
        g = grid_graph(10)
        w = np.random.default_rng(55).uniform(1.0, 8.0, size=g.n_edges)
        origins, hops = list(range(g.n_vertices)), g.n_vertices - 1
        assert sweep_kernel(g, w, 0.1, hops) == "reference"
        bound = 6 * 8 * (len(g.head_groups[1]) + g.n_vertices) * len(origins)
        assert 8 * (hops + 1) * g.n_vertices * len(origins) > bound
        tracemalloc.start()
        try:
            softmin._sweep_forward(g, w, origins, 0.1, hops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_kept_references_fit_within_the_stack(self, monkeypatch):
        # a kept chunk holds one reference per hop until the distances
        # settle, never more than its Z stack: on a grid they settle
        # after the diameter, on a one-way path never before H
        e = fixed_edge(1.0)
        path = LevelGraph(30, [(v, v + 1, e) for v in range(29)])
        kept = []
        forward = softmin._sweep_forward

        def recording(*args, **kwargs):
            u, k = forward(*args, **kwargs)
            kept.append(k)
            return u, k

        monkeypatch.setattr(softmin, "_sweep_forward", recording)
        rng = np.random.default_rng(56)
        for g, origins in ((grid_graph(8), range(0, 64, 3)), (path, range(3))):
            hops = g.n_vertices - 1
            w = rng.uniform(1.0, 8.0, size=g.n_edges)
            assert sweep_kernel(g, w, 1e-3, hops) == "reference"
            kept.clear()
            softmin_flows(g, w, {(o, g.n_vertices - 1): 1.0 for o in origins}, 1e-3, hops)
            assert len(kept) == 1
            stack, refs, _ = kept[0]
            assert 1 < len(refs) <= len(stack)
            assert sum(r.nbytes for r in refs) <= stack.nbytes


class TestReferencePath:
    """Sweeps against the min-plus references, after the distances settle too,
    against the per-hop stabilized reference."""

    @staticmethod
    def scaled(rng, g, gamma, hops):
        """Weights whose H * max|w| / gamma passes WALK_SUM_RANGE."""
        w = rng.uniform(0.1, 1.0, size=g.n_edges)
        w *= gamma * rng.uniform(1.2, 3.0) * softmin.WALK_SUM_RANGE / hops / w.max()
        assert hops * w.max() / gamma > softmin.WALK_SUM_RANGE
        return w

    @staticmethod
    def agree(g, w, origins, gamma, hops):
        """Potentials and flows from origins agree with reference_rounds and
        reference_flows within 1e-11 of the largest."""
        demands = {}
        for o in origins:
            expect = reference_rounds(g, w, o, gamma, hops)[-1]
            u = softmin_potentials(g, w, o, gamma, hops)
            scale = np.abs(expect[np.isfinite(expect)]).max()
            np.testing.assert_allclose(u, expect, rtol=0.0, atol=1e-11 * scale)
            demands.update({(o, d): 1.0 + 0.1 * d for d in range(g.n_vertices)
                            if d != o and math.isfinite(expect[d])})
        value, flows = softmin_flows(g, w, demands, gamma, hops)
        ev, ef = reference_flows(g, w, demands, gamma, hops)
        assert value == pytest.approx(ev, rel=1e-11)
        np.testing.assert_allclose(flows, ef, rtol=0.0, atol=1e-11 * ef.max())

    def test_random_graphs(self):
        # below gamma = 1e-2 the reference itself rounds by about eps*|u|/gamma
        rng = np.random.default_rng(70)
        for _ in range(40):
            n = int(rng.integers(4, 31))
            edges = [(v, v + 1) for v in range(n - 1)]
            edges += [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
                      for _ in range(int(rng.integers(n, 3 * n)))]
            g = LevelGraph(n, [(a, b, fixed_edge(1.0)) for a, b in edges])
            hops = int(rng.integers(1, n))
            gamma = float(10.0 ** rng.uniform(-2.0, 0.0))
            w = self.scaled(rng, g, gamma, hops)
            self.agree(g, w, sorted({0, *rng.choice(n, size=3).tolist()}), gamma, hops)

    @pytest.mark.parametrize("gamma", [1e-2, 0.1, 1.0])
    def test_grid_at_the_default_hop_bound(self, gamma):
        g = grid_graph(4)
        hops = g.n_vertices - 1
        w = self.scaled(np.random.default_rng(71), g, gamma, hops)
        self.agree(g, w, range(g.n_vertices), gamma, hops)


class TestDenseKernel:
    """The dense product of small phi = 0 levels against the sparse hop."""

    kernel = staticmethod(sweep_kernel)

    @staticmethod
    def both(monkeypatch, run, dense_max=0):
        """run() under the switch as it stands, then with DENSE_MAX_VERTICES
        set to dense_max (0: the sparse hop everywhere)."""
        first = run()
        with monkeypatch.context() as m:
            m.setattr(softmin, "DENSE_MAX_VERTICES", dense_max)
            return first, run()

    @staticmethod
    def same(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    def agree(self, monkeypatch, g, w, demands, gamma, hops, dense_max=0):
        """Potentials, value and flows of both kernels agree to 1e-12."""
        origins = sorted({o for o, _ in demands})
        (du, (dv, df)), (lu, (lv, lf)) = self.both(monkeypatch, lambda: (
            softmin._sweep_forward(g, w, origins, gamma, hops)[0],
            softmin_flows(g, w, demands, gamma, hops)), dense_max)
        self.same(du, lu)
        assert dv == pytest.approx(lv, rel=1e-12)
        self.same(df, lf)
        return df

    def test_random_single_level(self, monkeypatch):
        rng = np.random.default_rng(60)
        for _ in range(8):
            g = random_network(rng).levels[0]
            w = rng.uniform(0.2, 2.0, size=g.n_edges)
            hops = g.n_vertices - 1
            assert self.kernel(g, w, 0.5, hops) == "dense"
            dist = [hard_shortest(g, w, o)[0] for o in range(g.n_vertices)]
            demands = {(o, d): float(rng.uniform(0.5, 2.0))
                       for o in range(g.n_vertices) for d in range(g.n_vertices)
                       if o != d and math.isfinite(dist[o][d])}
            self.agree(monkeypatch, g, w, demands, 0.5, hops)

    def test_random_nested(self, monkeypatch):
        rng = np.random.default_rng(61)
        for _ in range(5):
            net = random_network(rng, m=2, gamma=0.5)
            t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
            (dw, (dv, df)), (lw, (lv, lf)) = self.both(monkeypatch, lambda: (
                effective_weights(net, t), assignment_flows(net, t)))
            assert dv == pytest.approx(lv, rel=1e-12)
            for k in range(net.n_levels):
                self.same(dw[k], lw[k])
                self.same(df.plain[k], lf.plain[k])
                self.same(df.nested[k], lf.nested[k])

    def test_parallel_edges_and_unreachable_vertices(self, monkeypatch):
        # 1 -> 2 is doubled, vertex 0 has no in-edges and 6 no edges at all
        g = ragged_graph()
        w = np.random.default_rng(62).uniform(0.2, 2.0, size=g.n_edges)
        w[3] = w[2] + 0.3
        demands = {(0, 5): 1.0, (0, 4): 0.5, (1, 5): 2.0, (2, 5): 0.7, (3, 4): 1.1, (6, 6): 0.2}
        flows = self.agree(monkeypatch, g, w, demands, 0.8, 6)
        assert flows[2] > flows[3] > 0.0
        u = softmin_potentials(g, w, 3, 0.8, 6)
        assert np.isinf(u[[0, 6]]).all() and np.isfinite(u[1:6]).all()

    def test_origins_over_several_chunks(self, monkeypatch):
        g = grid_graph(4)
        w = np.random.default_rng(63).uniform(1.0, 2.0, size=g.n_edges)
        hops = g.n_vertices - 1
        demands = {(o, (5 * o + 3) % 16): 1.0 for o in range(0, 16, 3)}
        whole = softmin_flows(g, w, demands, 1.0, hops)[1]
        monkeypatch.setattr(softmin, "ROUNDS_CAP_BYTES", 2 * softmin._kept_bytes(g, hops))
        assert math.ceil(len({o for o, _ in demands}) / softmin._chunk_size(g, hops)) == 3
        self.same(self.agree(monkeypatch, g, w, demands, 1.0, hops), whole)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_levels_at_the_switch(self, monkeypatch, extra):
        # a two-way ring of DENSE_MAX_VERTICES (+ 1) vertices: dense at the
        # switch, log above it; each agrees with the other kernel forced
        n = softmin.DENSE_MAX_VERTICES + extra
        e = fixed_edge(1.0)
        g = LevelGraph(n, [(v, (v + 1) % n, e) for v in range(n)]
                       + [((v + 1) % n, v, e) for v in range(n)])
        w = np.random.default_rng(64 + extra).uniform(1.0, 2.0, size=g.n_edges)
        hops = 40
        assert self.kernel(g, w, 1.0, hops) == ("sparse" if extra else "dense")
        demands = {(0, 30): 1.0, (7, 3): 0.5, (n - 1, 20): 2.0}
        self.agree(monkeypatch, g, w, demands, 1.0, hops, dense_max=0 if extra == 0 else n)

    @pytest.mark.parametrize("k", [5, 12])
    def test_potentials_do_not_depend_on_the_batch(self, monkeypatch, k):
        # the power sum of K does not depend on the origins: an origin's
        # bits are those of its own sweep, whatever else shares the batch.
        # 12 x 12 is forced dense, above the switch: OpenBLAS may split each
        # of its products over threads
        g = grid_graph(k)
        n = g.n_vertices
        monkeypatch.setattr(softmin, "DENSE_MAX_VERTICES", max(softmin.DENSE_MAX_VERTICES, n))
        w = np.random.default_rng(65).uniform(1.0, 2.0, size=g.n_edges)
        assert self.kernel(g, w, 1.0, n - 1) == "dense"
        origins = list(range(0, n, max(1, n // 25)))
        u, _ = softmin._sweep_forward(g, w, origins, 1.0, n - 1)
        for b, o in enumerate(origins):
            assert np.array_equal(u[:, b], softmin_potentials(g, w, o, 1.0, n - 1))

    def test_far_destination_and_huge_demand(self, monkeypatch):
        # 0 -> 1 -> 2 -> 3 and 2 -> 4 at 190 gamma a hop: Z_3 = e^-570 at 3
        # and 4.  4 -> 3 and 5 -> 4 at -190 gamma carry no walk of 3 hops;
        # unnormalized, q = 1e30 * e^570 would overflow K^T q at 4 (e^190 q)
        # and at 5, never reached.  Normalized, their terms are exact zeros
        e = fixed_edge(1.0)
        g = LevelGraph(6, [(0, 1, e), (1, 2, e), (2, 3, e), (2, 4, e), (4, 3, e), (5, 4, e)])
        w = np.array([190.0, 190.0, 190.0, 190.0, -190.0, -190.0])
        assert self.kernel(g, w, 1.0, 3) == "dense"
        u = softmin_potentials(g, w, 0, 1.0, 3)
        assert u[3] == pytest.approx(570.0, rel=1e-12)
        demands = {(0, 3): 1e30, (0, 4): 1e30}
        value, flows = softmin_flows(g, w, demands, 1.0, 3)
        assert np.isfinite(flows).all()
        assert value == pytest.approx(1140e30, rel=1e-12)
        self.same(flows, [2e30, 2e30, 1e30, 1e30, 0.0, 0.0])
        self.agree(monkeypatch, g, w, demands, 1.0, 3)

    def test_mixed_scales_of_q(self, monkeypatch):
        # 0 -> 1 -> 2 -> 3 at 190 gamma a hop and 4 -> 5 -> 6 -> 7 at -190:
        # q is e^570 at 3 and e^-570 at 7.  Normalized by the largest entry
        # alone, the second chain's q underflows and its flows read 0; each
        # band of q is normalized by its own largest entry
        e = fixed_edge(1.0)
        g = LevelGraph(8, [(0, 1, e), (1, 2, e), (2, 3, e), (4, 5, e), (5, 6, e), (6, 7, e)])
        w = np.array([190.0, 190.0, 190.0, -190.0, -190.0, -190.0])
        assert self.kernel(g, w, 1.0, 3) == "dense"
        demands = {(0, 3): 1.0, (4, 7): 2.0}
        value, flows = softmin_flows(g, w, demands, 1.0, 3)
        assert value == pytest.approx(570.0 - 2 * 570.0, rel=1e-12)
        self.same(flows, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        self.agree(monkeypatch, g, w, demands, 1.0, 3)

    def test_power_sum_matches_a_hop_loop(self):
        # every bit pattern of n up to 33, and n = 144: the doubling against
        # one product per power, on a matrix of 12 rows and one padded to 72
        rng = np.random.default_rng(67)
        for size in (12, 70):
            m = rng.uniform(0.0, 1.0, size=(size, size)) * (rng.uniform(size=(size, size)) < 0.4)
            m /= m.sum(axis=0).max()
            for n in [*range(1, 34), 144]:
                expect, power = np.eye(size), np.eye(size)
                for _ in range(n - 1):
                    power = m @ power
                    expect += power
                np.testing.assert_allclose(softmin._power_sum(m, n), expect,
                                           rtol=1e-13, atol=0.0)

    @staticmethod
    def eye_power_sum(m, n):
        """_power_sum with np.eye and a new array per product, kept as the
        reference for its written diagonal and preallocated buffer."""
        size = len(m)
        m = np.pad(m, (0, -size % 8)) if size > 64 else m
        s, p = np.eye(len(m)), m
        bits = bin(n)[3:]
        for i, bit in enumerate(bits):
            more = i + 1 < len(bits)
            s += p @ s
            if bit == "1" or more:
                p = p @ p
            if bit == "1":
                s += p
                if more:
                    p = p @ m
        return s[:size, :size]

    @pytest.mark.parametrize("size", [6, 16, 25, 72, 73, 144])
    def test_power_sum_matches_its_reference_bit_for_bit(self, size):
        # 73 rows take the padding path, 144 are the adjoint's at 72 vertices;
        # n runs over the doubling's bit patterns
        rng = np.random.default_rng(69)
        m = rng.uniform(0.0, 1.0, size=(size, size)) * (rng.uniform(size=(size, size)) < 0.4)
        m /= m.sum(axis=0).max()
        for n in (1, 2, 3, 6, 7, 16, 17, size, size + 1):
            got, want = softmin._power_sum(m, n), self.eye_power_sum(m, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_backward_memory_does_not_grow_with_the_hops(self):
        # the dense kernel keeps Z_H, K and the origins, not a stack per hop:
        # at H = 128 the sparse hop would keep 129 x V x B floats
        g = grid_graph(6)
        n = g.n_vertices
        w = np.random.default_rng(68).uniform(1.0, 2.0, size=g.n_edges)
        demands = {(o, (o + 17) % n): 1.0 for o in range(n)}
        peaks = []
        for hops in (16, 128):
            assert self.kernel(g, w, 1.0, hops) == "dense"
            tracemalloc.start()
            try:
                softmin_flows(g, w, demands, 1.0, hops)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]
        assert 4 * peaks[1] < softmin._kept_bytes(g, 128) * n

    def test_backward_holds_the_kept_stack_and_matrices(self, monkeypatch):
        # one chunk holds O(V^2 + V*B), whatever H: Z_H, K and the 2V x 2V
        # matrices of the adjoint's power sum.  10 x 10 is forced dense,
        # above the switch
        g = grid_graph(10)
        n, hops = g.n_vertices, g.n_vertices - 1
        monkeypatch.setattr(softmin, "DENSE_MAX_VERTICES", n)
        w = np.random.default_rng(66).uniform(1.0, 2.0, size=g.n_edges)
        assert self.kernel(g, w, 1.0, hops) == "dense"
        demands = {(o, (o + 37) % n): 1.0 for o in range(n)}
        assert math.ceil(n / softmin._chunk_size(g, hops)) == 1
        tracemalloc.start()
        try:
            softmin_flows(g, w, demands, 1.0, hops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * (n * n + n * n)
