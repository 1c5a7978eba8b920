"""Pair plans: one layout of a level's OD pairs per solve, read by every assignment."""

import numpy as np
import pytest

from equiflow import (
    LevelGraph,
    Network,
    UnreachableError,
    all_or_nothing,
    assignment_flows,
    effective_weights,
    softmin_flows,
)
from equiflow import softmin
from equiflow.network import PairPlan

from conftest import fixed_edge, grid_graph, random_network


def plain_level(rng):
    """A random conftest level (a 0 -> n-1 chain plus extras) with 0 -> 1 doubled."""
    edges = random_network(rng).levels[0].plain_edges
    return list(edges) + [(0, 1, edges[0][2])]


def layered_network(rng):
    """Three random levels.  Levels 1 and 2 carry nested edges over pairs
    a < b of the next level (reachable along its chain): a repeated
    reference, two parallel nested edges, and first of all an edge from an
    extra vertex no walk reaches, so it carries exactly no flow while a
    later edge hands down flow to the same pair."""
    graphs = [plain_level(rng) for _ in range(3)]
    levels = []
    for k, edges in enumerate(graphs):
        n = max(max(a, b) for a, b, _ in edges) + 1
        nested = []
        if k < 2:
            m = max(max(a, b) for a, b, _ in graphs[k + 1]) + 1
            refs = [tuple(sorted(rng.choice(m, size=2, replace=False).tolist()))
                    for _ in range(4)]
            nested = [(n, int(rng.integers(0, n)), refs[0]),  # never reached: zero flow
                      (0, n - 1, refs[1]), (0, n - 1, refs[0]),  # parallel
                      (1, n - 1, refs[2]), (0, n - 2, refs[3]), (0, n - 1, refs[1])]
            n += 1
        levels.append(LevelGraph(n, plain_edges=edges, nested_edges=nested))
    n1 = levels[0].n_vertices - 1  # the extra vertex
    demands = {(0, n1 - 1): 1.3, (1, n1 - 1): 0.4, (0, n1 - 2): 0.9, (0, 1): 0.2}
    return Network(levels, demands)


def handed_down(net, t, gammas, demands):
    """Value and per-level flows at hand-built demands: softmin_flows or
    all_or_nothing per level, the next level's demands a dict of the positive
    nested flows summed edge by edge, its pairs in order of first reference
    and those given no flow left out."""
    hops = [lg.n_vertices - 1 for lg in net.levels]
    weights = effective_weights(net, t, gammas)
    value, flows, level_demands = None, [], dict(demands)
    for k, lg in enumerate(net.levels):
        if not level_demands:
            flows.append(np.zeros(lg.n_edges))
            continue
        if gammas[k] > 0:
            v, f = softmin_flows(lg, weights[k], level_demands, gammas[k], hops[k], level=k + 1)
        else:
            v, f = all_or_nothing(lg, weights[k], level_demands, level=k + 1)
        value = v if value is None else value
        flows.append(f)
        level_demands = dict.fromkeys((od for _, _, od in lg.nested_edges), 0.0)
        for (_, _, od), fe in zip(lg.nested_edges, f[len(lg.plain_edges):]):
            if fe > 0.0:
                level_demands[od] += fe
        level_demands = {od: x for od, x in level_demands.items() if x > 0.0}
    return value, flows


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


GAMMAS = [[1.0, 0.5, 0.7], [0.8, 0.0, 0.6], [0.0, 0.4, 0.0], [0.6, 0.9, 0.0]]


class TestAgainstHandBuiltDemands:
    @pytest.mark.parametrize("gammas", GAMMAS)
    def test_random_layered_networks(self, gammas):
        rng = np.random.default_rng(700)
        zero_flow = 0
        for _ in range(6):
            net = layered_network(rng)
            t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
            value, flow = assignment_flows(net, t, gammas)
            ev, eflows = handed_down(net, t, gammas, net.demands)
            assert same_bits(value, ev)
            for k, lg in enumerate(net.levels):
                n_plain = len(lg.plain_edges)
                assert same_bits(flow.plain[k], eflows[k][:n_plain])
                assert same_bits(flow.nested[k], eflows[k][n_plain:])
            zero_flow += sum(int(flow.nested[k][0] == 0.0) for k in (0, 1))
        assert zero_flow >= 6  # the unreached nested edges carried no flow

    @pytest.mark.parametrize("gammas", GAMMAS)
    def test_mini_batch_override(self, gammas):
        rng = np.random.default_rng(701)
        for _ in range(4):
            net = layered_network(rng)
            t = net.free_flow_times() + rng.uniform(0.0, 0.5, size=net.n_times)
            batch = {od: 2.5 * dem for od, dem in net.demands.items() if od[0] == 0}
            value, flow = assignment_flows(net, t, gammas, demands=batch)
            ev, eflows = handed_down(net, t, gammas, batch)
            assert same_bits(value, ev)
            for k, lg in enumerate(net.levels):
                assert same_bits(flow.plain[k], eflows[k][:len(lg.plain_edges)])

    def test_zero_gamma_level_loads_in_plan_order(self):
        # inner pairs A, B, C all load edge 0 -> 1.  The first reference to A
        # carries no flow, yet the plan lists A, B, C, as first referenced:
        # ((0 + 0.3) + 0.5) + 0.1, not the ((0 + 0.5) + 0.1) + 0.3 of a dict
        # filled edge by edge with the positive flows
        a, b, c = (0, 4), (0, 3), (0, 2)
        outer = LevelGraph(6, nested_edges=[(5, 1, a), (0, 1, b), (0, 2, c), (0, 3, a)])
        inner = LevelGraph(5, [(v, v + 1, fixed_edge(1.0)) for v in range(4)], gamma=0.0)
        net = Network([outer, inner], {(0, 1): 0.5, (0, 2): 0.1, (0, 3): 0.3})
        _, flow = assignment_flows(net, np.ones(4), [0.0, 0.0])
        assert flow.nested[0].tolist() == [0.0, 0.5, 0.1, 0.3]
        assert flow.plain[1][0] == ((0.0 + 0.3) + 0.5) + 0.1 != ((0.0 + 0.5) + 0.1) + 0.3
        _, eflows = handed_down(net, np.ones(4), [0.0, 0.0], net.demands)
        assert same_bits(flow.plain[1], eflows[1])

    def test_plan_and_mapping_give_the_same_bits(self):
        rng = np.random.default_rng(702)
        net = layered_network(rng)
        lg, w = net.levels[0], net.free_flow_times()[net.plain_slices[0]]
        w = np.concatenate([w, rng.uniform(0.5, 2.0, size=len(lg.nested_edges))])
        for gamma in (0.7, 0.0):
            call = softmin_flows if gamma > 0 else all_or_nothing
            args = (gamma, lg.n_vertices - 1) if gamma > 0 else ()
            v1, f1 = call(lg, w, net.demands, *args)
            v2, f2 = call(lg, w, net.plan, *args)
            assert same_bits(v1, v2) and same_bits(f1, f2)


class TestOneLayout:
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    def test_rerun_gives_the_flows_of_the_kept_sweep(self, monkeypatch, gamma):
        # a handed-down plan over 8 origins, 3 of them given no flow: a
        # rerun sweeps the plan's own origins, as the kept pricing sweep
        # did, so the flows agree bit for bit, on a 10 x 10 grid (sparse
        # kernel) and an 8 x 8 one (dense); in chunks of 3 origins, to rounding
        rng = np.random.default_rng(704)
        for side, kernel in ((10, "sparse"), (8, "dense")):
            inner = grid_graph(side)
            n, hops = inner.n_vertices, inner.n_vertices - 1
            w = rng.uniform(1.0, 2.0, size=inner.n_edges)
            origins = rng.choice(n, size=8, replace=False).tolist()
            refs = [(o, int(d)) for o in origins
                    for d in rng.choice([v for v in range(n) if v != o], size=2, replace=False)]
            plan = LevelGraph(1, nested_edges=[(0, 0, od) for od in refs]).nested_plan
            flows = rng.uniform(0.1, 1.0, size=len(refs))
            flows[[i for i, (o, _) in enumerate(refs) if o in origins[1::3]]] = 0.0
            handed = plan.hand_down(flows)
            assert 0 < np.count_nonzero(handed.totals()) < len(handed.origins)
            _, kept = softmin._od_values(inner, w, handed, gamma, level=2)
            assert kept[1][2] == kernel
            value, rerun = softmin_flows(inner, w, handed, gamma, hops, level=2)
            assert np.isfinite(value)
            _, from_kept = softmin_flows(inner, w, handed, gamma, hops, level=2, forward=kept)
            assert same_bits(rerun, from_kept)
            with monkeypatch.context() as m:
                m.setattr(softmin, "ROUNDS_CAP_BYTES", 3 * softmin._kept_bytes(inner, hops))
                chunked = softmin_flows(inner, w, handed, gamma, hops, level=2)
            assert chunked[0] == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(chunked[1], rerun, rtol=1e-12, atol=1e-12)


class TestUnreachable:
    def chain(self):
        return [(0, 1, fixed_edge(1.0)), (1, 2, fixed_edge(1.0))]

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_level_one_names_the_first_pair_by_origin(self, gamma):
        # the mapping lists 2 -> 0 first; by origin, 1 -> 0 comes first
        net = Network([LevelGraph(3, self.chain(), gamma=gamma)],
                      {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0})
        with pytest.raises(UnreachableError, match="no walk from 1 to 0") as err:
            assignment_flows(net, np.ones(2))
        assert err.value.od == (1, 0)

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_nested_references_name_the_first_edge(self, gamma):
        # nested edge order, not by origin: 2 -> 0 before 1 -> 0
        outer = LevelGraph(2, [(0, 1, fixed_edge(1.0))],
                           nested_edges=[(0, 1, (0, 2)), (0, 1, (2, 0)), (0, 1, (1, 0))])
        net = Network([outer, LevelGraph(3, self.chain(), gamma=gamma)], {(0, 1): 1.0})
        with pytest.raises(UnreachableError, match="level 2: no walk from 2 to 0"):
            assignment_flows(net, np.ones(3))


class TestPairPlan:
    def test_layout(self):
        plan = PairPlan.of({(3, 1): 1.0, (0, 2): 2.0, (3, 0): 0.5, (0, 1): 4.0})
        assert plan.pairs == ((0, 2), (0, 1), (3, 1), (3, 0))
        assert plan.origins.tolist() == [0, 3]
        assert plan.columns.tolist() == [0, 0, 1, 1]
        assert plan.dests.tolist() == [2, 1, 1, 0]
        assert plan.demand.tolist() == [2.0, 4.0, 1.0, 0.5]
        assert plan.totals() == [6.0, 1.5]
        assert not plan.demand.flags.writeable and not plan.columns.flags.writeable

    def test_hand_down_sums_in_edge_order_and_lists_in_plan_order(self):
        a, b, c = (2, 5), (2, 4), (1, 3)
        plan = LevelGraph(1, nested_edges=[(0, 0, od) for od in [a, b, a, c, b]]).nested_plan
        assert plan.pairs == (c, a, b) and plan.fold.tolist() == [1, 2, 1, 0, 2]
        flows = np.array([0.0, 0.3, 0.7, 0.1, 0.2])
        handed = plan.hand_down(flows)
        # the positive flows summed edge by edge; a, first referenced by an
        # edge with no flow, keeps its place ahead of b
        expect = dict.fromkeys([a, b, c], 0.0)
        for od, f in zip([a, b, a, c, b], flows):
            if f > 0.0:
                expect[od] += f
        listed = [handed.pairs[i] for i in handed.listed()]
        assert listed == list(PairPlan.of(expect).pairs) == [c, a, b]
        assert {handed.pairs[i]: handed.demand[i] for i in handed.listed()} == expect
        assert list(handed) == listed  # the bench tracer iterates a plan
        assert plan.demand.tolist() == [0.0, 0.0, 0.0]

    def test_totals_add_in_pair_order(self):
        # bit for bit the pair-order Python sums; 1e16 + 1 + 1 rounds to 1e16,
        # where 1 + 1 + 1e16 would not
        plan = PairPlan.of({(0, 1): 1e16, (0, 2): 1.0, (0, 3): 1.0, (4, 1): 0.1})
        assert plan.totals() == [1e16, 0.1]
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            demands = {(int(o), int(d)): float(x) for o, d, x in zip(
                rng.integers(0, 6, n), rng.integers(0, 30, n), 10.0 ** rng.uniform(-17, 17, n))}
            plan = PairPlan.of(demands)
            expect = [sum(x for (o, _), x in zip(plan.pairs, plan.demand.tolist()) if o == origin)
                      for origin in plan.origins.tolist()]
            assert [t.hex() for t in plan.totals()] == [t.hex() for t in expect]

    def test_zero_flows_hand_down_no_demand(self):
        plan = LevelGraph(1, nested_edges=[(0, 0, (0, 1)), (0, 0, (0, 2))]).nested_plan
        handed = plan.hand_down(np.array([0.0, 0.0]))
        assert not handed.demand.any() and handed.listed().tolist() == []


class TestDenseKernel:
    def test_bincount_builds_the_scatter_sum(self):
        # parallel edges land on one entry, added in edge order as np.add.at adds them
        rng = np.random.default_rng(703)
        for _ in range(5):
            edges = plain_level(rng)
            edges += edges[:3]
            n = max(max(a, b) for a, b, _ in edges) + 1
            g = LevelGraph(n, edges)
            w = rng.uniform(-0.5, 2.0, size=g.n_edges)
            _, (_, (k, factor, _, _), kind) = softmin._sweep_forward(g, w, [0], 0.8, n - 1,
                                                                    keep=True)
            expect = np.zeros((n, n))
            np.add.at(expect, (g.heads, g.tails), np.exp(w / -0.8))
            assert kind == "dense"
            assert same_bits(k, expect) and same_bits(factor, np.exp(w / -0.8))
