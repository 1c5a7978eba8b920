"""Cost models, conjugates, validation, and instance loading."""

import math

import numpy as np
import pytest

from equiflow import (
    EdgeCostModel,
    EdgeTable,
    LevelGraph,
    Network,
    ParseError,
    ValidationError,
    load_network,
)
from equiflow.network import validate

from conftest import (
    PIGOU_INSTANCE, BRAESS_SHORTCUT_INSTANCE, edge_conjugate, edge_cost, edge_integral,
    edge_layouts, flows_around_capacity, mask_conjugate, mask_integral, times_around_free,
    write_instance,
)


def repeated(model, n):
    """Table of n copies of one edge, to evaluate it at n points in one call."""
    return EdgeTable.of([model] * n)


def quad_integral(model, f, n=20000):
    """Quadrature oracle for the cost integral."""
    z = np.linspace(0.0, f, n)
    return np.trapezoid(repeated(model, n).cost(z), z)


class TestBprCost:
    def test_zero_flow_gives_free_flow_time(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        assert EdgeTable.of([m]).cost([0.0]).tolist() == [1.0]

    def test_capacity_flow_doubles_unit_gain(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        assert EdgeTable.of([m]).cost([1.0]).tolist() == [2.0]

    def test_reference_parameters(self):
        m = EdgeCostModel("bpr", 2.0, 10.0, 0.15, 0.25)
        assert EdgeTable.of([m]).cost([10.0])[0] == pytest.approx(2.3, abs=1e-12)
        # cross-check against numerically differentiated quadrature integral
        h = 1e-4
        fd = (quad_integral(m, 10.0 + h) - quad_integral(m, 10.0 - h)) / (2 * h)
        assert fd == pytest.approx(2.3, rel=1e-5)

    def test_negative_flow_rejected(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            EdgeTable.of([m]).cost([-0.5])

    def test_monotone_in_flow(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = EdgeCostModel("bpr", rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                              rng.uniform(0, 2), rng.uniform(0.05, 1.0))
            fs = np.sort(rng.uniform(0, 5, size=5))
            costs = repeated(m, len(fs)).cost(fs)
            assert np.all(costs[:-1] <= costs[1:] + 1e-15)


class TestBprConjugate:
    def test_at_free_flow_time(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        value, flow = EdgeTable.of([m]).conjugate([1.0])
        assert (value.tolist(), flow.tolist()) == ([0.0], [0.0])

    def test_linear_cost_closed_form(self):
        # linear cost t = 1 + f: conjugate (t-1)^2/2
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 1.0)
        value, flow = EdgeTable.of([m]).conjugate([2.0])
        assert value[0] == pytest.approx(0.5, abs=1e-12)
        assert flow[0] == pytest.approx(1.0, abs=1e-12)

    def test_quartic_root_value(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        value, flow = EdgeTable.of([m]).conjugate([2.0])
        assert flow[0] == pytest.approx(1.0, abs=1e-12)
        assert value[0] == pytest.approx(0.2, abs=1e-12)

    def test_numerical_sup_oracle(self):
        m = EdgeCostModel("bpr", 1.0, 1.0, 1.0, 0.25)
        fs = np.linspace(0.0, 10.0, 400001)
        sup = (fs * 2.0 - repeated(m, len(fs)).integral(fs)).max()
        value, _ = EdgeTable.of([m]).conjugate([2.0])
        assert value[0] == pytest.approx(sup, abs=1e-8)

    def test_conjugacy_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = EdgeCostModel("bpr", rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                              rng.uniform(0.2, 2), rng.uniform(0.2, 1.0))
            t = m.t_free + rng.uniform(0.1, 2.0)
            (value,), (flow,) = EdgeTable.of([m]).conjugate([t])
            fs = np.linspace(0, 3 * flow + 1, 20000)
            sup = (fs * t - repeated(m, len(fs)).integral(fs)).max()
            assert abs(value - sup) <= 1e-6 * (1 + abs(value))

    def test_derivative_inverts_cost(self):
        rng = np.random.default_rng(5)
        models, ts = [], []
        for _ in range(10):
            m = EdgeCostModel("bpr", rng.uniform(0.5, 2), rng.uniform(0.5, 2),
                              rng.uniform(0.2, 2), rng.uniform(0.2, 1.0))
            models.append(m)
            ts.append(m.t_free + rng.uniform(0.1, 2.0))
        table = EdgeTable.of(models)
        _, flow = table.conjugate(ts)
        assert table.cost(flow) == pytest.approx(ts, rel=1e-8)

    def test_value_convex_in_t(self):
        rng = np.random.default_rng(3)
        m = EdgeCostModel("bpr", 1.0, 2.0, 0.5, 0.5)
        a, b = np.array([np.sort(rng.uniform(0.5, 4.0, size=2)) for _ in range(30)]).T
        table = repeated(m, 30)
        va, vb = table.conjugate(a)[0], table.conjugate(b)[0]
        assert np.all(table.conjugate(0.5 * (a + b))[0] <= 0.5 * (va + vb) + 1e-12)

    def test_small_power_approaches_capacitated_limit(self):
        # as the power vanishes the congestion step concentrates at time
        # t_free*(1+gain); below that threshold the conjugate collapses
        # onto the capacitated edge's (zero), monotonically
        t = 1.7  # inside (t_free, t_free*(1+gain)) = (1, 2)
        sd = EdgeCostModel("sd", 2.0, 2.0)
        target, _ = EdgeTable.of([sd]).conjugate([t + 0.3])  # 0 at its free-flow time
        assert target.tolist() == [0.0]
        table = EdgeTable.of([EdgeCostModel("bpr", 1.0, 2.0, 1.0, power)
                              for power in (0.25, 0.1, 0.02)])
        gaps = np.abs(table.conjugate([t] * 3)[0])
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("power", [0.25, 0.5, 1.0])
    def test_curvature_is_the_derivative_of_the_flow(self, power):
        # one smooth edge among a capped SD, an uncapped SD and a zero-gain edge
        table = EdgeTable.of([EdgeCostModel("bpr", 1.5, 2.0, 0.4, power),
                              EdgeCostModel("sd", 1.2, 0.4), EdgeCostModel("sd", 3.0),
                              EdgeCostModel("bpr", 2.0, 1.0, 0.0, 1.0)])
        flow = lambda t: table.conjugate([t, 1.2, 3.0, 2.0])[1][0]  # noqa: E731
        h = 1e-6
        t = 1.5 + 0.7
        got = table.curvature([t, 1.2, 3.0, 2.0])
        assert got[0] == pytest.approx((flow(t + h) - flow(t - h)) / (2 * h), rel=1e-6)
        assert got[1:].tolist() == [0.0, 0.0, 0.0]
        # at t_free the flow is 0 below and the box keeps t above: the central
        # difference over [t_free, t_free + 2h], from above
        h = 1e-8
        at_free = table.curvature([1.5, 1.2, 3.0, 2.0])[0]
        assert at_free == (2.0 / (0.4 * 1.5) if power == 1.0 else 0.0)
        assert at_free == pytest.approx((flow(1.5 + 2 * h) - flow(1.5)) / (2 * h), abs=1e-6)


class TestSdConjugate:
    def test_at_free_flow_time(self):
        m = EdgeCostModel("sd", 1.0, 2.0)
        value, flow = EdgeTable.of([m]).conjugate([1.0])
        assert (value.tolist(), flow.tolist()) == ([0.0], [2.0])

    def test_linear_above(self):
        m = EdgeCostModel("sd", 1.0, 2.0)
        value, flow = EdgeTable.of([m]).conjugate([3.0])
        assert (value.tolist(), flow.tolist()) == ([4.0], [2.0])


class TestEdgeTable:
    """The table against the closed-form per-edge formulas of conftest."""

    MODELS = [
        EdgeCostModel("bpr", 1.2, math.inf, 0.0, 1.0),  # pinned, uncapacitated
        EdgeCostModel("sd", 1.5, 2.0),
        EdgeCostModel("sd", 0.8, math.inf),
        EdgeCostModel("bpr", 1.0, 2.0, 0.5, 0.25),
        EdgeCostModel("bpr", 0.7, 1.5, 0.8, 0.5),
        EdgeCostModel("bpr", 2.0, 3.0, 1.5, 1.0),
    ]

    @staticmethod
    def same(a, b):
        assert a == pytest.approx(b, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("offset", [-0.3, 0.0, 0.4], ids=["below", "at", "above"])
    def test_conjugate_matches_scalar_wrappers(self, offset):
        table = EdgeTable.of(self.MODELS)
        t = table.t_free + offset
        values, flows = table.conjugate(t)
        for m, tk, v, f in zip(self.MODELS, t, values, flows):
            if not (m.kind == "sd" and math.isfinite(m.capacity) and offset < 0):
                # a capacitated edge's conjugate is undefined below t_free
                self.same((v, f), edge_conjugate(m, tk))

    @pytest.mark.parametrize("f", [0.0, 0.6, 1.9, 2.5])
    def test_integral_and_cost_match_scalar_wrappers(self, f):
        table = EdgeTable.of(self.MODELS)
        flows = np.full(len(self.MODELS), f)
        integral, cost = table.integral(flows), table.cost(flows)
        for m, i, c in zip(self.MODELS, integral, cost):
            self.same(i, edge_integral(m, f))
            self.same(c, edge_cost(m, f))

    def test_pinned_smooth_capped_masks(self):
        table = EdgeTable.of(self.MODELS)
        assert table.pinned.tolist() == [True, False, True, False, False, False]
        assert table.smooth.tolist() == [False, False, False, True, True, True]
        assert table.capped.tolist() == [False, True, False, False, False, False]

    def test_negative_flow_rejected(self):
        table = EdgeTable.of(self.MODELS)
        flows = np.full(len(self.MODELS), 0.5)
        flows[2] = -1e-9
        with pytest.raises(ValueError, match="negative flow"):
            table.cost(flows)
        with pytest.raises(ValueError, match="negative flow"):
            table.integral(flows)

    def test_network_table_is_read_only(self, tmp_path):
        net = load_network(write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE))
        assert net.edges.t_free.tolist() == [1.0, 1e-6]
        with pytest.raises(ValueError):
            net.edges.t_free[0] = 2.0
        net.free_flow_times()[0] = 2.0
        assert net.edges.t_free[0] == 1.0


class TestEdgeGroups:
    """Conjugate and integral over the cached groups against mask_conjugate
    and mask_integral, bit for bit."""

    @staticmethod
    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_conjugate_matches_the_masks(self):
        rng = np.random.default_rng(92)
        tables = [EdgeTable.of(models) for models in edge_layouts(rng)]
        # the layouts read groups both as slices and as index arrays
        kinds = {type(g) for table in tables for g in table.groups}
        assert {slice, np.ndarray} <= kinds
        for table in tables:
            for _ in range(3):
                t = times_around_free(table.t_free, rng)
                for got, want in zip(table.conjugate(t), mask_conjugate(table, t)):
                    self.same(got, want)

    def test_integral_matches_the_masks(self):
        rng = np.random.default_rng(93)
        for models in edge_layouts(rng):
            table = EdgeTable.of(models)
            for _ in range(3):
                f = flows_around_capacity(table.capacity, rng)
                self.same(table.integral(f), mask_integral(table, f))

    def test_groups_are_slices_when_contiguous(self):
        smooth, capped = EdgeCostModel("bpr", 1.0, 2.0, 0.5, 0.5), EdgeCostModel("sd", 1.0, 2.0)
        assert EdgeTable.of([smooth] * 3 + [capped]).groups == (
            slice(0, 3), slice(3, 4), None, slice(3, 4))
        assert EdgeTable.of([capped, smooth, capped]).groups[1].tolist() == [0, 2]


class TestLevelLayouts:
    def test_layouts_match_their_definitions(self):
        # parallel edges 0 -> 1, no edge into 0, nested edges after the plain ones
        m = EdgeCostModel("bpr", 1.0, 1.0, 0.5, 1.0)
        lg = LevelGraph(4, plain_edges=[(0, 1, m), (0, 1, m), (1, 2, m), (2, 1, m), (0, 2, m)],
                        nested_edges=[(1, 3, (0, 1)), (0, 3, (0, 1))])
        edges = lg.plain_edges + lg.nested_edges
        fan_in = [sum(head == v for _, head, _ in edges) + 1 for v in range(4)]
        assert fan_in == [1, 4, 3, 3]
        assert lg.log_fan_in == math.log(max(fan_in))
        # the slots: each head's in-edges in edge order, then its virtual edge from row 4 + v
        _, tails, starts, heads = lg.head_groups
        assert heads.tolist() == [v for v in range(4) for _ in range(fan_in[v])]
        assert tails.tolist() == [4, 0, 0, 2, 5, 1, 0, 6, 1, 0, 7]
        assert starts.tolist() == [0, 1, 5, 8]
        order, starts, vertices, tails, heads = lg.tail_groups
        assert tails.tolist() == [edges[e][0] for e in order]
        assert heads.tolist() == [edges[e][1] for e in order]
        assert tails.tolist() == sorted(e[0] for e in edges)
        assert vertices.tolist() == [0, 1, 2] and starts.tolist() == [0, 4, 6]


class TestLoadNetwork:
    def test_pigou_round_trip(self, tmp_path):
        net = load_network(write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE))
        assert net.n_levels == 1
        assert len(net.levels[0].plain_edges) == 2
        assert net.demands == {(0, 1): 1.0}

    def test_braess_round_trip(self, tmp_path):
        net = load_network(write_instance(tmp_path / "braess.net", BRAESS_SHORTCUT_INSTANCE))
        assert net.levels[0].n_vertices == 4
        assert net.levels[0].n_edges == 5

    def test_zero_capacity_rejected(self, tmp_path):
        bad = "1 0 1 bpr 1.0 0.0 1.0 0.25\nod 1 0 1 1.0\n"
        with pytest.raises(ValidationError, match="capacity"):
            load_network(write_instance(tmp_path / "bad.net", bad))

    def test_parse_error_carries_line_number(self, tmp_path):
        bad = "# header\n1 0 1 bpr nope 1.0 1.0 0.25\n"
        with pytest.raises(ParseError, match="line 2"):
            load_network(write_instance(tmp_path / "bad.net", bad))

    def test_gamma_records(self, tmp_path):
        text = PIGOU_INSTANCE + "gamma 1 0.25\n"
        net = load_network(write_instance(tmp_path / "g.net", text))
        assert net.levels[0].gamma == 0.25

    def test_gamma_record_may_precede_its_level(self, tmp_path):
        # levels are checked after parsing (TestBadInput covers the rejects)
        text = "gamma 2 0.5\n1 0 1 nested 0:1\n2 0 1 bpr 1.0 1.0 0.5 0.25\nod 1 0 1 1.0\n"
        net = load_network(write_instance(tmp_path / "g.net", text))
        assert net.gammas() == [1.0, 0.5]

    def test_nested_reference_and_levels(self, tmp_path):
        text = (
            "1 0 1 nested 0:1\n"
            "2 0 1 bpr 1.0 1.0 0.5 0.25\n"
            "od 1 0 1 1.0\n"
        )
        net = load_network(write_instance(tmp_path / "m2.net", text))
        assert net.n_levels == 2
        assert net.levels[0].nested_edges == ((0, 1, (0, 1)),)

    def test_duplicate_demand_rejected(self, tmp_path):
        text = PIGOU_INSTANCE + "od 1 0 1 2.0\n"
        with pytest.raises(ParseError, match="duplicate"):
            load_network(write_instance(tmp_path / "dup.net", text))


class TestValidation:
    def test_collects_all_violations(self):
        loop = EdgeCostModel("bpr", -1.0, 1.0, 0.2, 0.25)
        lg = LevelGraph(2, plain_edges=[(0, 0, loop)])
        bad = validate([lg], {(0, 1): -2.0})
        assert len(bad) >= 3  # self-loop, bad t_free, bad demand

    def test_nested_endpoint_out_of_range(self):
        # accepted before nested edges shared the plain edges' endpoint rule: the
        # solve then failed on shapes (3,) and (6,) that could not be broadcast
        m = EdgeCostModel("bpr", 1.0, 1.0, 0.5, 1.0)
        inner = LevelGraph(2, plain_edges=[(0, 1, m)])
        top = LevelGraph(3, plain_edges=[(0, 1, m)], nested_edges=[(0, 5, (0, 1))])
        with pytest.raises(ValidationError) as err:
            Network([top, inner], {(0, 1): 1.0})
        assert err.value.violations == ["level 1 nested edge 0->5: vertex out of range"]
        # as on a plain edge, the range message follows the self-loop message
        loop = LevelGraph(3, plain_edges=[(0, 1, m)], nested_edges=[(5, 5, (0, 1))])
        assert validate([loop, inner], {(0, 1): 1.0}) == [
            "level 1 nested edge 5->5: self-loop", "level 1 nested edge 5->5: vertex out of range"]

    def test_top_level_nested_rejected(self):
        lg = LevelGraph(2, nested_edges=[(0, 1, (0, 1))])
        bad = validate([lg], {(0, 1): 1.0})
        assert any("top level" in v for v in bad)

    def test_no_levels(self):
        assert validate([], {(0, 1): 1.0}) == ["network has no levels"]

    def test_unknown_cost_kind(self):
        with pytest.raises(ValueError, match="unknown cost kind 'linear'"):
            EdgeCostModel("linear", 1.0)

    def test_network_constructor_raises(self):
        lg = LevelGraph(2, plain_edges=[])
        with pytest.raises(ValidationError):
            Network([lg], {})
