"""Shared fixtures: classic tiny networks, instance writers, enumeration and
closed-form per-edge cost oracles."""

import contextlib
import math
import signal

import numpy as np
import pytest

from equiflow import EdgeCostModel, LevelGraph, Network


def linear_edge(t_small=1e-6):
    """Near-linear cost: time ~ flow, strongly convex conjugate."""
    return EdgeCostModel("bpr", t_free=t_small, capacity=1.0, bpr_gain=1.0 / t_small,
                         bpr_power=1.0)


def fixed_edge(cost):
    """Constant-cost edge (zero gain pins its time)."""
    return EdgeCostModel("bpr", t_free=cost, capacity=1.0, bpr_gain=0.0, bpr_power=1.0)


def edge_cost(m, f):
    """Closed-form travel time of one edge at flow f (SD: t_free)."""
    if m.kind == "sd":
        return m.t_free
    return m.t_free * (1.0 + m.bpr_gain * (f / m.capacity) ** m.bpr_power)


def edge_integral(m, f):
    """Closed-form integral of edge_cost from 0 to f; inf for SD flow above capacity."""
    if m.kind == "sd":
        return m.t_free * f if f <= m.capacity else math.inf
    if m.bpr_gain == 0.0:
        return m.t_free * f
    p = m.bpr_power
    return m.t_free * f + m.t_free * m.bpr_gain * m.capacity / (1.0 + p) * (f / m.capacity) ** (1.0 + p)


def edge_conjugate(m, t):
    """(sup_f t*f - edge_integral(f), its maximizer) in closed form.

    A capacitated SD edge gives capacity * (t - t_free) with flow capacity
    (defined from t_free on); a positive-gain BPR edge is maximized where
    edge_cost(f) = t, and t*f - edge_integral(f) there simplifies to
    p/(1+p) * f * (t - t_free); any other edge gives 0 at or below t_free
    and inf above.
    """
    if m.kind == "sd" and math.isfinite(m.capacity):
        return m.capacity * (t - m.t_free), m.capacity
    if t <= m.t_free:
        return 0.0, 0.0
    if m.kind == "sd" or m.bpr_gain == 0.0:
        return math.inf, math.inf
    f = m.capacity * ((t - m.t_free) / (m.bpr_gain * m.t_free)) ** (1.0 / m.bpr_power)
    return m.bpr_power / (1.0 + m.bpr_power) * f * (t - m.t_free), f


def mask_conjugate(table, t):
    """The conjugate by boolean masks over the whole table, kept as the
    reference for the table's cached edge groups."""
    dt = np.asarray(t, dtype=float) - table.t_free
    value, flow = np.zeros(len(dt)), np.zeros(len(dt))
    s = table.smooth & (dt > 0)
    mu = table.power[s]
    flow[s] = table.capacity[s] * (dt[s] / (table.gain[s] * table.t_free[s])) ** (1.0 / mu)
    value[s] = mu / (1.0 + mu) * flow[s] * dt[s]
    c = table.capped
    flow[c] = table.capacity[c]
    value[c] = table.capacity[c] * dt[c]
    p = table.pinned & (dt > 0)
    value[p] = flow[p] = math.inf
    return value, flow


def mask_integral(table, f):
    """The cost integral by boolean masks, the reference of mask_conjugate."""
    f = np.asarray(f, dtype=float)
    s = table.smooth
    mu = table.power[s]
    out = table.t_free * f
    out[s] += (table.t_free[s] * table.gain[s] * table.capacity[s] / (1.0 + mu)
               * (f[s] / table.capacity[s]) ** (1.0 + mu))
    out[table.is_sd & (f > table.capacity)] = math.inf
    return out


# one random edge of each kind a table groups its edges by
EDGE_KINDS = {
    "smooth": lambda rng: EdgeCostModel("bpr", rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0),
                                        rng.uniform(0.1, 1.5), rng.choice([0.25, 0.5, 1.0])),
    "pinned": lambda rng: EdgeCostModel("bpr", rng.uniform(0.5, 2.0),
                                        rng.choice([math.inf, 2.0]), 0.0, 0.5),
    "capped": lambda rng: EdgeCostModel("sd", rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0)),
    "open": lambda rng: EdgeCostModel("sd", rng.uniform(0.5, 2.0), math.inf),
}


def edge_layouts(rng):
    """Cost-model lists of every grouping: mixed kinds (groups as index
    arrays), one run per kind (groups as slices) and lists without one or
    more of the kinds."""
    kinds = list(EDGE_KINDS)
    layouts = [rng.choice(kinds, size=40).tolist() for _ in range(4)]
    layouts += [sorted(rng.choice(kinds, size=30).tolist()) for _ in range(2)]
    layouts += [[k] * 12 for k in kinds]
    layouts += [[k for k in rng.choice(kinds, size=20).tolist() if k != drop] for drop in kinds]
    return [[EDGE_KINDS[k](rng) for k in layout] for layout in layouts]


def times_around_free(t_free, rng):
    """Times below, at and above t_free, edge by edge."""
    offset = rng.choice([-0.4, 0.0, 0.0, 0.3, 1.7], size=len(t_free))
    return t_free + offset * rng.uniform(0.5, 1.0, size=len(offset))


def flows_around_capacity(capacity, rng):
    """Flows from 0 to twice each finite capacity, so that capped SD edges
    fall on both sides of it."""
    scale = np.where(np.isfinite(capacity), capacity, 1.0)
    return scale * rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=len(scale))


@pytest.fixture
def pigou_network():
    """Two parallel routes: fixed cost 1 vs cost ~ flow; equilibrium (0, 1)."""
    lg = LevelGraph(2, plain_edges=[(0, 1, fixed_edge(1.0)), (0, 1, linear_edge())])
    return Network([lg], {(0, 1): 1.0})


def braess_network(with_shortcut):
    """4-node diamond; the near-free shortcut worsens equilibrium cost 1.5 -> 2."""
    edges = [
        (0, 1, linear_edge()),
        (1, 3, fixed_edge(1.0)),
        (0, 2, fixed_edge(1.0)),
        (2, 3, linear_edge()),
    ]
    if with_shortcut:
        edges.append((1, 2, fixed_edge(1e-6)))
    return Network([LevelGraph(4, plain_edges=edges)], {(0, 3): 1.0})


@pytest.fixture
def sd_two_link():
    """Capacitated link (t_free 1, cap 1) plus uncapacitated backup (t_free 2).

    Demand 2 fills the capacitated link exactly; its time rises to 2 with
    congestion multiplier 1.
    """
    e1 = EdgeCostModel("sd", t_free=1.0, capacity=1.0)
    e2 = EdgeCostModel("sd", t_free=2.0, capacity=math.inf)
    return Network([LevelGraph(2, plain_edges=[(0, 1, e1), (0, 1, e2)])], {(0, 1): 2.0})


PIGOU_INSTANCE = """\
# two parallel routes, one unit of demand
1 0 1 bpr 1.0 1.0 0.0 1.0
1 0 1 bpr 1e-6 1.0 1e6 1.0
od 1 0 1 1.0
"""

BRAESS_SHORTCUT_INSTANCE = """\
1 0 1 bpr 1e-6 1.0 1e6 1.0
1 1 3 bpr 1.0 1.0 0.0 1.0
1 0 2 bpr 1.0 1.0 0.0 1.0
1 2 3 bpr 1e-6 1.0 1e6 1.0
1 1 2 bpr 1e-6 1.0 0.0 1.0
od 1 0 3 1.0
"""

BRAESS_BASE_INSTANCE = """\
1 0 1 bpr 1e-6 1.0 1e6 1.0
1 1 3 bpr 1.0 1.0 0.0 1.0
1 0 2 bpr 1.0 1.0 0.0 1.0
1 2 3 bpr 1e-6 1.0 1e6 1.0
od 1 0 3 1.0
"""

SD_TWO_LINK_INSTANCE = """\
1 0 1 sd 1.0 1.0
1 0 1 sd 2.0 inf
od 1 0 1 2.0
"""


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wide_kernel_draw():
    """(L, W, T) of 5 x 11 zones with costs up to 100, drawn from seed 5182.

    At gamma 0.1 the row- and column-shifted kernel spans about e^-862,
    more than the float range: plain alternating scalings overflow.
    """
    rng = np.random.default_rng(5182)
    nr, nc = rng.integers(3, 31, size=2)
    L = rng.uniform(0.1, 10, nr)
    W = rng.uniform(0.1, 10, nc)
    W *= L.sum() / W.sum()
    return L, W, rng.uniform(0, 100, (nr, nc))


def write_instance(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def enumerate_walks(graph, origin, dest, hops):
    """All edge-index walks origin -> dest of at most `hops` edges."""
    walks = []

    def rec(v, trail):
        if trail and v == dest:
            walks.append(list(trail))
        if len(trail) == hops:
            return
        for e in range(graph.n_edges):
            if graph.tails[e] == v:
                trail.append(e)
                rec(graph.heads[e], trail)
                trail.pop()

    rec(origin, [])
    return walks


def enumerated_softmin(graph, weights, origin, dest, gamma, hops):
    """(value, edge flows per unit demand) by explicit walk enumeration."""
    walks = enumerate_walks(graph, origin, dest, hops)
    lens = np.array([sum(weights[e] for e in w) for w in walks])
    m = lens.min()
    z = np.exp(-(lens - m) / gamma)
    value = m - gamma * math.log(z.sum())
    probs = z / z.sum()
    flows = np.zeros(graph.n_edges)
    for w, p in zip(walks, probs):
        for e in w:
            flows[e] += p
    return value, flows


def grid_graph(k):
    """k x k grid, both directions on every side."""
    edges = []
    for v in range(k * k):
        r, c = divmod(v, k)
        for nb in ([v + 1] if c < k - 1 else []) + ([v + k] if r < k - 1 else []):
            edges += [(v, nb, fixed_edge(1.0)), (nb, v, fixed_edge(1.0))]
    return LevelGraph(k * k, plain_edges=edges)


def random_network(rng, m=1, gamma=1.0):
    """Small random connected instance for property checks."""
    plain = []
    for k in range(m):
        n = int(rng.integers(4, 8))
        edges = []
        # a guaranteed 0 -> n-1 path plus random extras
        for v in range(n - 1):
            edges.append((v, v + 1, _random_model(rng)))
        for _ in range(int(rng.integers(2, 7))):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.append((int(a), int(b), _random_model(rng)))
        plain.append((n, edges))
    # with two levels, level 1 gets a nested edge over the whole of level 2
    nested = [(0, plain[0][0] - 1, (0, plain[1][0] - 1))] if m == 2 else []
    levels = [LevelGraph(n, plain_edges=edges, nested_edges=nested if k == 0 else (), gamma=gamma)
              for k, (n, edges) in enumerate(plain)]
    demands = {(0, levels[0].n_vertices - 1): float(rng.uniform(0.5, 2.0))}
    return Network(levels, demands)


def _random_model(rng):
    return EdgeCostModel(
        "bpr",
        t_free=float(rng.uniform(0.5, 2.0)),
        capacity=float(rng.uniform(0.5, 3.0)),
        bpr_gain=float(rng.uniform(0.1, 1.0)),
        bpr_power=float(rng.choice([0.25, 0.5, 1.0])),
    )


def record_solve_points(monkeypatch):
    """Patch the solve's oracle and solver; returns the points value_grad
    and value were called at, the y0 of each umt_minimize call and the
    (value_calls, grad_calls) of its report when it returned."""
    import equiflow.dual as dual
    from equiflow import DualOracle

    seen = {"value_grad": [], "value": [], "y0": [], "umt_calls": []}
    for name in ("value_grad", "value"):
        real = getattr(DualOracle, name)
        monkeypatch.setattr(DualOracle, name, lambda self, t, real=real, name=name:
                            seen[name].append(np.array(t)) or real(self, t))
    real_umt = dual.umt_minimize

    def umt(oracle, prox, y0, *args, **kwargs):
        seen["y0"].append(np.array(y0))
        x, rep = real_umt(oracle, prox, y0, *args, **kwargs)
        seen["umt_calls"].append((rep.value_calls, rep.grad_calls))
        return x, rep

    monkeypatch.setattr(dual, "umt_minimize", umt)
    return seen
