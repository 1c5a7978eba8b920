"""Smoothed shortest paths: log-sum-exp potentials, Gibbs flows, hard routes.

The "path set" of an OD pair is the set of walks of at most H hops.  A
forward dynamic program computes the soft-min potential
u_v = -gamma * log(sum over walks of exp(-length/gamma)) from every origin
of a level at once; a backward (adjoint) sweep over the same recursion
yields the Gibbs edge flows, which are the exact gradient of the
demand-weighted soft-min value with respect to the edge weights.

Both sweeps are batched over origins: a hop updates one (vertices x
origins) array, with the edges grouped by head (forward) or by tail
(backward) and each group reduced by np.minimum.reduceat/np.add.reduceat,
so the numpy calls per hop do not grow with the number of origins.  The
backward sweep reads every forward round, (H+1) x vertices x origins
floats; origins are swept in chunks whose rounds fit in ROUNDS_CAP_BYTES.
A single origin is a batch of one.  With gamma = 0 the same interfaces
fall back to hard shortest paths and all-or-nothing loading.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .network import FlowState, LevelGraph, Network, NetworkError, by_origin

ROUNDS_CAP_BYTES = 32 << 20  # forward rounds kept per chunk of origins


class UnreachableError(NetworkError):
    """An OD pair has no walk within the hop bound."""

    def __init__(self, level, origin, dest, hops):
        super().__init__(
            f"level {level}: no walk from {origin} to {dest} within {hops} hops"
        )
        self.od = (origin, dest)


def _sweep_forward(graph: LevelGraph, weights, origins, gamma, hops, keep_rounds=False):
    """Potentials over walks of at most `hops` hops from each origin.

    Returns (u, rounds): u[v, b] is the potential of v seen from
    origins[b] (+inf when unreachable); rounds stacks u after 0..hops
    hops, shape (hops+1, V, B), when keep_rounds is set, else None.
    """
    n, batch = graph.n_vertices, len(origins)
    order, starts, ends = graph.head_groups
    tails, heads = graph.tails[order], graph.heads[order]
    w = weights[order, None]
    # flat index of entry (origins[b], b) of a (V, B) array
    at_origin = np.asarray(origins, dtype=np.intp) * batch + np.arange(batch)
    u = np.full((n, batch), math.inf)
    u.reshape(-1)[at_origin] = 0.0
    rounds = np.empty((hops + 1, n, batch)) if keep_rounds else None
    if keep_rounds:
        rounds[0] = u
    # inf - inf where neither end of an edge is reached; log(0) at such heads
    with np.errstate(invalid="ignore", divide="ignore"):
        for h in range(1, hops + 1):
            cand = w + u[tails]
            shift = np.full((n, batch), math.inf)
            shift[ends] = np.minimum.reduceat(cand, starts, axis=0)
            # the empty walk keeps every origin at length 0
            empty = np.minimum(shift.reshape(-1)[at_origin], 0.0)
            shift.reshape(-1)[at_origin] = empty
            z = np.exp((shift[heads] - cand) / gamma)
            z[np.isnan(z)] = 0.0
            acc = np.zeros((n, batch))
            acc[ends] = np.add.reduceat(z, starts, axis=0)
            acc.reshape(-1)[at_origin] += np.exp(empty / gamma)
            u = shift - gamma * np.log(acc)
            if keep_rounds:
                rounds[h] = u
    return u, rounds


def _sweep_backward(graph: LevelGraph, weights, gamma, rounds, sink_mass):
    """Adjoint sweep: route sink_mass[v, b] back to origin b.

    Returns the edge flows summed over the batch.
    """
    order, starts, ends = graph.tail_groups
    tails, heads = graph.tails[order], graph.heads[order]
    w = weights[order, None]
    per_origin = np.zeros((graph.n_edges, sink_mass.shape[1]))
    p = sink_mass
    with np.errstate(invalid="ignore"):
        for h in range(len(rounds) - 1, 0, -1):
            expo = (rounds[h][heads] - w - rounds[h - 1][tails]) / gamma
            # fmin maps the NaN of inf - inf to 0; p is 0 at heads unreached
            # in h hops, so such edges carry nothing
            contrib = p[heads] * np.exp(np.fmin(expo, 0.0))
            per_origin += contrib
            p = np.zeros_like(sink_mass)
            p[ends] = np.add.reduceat(contrib, starts, axis=0)
            # mass not propagated is absorbed by the empty walk at the origin
    flows = np.empty(graph.n_edges)
    flows[order] = per_origin.sum(axis=1)
    return flows


def softmin_potentials(graph: LevelGraph, weights, origin, gamma, hops):
    """Soft-min potentials from origin over walks of at most `hops` hops.

    Unreachable vertices get +inf.  weights is a per-edge array aligned
    with the graph's edge indexing (plain edges first, then nested).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive; use hard_shortest for gamma=0")
    if hops < 1:
        raise ValueError("hop bound must be at least 1")
    weights = np.asarray(weights, dtype=float)
    u, _ = _sweep_forward(graph, weights, [origin], gamma, hops)
    return u[:, 0]


def softmin_flows(graph: LevelGraph, weights, demands, gamma, hops, level=1):
    """Aggregated soft-min value and its gradient (Gibbs edge flows).

    demands maps (origin, dest) to a positive demand.  Returns
    (value, flows) where value = sum_w d_w * u_dest and flows is the
    exact gradient of value with respect to the edge weights.
    """
    weights = np.asarray(weights, dtype=float)
    groups = by_origin(demands)
    origins = list(groups)
    chunk = max(1, ROUNDS_CAP_BYTES // (8 * (hops + 1) * graph.n_vertices))
    value = 0.0
    flows = np.zeros(graph.n_edges)
    for lo in range(0, len(origins), chunk):
        batch = origins[lo:lo + chunk]
        u, rounds = _sweep_forward(graph, weights, batch, gamma, hops, keep_rounds=True)
        sink = np.zeros_like(u)
        for b, o in enumerate(batch):
            for (_, d), dem in groups[o].items():
                if not math.isfinite(u[d, b]):
                    raise UnreachableError(level, o, d, hops)
                value += dem * u[d, b]
                sink[d, b] += dem
        flows += _sweep_backward(graph, weights, gamma, rounds, sink)
    return value, flows


def hard_shortest(graph: LevelGraph, weights, origin, method="auto"):
    """Exact shortest-walk distances with a deterministic tie-break.

    Ties are resolved toward the lexicographically smallest
    (predecessor vertex, edge index) pair.  Returns (dist, pred_edge)
    with pred_edge = -1 at the origin and unreachable vertices.
    """
    weights = np.asarray(weights, dtype=float)
    if method == "auto":
        method = "dijkstra" if np.all(weights >= 0) else "bellman-ford"
    if method == "dijkstra" and np.any(weights < 0):
        raise ValueError("dijkstra requires nonnegative weights")
    n = graph.n_vertices
    tails, heads = graph.tails, graph.heads
    dist = np.full(n, math.inf)
    pred = np.full(n, n, dtype=np.intp)  # sentinel larger than any vertex
    pred_edge = np.full(n, -1, dtype=np.intp)
    dist[origin] = 0.0

    def relax(e):
        t, h = tails[e], heads[e]
        nd = dist[t] + weights[e]
        if nd < dist[h] or (nd == dist[h] and (t, e) < (pred[h], pred_edge[h])):
            improved = nd < dist[h]
            dist[h] = nd
            pred[h] = t
            pred_edge[h] = e
            return improved
        return False

    out = [[] for _ in range(n)]
    for e, t in enumerate(tails):
        out[t].append(e)
    if method == "bellman-ford":
        for _ in range(n - 1):
            changed = False
            for v in range(n):
                if math.isfinite(dist[v]):
                    for e in out[v]:
                        changed |= relax(e)
            if not changed:
                break
    elif method == "dijkstra":
        heap = [(0.0, origin)]
        done = np.zeros(n, dtype=bool)
        while heap:
            d, v = heapq.heappop(heap)
            if done[v] or d > dist[v]:
                continue
            done[v] = True
            for e in out[v]:
                if relax(e):
                    heapq.heappush(heap, (dist[heads[e]], heads[e]))
    else:
        raise ValueError(f"unknown method {method!r}")
    pred_edge[origin] = -1
    return dist, pred_edge


def all_or_nothing(graph: LevelGraph, weights, demands, method="auto", level=1):
    """Load each OD's full demand on its tie-broken shortest path.

    Returns (value, flows): value = sum_w d_w * dist_w, flows a valid
    subgradient element of the hard-min aggregate.
    """
    weights = np.asarray(weights, dtype=float)
    value = 0.0
    flows = np.zeros(graph.n_edges)
    hops = graph.n_vertices - 1
    for o, group in by_origin(demands).items():
        dist, pred_edge = hard_shortest(graph, weights, o, method=method)
        for (_, d), dem in group.items():
            if not math.isfinite(dist[d]):
                raise UnreachableError(level, o, d, hops)
            value += dem * dist[d]
            v = d
            while v != o:
                e = pred_edge[v]
                flows[e] += dem
                v = graph.tails[e]
    return value, flows


def effective_weights(network: Network, t, gammas=None, hops=None):
    """Per-level edge weights with nested edges priced top-down.

    A nested edge of level k gets the (soft or hard) shortest-path value
    of its referenced OD pair in level k+1, computed with that level's
    smoothing scale.  Returns one weight array per level, aligned with
    the level's edge indexing.
    """
    t = np.asarray(t, dtype=float)
    gammas = list(network.gammas()) if gammas is None else list(gammas)
    hops = _hop_bounds(network, hops)
    m = network.n_levels
    weights = [None] * m
    for k in range(m - 1, -1, -1):
        lg = network.levels[k]
        plain_w = t[network.plain_slices[k]]
        if not lg.nested_edges:
            weights[k] = np.asarray(plain_w, dtype=float).copy()
            continue
        inner = network.levels[k + 1]
        refs = [od for (_, _, od) in lg.nested_edges]
        values = _od_values(
            inner, weights[k + 1], refs, gammas[k + 1], hops[k + 1], level=k + 2
        )
        weights[k] = np.concatenate([plain_w, values])
    return weights


def _od_values(graph, weights, od_pairs, gamma, hops, level):
    """Shortest-path (soft or hard) value per requested OD pair."""
    origins = sorted({o for o, _ in od_pairs})
    if gamma > 0:
        weights = np.asarray(weights, dtype=float)
        u, _ = _sweep_forward(graph, weights, origins, gamma, hops)
    else:
        u = np.column_stack([hard_shortest(graph, weights, o)[0] for o in origins])
    column = {o: b for b, o in enumerate(origins)}
    values = u[[d for _, d in od_pairs], [column[o] for o, _ in od_pairs]]
    for (o, d), v in zip(od_pairs, values):
        if not math.isfinite(v):
            raise UnreachableError(level, o, d, hops)
    return values


def _hop_bounds(network, hops):
    if hops is None:
        return [lg.n_vertices - 1 for lg in network.levels]
    if np.isscalar(hops):
        return [int(hops)] * network.n_levels
    return list(hops)


def assignment_flows(network: Network, t, gammas=None, hops=None, demands=None):
    """Value and flows on every level for the current time vector.

    Level 1 is loaded with the network demands (or the `demands`
    override); deeper levels inherit the flows of the nested edges
    referencing them.  Levels with gamma > 0 use the Gibbs assignment
    (exact gradient); gamma = 0 levels use tie-broken all-or-nothing
    (a subgradient element).  Returns (value, FlowState) with value the
    level-1 aggregate.
    """
    gammas = list(network.gammas()) if gammas is None else list(gammas)
    hops = _hop_bounds(network, hops)
    weights = effective_weights(network, t, gammas, hops)
    flow = FlowState.zeros(network)
    demands = dict(network.demands if demands is None else demands)
    value = None
    for k, lg in enumerate(network.levels):
        if not demands:
            break
        if gammas[k] > 0:
            val, edge_flows = softmin_flows(lg, weights[k], demands, gammas[k], hops[k], level=k + 1)
        else:
            val, edge_flows = all_or_nothing(lg, weights[k], demands, level=k + 1)
        if k == 0:
            value = val
        n_plain = len(lg.plain_edges)
        flow.plain[k] = edge_flows[:n_plain]
        flow.nested[k] = edge_flows[n_plain:]
        demands = {}
        for j, (_, _, od) in enumerate(lg.nested_edges):
            f = flow.nested[k][j]
            if f > 0.0:
                demands[od] = demands.get(od, 0.0) + f
    return value, flow
