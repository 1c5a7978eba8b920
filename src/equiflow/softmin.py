"""Smoothed shortest paths: log-sum-exp potentials, Gibbs flows, hard routes.

The "path set" of an OD pair is the set of walks of at most H hops.  A
forward dynamic program computes the soft-min potential
u_v = -gamma * log(sum over walks of exp(-length/gamma)) from every origin
of a level at once; a backward (adjoint) sweep over the same recursion
yields the Gibbs edge flows, which are the exact gradient of the
demand-weighted soft-min value with respect to the edge weights.

One forward kernel serves every gamma >= 0.  A hop updates one (vertices
x origins) array of scaled potentials u/gamma: the edges, grouped by head,
are reduced by np.minimum.reduceat (then np.add.reduceat) into preallocated
buffers, so the numpy calls per hop do not grow with the origins.  The
empty walk at an origin is one more (virtual) in-edge per vertex, read from
a copy of round 0.  At gamma = 0 the hop is min-plus (a take, an add and the
minimum) over u itself, run to its fixed point or n-1 hops: the hard
shortest paths of hard_shortest, all_or_nothing and gamma = 0 pricing.

The backward sweep reads every forward round, (H+1) x vertices x origins
floats, so origins are swept in chunks whose rounds fit in
ROUNDS_CAP_BYTES.  assignment_flows runs only the forward sweeps, which give
the value, and returns a deferred FlowState: the first read of its flows
runs the backward sweeps from the kept rounds of level 1 and of each deeper
level's pricing sweep (beyond one chunk, the forward sweeps rerun).  A
point whose flows are never read pays for no backward sweep, every level is
swept forward once per point (by _od_values), and gamma = 0 levels load
all-or-nothing when their flows are read.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .network import FlowState, LevelGraph, Network, NetworkError, by_origin

ROUNDS_CAP_BYTES = 32 << 20  # forward rounds kept per chunk of origins
_BIG = sys.float_info.max


class UnreachableError(NetworkError):
    """An OD pair has no walk within the hop bound."""

    def __init__(self, level, origin, dest, hops):
        super().__init__(
            f"level {level}: no walk from {origin} to {dest} within {hops} hops"
        )
        self.od = (origin, dest)


def _sweep_forward(graph: LevelGraph, weights, origins, gamma, hops, keep_rounds=False):
    """Scaled potentials over walks of at most `hops` hops from each origin.

    Returns (s, rounds): s[v, b] = u[v, b] / gamma, u the potential of v
    seen from origins[b] (+inf when unreachable); rounds stacks s after
    0..hops hops, shape (hops+1, V, B), when keep_rounds is set, else None.
    With gamma = 0, s = u is the minimum walk length (min-plus hops) and
    the sweep stops at its fixed point; keep_rounds is for gamma > 0.
    """
    n, batch = graph.n_vertices, len(origins)
    order, tails, starts, counts = graph.head_groups
    c = np.concatenate([np.asarray(weights, dtype=float) / (gamma or 1.0), np.zeros(n)])[order, None]
    # rows n.. keep round 0, the tails of the virtual empty-walk edges
    state = np.full((2 * n, batch), math.inf)
    state[origins, np.arange(batch)] = 0.0
    state[n:] = state[:n]
    u = state[:n]
    rounds = np.empty((hops + 1, n, batch)) if keep_rounds else None
    if keep_rounds:
        rounds[0] = u
    cand, low, acc = np.empty((len(tails), batch)), np.empty((n, batch)), np.empty((n, batch))
    # log(0) and inf - inf where no walk of h hops reaches a vertex; its
    # clamped minimum keeps the exponents at -inf and u at +inf
    with np.errstate(invalid="ignore", divide="ignore"):
        for h in range(1, hops + 1):
            state.take(tails, axis=0, out=cand)
            cand += c
            np.minimum.reduceat(cand, starts, axis=0, out=low)
            if gamma == 0:
                if np.array_equal(low, u):
                    break
                u[:] = low
                continue
            np.minimum(low, _BIG, out=low)
            np.subtract(low.repeat(counts, axis=0), cand, out=cand)
            np.exp(cand, out=cand)
            np.add.reduceat(cand, starts, axis=0, out=acc)
            np.log(acc, out=acc)
            np.subtract(low, acc, out=u)
            if keep_rounds:
                rounds[h] = u
    return u.copy(), rounds


def _sweep_backward(graph: LevelGraph, weights, gamma, rounds, sink_mass):
    """Adjoint sweep over scaled rounds: route sink_mass[v, b] back to origin b.

    Returns the edge flows summed over the batch.
    """
    order, starts, ends = graph.tail_groups
    tails, heads = graph.tails[order], graph.heads[order]
    c = np.asarray(weights, dtype=float)[order, None] / gamma
    shape = (len(order), sink_mass.shape[1])
    x, y, per_origin = np.empty(shape), np.empty(shape), np.zeros(shape)
    p, below = sink_mass, np.zeros_like(sink_mass)
    with np.errstate(invalid="ignore"):
        for h in range(len(rounds) - 1, 0, -1):
            rounds[h].take(heads, axis=0, out=x)
            rounds[h - 1].take(tails, axis=0, out=y)
            y += c
            x -= y
            # fmin maps the NaN of inf - inf to 0; p is 0 at heads unreached
            # in h hops, so such edges carry nothing
            np.fmin(x, 0.0, out=x)
            np.exp(x, out=x)
            p.take(heads, axis=0, out=y)
            x *= y
            per_origin += x
            # mass not propagated is absorbed by the empty walk at the origin
            below[ends] = np.add.reduceat(x, starts, axis=0)
            p = below
    flows = np.empty(graph.n_edges)
    flows[order] = per_origin.sum(axis=1)
    return flows


def _chunks(graph, origins, hops):
    """Batches of origins whose forward rounds fit in ROUNDS_CAP_BYTES."""
    size = max(1, ROUNDS_CAP_BYTES // (8 * (hops + 1) * graph.n_vertices))
    return [origins[lo:lo + size] for lo in range(0, len(origins), size)]


def _sink(groups, origins, s, gamma, level, hops):
    """Value sum_w d_w * u_dest of one batch and its sink masses."""
    sink = np.zeros_like(s)
    value = 0.0
    for b, o in enumerate(origins):
        for (_, d), dem in groups.get(o, {}).items():
            if not math.isfinite(s[d, b]):
                raise UnreachableError(level, o, d, hops)
            value += dem * (gamma * s[d, b])
            sink[d, b] += dem
    return value, sink


def softmin_potentials(graph: LevelGraph, weights, origin, gamma, hops):
    """Soft-min potentials from origin over walks of at most `hops` hops.

    Unreachable vertices get +inf.  weights is a per-edge array aligned
    with the graph's edge indexing (plain edges first, then nested).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive; use hard_shortest for gamma=0")
    if hops < 1:
        raise ValueError("hop bound must be at least 1")
    s, _ = _sweep_forward(graph, weights, [origin], gamma, hops)
    return gamma * s[:, 0]


def softmin_flows(graph: LevelGraph, weights, demands, gamma, hops, level=1, forward=None):
    """Aggregated soft-min value and its gradient (Gibbs edge flows).

    demands maps (origin, dest) to a positive demand.  Returns
    (value, flows) where value = sum_w d_w * u_dest and flows is the
    exact gradient of value with respect to the edge weights.

    `forward`, a kept forward sweep (origins, rounds) of the same weights,
    gamma and hops whose origins include every origin of demands, replaces
    the forward sweep; rounds are the scaled rounds of _sweep_forward.
    """
    weights = np.asarray(weights, dtype=float)
    groups = by_origin(demands)
    value = 0.0
    flows = np.zeros(graph.n_edges)
    batches = _chunks(graph, list(groups), hops) if forward is None else [forward[0]]
    for batch in batches:
        if forward is None:
            _, rounds = _sweep_forward(graph, weights, batch, gamma, hops, keep_rounds=True)
        else:
            rounds = forward[1]
        v, sink = _sink(groups, batch, rounds[-1], gamma, level, hops)
        value += v
        flows += _sweep_backward(graph, weights, gamma, rounds, sink)
    return value, flows


def _shortest(graph: LevelGraph, weights, origins):
    """(dist, pred_edge) of hard_shortest, (V, B) each, from one min-plus sweep.

    pred_edge is the smallest (tail, edge) among the tight in-edges,
    dist[tail] + w == dist[head], of each reached vertex but the origin.
    """
    weights = np.asarray(weights, dtype=float)
    dist, _ = _sweep_forward(graph, weights, origins, 0.0, graph.n_vertices - 1)
    tails, heads, m = graph.tails, graph.heads, graph.n_edges
    at_head = dist[heads]
    e, b = np.nonzero(np.isfinite(at_head) & (dist[tails] + weights[:, None] == at_head))
    none = graph.n_vertices * m  # beyond every (tail, edge) key
    key = np.full(dist.shape, none, dtype=np.intp)
    np.minimum.at(key, (heads[e], b), tails[e] * m + e)
    pred_edge = np.where(key < none, key % max(m, 1), -1)
    pred_edge[origins, np.arange(len(origins))] = -1
    return dist, pred_edge


def hard_shortest(graph: LevelGraph, weights, origin):
    """Shortest-walk distances with a deterministic tie-break.

    Exact for nonnegative weights and for negative weights without a
    negative cycle; otherwise dist is the minimum over walks of at most
    n-1 hops.  Ties go to the lexicographically smallest (predecessor
    vertex, edge index) pair.  Returns (dist, pred_edge) with
    pred_edge = -1 at the origin and unreachable vertices.
    """
    dist, pred_edge = _shortest(graph, weights, [origin])
    return dist[:, 0], pred_edge[:, 0]


def all_or_nothing(graph: LevelGraph, weights, demands, level=1):
    """Load each OD's full demand on its tie-broken shortest path.

    One batched sweep serves every origin; the distances are those of
    hard_shortest.  Returns (value, flows): value = sum_w d_w * dist_w,
    flows a valid subgradient element of the hard-min aggregate.  Raises
    ValueError when an OD pair's predecessors do not lead back to its
    origin within n-1 edges, which a zero- or negative-weight cycle can
    cause.
    """
    groups = by_origin(demands)
    origins = list(groups)
    dist, pred_edge = _shortest(graph, weights, origins)
    value, _ = _sink(groups, origins, dist, 1.0, level, graph.n_vertices - 1)
    flows = np.zeros(graph.n_edges)
    for b, o in enumerate(origins):
        for (_, d), dem in groups[o].items():
            v, steps = d, 0
            while v != o:
                e = pred_edge[v, b]
                if e < 0 or steps == graph.n_vertices - 1:
                    raise ValueError(
                        f"level {level}: no shortest path to load for OD {o}->{d}; "
                        "the weights have a zero- or negative-weight cycle")
                flows[e] += dem
                v = graph.tails[e]
                steps += 1
    return value, flows


def effective_weights(network: Network, t, gammas=None, hops=None):
    """Per-level edge weights with nested edges priced top-down.

    A nested edge of level k gets the (soft or hard) shortest-path value
    of its referenced OD pair in level k+1, computed with that level's
    smoothing scale.  Returns one weight array per level, aligned with
    the level's edge indexing.
    """
    gammas = list(network.gammas()) if gammas is None else list(gammas)
    return _price(network, t, gammas, _hop_bounds(network, hops))[0]


def _price(network, t, gammas, hops):
    """(weights, kept): effective weights and, per level, the kept pricing
    sweep (origins, rounds) when its rounds fit in ROUNDS_CAP_BYTES (else None)."""
    t = np.asarray(t, dtype=float)
    m = network.n_levels
    weights, kept = [None] * m, [None] * m
    for k in range(m - 1, -1, -1):
        lg = network.levels[k]
        plain_w = t[network.plain_slices[k]]
        if not lg.nested_edges:
            weights[k] = plain_w.copy()
            continue
        refs = [od for (_, _, od) in lg.nested_edges]
        values, kept[k + 1] = _od_values(
            network.levels[k + 1], weights[k + 1], refs, gammas[k + 1], hops[k + 1],
            level=k + 2,
        )
        weights[k] = np.concatenate([plain_w, values])
    return weights, kept


def _od_values(graph, weights, od_pairs, gamma, hops, level):
    """Shortest-path (soft or hard) value per requested OD pair, and the
    kept soft sweep (origins, rounds) when its rounds fit in one chunk."""
    origins = sorted({o for o, _ in od_pairs})
    keep = gamma > 0 and len(_chunks(graph, origins, hops)) == 1
    # gamma = 0 prices the exact shortest paths that all_or_nothing loads
    swept = hops if gamma > 0 else graph.n_vertices - 1
    s, rounds = _sweep_forward(graph, weights, origins, gamma, swept, keep_rounds=keep)
    u = (gamma or 1.0) * s
    column = {o: b for b, o in enumerate(origins)}
    values = u[[d for _, d in od_pairs], [column[o] for o, _ in od_pairs]]
    for (o, d), v in zip(od_pairs, values):
        if not math.isfinite(v):
            raise UnreachableError(level, o, d, swept)
    return values, (origins, rounds) if keep else None


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

    Only the forward sweeps run here.  The FlowState is deferred: its
    first read runs the backward sweeps from the kept rounds of level 1
    and of the deeper levels' pricing sweeps (gamma = 0 levels load then).
    """
    gammas = list(network.gammas()) if gammas is None else list(gammas)
    hops = _hop_bounds(network, hops)
    weights, kept = _price(network, t, gammas, hops)
    demands = dict(network.demands if demands is None else demands)
    pairs = [od for group in by_origin(demands).values() for od in group]
    values, kept[0] = _od_values(network.levels[0], weights[0], pairs, gammas[0], hops[0],
                                 level=1)
    value = 0.0
    for od, v in zip(pairs, values):
        value += demands[od] * v

    def fill():
        flow = FlowState.zeros(network)
        level_demands = demands
        for k, lg in enumerate(network.levels):
            if not level_demands:
                break
            if gammas[k] > 0:
                _, edge_flows = softmin_flows(lg, weights[k], level_demands, gammas[k],
                                              hops[k], level=k + 1, forward=kept[k])
            else:
                _, edge_flows = all_or_nothing(lg, weights[k], level_demands, level=k + 1)
            n_plain = len(lg.plain_edges)
            flow.plain[k] = edge_flows[:n_plain]
            flow.nested[k] = edge_flows[n_plain:]
            level_demands = {}
            for j, (_, _, od) in enumerate(lg.nested_edges):
                f = flow.nested[k][j]
                if f > 0.0:
                    level_demands[od] = level_demands.get(od, 0.0) + f
        return flow

    return value, FlowState.deferred(fill)
