"""Smoothed shortest paths: log-sum-exp potentials, Gibbs flows, hard routes.

The "path set" of an OD pair is the set of walks of at most H hops.  A
forward dynamic program computes the soft-min potential
u_v = -gamma * log(sum over walks of exp(-length/gamma)) from every origin
of a level at once; a backward (adjoint) sweep over the same recursion
yields the Gibbs edge flows, which are the exact gradient of the
demand-weighted soft-min value with respect to the edge weights.

The edges of a level, grouped by head, and one virtual edge per vertex
(the empty walk at an origin, read from a copy of round 0) form the slots
of LevelGraph.head_groups; a hop reduces the (slots x origins) candidates
by head with one ufunc.reduceat, so the numpy calls per hop do not grow
with the origins.  At gamma = 0 a hop is min-plus (a take, an add and the
minimum), run to its fixed point or n-1 hops: the hard shortest paths of
hard_shortest, all_or_nothing and gamma = 0 pricing.

At gamma > 0 a sweep shifts each origin's potentials by a reference phi
and keeps the shifted log walk sum nu = log(sum of exp(-(length -
phi_v)/gamma)), so u = phi - gamma * nu.  A hop is five passes: gather nu
at the tails, subtract the reduced costs (w_e + phi_tail - phi_head)/gamma,
exp, add.reduceat by head, log.  phi is 0 when H * (max|w|/gamma +
log(largest fan-in)) <= WALK_SUM_RANGE, so no walk term and no sum can
leave the double range.  Otherwise the reference of hop h is d_h, the
shortest length of a walk of at most h hops, from a min-plus hop in the
same loop.  The reduced costs (w_e + d_{h-1}[tail] - d_h[head])/gamma are
taken from that hop's own candidates, so the tight slot into each reached
vertex gives exactly 0: its shortest walk weighs exactly 1 at every hop,
no sum underflows and nu >= 0.  Once the distances stop moving the
reduced costs stay fixed and a hop is the five passes again.  An unkept
sweep holds O((slots + V) x origins).  The one state no reference can
hold is a sum of more than e^700 walks near the shortest length, a walk
sum that diverges as H grows: it raises NetworkError naming the level,
never inf or NaN.

A sweep with phi = 0 on a level of at most DENSE_MAX_VERTICES vertices
runs a dense kernel in the linear domain instead; on such small levels
the numpy calls of a log-domain hop cost more than its arithmetic.
K[v, u] = sum over the edges u -> v of exp(-w_e/gamma), parallel edges
added, is built once per sweep, the walk sums Z_h = sum_{j<=h} K^j e (e
the empty walk at the origin) take one matrix-vector product per origin
and hop, and u = -gamma * log Z_H.  The phi = 0 bound makes this exact in
range: every walk term lies in [e^-600, e^600], so no term underflows
and no sum of them exceeds (H+1) e^600.  The adjoint starts from
q_{H-1} = sink / Z_H, steps q_{j-1} = K^T q_j and gives edge e the flow
K_e * sum_j q_j[head] * Z_j[tail], one matrix product per hop.  q is
zeroed where Z_j = 0: no contributing walk passes there, so the zeroing
is exact, and q * Z_j is the mass at a vertex, at most the demand D, so
q stays below D e^600 and no inf * 0 can give NaN.  The stacks are
origin-major, (origins, V, 1), so numpy runs one matrix-vector product
per origin and an origin's potentials have the same bits in any batch;
one (V, origins) matrix product rounds by the width of the batch, about
2e-16, and dumped potentials must equal single-origin sweeps.  A sweep
over walks of any length, Z = (I - K)^-1 e, could reuse the same K.

The backward sweep reads the walk sums of every hop of the forward,
(H+1) x V x origins: the log kernel keeps -nu and recomputes each edge's
walk term from it and the references of the hops before the distances
settle; the dense kernel keeps Z and K and needs O(V^2 + V x origins)
more while it runs.  Origins are swept in chunks whose kept sums fit in
ROUNDS_CAP_BYTES; the references, at most as many bytes, come on top.
assignment_flows runs only the forward sweeps, which give the value, and
returns a deferred FlowState: the first read of its flows runs the backward
sweeps from the kept hops of level 1 and of each deeper level's pricing
sweep (beyond one chunk, the forward sweeps rerun).  A point whose flows
are never read pays for no backward sweep, every level is swept forward
once per point (by _od_values), and gamma = 0 levels load all-or-nothing
when their flows are read.
"""

from __future__ import annotations

import math

import numpy as np

from .network import FlowState, LevelGraph, Network, NetworkError, by_origin

ROUNDS_CAP_BYTES = 32 << 20  # forward walk sums kept per chunk of origins (references on top)
# levels this small sweep phi = 0 as matrix-vector products: with 8, 32 and
# V origins, H = V - 1, softmin_flows ran at least 1.25x faster with them up
# to V = 144 on one-way rings (the sparsest connected level) and 1.5x on
# two-way rings and grids; one-way rings of 169-196 vertices were even
# (2-core Xeon VM, OpenBLAS with 2 threads)
DENSE_MAX_VERTICES = 144
WALK_SUM_RANGE = 600.0  # largest |log| of a walk term or sum a reference admits
_NU_MAX = 700.0  # a shifted log walk sum beyond this is a diverging walk sum


class UnreachableError(NetworkError):
    """An OD pair has no walk within the hop bound."""

    def __init__(self, level, origin, dest, hops):
        super().__init__(
            f"level {level}: no walk from {origin} to {dest} within {hops} hops"
        )
        self.od = (origin, dest)


def _round_zero(n, origins, empty):
    """A sweep's (2V, B) hop state, 0 at each origin and `empty` elsewhere:
    rows ..V after the last hop, rows V.. round 0 for the virtual slots."""
    state = np.full((2 * n, len(origins)), empty)
    state[origins, np.arange(len(origins))] = 0.0
    state[n:] = state[:n]
    return state


def _min_plus_hop(graph: LevelGraph, dist, c, cand, low):
    """One min-plus hop: cand = dist at the slot tails + c, and rows ..V of
    dist move to low, its minimum by head.  Returns whether they stayed put."""
    _, tails, starts, _ = graph.head_groups
    dist.take(tails, axis=0, out=cand)
    cand += c
    np.minimum.reduceat(cand, starts, axis=0, out=low)
    settled = np.array_equal(low, dist[:len(low)])
    dist[:len(low)] = low
    return settled


def _min_plus(graph: LevelGraph, weights, origins, hops):
    """Hop-bounded shortest walk lengths from each origin, (V, B): min-plus
    hops to the fixed point or `hops`."""
    n, batch = graph.n_vertices, len(origins)
    c = np.concatenate([weights, np.zeros(n)])[graph.head_groups[0], None]
    dist = _round_zero(n, origins, math.inf)
    cand, low = np.empty((len(c), batch)), np.empty((n, batch))
    for _ in range(hops):
        if _min_plus_hop(graph, dist, c, cand, low):
            break
    return dist[:n].copy()


def _sweep_forward(graph: LevelGraph, weights, origins, gamma, hops, keep=False, level=1):
    """Potentials over walks of at most `hops` hops from each origin.

    Returns (u, kept): u[v, b] the potential of v seen from origins[b]
    (+inf when unreachable); kept, when keep is set, names its kernel:
    (-nus, refs, "log"), the negated shifted log walk sums after hops
    0..hops, (hops+1, V, B), and the references of hop 0 and of each hop
    before the distances settle, or the (Z, K, "dense") of
    _dense_forward; else None.  With gamma = 0, u is the minimum walk
    length (min-plus hops) and keep is for gamma > 0.
    """
    weights = np.asarray(weights, dtype=float)
    if gamma == 0:
        return _min_plus(graph, weights, origins, hops), None
    n, batch = graph.n_vertices, len(origins)
    order, tails, starts, _ = graph.head_groups
    head, log_fan_in = graph.slots
    flat = hops * (np.abs(weights).max(initial=0.0) / gamma + log_fan_in) <= WALK_SUM_RANGE
    if flat and n <= DENSE_MAX_VERTICES:
        return _dense_forward(graph, weights, origins, gamma, hops, keep)
    c = np.concatenate([weights, np.zeros(n)])[order, None]
    cand, acc = np.empty((len(c), batch)), np.empty((n, batch))
    # phi = 0, or at hop h the min-plus distance d_h after it (0 where unreached)
    ref = np.zeros((n, 1))
    refs = [ref] if keep else None
    if flat:
        dist, reduced = None, c / gamma
    else:
        dist = _round_zero(n, origins, math.inf)
        reduced, low = np.empty((len(c), batch)), np.empty((n, batch))
    state = _round_zero(n, origins, -math.inf)
    nu = state[:n]
    nus = np.empty((hops + 1, n, batch)) if keep else None
    if keep:
        np.negative(nu, out=nus[0])
    # log(0) where no walk arrives; exp and sum overflow only where a walk sum diverges
    with np.errstate(divide="ignore", over="ignore"):
        for h in range(1, hops + 1):
            if dist is not None:
                # reduced costs from the hop's own candidates: a tight slot is exactly 0
                settled = _min_plus_hop(graph, dist, c, reduced, low)
                ref = np.where(np.isfinite(low), low, 0.0)
                ref.take(head, axis=0, out=cand)
                reduced -= cand
                reduced /= gamma
                if settled:
                    dist = None
                elif keep:
                    refs.append(ref)
            state.take(tails, axis=0, out=cand)
            cand -= reduced
            np.exp(cand, out=cand)
            np.add.reduceat(cand, starts, axis=0, out=acc)
            np.log(acc, out=nu)
            if keep:
                np.negative(nu, out=nus[h])
    if nu.max(initial=-math.inf) > _NU_MAX:
        raise NetworkError(
            f"level {level}: the soft-min walk sum diverges: more than e^{_NU_MAX:g} "
            f"walks of at most {hops} hops lie within gamma={gamma:g} of the "
            "shortest; lower the hop bound or raise gamma")
    return ref - gamma * nu, (nus, refs, "log") if keep else None


def _dense_forward(graph: LevelGraph, weights, origins, gamma, hops, keep):
    """The phi = 0 sweep in the linear domain: Z_h = Z_{h-1} + K^h e.

    K[v, u] sums exp(-w_e/gamma) over the edges u -> v, e is the empty
    walk at each origin, and u = -gamma * log Z_hops.  The walk sums are
    stacked origin-major, (B, V, 1), so a hop is one matrix-vector product
    per origin and an origin's bits do not depend on the batch.  kept is
    (Z after hops 0..hops, K, "dense").
    """
    n, batch = graph.n_vertices, len(origins)
    k = np.zeros((n, n))
    np.add.at(k, (graph.heads, graph.tails), np.exp(weights / -gamma))
    walks = np.zeros((2, batch, n, 1))  # K^h e, alternating
    walks[0][np.arange(batch), origins, 0] = 1.0
    z = np.empty((hops + 1 if keep else 1, batch, n, 1))
    z[0] = walks[0]
    for h in range(1, hops + 1):
        np.matmul(k, walks[(h - 1) % 2], out=walks[h % 2])
        np.add(z[(h - 1) % len(z)], walks[h % 2], out=z[h % len(z)])
    with np.errstate(divide="ignore"):  # log(0) where no walk arrives: u = +inf
        u = 0.0 - gamma * np.log(z[hops % len(z), :, :, 0].T)
    return u, (z, k, "dense") if keep else None


def _dense_backward(graph: LevelGraph, weights, gamma, z, k, sink_mass):
    """Adjoint of _dense_forward: edge e carries
    K_e * sum over hops j and origins b of q_j[b, head] * Z_j[b, tail],
    with q_{H-1} = sink / Z_H and q_{j-1} = K^T q_j, zeroed where Z_j = 0.
    """
    n = graph.n_vertices
    z = z[:, :, :, 0]
    q, nxt = np.zeros_like(z[0]), np.empty_like(z[0])
    np.divide(sink_mass.T, z[-1], out=q, where=z[-1] != 0)
    pair, acc = np.empty((n, n)), np.zeros((n, n))
    # elsewhere q * Z_j is at most the demand: K^T q overflows only where
    # Z_j = 0, which is zeroed, and a pair product only at vertex pairs
    # without an edge, which are never read
    with np.errstate(over="ignore"):
        for j in range(len(z) - 2, -1, -1):
            if j < len(z) - 2:
                np.dot(q, k, out=nxt)
                np.copyto(nxt, 0.0, where=z[j + 1] == 0)
                q, nxt = nxt, q
            np.dot(q.T, z[j], out=pair)
            acc += pair
    return np.exp(np.asarray(weights, dtype=float) / -gamma) * acc[graph.heads, graph.tails]


def _sweep_backward(graph: LevelGraph, weights, gamma, kept, sink_mass):
    """Adjoint sweep over the kept hops: route sink_mass[v, b] back to origin b.

    A hop moves the mass p at each head onto its in-edges in proportion
    to their walk terms, p * term / sum (the Gibbs ratio), with the term
    exp(nu_tail - reduced cost) recomputed as the forward sweep formed it
    and 1/sum = exp(-nu_head); the mass moves on to the tails, and what a
    head keeps is absorbed by the empty walk at the origin.  The reduced
    costs come from the kept references, the last serving every later hop.
    Returns the edge flows summed over the batch.  A dense kept sweep,
    (Z, K, "dense"), takes _dense_backward.
    """
    if kept[2] == "dense":
        return _dense_backward(graph, weights, gamma, *kept[:2], sink_mass)
    neg_nus, refs, _ = kept
    order, starts, ends = graph.tail_groups
    tails, heads = graph.tails[order], graph.heads[order]
    c = np.asarray(weights, dtype=float)[order, None]
    batch = sink_mass.shape[1]
    x, y = np.empty((len(order), batch)), np.empty((len(order), batch))
    per_origin = np.zeros_like(x)
    p, q, below = sink_mass, np.empty_like(sink_mass), np.zeros_like(sink_mass)
    hops, last = len(neg_nus) - 1, len(refs) - 1
    for h in range(hops, 0, -1):
        # the references move until the distances settle, then stay
        if h == hops or h <= last:
            neg_reduced = -((c + refs[min(h - 1, last)].take(tails, axis=0)
                             - refs[min(h, last)].take(heads, axis=0)) / gamma)
        # where no walk arrives nu is -inf and p is 0: the clamp keeps q at 0
        np.minimum(neg_nus[h], _NU_MAX, out=q)
        np.exp(q, out=q)
        q *= p
        neg_nus[h - 1].take(tails, axis=0, out=x)
        np.subtract(neg_reduced, x, out=x)
        np.exp(x, out=x)
        q.take(heads, axis=0, out=y)
        x *= y
        per_origin += x
        below[ends] = np.add.reduceat(x, starts, axis=0)
        p = below
    flows = np.empty(graph.n_edges)
    flows[order] = per_origin.sum(axis=1)
    return flows


def _kept_bytes(graph, hops):
    """Bytes of walk sums a gamma > 0 forward sweep keeps per origin (references aside)."""
    return 8 * (hops + 1) * graph.n_vertices


def _chunks(graph, origins, hops):
    """Batches of origins whose kept forward hops fit in ROUNDS_CAP_BYTES."""
    size = max(1, ROUNDS_CAP_BYTES // _kept_bytes(graph, hops))
    return [origins[lo:lo + size] for lo in range(0, len(origins), size)]


def _sink(groups, origins, u, level, hops):
    """Value sum_w d_w * u_dest of one batch and its sink masses."""
    sink = np.zeros_like(u)
    value = 0.0
    for b, o in enumerate(origins):
        for (_, d), dem in groups.get(o, {}).items():
            if not math.isfinite(u[d, b]):
                raise UnreachableError(level, o, d, hops)
            value += dem * u[d, b]
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
    u, _ = _sweep_forward(graph, weights, [origin], gamma, hops)
    return u[:, 0]


def softmin_flows(graph: LevelGraph, weights, demands, gamma, hops, level=1, forward=None):
    """Aggregated soft-min value and its gradient (Gibbs edge flows).

    demands maps (origin, dest) to a positive demand.  Returns
    (value, flows) where value = sum_w d_w * u_dest and flows is the
    exact gradient of value with respect to the edge weights.

    `forward`, a kept forward sweep (origins, u, kept) of the same weights,
    gamma and hops whose origins include every origin of demands, replaces
    the forward sweeps; u and kept are those of _sweep_forward.
    """
    groups = by_origin(demands)
    value = 0.0
    flows = np.zeros(graph.n_edges)
    sweeps = [forward] if forward is not None else (
        (batch, *_sweep_forward(graph, weights, batch, gamma, hops, keep=True, level=level))
        for batch in _chunks(graph, list(groups), hops))
    for origins, u, kept in sweeps:
        v, sink = _sink(groups, origins, u, level, hops)
        value += v
        flows += _sweep_backward(graph, weights, gamma, kept, sink)
        del u, kept  # released before the next chunk's sweep
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
    value, _ = _sink(groups, origins, dist, level, graph.n_vertices - 1)
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
    sweep (origins, u, kept) when its hops fit in ROUNDS_CAP_BYTES (else None)."""
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
    kept soft sweep (origins, u, kept) when its hops fit in one chunk."""
    origins = sorted({o for o, _ in od_pairs})
    keep = gamma > 0 and len(_chunks(graph, origins, hops)) == 1
    # gamma = 0 prices the exact shortest paths that all_or_nothing loads
    swept = hops if gamma > 0 else graph.n_vertices - 1
    u, kept = _sweep_forward(graph, weights, origins, gamma, swept, keep=keep, level=level)
    column = {o: b for b, o in enumerate(origins)}
    values = u[[d for _, d in od_pairs], [column[o] for o, _ in od_pairs]]
    for (o, d), v in zip(od_pairs, values):
        if not math.isfinite(v):
            raise UnreachableError(level, o, d, swept)
    return values, (origins, u, kept) if keep else None


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
    first read runs the backward sweeps from the kept hops of level 1
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
