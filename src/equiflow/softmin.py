"""Smoothed shortest paths: log-sum-exp potentials, Gibbs flows, hard routes.

The "path set" of an OD pair is the set of walks of at most H = n-1 hops
of its level, n the level's vertices: every solve, effective_weights and
assignment_flows sweep n-1 hops per level, and only softmin_potentials and
softmin_flows take an H.  A forward dynamic program computes the soft-min
potential u_v = -gamma * log(sum over walks of exp(-length/gamma)) from
every origin of a level at once; a backward (adjoint) sweep over the same
recursion yields the Gibbs edge flows, which are the exact gradient of the
demand-weighted soft-min value with respect to the edge weights.

The edges of a level, grouped by head, and one virtual edge per vertex
(the empty walk at an origin, read from a copy of round 0) form the slots
of LevelGraph.head_groups; a hop reduces the (slots x origins) candidates
by head with one ufunc.reduceat, so the numpy calls per hop do not grow
with the origins.  At gamma = 0 a hop is min-plus (a take, an add and the
minimum), run to its fixed point or n-1 hops: the hard shortest paths of
hard_shortest, all_or_nothing and gamma = 0 pricing.

At gamma > 0 a sweep runs in the linear domain against a reference phi.
It carries the shifted walk sum Z[v] = sum over walks of
exp(-(length - phi_v)/gamma) by one recursion, Z_h = E_h Z_{h-1}, where a
slot's factor is E = exp(-(w_e + phi_tail - phi_head)/gamma), and takes
u = phi - gamma * log Z_H once, at the end.  phi is 0 when
H * (max|w|/gamma + log fan-in) <= WALK_SUM_RANGE: every walk term then
lies in [e^-600, e^600] and no sum exceeds (H+1) e^600.  Otherwise the
reference of hop h is d_h, the shortest length of a walk of at most h
hops, from a min-plus hop in the same loop, and E_h comes from that hop's
own candidates, (w_e + d_{h-1}[tail] - d_h[head])/gamma, so the tight
slot into each reached vertex has E = 1 exactly and, by induction, Z >= 1
wherever a walk arrives.  A factor underflows only past a reduced cost of
745, and while Z stays below e^700 the term it drops is under e^-45 of a
sum of at least 1, below one ulp; subnormal factors err by at most
2^-1074.  Once the distances stop moving E stays fixed.  The one state no
reference can hold is a sum beyond e^700 at some hop, a walk sum that
diverges as H grows: it overflows (to inf, or NaN after inf * 0), the
end of the sweep finds it and raises NetworkError naming the level.

The recursion has two products.  A phi = 0 sweep on a level of at most
DENSE_MAX_VERTICES vertices is dense: Z_H = S e, e the empty walk at each
origin, for the power sum S = sum_{h<=H} K^h of K[v, u], the sum over the
edges u -> v of exp(-w_e/gamma) (one bincount, kept for the adjoint).
_power_sum forms S in ceil(log2(H+1)) doublings of V x V products; on
such small levels the numpy calls of H sparse hops cost more than the
arithmetic.  S does not depend on the origins, so an origin's potentials
have the same bits in any batch (dumped potentials equal single-origin
sweeps), though not those of a hop-by-hop product.  Every other sweep is
sparse: a hop takes Z at the slot tails, multiplies by E and adds by
head, three passes.

The sparse adjoint starts from q_H = sink / Z_H, steps q_{h-1} = E_h^T q_h
and gives edge e the flow E_e * sum_h q_h[head] * Z_{h-1}[tail].  q is
zeroed where Z_{h-1} = 0, exactly, as no contributing walk passes there,
and q * Z, the mass at a vertex, is at most the demand, so no inf * 0 can
give NaN.  E_h comes from the kept references, whose unreached vertices
read 0: a reduced cost from such a tail can be negative, so it is clamped
at 0, where E * Z = 1 * 0 = 0 as in the forward.  The dense adjoint is the
same sum over i + j <= H-1 hops before and after each edge,
(K^T)^i Q (K^T)^j with Q[:, origins] = sink / Z_H: the upper-right block of
the power sum of [[K^T, Q], [0, K^T]] (Van Loan).  A power sum zeroes
nothing, so Q is normalized instead (see _sweep_backward).

A sparse backward sweep reads the walk sums of every forward hop,
(H+1) x V x origins, and the references of hop 0 and of each hop before
the distances settle; origins are swept in chunks whose kept sums fit in
ROUNDS_CAP_BYTES, the references, at most as many bytes, on top.  A dense
one keeps Z_H and K, and its power sums need O(V^2 + V x origins) bytes
whatever H.  assignment_flows runs only the forward sweeps, which
give the value; the FlowState it returns fills its one flow array on
first read, by the backward sweeps from the kept hops of level 1 and of
each deeper level's pricing sweep (beyond one chunk, the forward sweeps
rerun).  A point whose flows are never read pays for no backward sweep,
every level is swept forward once per point (by _od_values), and
gamma = 0 levels load all-or-nothing when their flows are read.

Each level's OD pairs are a PairPlan built once per network (Network.plan,
LevelGraph.nested_plan), read in one layout: a sweep runs over the plan's
origins, a chunk of them over a run of its pairs, pairs without demand
included, so kept and rerun sweeps give the same flows.  A sweep's values
are one gather of its pairs' cells, its sink masses one scatter of the
demands, and the demands a level hands down one np.bincount of its nested
flows.  Values and all-or-nothing loads are summed pair by pair in plan order.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .network import FlowState, LevelGraph, Network, NetworkError, PairPlan

ROUNDS_CAP_BYTES = 32 << 20  # forward walk sums kept per chunk of origins (references on top)
# levels this small sweep phi = 0 by dense power sums, about V^3 log H flops
# for any origin count against B H E for H sparse hops: with 8 origins and
# H = V - 1, softmin_flows ran no slower dense up to V = 72 on one-way rings
# (the sparsest connected level; 0.9-1.0x at 81, 0.8-1.1x at 100) and
# 1.2-3.5x faster on two-way rings to 72 and grids to 64; with 32 or V
# origins, 1.3-15x faster up to 144 (2-core Xeon VM, OpenBLAS 1 and 2 threads)
DENSE_MAX_VERTICES = 72
WALK_SUM_RANGE = 600.0  # largest |log| of a walk term or sum a reference admits


class UnreachableError(NetworkError):
    """An OD pair has no walk within the hop bound."""

    def __init__(self, level, origin, dest, hops):
        super().__init__(
            f"level {level}: no walk from {origin} to {dest} within {hops} hops"
        )
        self.od = (origin, dest)


def _round_zero(n, origins, at_origin, elsewhere):
    """A sweep's (2V, B) hop state, at_origin at each origin and elsewhere
    otherwise: rows ..V after the last hop, rows V.. round 0 for the virtual slots."""
    state = np.full((2 * n, len(origins)), elsewhere)
    state[origins, np.arange(len(origins))] = at_origin
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
    dist = _round_zero(n, origins, 0.0, math.inf)
    cand, low = np.empty((len(c), batch)), np.empty((n, batch))
    for _ in range(hops):
        if _min_plus_hop(graph, dist, c, cand, low):
            break
    return dist[:n].copy()


def _sweep_forward(graph: LevelGraph, weights, origins, gamma, hops, keep=False, level=1):
    """Potentials over walks of at most `hops` hops from each origin.

    Returns (u, kept): u[v, b] the potential of v seen from origins[b]
    (+inf when unreachable); kept, when keep is set, is what
    _sweep_backward reads, (Z_H, (K, exp(-w/gamma), origins, hops), "dense") or
    (Z, refs, "sparse"): the shifted walk sums after hops 0..hops,
    (hops+1, V, B), and the references of hop 0 and of each hop before the
    distances settle (none at phi = 0); else None.  With gamma = 0, u is
    the minimum walk length (min-plus hops) and keep is for gamma > 0.
    """
    weights = np.asarray(weights, dtype=float)
    if gamma == 0:
        return _min_plus(graph, weights, origins, hops), None
    n, batch = graph.n_vertices, len(origins)
    head, log_fan_in = graph.slots
    widest = float(np.maximum.reduce(np.abs(weights), initial=0.0))
    flat = hops * (widest / gamma + log_fan_in) <= WALK_SUM_RANGE
    # phi = 0, or at hop h the min-plus distance d_h after it (0 where unreached)
    ref = 0.0
    if flat and n <= DENSE_MAX_VERTICES:
        factor = np.exp(weights / -gamma)
        k = np.bincount(graph.dense_index, factor, minlength=n * n).reshape(n, n)
        walks = _power_sum(k, hops + 1).take(origins, axis=1)
        kept = (walks, (k, factor, origins, hops), "dense")
    else:
        order, tails, starts, _ = graph.head_groups
        c = np.concatenate([weights, np.zeros(n)])[order, None]
        cand = np.empty((len(c), batch))
        if flat:
            dist, refs, factor = None, [], np.exp(c / -gamma)
        else:
            dist, refs = _round_zero(n, origins, 0.0, math.inf), [np.zeros((n, 1))]
            factor, low = np.empty((len(c), batch)), np.empty((n, batch))
        state = _round_zero(n, origins, 1.0, 0.0)
        walks = state[:n]
        z = np.empty((hops + 1, n, batch)) if keep else None
        if keep:
            z[0] = walks
        # a sum overflows, and inf * 0 gives NaN, only where a walk sum diverges
        with np.errstate(over="ignore", invalid="ignore"):
            for h in range(1, hops + 1):
                if dist is not None:
                    # factors from the hop's own candidates: a tight slot is exactly 1
                    settled = _min_plus_hop(graph, dist, c, factor, low)
                    ref = np.where(np.isfinite(low), low, 0.0)
                    ref.take(head, axis=0, out=cand)
                    factor -= cand
                    factor /= -gamma
                    np.exp(factor, out=factor)
                    if settled:
                        dist = None
                    elif keep:
                        refs.append(ref)
                state.take(tails, axis=0, out=cand)
                cand *= factor
                np.add.reduceat(cand, starts, axis=0, out=walks)
                if keep:
                    z[h] = walks
        kept = (z, refs, "sparse")
    if not np.maximum.reduce(walks, axis=None, initial=0.0) <= math.exp(700.0):  # or NaN
        raise NetworkError(
            f"level {level}: the soft-min walk sum diverges: at some hop of at most "
            f"{hops} it passed e^700 times the weight of that hop's shortest walk "
            f"(gamma={gamma:g}); raise gamma")
    with np.errstate(divide="ignore"):  # log(0) where no walk arrives: u = +inf
        u = ref - gamma * np.log(walks)
    return u, kept if keep else None


def _power_sum(m, n):
    """sum_{k<n} m^k, n >= 1, by binary doubling over the bits of n:
    S_2k = S_k + M^k S_k, S_2k+1 = S_2k + M^2k; no power above m^(n-1) is
    formed.  Past 64 rows, where OpenBLAS splits products over threads, m
    is padded to a multiple of 8 rows: at other sizes one thread and two
    round some entries differently (OpenBLAS 0.3.31, Haswell kernels)."""
    size = len(m)
    m = np.pad(m, (0, -size % 8)) if size > 64 else m
    v = len(m)
    s, p, ps = np.zeros((v, v)), m, np.empty((v, v))  # S_1 = I, M^1 and p @ s
    s.reshape(-1)[::v + 1] = 1.0
    bits = bin(n)[3:]
    for i, bit in enumerate(bits):
        more = i + 1 < len(bits)
        s += np.dot(p, s, out=ps)
        if bit == "1" or more:
            p = np.dot(p, p)
        if bit == "1":
            s += p
            if more:
                p = np.dot(p, m)
    return s[:size, :size]


def _sweep_backward(graph: LevelGraph, weights, gamma, kept, cells, demand):
    """Adjoint sweep over the kept hops: route each demand, the sink mass
    at flat cell `cells[i]` of the (V, B) hop state, back to its origin.

    The sparse adjoint recomputes E_h from the kept references, the last
    serving every later hop.  The dense one gives edge u -> v
    exp(-w_e/gamma) T[v, u], T the upper-right block of the power sum of
    [[K^T, Q], [0, K^T]].  As walk terms of phi = 0 sweeps lie in
    [e^-600, e^600], Q is summed in bands (commonly one) of entries within
    e^100 of the band's largest, divided by it: each term the doubling forms
    is in [e^-700, H V^2 e^600].  Returns the flows summed over the batch.
    """
    z, held, kind = kept
    if kind == "dense":
        (k, factor, origins, hops), n = held, len(held[0])
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = m[n:, n:] = k.T
        # the entries of Q, sink / Z_H at the pairs, and their places in m
        rest = demand / z.take(cells)
        dests, columns = np.divmod(cells, len(origins))
        at = dests * (2 * n) + n + origins[columns]
        bands = []
        while (top := np.maximum.reduce(rest, initial=0.0)) > 0.0:
            band = rest >= top * math.exp(-100.0)
            m[:n, n:] = 0.0
            m.put(at[band], rest[band] / top)
            bands.append(factor * _power_sum(m, hops + 1)[:n, n:].take(graph.dense_index) * top)
            rest = np.where(band, 0.0, rest)
        return sum(bands[1:], bands[0]) if bands else np.zeros(graph.n_edges)
    refs, hops, last = held, len(z) - 1, len(held) - 1
    order, starts, ends = graph.tail_groups
    tails, heads = graph.tails[order], graph.heads[order]
    c = np.asarray(weights, dtype=float)[order, None]
    factor = None if refs else np.exp(c / -gamma)  # phi = 0: no references
    x, y = np.empty((2, len(order), z.shape[2]))
    acc = np.zeros_like(x)
    q, nxt = np.zeros_like(z[0]), np.zeros_like(z[0])
    q.put(cells, demand / z[-1].take(cells))
    # elsewhere q * Z is at most the demand: E^T q overflows only where Z = 0
    with np.errstate(over="ignore"):
        for h in range(hops, 0, -1):
            if refs and (h == hops or h <= last):
                # the references move until the distances settle, then stay
                factor = (c + refs[min(h - 1, last)].take(tails, axis=0)
                          - refs[min(h, last)].take(heads, axis=0)) / -gamma
                # an unreached tail reads 0: its E is 1, and E * Z = 0 as before
                np.minimum(factor, 0.0, out=factor)
                np.exp(factor, out=factor)
            q.take(heads, axis=0, out=y)
            z[h - 1].take(tails, axis=0, out=x)
            x *= factor  # at most Z_h at the head, so x * q stays within the demand
            x *= y
            acc += x
            if h > 1:
                # only the vertices with out-edges are written: the others stay 0
                y *= factor
                nxt[ends] = np.add.reduceat(y, starts, axis=0)
                np.copyto(nxt, 0.0, where=z[h - 1] == 0)
                q = nxt
    flows = np.empty(graph.n_edges)
    flows[order] = acc.sum(axis=1)
    return flows


def _kept_bytes(graph, hops):
    """Bytes of walk sums a sparse forward sweep keeps per origin (references aside)."""
    return 8 * (hops + 1) * graph.n_vertices


def _chunk_size(graph, hops):
    """Origins per batch whose kept forward hops fit in ROUNDS_CAP_BYTES."""
    return max(1, ROUNDS_CAP_BYTES // _kept_bytes(graph, hops))


def _reached(plan, values, level, hops, index=None):
    """Raise UnreachableError for the first pair index[i] (or i) whose values[i] is not finite."""
    # one sum clears a finite set; only a sum that is not finite asks which value
    if not math.isfinite(np.add.reduce(values)) and not (finite := np.isfinite(values)).all():
        i = int(finite.argmin())
        raise UnreachableError(level, *plan.pairs[i if index is None else index[i]], hops)


def _total(demand, values):
    """sum_w d_w * v_w added one by one in pair order (np.dot would reorder)."""
    return functools.reduce(operator.add, map(operator.mul, demand.tolist(), values.tolist()), 0.0)


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

    demands maps (origin, dest) to a positive demand, or is a PairPlan.
    Returns (value, flows) where value = sum_w d_w * u_dest and flows is the
    exact gradient of value with respect to the edge weights.

    `forward`, a kept forward sweep (u, kept) of the same weights, gamma
    and hops from every origin of the plan, replaces the forward sweeps;
    u and kept are those of _sweep_forward.  The value is then None: the
    caller summed it from that sweep.
    """
    plan = PairPlan.of(demands)
    if forward is not None:
        # _od_values found every pair reached
        return None, _sweep_backward(graph, weights, gamma, forward[1], plan.cells, plan.demand)
    # the plan's origins in chunks, each chunk's pairs a run a:b of the plan
    value, size = 0.0, _chunk_size(graph, hops)
    flows = np.zeros(graph.n_edges)
    for lo in range(0, len(plan.origins), size):
        batch = plan.origins[lo:lo + size]
        u, kept = _sweep_forward(graph, weights, batch, gamma, hops, keep=True, level=level)
        a, b = np.searchsorted(plan.columns, [lo, lo + size])
        cells = plan.dests[a:b] * len(batch) + plan.columns[a:b] - lo
        values = u.take(cells)
        _reached(plan, values, level, hops, range(a, b))
        value += _total(plan.demand[a:b], values)
        flows += _sweep_backward(graph, weights, gamma, kept, cells, plan.demand[a:b])
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
    plan = PairPlan.of(demands)
    dist, pred_edge = _shortest(graph, weights, plan.origins)
    values = dist.take(plan.cells)
    _reached(plan, values, level, graph.n_vertices - 1)
    value = _total(plan.demand, values)
    flows = np.zeros(graph.n_edges)
    for (o, d), b, dem in zip(plan.pairs, plan.columns.tolist(), plan.demand.tolist()):
        if not dem:  # handed down, a pair its nested edges gave no flow
            continue
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


def _checked_gammas(network: Network, gammas) -> list:
    """gammas (the network's own if None) as one finite, nonnegative scale per level; a
    negative one would sweep a soft-max forward and load all-or-nothing flows."""
    gammas = list(network.gammas() if gammas is None else gammas)
    if len(gammas) != network.n_levels:
        raise ValueError(f"gammas must be {network.n_levels} finite values, one per level, "
                         f"got {gammas}")
    for k, g in enumerate(gammas, start=1):
        if not 0 <= g < math.inf:
            raise ValueError(f"level {k}: gamma must be finite and nonnegative, got {g}")
    return gammas


def effective_weights(network: Network, t, gammas=None):
    """Per-level edge weights with nested edges priced top-down.

    A nested edge of level k gets the (soft or hard) shortest-path value
    of its referenced OD pair in level k+1, computed with that level's
    smoothing scale over walks of at most n-1 hops.  Returns one weight
    array per level, aligned with the level's edge indexing.
    """
    return _price(network, t, _checked_gammas(network, gammas))[0]


def _price(network, t, gammas):
    """(weights, kept): effective weights and, per level, the kept pricing
    sweep (u, kept) when its hops fit in ROUNDS_CAP_BYTES (else None)."""
    t = np.asarray(t, dtype=float)
    m = network.n_levels
    weights, kept = [None] * m, [None] * m
    for k in range(m - 1, -1, -1):
        lg = network.levels[k]
        plain_w = t[network.plain_slices[k]]
        if not lg.nested_edges:
            weights[k] = plain_w.copy()
            continue
        values, kept[k + 1] = _od_values(
            network.levels[k + 1], weights[k + 1], lg.nested_plan, gammas[k + 1], level=k + 2)
        weights[k] = np.concatenate([plain_w, values])
    return weights, kept


def _od_values(graph, weights, plan, gamma, level):
    """Shortest-path (soft or hard) value over walks of at most n-1 hops of
    each pair of plan, or of each nested edge for a plan of nested
    references, and the kept soft sweep (u, kept) when its hops fit in one chunk."""
    hops = graph.n_vertices - 1
    keep = gamma > 0 and len(plan.origins) <= _chunk_size(graph, hops)
    u, kept = _sweep_forward(graph, weights, plan.origins, gamma, hops, keep=keep, level=level)
    values = u.take(plan.cells)
    if plan.fold is not None:
        values = values[plan.fold]
    _reached(plan, values, level, hops, plan.fold)
    return values, (u, kept) if keep else None


def assignment_flows(network: Network, t, gammas=None, demands=None):
    """Value and flows on every level for the current time vector.

    Level 1 is loaded with the network demands (or the `demands` override, a
    mapping or a PairPlan); deeper levels inherit the flows of the nested
    edges referencing them.  Every level routes over walks of at most n-1
    hops.  Levels with gamma > 0 use the Gibbs assignment (exact gradient);
    gamma = 0 levels use tie-broken all-or-nothing (a subgradient element).
    Returns (value, FlowState) with value the level-1 aggregate.

    Only the forward sweeps run here.  The FlowState's one array fills on
    first read, level by level, from backward sweeps over the kept hops of
    level 1 and of the deeper levels' pricing sweeps (gamma = 0 levels load then).
    """
    gammas = _checked_gammas(network, gammas)
    weights, kept = _price(network, t, gammas)
    plan = network.plan if demands is None else PairPlan.of(demands)
    values, kept[0] = _od_values(network.levels[0], weights[0], plan, gammas[0], level=1)
    value = _total(plan.demand, values)

    def fill(flows):
        level_plan = plan
        plain, nested = network.flow_slices
        for k, lg in enumerate(network.levels):
            if gammas[k] > 0:
                _, edge_flows = softmin_flows(lg, weights[k], level_plan, gammas[k],
                                              lg.n_vertices - 1, level=k + 1, forward=kept[k])
            else:
                _, edge_flows = all_or_nothing(lg, weights[k], level_plan, level=k + 1)
            n_plain = len(lg.plain_edges)
            flows[plain[k]], flows[nested[k]] = edge_flows[:n_plain], edge_flows[n_plain:]
            if not lg.nested_edges:
                break
            level_plan = lg.nested_plan.hand_down(edge_flows[n_plain:])
            if not level_plan.demand.any():
                break

    return value, FlowState(network, fill)
