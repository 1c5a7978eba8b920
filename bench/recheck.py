"""Independent recheck of the answers the CLI wrote.

The checks use only the generated instance data and the output files, with
their own formulas.  For `solve`: flow conservation, the per-edge Fenchel
gap, capacity and complementarity residuals, and a routing check, since the
Fenchel terms vanish for any conserved flow whose times are its own edge
costs.  The routing check recomputes the logit assignment over walks of at
most n-1 hops at the written times by dense walk sums (`logit_flows`), or,
for averaged flows, bounds their excess cost over shortest paths.  For
`od`: marginals and the distance to a separately computed balanced matrix.
A returned list of problems that is empty means the answer holds.
"""

from __future__ import annotations

import math

import numpy as np

EPS64 = np.finfo(float).eps


def read_solution(path):
    """Per level: plain (tail, head, t, flow) rows and nested flows."""
    plain, nested = {}, {}
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    for level, edge, tail, head, t, flow, _gap, _mult in rows[1:]:
        k = int(level)
        if edge.startswith("n"):
            nested.setdefault(k, []).append((int(tail), int(head), float(flow)))
        else:
            plain.setdefault(k, []).append((int(tail), int(head), float(t), float(flow)))
    return plain, nested


def _fenchel_term(kind, params, t, f):
    if kind == "sd":
        t0, cap = params
        return (t - t0) * (cap - min(f, cap))
    t0, cap, gain, p = params
    integral = t0 * f + t0 * gain * cap / (1.0 + p) * (f / cap) ** (1.0 + p)
    conj = 0.0
    if t > t0:
        flow_t = cap * ((t - t0) / (gain * t0)) ** (1.0 / p)
        conj = p / (1.0 + p) * flow_t * (t - t0)
    return integral - f * t + conj


def level_sizes(inst):
    """Vertices per level: one more than the largest id the level uses."""
    top = {}

    def note(level, *vs):
        top[level] = max(top.get(level, -1), *vs)

    for level, recs in inst["levels"].items():
        for u, v, kind, params in recs:
            note(level, u, v)
            if kind == "nested":
                note(level + 1, *params)
    for o, d, _ in inst["demands"]:
        note(1, o, d)
    return {level: m + 1 for level, m in top.items()}


def walk_sums(n, arcs, weights, gamma, hops):
    """K^0 .. K^hops, stacked, with K[u, v] = sum of exp(-w/gamma) over arcs u->v."""
    K = np.zeros((n, n))
    for (u, v), w in zip(arcs, weights):
        K[u, v] += math.exp(-w / gamma)
    powers = [np.eye(n)]
    for _ in range(hops):
        powers.append(powers[-1] @ K)
    return np.array(powers)


def logit_flows(powers, arcs, weights, demands, gamma):
    """Arc flows of the logit choice over walks of at most `hops` hops.

    With Z_od the summed walk weight, arc e = (u, v) carries
    d_w / Z_od * exp(-w_e/gamma) * sum over a+b <= hops-1 of
    (K^a)[o, u] * (K^b)[v, d]: its share of the walks through it, counted
    once per passage.
    """
    hops = len(powers) - 1
    Z = powers.sum(axis=0)
    after = np.cumsum(powers[:hops], axis=0)[::-1]  # [a] = sum_{b <= hops-1-a} K^b
    tails = np.array([u for u, _ in arcs])
    heads = np.array([v for _, v in arcs])
    coef = np.exp(-np.asarray(weights, dtype=float) / gamma)
    flows = np.zeros(len(arcs))
    for (o, d), dem in demands.items():
        through = (powers[:hops, o][:, tails] * after[:, heads, d]).sum(axis=0)
        flows += dem / Z[o, d] * coef * through
    return flows


def routing_problems(inst, plain, nested, tol):
    """Compare the written flows with the logit assignment at the written times.

    Nested arcs are priced bottom-up by the soft value -gamma*log(Z_od) of
    the OD pair they reference; deeper levels are loaded top-down with the
    flows of the nested arcs.
    """
    sizes = level_sizes(inst)
    levels = sorted(inst["levels"])
    arcs, weights, powers = {}, {}, {}
    for level in reversed(levels):
        recs = inst["levels"][level]
        gamma = inst["gammas"][level]
        times = iter(t for _, _, t, _ in plain[level])
        arcs[level] = [(u, v) for u, v, _, _ in recs]
        w = []
        for _, _, kind, params in recs:
            if kind == "nested":
                z = powers[level + 1].sum(axis=0)[params]
                w.append(-inst["gammas"][level + 1] * math.log(z) if z > 0 else math.inf)
            else:
                w.append(next(times))
        weights[level] = w
        powers[level] = walk_sums(sizes[level], arcs[level], w, gamma, sizes[level] - 1)
    problems = []
    demands = {(o, d): dem for o, d, dem in inst["demands"]}
    for level in levels:
        if not demands:
            break
        if any(powers[level].sum(axis=0)[od] <= 0 for od in demands):
            return [f"routing: level {level} has an OD pair without a walk"]
        flows = logit_flows(powers[level], arcs[level], weights[level], demands,
                            inst["gammas"][level])
        recs = inst["levels"][level]
        links = [f for f, (_, _, kind, _) in zip(flows, recs) if kind == "nested"]
        expect = [f for f, (_, _, kind, _) in zip(flows, recs) if kind != "nested"] + links
        got = [f for _, _, _, f in plain[level]] + [f for _, _, f in nested.get(level, [])]
        worst = float(np.abs(np.array(expect) - np.array(got)).max())
        if worst > tol:
            problems.append(f"routing: level {level} flows are {worst:.3g} off the logit "
                            f"assignment at the written times")
        demands = {}
        for f, (_, _, kind, params) in zip(flows, recs):
            if kind == "nested" and f > 0.0:
                demands[params] = demands.get(params, 0.0) + f
    return problems


def excess_cost_problems(inst, plain, eps):
    """Bound the cost of single-level flows above shortest paths.

    Any logit flow at times t satisfies <t, f> - sum_w d_w * SP_w(t) <=
    gamma * sum_w d_w * log N_w, with N_w the number of walks of at most
    n-1 hops; averages of such flows meet it up to the certified gap.
    """
    (level,) = inst["levels"]
    n = level_sizes(inst)[level]
    gamma = inst["gammas"][level]
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    adj = np.zeros((n, n))
    cost = 0.0
    for u, v, t, f in plain[level]:
        dist[u, v] = min(dist[u, v], t)
        adj[u, v] += 1.0
        cost += t * f
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    walks = sum(np.linalg.matrix_power(adj, h) for h in range(n))
    excess = cost - sum(dem * dist[o, d] for o, d, dem in inst["demands"])
    slack = gamma * sum(dem * math.log(walks[o, d]) for o, d, dem in inst["demands"])
    if excess > eps + slack:
        return [f"routing: flows cost {excess:.6g} above shortest paths, more than "
                f"eps + {slack:.6g} allows"]
    return []


def check_solution(inst, path, eps, capacity=False):
    """Problems with a written `solve` answer; binding SD edges counted."""
    problems = []
    plain, nested = read_solution(path)
    demands = {(o, d): dem for o, d, dem in inst["demands"]}
    total_gap, scale = 0.0, 0.0
    binding = 0
    viol = comp = 0.0
    for level, recs in sorted(inst["levels"].items()):
        edges = [r for r in recs if r[2] != "nested"]
        links = [r for r in recs if r[2] == "nested"]
        rows = plain.get(level, [])
        nrows = nested.get(level, [])
        if [(u, v) for u, v, _, _ in edges] != [(u, v) for u, v, _, _ in rows] \
                or len(links) != len(nrows):
            return [f"level {level}: edge rows do not match the instance"], 0
        balance = {}
        for (u, v, kind, params), (_, _, t, f) in zip(edges, rows):
            t0 = params[0]
            # times may sit a few ulps below t_free from round-off
            if not (math.isfinite(t) and math.isfinite(f)) or f < 0 or t < t0 * (1 - 1e-12):
                problems.append(f"level {level} edge {u}->{v}: t={t} f={f} infeasible")
                continue
            t = max(t, t0)
            total_gap += _fenchel_term(kind, params, t, f)
            scale += abs(f * t)
            if kind == "sd":
                viol = max(viol, f - params[1])
                comp = max(comp, abs((t - t0) * (params[1] - f)))
                binding += t - t0 > 1e-9 * t0
            balance[u] = balance.get(u, 0.0) + f
            balance[v] = balance.get(v, 0.0) - f
        for (u, v, _, _), (_, _, f) in zip(links, nrows):
            balance[u] = balance.get(u, 0.0) + f
            balance[v] = balance.get(v, 0.0) - f
        for (o, d), dem in demands.items():
            balance[o] = balance.get(o, 0.0) - dem
            balance[d] = balance.get(d, 0.0) + dem
        mass = sum(demands.values())
        worst = max((abs(x) for x in balance.values()), default=0.0)
        if worst > 1e-9 * (1.0 + mass):
            problems.append(f"level {level}: flow not conserved (off by {worst:.3g})")
        # demands of the next level are the flows of the nested edges
        demands = {}
        for (_, _, _, od), (_, _, f) in zip(links, nrows):
            demands[od] = demands.get(od, 0.0) + f
    # round-off slack of summing the Fenchel terms, far below eps
    if total_gap > eps + 64 * EPS64 * scale:
        problems.append(f"duality gap {total_gap:.6g} > eps {eps:g}")
    if not capacity:
        # a flow error this small moves the gap by far less than eps
        mass = sum(d for _, _, d in inst["demands"])
        problems += routing_problems(inst, plain, nested, 1e-6 * mass)
    else:
        # flows are averages over iterates, not the assignment at one t
        problems += excess_cost_problems(inst, plain, eps)
        if viol > eps:
            problems.append(f"capacity violation {viol:.6g} > {eps:g}")
        if comp > 10.0 * eps:
            problems.append(f"complementarity {comp:.6g} > {10.0 * eps:g}")
    return problems, binding


def balanced_matrix(L, W, T, gamma=1.0, tol=1e-12, max_iter=200000):
    """Alternating row and column scaling of exp(-T/gamma) to L and W."""
    K = np.exp(-T / gamma)
    v = np.ones(len(W))
    for _ in range(max_iter):
        u = L / (K @ v)
        v = W / (K.T @ u)
        M = u[:, None] * K * v[None, :]
        if max(np.abs(M.sum(axis=1) - L).max(), np.abs(M.sum(axis=0) - W).max()) <= tol:
            return M
    raise RuntimeError("balancing did not converge")


def check_matrix(inst, path, eps_residual=1e-6, max_dev=1e-6):
    """Problems with a written `od` answer."""
    L, W = np.array(inst["rows"]), np.array(inst["cols"])
    T = np.array(inst["costs"])
    M = np.full(T.shape, math.nan)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("row"):
                continue
            i, j, x = line.split(",")
            M[int(i), int(j)] = float(x)
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        return ["matrix has missing, negative or non-finite entries"]
    problems = []
    # the certificate's residual: every row sum and all but the last column
    res = np.concatenate([M.sum(axis=1) - L, (M.sum(axis=0) - W)[:-1]])
    slack = 4 * T.size * EPS64 * L.sum()
    if np.linalg.norm(res) > eps_residual + slack:
        problems.append(f"marginal residual {np.linalg.norm(res):.6g} > {eps_residual:g}")
    dev = float(np.abs(M - balanced_matrix(L, W, T)).max())
    if dev > max_dev:
        problems.append(f"deviation from balanced matrix {dev:.6g} > {max_dev:g}")
    return problems
