"""Dual equilibrium objective over edge travel times and solve entry points.

The equilibrium is found by minimizing, over the box t_e >= t_free_e, the
sum of the (negated) demand-weighted soft-min travel value and the convex
conjugates of the edge cost integrals.  Gradients come from the Gibbs
assignment (exact) or all-or-nothing loading (subgradient); primal flows
are read off the gradient and certified by per-edge Fenchel gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import (
    BPR,
    SD,
    FlowState,
    Network,
    bpr_conjugate,
    bpr_cost,
    bpr_integral,
)
from .softmin import all_or_nothing, assignment_flows, effective_weights
from .solvers import EuclideanProx, SmoothOracle, umt_minimize, umt_stochastic


class DualOracle(SmoothOracle):
    """Value/gradient oracle for the dual objective in the time vector t.

    Smooth part: -(soft-min value) plus the conjugates of uncapacitated-
    domain (BPR) edges.  Capacitated (SD) conjugates are linear and go to
    the composite term together with the box; edges whose time is pinned
    (constant-cost or uncapacitated SD) get a degenerate box interval.
    """

    def __init__(self, network: Network, gammas=None, hops=None):
        self.network = network
        self.gammas = list(network.gammas()) if gammas is None else list(gammas)
        self.hops = hops
        self.lower = network.free_flow_times()
        upper = np.full(network.n_times, math.inf)
        linear = np.zeros(network.n_times)
        for i, mdl in enumerate(network.cost_models):
            if mdl.pinned:
                upper[i] = mdl.t_free
            elif mdl.kind == SD:
                linear[i] = mdl.capacity
        self.upper = upper
        self.linear = linear
        self.last_flow = None  # FlowState at the most recent gradient point
        self.last_grad_point = None
        self._memo = (None, None)  # (t.tobytes(), assignment) at the last point

    def prox(self):
        return EuclideanProx(lower=self.lower, upper=self.upper, linear=self.linear)

    def _conjugates(self, t):
        value = 0.0
        grad = np.zeros(len(t))
        for i, mdl in enumerate(self.network.cost_models):
            if mdl.kind == BPR and not mdl.pinned:
                v, f = bpr_conjugate(mdl, t[i])
                value += v
                grad[i] = f
        return value, grad

    def assignment(self, t):
        """(soft-min value, FlowState) at t, shared with value and value_grad.

        The last point's assignment is kept, so the line search's final
        value(x) also serves the stop test's assignment(x).  The returned
        flows must not be modified.
        """
        t = np.asarray(t, dtype=float)
        key = t.tobytes()
        if self._memo[0] != key:
            self._memo = (key, assignment_flows(self.network, t, self.gammas, self.hops))
        return self._memo[1]

    def value(self, t):
        softmin_value, _ = self.assignment(t)
        conj_value, _ = self._conjugates(t)
        return -softmin_value + conj_value

    def value_grad(self, t):
        softmin_value, flow = self.assignment(t)
        conj_value, conj_grad = self._conjugates(t)
        self.last_flow = flow
        self.last_grad_point = np.array(t, dtype=float)
        return -softmin_value + conj_value, -flow.plain_flat() + conj_grad

    def strong_convexity(self):
        """Lower curvature bound of the smooth part over the free box.

        Linear-cost (power 1) BPR conjugates have constant curvature
        capacity/(gain * t_free); any other free edge contributes 0.
        """
        mu = math.inf
        for mdl in self.network.cost_models:
            if mdl.pinned:
                continue
            if mdl.kind == BPR and mdl.bpr_power == 1.0:
                mu = min(mu, mdl.capacity / (mdl.bpr_gain * mdl.t_free))
            else:
                return 0.0
        return 0.0 if math.isinf(mu) else mu


class StochasticDualOracle(DualOracle):
    """Dual oracle whose gradient samples origins proportional to demand."""

    def __init__(self, network, gammas=None, hops=None, variance_bound=None):
        super().__init__(network, gammas, hops)
        self.variance_bound = variance_bound
        self._origins = network.origins()
        weights = np.array(
            [sum(d for (o, _), d in network.demands.items() if o == org) for org in self._origins]
        )
        self._probs = weights / weights.sum()

    def stochastic_grad(self, t, rng, batch):
        draws = rng.choice(len(self._origins), size=batch, p=self._probs)
        origins = [self._origins[i] for i in draws]
        return stochastic_origin_oracle(self.network, t, origins, self.gammas, self.hops)


def stochastic_origin_oracle(network, t, origins, gammas=None, hops=None):
    """Unbiased dual-gradient estimate from a batch of sampled origins.

    Each draw loads only the demands of one origin, rescaled by the
    inverse of its sampling probability (proportional to total demand);
    the batch average plus the deterministic conjugate part estimates
    the full gradient without bias.
    """
    if not origins:
        raise ValueError("empty origin batch")
    t = np.asarray(t, dtype=float)
    per_origin = {}
    for (o, d), dem in network.demands.items():
        per_origin.setdefault(o, {})[(o, d)] = dem
    totals = {o: sum(ds.values()) for o, ds in per_origin.items()}
    grand = sum(totals.values())
    est = np.zeros(network.n_times)
    for o in origins:
        _, flow = assignment_flows(network, t, gammas, hops, demands=per_origin[o])
        est += flow.plain_flat() * (grand / totals[o])
    est /= len(origins)
    conj_grad = np.zeros(network.n_times)
    for i, mdl in enumerate(network.cost_models):
        if mdl.kind == BPR and not mdl.pinned:
            conj_grad[i] = bpr_conjugate(mdl, t[i])[1]
    return -est + conj_grad


def dual_value_grad(network, t, gammas=None, hops=None):
    """Dual value, gradient, and the flow state realizing the gradient."""
    oracle = DualOracle(network, gammas, hops)
    value, grad = oracle.value_grad(np.asarray(t, dtype=float))
    return value, grad, oracle.last_flow


def duality_gap(network, t, flows):
    """Per-edge Fenchel terms and their sum for a time/flow pair.

    Each term sigma_e(f) - f*t + sigma*_e(t) is nonnegative for feasible
    t and in-domain f; capacitated flows are clamped to capacity here and
    the excess reported through capacity_violation instead.
    """
    t = np.asarray(t, dtype=float)
    f = flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)
    terms = np.zeros(network.n_times)
    for i, mdl in enumerate(network.cost_models):
        if mdl.kind == BPR:
            sigma_star = 0.0 if mdl.pinned else bpr_conjugate(mdl, t[i])[0]
            terms[i] = bpr_integral(mdl, f[i]) - f[i] * t[i] + sigma_star
        else:
            fc = min(f[i], mdl.capacity)
            terms[i] = (t[i] - mdl.t_free) * (mdl.capacity - fc) if math.isfinite(mdl.capacity) else 0.0
    return terms, float(terms.sum())


def capacity_violation(network, flows):
    """Largest flow excess over a hard (capacitated) edge capacity."""
    f = flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)
    worst = 0.0
    for i, mdl in enumerate(network.cost_models):
        if mdl.kind == SD and math.isfinite(mdl.capacity):
            worst = max(worst, f[i] - mdl.capacity)
    return worst


def complementarity_residual(network, t, flows):
    """max |(t_e - t_free_e) * (capacity_e - f_e)| over capacitated edges."""
    t = np.asarray(t, dtype=float)
    f = flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)
    worst = 0.0
    for i, mdl in enumerate(network.cost_models):
        if mdl.kind == SD and math.isfinite(mdl.capacity):
            worst = max(worst, abs((t[i] - mdl.t_free) * (mdl.capacity - f[i])))
    return worst


def frank_wolfe_gap(network, flows):
    """Equilibrium gap <tau(f), f> - sum_w d_w * shortest-path_w(tau(f)).

    Valid for single-level networks whose edges all carry a flow-cost
    map (BPR); zero exactly at equilibrium flows.
    """
    if network.n_levels != 1:
        raise ValueError("equilibrium gap is defined for single-level networks")
    lg = network.levels[0]
    f = flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)
    tau = np.empty(len(f))
    for i, mdl in enumerate(network.cost_models):
        if mdl.kind != BPR:
            raise ValueError("equilibrium gap needs BPR cost maps on every edge")
        tau[i] = bpr_cost(mdl, f[i])
    best, _ = all_or_nothing(lg, tau, network.demands)
    return max(0.0, float(tau @ f - best))


def experienced_times(network, t, flows):
    """Per-edge travel times at the given flows.

    BPR edges report their cost map at the flow; capacitated edges keep
    the dual time (free-flow plus congestion multiplier).
    """
    t = np.asarray(t, dtype=float)
    f = flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)
    tau = np.empty(network.n_times)
    for i, mdl in enumerate(network.cost_models):
        tau[i] = bpr_cost(mdl, f[i]) if mdl.kind == BPR else t[i]
    return tau


def _flow_axpy(acc: FlowState, a: float, flow: FlowState):
    for k in range(len(acc.plain)):
        acc.plain[k] += a * flow.plain[k]
        acc.nested[k] += a * flow.nested[k]


@dataclass
class EquilibriumReport:
    model: str
    eps: float
    eps_residual: float
    t: np.ndarray
    flows: FlowState
    last_flows: FlowState
    per_edge_gap: np.ndarray
    total_gap: float
    fw_gap: float
    capacity_violation: float
    complementarity: float
    multipliers: np.ndarray
    total_time: float
    shortest_costs: dict
    gammas: list
    converged: bool
    solver: object = None
    extra: dict = field(default_factory=dict)


def _build_report(network, model, eps, eps_residual, t, flows, last_flows, gammas,
                  converged, solver, fw_gap=math.nan):
    per_edge, total = duality_gap(network, t, flows)
    f_flat = flows.plain_flat()
    tau = experienced_times(network, t, flows)
    total_time = float(tau @ f_flat)
    # shortest paths under the experienced costs, hard at every level
    weights = effective_weights(network, tau, [0.0] * network.n_levels)
    from .softmin import hard_shortest  # local import avoids cycle at module load

    shortest = {}
    for o in network.origins():
        dist, _ = hard_shortest(network.levels[0], weights[0], o)
        for (oo, d) in network.demands:
            if oo == o:
                shortest[(o, d)] = float(dist[d])
    return EquilibriumReport(
        model=model,
        eps=eps,
        eps_residual=eps_residual,
        t=t,
        flows=flows,
        last_flows=last_flows,
        per_edge_gap=per_edge,
        total_gap=total,
        fw_gap=fw_gap,
        capacity_violation=capacity_violation(network, flows),
        complementarity=complementarity_residual(network, t, flows),
        multipliers=t - network.free_flow_times(),
        total_time=total_time,
        shortest_costs=shortest,
        gammas=list(gammas),
        converged=converged,
        solver=solver,
    )


def solve_assignment(
    network: Network,
    model: str = "beckmann",
    eps: float = 1e-6,
    eps_residual: float = None,
    gammas=None,
    hops=None,
    max_iter: int = 200000,
    seed: int = 0,
    l0: float = 1.0,
    beckmann_gamma: float = 1e-6,
    sd_gamma: float = 0.1,
    variance_bound: float = None,
) -> EquilibriumReport:
    """Solve a single-level assignment model to a certified tolerance.

    Models:
      stochastic       — Gibbs route choice at the network's smoothing
                         scales; stops when the Fenchel duality gap of the
                         last-iterate flows is at most eps.
      beckmann         — deterministic user equilibrium; solved through a
                         tiny smoothing scale, stopping on the equilibrium
                         gap <tau(f),f> - sum d_w SP_w(tau(f)) <= eps.
      beckmann_md      — same target via projected subgradient steps on
                         the nonsmooth dual with all-or-nothing loads.
      stable_dynamics / mixed — capacitated edges present; flows are the
                         step-weighted average over gradient points, and
                         stopping needs gap, capacity violation, and
                         complementarity all within tolerance.
    """
    if model in ("stochastic", "beckmann", "beckmann_md") and network.n_levels != 1:
        raise ValueError(f"model {model!r} expects a single-level network")
    if eps_residual is None:
        eps_residual = eps
    if model == "beckmann_md":
        return _solve_beckmann_md(network, eps, eps_residual, max_iter)

    if gammas is None:
        if model == "beckmann":
            gammas = [beckmann_gamma]
        elif model in ("stable_dynamics", "mixed"):
            gammas = [sd_gamma] * network.n_levels
        else:
            gammas = list(network.gammas())
    if any(g <= 0 for g in gammas):
        raise ValueError("smooth dual solve needs positive smoothing at every level")

    if variance_bound is not None:
        oracle = StochasticDualOracle(network, gammas, hops, variance_bound)
    else:
        oracle = DualOracle(network, gammas, hops)
    prox = oracle.prox()
    t0 = network.free_flow_times()
    mu = oracle.strong_convexity() if model in ("beckmann", "stochastic") else 0.0

    averaged = model in ("stable_dynamics", "mixed")
    acc = FlowState.zeros(network)
    # rank (not certified, certificate value): a certified candidate always wins
    best = {"flows": None, "t": None, "rank": (True, math.inf)}
    comp_tol = 10.0 * max(eps, eps_residual)
    cached_points = variance_bound is None  # mini-batch runs don't cache flows

    def consider(t_pt, flows):
        """Certify a candidate (t, flows) pair; remember the best one."""
        if averaged:
            _, gap = duality_gap(network, t_pt, flows)
            viol = capacity_violation(network, flows)
            comp = complementarity_residual(network, t_pt, flows)
            ok = gap <= eps and viol <= eps_residual and comp <= comp_tol
            cert = max(gap, viol, comp)
        elif model == "beckmann":
            cert = gap = frank_wolfe_gap(network, flows)
            ok = gap <= eps
        else:
            _, gap = duality_gap(network, t_pt, flows)
            cert = gap
            ok = gap <= eps
        if (not ok, cert) < best["rank"]:
            best.update(rank=(not ok, cert), flows=flows, t=np.array(t_pt, dtype=float))
        return gap, ok

    def on_step(state):
        # oracle.last_flow is the assignment at the accepted gradient point
        if averaged:
            _flow_axpy(acc, state.alpha, oracle.last_flow)

    def stop(state):
        if averaged:
            gap, ok = consider(state.x, acc.scaled(1.0 / state.A))
        else:
            ok = False
            gap = math.inf
            if cached_points and oracle.last_flow is not None:
                gap, ok = consider(oracle.last_grad_point, oracle.last_flow)
            _, flows_x = oracle.assignment(state.x)
            gap_x, ok_x = consider(state.x, flows_x)
            gap, ok = min(gap, gap_x), ok or ok_x
        state.report.gap_trace.append(gap)
        return "certified" if ok else None

    if variance_bound is not None:
        t_final, rep = umt_stochastic(
            oracle, prox, t0, eps, mu=mu, seed=seed, max_iter=max_iter, l0=l0,
            stop=stop, callback=on_step,
        )
    else:
        t_final, rep = umt_minimize(
            oracle, prox, t0, eps, mu=mu, max_iter=max_iter, l0=l0,
            stop=stop, callback=on_step,
        )
    converged = rep.termination == "certified"
    _, last_flows = oracle.assignment(t_final)
    if best["flows"] is None:
        best.update(flows=last_flows, t=t_final)
    fw = math.nan
    if model == "beckmann":
        fw = frank_wolfe_gap(network, best["flows"])
    return _build_report(
        network, model, eps, eps_residual, best["t"], best["flows"], last_flows,
        gammas, converged, rep, fw_gap=fw,
    )


def _solve_beckmann_md(network, eps, eps_residual, max_iter):
    """Projected subgradient on the nonsmooth dual with averaged loads."""
    oracle = DualOracle(network, gammas=[0.0])
    lg = network.levels[0]
    t = network.free_flow_times().astype(float)
    lower, upper = oracle.lower, oracle.upper
    acc = np.zeros(network.n_times)
    best = {"flows": None, "gap": math.inf, "t": t.copy()}
    from .solvers import SolverReport

    rep = SolverReport()
    for k in range(1, max_iter + 1):
        _, aon = all_or_nothing(lg, t, network.demands)
        conj_grad = np.array(
            [0.0 if m.pinned else bpr_conjugate(m, t[i])[1]
             for i, m in enumerate(network.cost_models)]
        )
        g = -aon + conj_grad
        rep.grad_calls += 1
        acc += aon
        f_avg = acc / k
        gap = frank_wolfe_gap(network, f_avg)
        rep.gap_trace.append(gap)
        if gap < best["gap"]:
            best.update(gap=gap, flows=f_avg.copy(), t=t.copy())
        if gap <= eps:
            rep.termination = "certified"
            break
        norm = np.linalg.norm(g)
        step = eps / max(norm, 1e-30) if norm > 0 else 0.0
        # constant small steps localize around the optimum at scale ~eps
        t = np.clip(t - step * g, lower, upper)
    else:
        rep.termination = "max_iter"
    rep.iterations = k
    flows = FlowState(plain=[best["flows"]], nested=[np.zeros(0)])
    t_best = np.array(
        [bpr_cost(m, best["flows"][i]) for i, m in enumerate(network.cost_models)]
    )
    converged = rep.termination == "certified"
    return _build_report(
        network, "beckmann_md", eps, eps_residual, t_best, flows, flows,
        [0.0], converged, rep, fw_gap=best["gap"],
    )


def solve_multistage(network: Network, eps: float = 1e-6, eps_residual: float = None,
                     gammas=None, hops=None, max_iter: int = 200000,
                     l0: float = 1.0) -> EquilibriumReport:
    """Joint dual solve of a nested multilevel network.

    One run over the full time vector; flows on every level come from the
    chain rule through the nested edge pricing, and the Fenchel gap is
    summed edge-wise across levels.
    """
    if eps_residual is None:
        eps_residual = eps
    gammas = list(network.gammas()) if gammas is None else list(gammas)
    oracle = DualOracle(network, gammas, hops)
    prox = oracle.prox()
    t0 = network.free_flow_times()
    mu = oracle.strong_convexity()
    best = {"flows": None, "t": None, "gap": math.inf}

    def consider(t_pt, flows):
        _, gap = duality_gap(network, t_pt, flows)
        if gap < best["gap"]:
            best.update(gap=gap, flows=flows, t=np.array(t_pt, dtype=float))
        return gap

    def stop(state):
        gap = math.inf
        if oracle.last_flow is not None:
            gap = consider(oracle.last_grad_point, oracle.last_flow)
        _, flows_x = oracle.assignment(state.x)
        gap = min(gap, consider(state.x, flows_x))
        state.report.gap_trace.append(gap)
        return "certified" if gap <= eps else None

    t_final, rep = umt_minimize(
        oracle, prox, t0, eps, mu=mu, max_iter=max_iter, l0=l0, stop=stop
    )
    converged = rep.termination == "certified"
    _, last_flows = oracle.assignment(t_final)
    if best["flows"] is None:
        best.update(flows=last_flows, t=t_final)
    return _build_report(
        network, "multistage", eps, eps_residual, best["t"], best["flows"], last_flows,
        gammas, converged, rep,
    )
