"""Dual equilibrium objective over edge travel times and solve entry points.

The equilibrium is found by minimizing, over the box t_e >= t_free_e, the
sum of the (negated) demand-weighted soft-min travel value and the convex
conjugates of the edge cost integrals.  Gradients come from the Gibbs
assignment (exact) or all-or-nothing loading (subgradient); primal flows
are read off the gradient and certified by per-edge Fenchel gaps together
with capacity violation and complementarity (see solve_assignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import FlowState, Network, by_origin
from .softmin import _od_values, all_or_nothing, assignment_flows, effective_weights
from .solvers import EuclideanProx, SmoothOracle, umt_minimize

# model -> (default smoothing per level, None for the network's own scales;
#           certified by the Frank-Wolfe gap; a zero smoothing scale allowed)
MODEL_DEFAULTS = {
    "beckmann": (1e-6, True, False),
    "beckmann_md": (0.0, True, True),
    "stochastic": (None, False, False),
    "stable_dynamics": (0.1, False, False),
    "mixed": (0.1, False, False),
    "multistage": (None, False, True),
}
MODELS = list(MODEL_DEFAULTS)


def _flat(flows) -> np.ndarray:
    """Plain-edge flows aligned with the time vector."""
    return flows.plain_flat() if isinstance(flows, FlowState) else np.asarray(flows, dtype=float)


def _conjugates(edges, t):
    """Value and gradient of the smooth (BPR) conjugate terms at t.

    Capacitated conjugates are linear and go to the composite term;
    pinned edges stay at t_free, where their conjugate is 0.
    """
    value, flow = edges.conjugate(t)
    return float(value[edges.smooth].sum()), np.where(edges.smooth, flow, 0.0)


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
        edges = network.edges
        self.lower = network.free_flow_times()
        self.upper = np.where(edges.pinned, edges.t_free, math.inf)
        self.linear = np.where(edges.capped, edges.capacity, 0.0)

    def prox(self):
        return EuclideanProx(lower=self.lower, upper=self.upper, linear=self.linear)

    def _by_products(self, t):
        return assignment_flows(self.network, t, self.gammas, self.hops)

    def assignment(self, t):
        """(soft-min value, FlowState) at t, shared with value and value_grad.

        Kept per point (SmoothOracle._per_point), so the stop test's reads
        at the gradient point y and at the accepted trial point x sweep
        nothing new.  The flows are deferred: their backward sweeps run on
        first read, so a point that is only valued sweeps forward only.
        The returned flows must not be modified.
        """
        return self._per_point(t, read=True)

    def value(self, t):
        softmin_value, _ = self._per_point(t, read=False)
        conj_value, _ = _conjugates(self.network.edges, t)
        return -softmin_value + conj_value

    def value_grad(self, t):
        softmin_value, flow = self.assignment(t)
        conj_value, conj_grad = _conjugates(self.network.edges, t)
        return -softmin_value + conj_value, -flow.plain_flat() + conj_grad

    def strong_convexity(self):
        """Lower curvature bound of the smooth part over the free box.

        Linear-cost (power 1) BPR conjugates have constant curvature
        capacity/(gain * t_free); any other free edge contributes 0.
        """
        e = self.network.edges
        s = e.smooth
        if e.capped.any() or not s.any() or np.any(e.power[s] != 1.0):
            return 0.0
        return float(np.min(e.capacity[s] / (e.gain[s] * e.t_free[s])))


class StochasticDualOracle(DualOracle):
    """Dual oracle whose gradient samples origins proportional to demand."""

    def __init__(self, network, gammas=None, hops=None, variance_bound=None):
        super().__init__(network, gammas, hops)
        self.variance_bound = variance_bound
        groups = by_origin(network.demands)
        self._origins = list(groups)
        weights = np.array([sum(g.values()) for g in groups.values()])
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
    groups = by_origin(network.demands)
    totals = {o: sum(g.values()) for o, g in groups.items()}
    grand = sum(totals.values())
    est = np.zeros(network.n_times)
    for o in origins:
        _, flow = assignment_flows(network, t, gammas, hops, demands=groups[o])
        est += flow.plain_flat() * (grand / totals[o])
    est /= len(origins)
    return -est + _conjugates(network.edges, t)[1]


def dual_value_grad(network, t, gammas=None, hops=None):
    """Dual value, gradient, and the flow state realizing the gradient."""
    oracle = DualOracle(network, gammas, hops)
    value, grad = oracle.value_grad(t)
    return value, grad, oracle.assignment(t)[1]


def duality_gap(network, t, flows):
    """Per-edge Fenchel terms and their sum for a time/flow pair.

    Each term sigma_e(f) - f*t + sigma*_e(t) is nonnegative for feasible
    t and in-domain f.  On SD edges it reduces to (t - t_free) *
    (capacity - f), with f clamped to capacity (the excess is reported
    through capacity_violation instead), and to 0 without a capacity.
    Pinned BPR edges count their conjugate as 0: their time stays at
    t_free, up to the rounding of the solver's averaging steps.
    """
    e = network.edges
    t = np.asarray(t, dtype=float)
    f = _flat(flows)
    bpr = e.integral(f) - f * t + np.where(e.pinned, 0.0, e.conjugate(t)[0])
    sd = (t - e.t_free) * np.maximum(np.where(e.capped, e.capacity, f) - f, 0.0)
    terms = np.where(e.is_sd, sd, bpr)
    return terms, float(terms.sum())


def capacity_violation(network, flows):
    """Largest flow excess over a hard (capacitated) edge capacity."""
    c = network.edges.capped
    return float(np.max(_flat(flows)[c] - network.edges.capacity[c], initial=0.0))


def complementarity_residual(network, t, flows):
    """max |(t_e - t_free_e) * (capacity_e - f_e)| over capacitated edges."""
    e = network.edges
    c = e.capped
    t = np.asarray(t, dtype=float)
    residual = (t[c] - e.t_free[c]) * (e.capacity[c] - _flat(flows)[c])
    return float(np.max(np.abs(residual), initial=0.0))


def frank_wolfe_gap(network, flows):
    """Equilibrium gap <tau(f), f> - sum_w d_w * shortest-path_w(tau(f)).

    Valid for single-level networks whose edges all carry a flow-cost
    map (BPR); zero exactly at equilibrium flows.
    """
    if network.n_levels != 1:
        raise ValueError("equilibrium gap is defined for single-level networks")
    if network.edges.is_sd.any():
        raise ValueError("equilibrium gap needs BPR cost maps on every edge")
    f = _flat(flows)
    tau = network.edges.cost(f)
    best, _ = all_or_nothing(network.levels[0], tau, network.demands)
    return max(0.0, float(tau @ f - best))


def experienced_times(network, t, flows):
    """Per-edge travel times at the given flows.

    BPR edges report their cost map at the flow; capacitated edges keep
    the dual time (free-flow plus congestion multiplier).
    """
    e = network.edges
    return np.where(e.is_sd, np.asarray(t, dtype=float), e.cost(_flat(flows)))


@dataclass
class EquilibriumReport:
    model: str
    eps: float
    eps_residual: float
    t: np.ndarray
    flows: FlowState
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


def _build_report(network, model, eps, eps_residual, t, flows, gammas, converged, solver,
                  fw_gap=math.nan):
    per_edge, total = duality_gap(network, t, flows)
    f_flat = flows.plain_flat()
    tau = experienced_times(network, t, flows)
    total_time = float(tau @ f_flat)
    # shortest paths under the experienced costs, hard at every level
    weights = effective_weights(network, tau, [0.0] * network.n_levels)
    lg = network.levels[0]
    dist, _ = _od_values(lg, weights[0], list(network.demands), 0.0, lg.n_vertices - 1, level=1)
    shortest = dict(zip(network.demands, dist.tolist()))
    return EquilibriumReport(
        model=model,
        eps=eps,
        eps_residual=eps_residual,
        t=t,
        flows=flows,
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
    variance_bound: float = None,
) -> EquilibriumReport:
    """Solve an assignment model to a certified tolerance.

    Every model is one run of the universal accelerated method on the dual
    in the time vector t, set up by its MODEL_DEFAULTS row.  beckmann is
    the deterministic user equilibrium through a tiny smoothing scale and
    beckmann_md the same target on the nonsmooth (gamma = 0) dual, whose
    gradients are all-or-nothing loads; stochastic is Gibbs route choice,
    stable_dynamics and mixed name one model for hard capacities, and
    multistage solves a nested network jointly (a zero scale loads its
    level all-or-nothing).  Only stable_dynamics, mixed and multistage
    take a nested network.

    After every step three candidates are certified: the flows at the
    gradient point y (with t = y), the flows at x (with t = x) and the
    step-weighted average of the flows at y (with t = x).  The average is
    no route choice at x, so its Fenchel gap adds a bound on the soft-min
    term, which flows read off a point meet with equality.  Certificate:
    the equilibrium gap <tau(f),f> - sum d_w SP_w(tau(f)) <= eps for
    beckmann and beckmann_md, which then write t = tau(f); for every other
    model, Fenchel gap <= eps, capacity violation <= eps_residual and
    complementarity <= 10*max(eps, eps_residual), so stochastic/multistage
    may end uncertified on SD edges.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if model in ("stochastic", "beckmann", "beckmann_md") and network.n_levels != 1:
        raise ValueError(f"model {model!r} expects a single-level network")
    if eps_residual is None:
        eps_residual = eps
    default_gamma, fw, zero_ok = MODEL_DEFAULTS[model]
    if gammas is None:
        gammas = (list(network.gammas()) if default_gamma is None
                  else [default_gamma] * network.n_levels)
    if any(g <= 0 and not (zero_ok and g == 0) for g in gammas):
        raise ValueError(f"model {model!r} needs positive smoothing at every level")

    oracle = (DualOracle(network, gammas, hops) if variance_bound is None
              else StochasticDualOracle(network, gammas, hops, variance_bound))
    acc = FlowState.zeros(network)
    psi = 0.0  # step-weighted sum of the route-choice entropy terms at the points y
    # rank (not certified, certificate value): a certified candidate always wins
    best = {}
    comp_tol = 10.0 * max(eps, eps_residual)

    def consider(t_pt, flows, route_gap=0.0):
        """Certify (t, flows), route_gap bounding its soft-min term; keep the best."""
        if fw:
            cert = gap = frank_wolfe_gap(network, flows)
            ok = gap <= eps
        else:
            gap = duality_gap(network, t_pt, flows)[1] + route_gap
            viol = capacity_violation(network, flows)
            comp = complementarity_residual(network, t_pt, flows)
            ok = gap <= eps and viol <= eps_residual and comp <= comp_tol
            cert = max(gap, viol, comp)
        if not best or (not ok, cert) < best["rank"]:
            best.update(rank=(not ok, cert), gap=gap, flows=flows, t=np.array(t_pt, dtype=float))
        return gap, ok

    def stop(state):
        nonlocal psi
        value_y, flow_y = oracle.assignment(state.y)
        for a, f in zip(acc.plain + acc.nested, flow_y.plain + flow_y.nested):
            a += state.alpha * f
        psi += state.alpha * (value_y - flow_y.plain_flat() @ state.y)
        value_x, flow_x = oracle.assignment(state.x)
        avg = acc.scaled(1.0 / state.A)
        # flows read off a point meet the soft-min Fenchel term with equality;
        # by Jensen, psi / A bounds the entropy term of their average
        route_gap = max(0.0, avg.plain_flat() @ state.x - value_x + psi / state.A)
        checked = [consider(state.y, flow_y), consider(state.x, flow_x),
                   consider(state.x, avg, route_gap)]
        state.report.gap_trace.append(min(gap for gap, _ in checked))
        return "certified" if any(ok for _, ok in checked) else None

    _, rep = umt_minimize(
        oracle, oracle.prox(), network.free_flow_times(), eps,
        mu=oracle.strong_convexity(), max_iter=max_iter, stop=stop,
        rng=None if variance_bound is None else np.random.default_rng(seed),
    )
    t = network.edges.cost(best["flows"].plain_flat()) if fw else best["t"]
    return _build_report(
        network, model, eps, eps_residual, t, best["flows"], gammas,
        rep.termination == "certified", rep, fw_gap=best["gap"] if fw else math.nan,
    )


def solve_multistage(network: Network, eps: float = 1e-6, eps_residual: float = None,
                     gammas=None, hops=None, max_iter: int = 200000) -> EquilibriumReport:
    """Joint dual solve of a nested multilevel network; see solve_assignment."""
    return solve_assignment(network, "multistage", eps, eps_residual, gammas, hops, max_iter)
