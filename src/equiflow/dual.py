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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .network import FlowState, Network
# all_or_nothing stays bound here for bench/tracing.py to patch
from .softmin import _od_values, _total, all_or_nothing, assignment_flows, effective_weights  # noqa: F401
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


def model_gammas(network: Network, model: str) -> list:
    """Smoothing scale per level of a model: its MODEL_DEFAULTS scale, or the network's own."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    default = MODEL_DEFAULTS[model][0]
    return list(network.gammas()) if default is None else [default] * network.n_levels


def _smooth_part(edges, conjugate):
    """Value and gradient of the smooth (BPR) conjugate terms, given
    edges.conjugate(t).

    Capacitated conjugates are linear and go to the composite term;
    pinned edges stay at t_free, where their conjugate is 0.
    """
    value, flow = conjugate
    return float(value[edges.smooth].sum()), np.where(edges.smooth, flow, 0.0)


class DualOracle(SmoothOracle):
    """Value/gradient oracle for the dual objective in the time vector t.

    Smooth part: -(soft-min value) plus the conjugates of uncapacitated-
    domain (BPR) edges.  Capacitated (SD) conjugates are linear and go to
    the composite term together with the box; edges whose time is pinned
    (constant-cost or uncapacitated SD) get a degenerate box interval.
    Given a variance_bound, stochastic_grad samples origins in proportion
    to their demand for a mini-batch run (see stochastic_origin_oracle).
    """

    def __init__(self, network: Network, gammas=None, variance_bound=None):
        self.network = network
        self.gammas = list(network.gammas()) if gammas is None else list(gammas)
        self.variance_bound = variance_bound
        edges = network.edges
        self.lower = network.free_flow_times()
        self.upper = np.where(edges.pinned, edges.t_free, math.inf)
        self.linear = np.where(edges.capped, edges.capacity, 0.0)

    def prox(self):
        return EuclideanProx(lower=self.lower, upper=self.upper, linear=self.linear)

    def _by_products(self, t):
        value, flow = assignment_flows(self.network, t, self.gammas)
        conjugate = self.network.edges.conjugate(t)
        conjugate[0].flags.writeable = conjugate[1].flags.writeable = False
        return value, flow, conjugate

    def point(self, t):
        """(soft-min value, FlowState, edges.conjugate(t)) at t, shared with
        value and value_grad.

        Kept per point (SmoothOracle._per_point), so the stop test's reads
        at the gradient point y and at the accepted trial point x sweep
        nothing new and evaluate no conjugate again.  The flows are
        filled on first read: their backward sweeps run then, so a point
        that is only valued sweeps forward only.  The returned flows and
        conjugates are read-only arrays.
        """
        return self._per_point(t, read=True)

    def value(self, t):
        softmin_value, _, conjugate = self._per_point(t, read=False)
        return -softmin_value + _smooth_part(self.network.edges, conjugate)[0]

    def value_grad(self, t):
        softmin_value, flow, conjugate = self.point(t)
        conj_value, conj_grad = _smooth_part(self.network.edges, conjugate)
        return -softmin_value + conj_value, -flow.plain_flat() + conj_grad

    def stochastic_grad(self, t, rng, batch):
        """Mean of `batch` origin draws, each origin drawn w.p. its share of demand.

        Leaves t in the read slot, where the line search's value at t and
        the stop test's assignment at t find it.  With a single origin
        every draw is that origin at its own demands, so the estimate is
        the gradient at t, read from that slot.
        """
        _, flow, conjugate = self.point(t)
        origins = self.network.origins()
        if len(origins) == 1:
            return -flow.plain_flat() + _smooth_part(self.network.edges, conjugate)[1]
        weights = np.array(self.network.plan.totals())
        draws = rng.choice(len(origins), size=batch, p=weights / weights.sum())
        return stochastic_origin_oracle(self.network, t, [origins[i] for i in draws],
                                        self.gammas)

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


def stochastic_origin_oracle(network, t, origins, gammas=None):
    """Unbiased dual-gradient estimate from a batch of sampled origins.

    Each draw of origin o loads only o's demands, rescaled by the inverse
    of its sampling probability D_o / D (D_o its total demand, D the
    total); the batch mean plus the deterministic conjugate part estimates
    the full gradient without bias.  Flows are linear in the demands, on
    nested levels too, so the mean is one assignment at the demands
    d_w * c_o * D / (D_o * m), c_o the draws of o among the m in the batch,
    over a PairPlan of the drawn pairs: only the drawn origins are swept.
    """
    if not origins:
        raise ValueError("empty origin batch")
    totals = dict(zip(network.origins(), network.plan.totals()))
    draws = Counter(origins)
    for o in draws:
        if o not in totals:
            raise ValueError(f"origin {o} has no demand to sample")
    grand = sum(totals.values())
    demands = {od: dem * (draws[od[0]] * grand / (totals[od[0]] * len(origins)))
               for od, dem in network.demands.items() if draws[od[0]]}
    _, flow = assignment_flows(network, t, gammas, demands=demands)
    return -flow.plain_flat() + _smooth_part(network.edges, network.edges.conjugate(t))[1]


def dual_value_grad(network, t):
    """Dual value, gradient, and the flow state realizing the gradient."""
    oracle = DualOracle(network)
    value, grad = oracle.value_grad(t)
    return value, grad, oracle.point(t)[1]


def duality_gap(network, t, flows, conjugate=None):
    """Per-edge Fenchel terms and their sum at times t and plain-edge flows f.

    Each term sigma_e(f) - f*t + sigma*_e(t) is nonnegative for feasible
    t and in-domain f.  On SD edges it reduces to (t - t_free) *
    (capacity - f), with f clamped to capacity (the excess is reported
    through capacity_violation instead), and to 0 without a capacity.
    Pinned BPR edges count their conjugate as 0: their time stays at
    t_free, up to the rounding of the solver's averaging steps.
    `conjugate`, network.edges.conjugate(t) when the caller holds it,
    saves evaluating it again.
    """
    e = network.edges
    t = np.asarray(t, dtype=float)
    f = np.asarray(flows, dtype=float)
    conj = (e.conjugate(t) if conjugate is None else conjugate)[0]
    bpr = e.integral(f) - f * t + np.where(e.pinned, 0.0, conj)
    sd = (t - e.t_free) * np.maximum(np.where(e.capped, e.capacity, f) - f, 0.0)
    terms = np.where(e.is_sd, sd, bpr)
    return terms, float(terms.sum())


def capacity_violation(network, flows):
    """Largest plain-edge flow excess over a hard (capacitated) edge capacity."""
    c = network.edges.capped
    return float(np.max(np.asarray(flows)[c] - network.edges.capacity[c], initial=0.0))


def complementarity_residual(network, t, flows):
    """max |(t_e - t_free_e) * (capacity_e - f_e)| over capacitated edges."""
    e = network.edges
    c = e.capped
    t = np.asarray(t, dtype=float)
    residual = (t[c] - e.t_free[c]) * (e.capacity[c] - np.asarray(flows)[c])
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
    f = np.asarray(flows, dtype=float)
    tau = network.edges.cost(f)
    dist, _ = _od_values(network.levels[0], tau, network.plan, 0.0, level=1)
    best = _total(network.plan.demand, dist)
    return max(0.0, float(tau @ f - best))


def experienced_times(network, t, flows):
    """Per-edge travel times at the given plain-edge flows.

    BPR edges report their cost map at the flow; capacitated edges keep
    the dual time (free-flow plus congestion multiplier).
    """
    e = network.edges
    return np.where(e.is_sd, np.asarray(t, dtype=float), e.cost(flows))


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
    # bound on the soft-min Fenchel term of flows that are no route choice
    # at t (a step-weighted average); total_gap = sum(per_edge_gap) + route_gap
    route_gap: float = 0.0


def _build_report(network, model, eps, eps_residual, t, flows, gammas, converged, solver,
                  fw_gap=math.nan, route_gap=0.0):
    f = flows.plain_flat()
    per_edge, total = duality_gap(network, t, f)
    tau = experienced_times(network, t, f)
    total_time = float(tau @ f)
    # shortest paths under the experienced costs, hard at every level
    weights = effective_weights(network, tau, [0.0] * network.n_levels)
    dist, _ = _od_values(network.levels[0], weights[0], network.plan, 0.0, level=1)
    shortest = dict(zip(network.plan.pairs, dist.tolist()))
    return EquilibriumReport(
        model=model,
        eps=eps,
        eps_residual=eps_residual,
        t=t,
        flows=flows,
        per_edge_gap=per_edge,
        total_gap=total + route_gap,
        fw_gap=fw_gap,
        capacity_violation=capacity_violation(network, f),
        complementarity=complementarity_residual(network, t, f),
        multipliers=t - network.free_flow_times(),
        total_time=total_time,
        shortest_costs=shortest,
        gammas=list(gammas),
        converged=converged,
        solver=solver,
        route_gap=route_gap,
    )


def solve_assignment(
    network: Network,
    model: str = "beckmann",
    eps: float = 1e-6,
    eps_residual: float = None,
    gammas=None,
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
    term, which flows read off a point meet with equality; the report's
    total_gap and route_gap carry that bound.  Certificate:
    the equilibrium gap <tau(f),f> - sum d_w SP_w(tau(f)) <= eps for
    beckmann and beckmann_md, which then write t = tau(f); for every other
    model, Fenchel gap <= eps, capacity violation <= eps_residual and
    complementarity <= 10*max(eps, eps_residual), so stochastic/multistage
    may end uncertified on SD edges.
    """
    base_gammas = model_gammas(network, model)  # rejects an unknown model first
    if model in ("stochastic", "beckmann", "beckmann_md") and network.n_levels != 1:
        raise ValueError(f"model {model!r} expects a single-level network")
    if eps_residual is None:
        eps_residual = eps
    _, fw, zero_ok = MODEL_DEFAULTS[model]
    gammas = base_gammas if gammas is None else gammas
    if any(g <= 0 and not (zero_ok and g == 0) for g in gammas):
        raise ValueError(f"model {model!r} needs positive smoothing at every level")

    oracle = DualOracle(network, gammas, variance_bound)
    acc = np.zeros(network.n_flows)  # step-weighted sum of the flows at the points y
    psi = 0.0  # step-weighted sum of the route-choice entropy terms at the points y
    # rank (not certified, certificate value): a certified candidate always wins
    best = {}
    comp_tol = 10.0 * max(eps, eps_residual)
    capped = network.edges.capped.any()  # both capacity terms are 0.0 without

    def consider(t_pt, conjugate, flows, route_gap=0.0):
        """Certify (t, flows), route_gap bounding its soft-min term; keep the best.

        conjugate is network.edges.conjugate(t_pt), held by the oracle."""
        f = flows.plain_flat()
        if fw:
            cert = gap = frank_wolfe_gap(network, f)
            ok = gap <= eps
            route_gap = 0.0  # the written times are the costs at the flows
        else:
            gap = duality_gap(network, t_pt, f, conjugate)[1] + route_gap
            viol = capacity_violation(network, f) if capped else 0.0
            comp = complementarity_residual(network, t_pt, f) if capped else 0.0
            ok = gap <= eps and viol <= eps_residual and comp <= comp_tol
            cert = max(gap, viol, comp)
        if not best or (not ok, cert) < best["rank"]:
            best.update(rank=(not ok, cert), gap=gap, route_gap=route_gap, flows=flows,
                        t=np.array(t_pt, dtype=float))
        return gap, ok

    def stop(state):
        nonlocal psi
        value_y, flow_y, conj_y = oracle.point(state.y)
        np.add(acc, state.alpha * flow_y.values, out=acc)
        psi += state.alpha * (value_y - flow_y.plain_flat() @ state.y)
        value_x, flow_x, conj_x = oracle.point(state.x)
        # consider reads the average at once, before the next step moves acc
        avg = FlowState(network, lambda out: np.multiply(acc, 1.0 / state.A, out=out))
        # flows read off a point meet the soft-min Fenchel term with equality;
        # by Jensen, psi / A bounds the entropy term of their average
        route_gap = max(0.0, avg.plain_flat() @ state.x - value_x + psi / state.A)
        checked = [consider(state.y, conj_y, flow_y), consider(state.x, conj_x, flow_x),
                   consider(state.x, conj_x, avg, route_gap)]
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
        route_gap=best["route_gap"],
    )


def solve_multistage(network: Network, eps: float = 1e-6, eps_residual: float = None,
                     gammas=None, max_iter: int = 200000) -> EquilibriumReport:
    """Joint dual solve of a nested multilevel network; see solve_assignment."""
    return solve_assignment(network, "multistage", eps, eps_residual, gammas, max_iter)
