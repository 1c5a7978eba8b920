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
from .softmin import (_checked_gammas, _od_values, _total, all_or_nothing,  # noqa: F401
                      assignment_flows, effective_weights)
from .solvers import EuclideanProx, SmoothOracle, _check_budget, umt_minimize

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


def _smooth_value(edges, conjugate):
    """Sum of the smooth (BPR) conjugate values, given edges.conjugate(t).

    Capacitated conjugates are linear and go to the composite term;
    pinned edges stay at t_free, where their conjugate is 0.
    """
    return float(conjugate[0][edges.smooth].sum())


def _smooth_grad(edges, conjugate):
    """Gradient of _smooth_value: the smooth edges' conjugate flows, 0 elsewhere."""
    return np.where(edges.smooth, conjugate[1], 0.0)


class DualOracle(SmoothOracle):
    """Value/gradient oracle for the dual objective in the time vector t.

    Smooth part: -(soft-min value) plus the conjugates of uncapacitated-
    domain (BPR) edges.  Capacitated (SD) conjugates are linear and go to
    the composite term together with the box; edges whose time is pinned
    (constant-cost or uncapacitated SD) get a degenerate box interval.
    On the metric path (no capped SD edge, some positive curvature)
    solve_assignment sets the prox's scale to the conjugates' curvature.
    """

    def __init__(self, network: Network, gammas=None):
        self.network = network
        self.gammas = _checked_gammas(network, gammas)
        edges = network.edges
        self.lower = network.free_flow_times()
        self.upper = np.where(edges.pinned, edges.t_free, math.inf)
        # None without capped edges: the composite term is then the box alone
        self.linear = np.where(edges.capped, edges.capacity, 0.0) if edges.capped.any() else None

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
        return -softmin_value + _smooth_value(self.network.edges, conjugate)

    def value_grad(self, t):
        softmin_value, flow, conjugate = self.point(t)
        edges = self.network.edges
        return (-softmin_value + _smooth_value(edges, conjugate),
                -flow.plain_flat() + _smooth_grad(edges, conjugate))

    def strong_convexity(self, scale=1.0):
        """Lower curvature bound of the smooth part over the free box, in the norm of a
        prox whose scale is `scale`.

        Linear-cost (power 1) BPR conjugates have constant curvature
        capacity/(gain * t_free); any other free edge contributes 0.  So the
        bound is nonzero only where the curvature is the same at every t: a
        metric re-measured along a run (solve_assignment) keeps it.
        """
        e = self.network.edges
        s = e.smooth
        if e.capped.any() or not s.any() or np.any(e.power[s] != 1.0):
            return 0.0
        return float(np.min((e.curvature(e.t_free) / scale)[s]))


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
    return -flow.plain_flat() + _smooth_grad(network.edges, network.edges.conjugate(t))


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
    `conjugate`, the values of network.edges.conjugate(t) when the caller
    holds them, saves evaluating them again.
    """
    e = network.edges
    t = np.asarray(t, dtype=float)
    f = np.asarray(flows, dtype=float)
    conj = e.conjugate(t)[0] if conjugate is None else conjugate
    _, _, pinned, sd = e.groups
    terms = e.integral(f) - f * t + (conj if pinned is None else np.where(e.pinned, 0.0, conj))
    if sd is not None:
        fs = f[sd]
        slack = np.where(e.capped[sd], e.capacity[sd], fs) - fs
        terms[sd] = (t[sd] - e.t_free[sd]) * np.maximum(slack, 0.0)
    return terms, float(terms.sum())


def capacity_violation(network, flows):
    """Largest plain-edge flow excess over a hard (capacitated) edge capacity."""
    e, c = network.edges, network.edges.groups[1]
    if c is None:
        return 0.0
    return float(np.max(np.asarray(flows)[c] - e.capacity[c], initial=0.0))


def complementarity_residual(network, t, flows):
    """max |(t_e - t_free_e) * (capacity_e - f_e)| over capacitated edges."""
    e, c = network.edges, network.edges.groups[1]
    if c is None:
        return 0.0
    t, f = np.asarray(t, dtype=float), np.asarray(flows)
    residual = (t[c] - e.t_free[c]) * (e.capacity[c] - f[c])
    return float(np.max(np.abs(residual), initial=0.0))


def _check_cost_maps(network):
    """The Frank-Wolfe gap needs a flow-cost map (BPR) on every edge."""
    if network.edges.is_sd.any():
        raise ValueError("equilibrium gap needs BPR cost maps on every edge")


def frank_wolfe_gap(network, flows):
    """Equilibrium gap <tau(f), f> - sum_w d_w * shortest-path_w(tau(f)).

    Valid for single-level networks whose edges all carry a flow-cost
    map (BPR); zero exactly at equilibrium flows.
    """
    if network.n_levels != 1:
        raise ValueError("equilibrium gap is defined for single-level networks")
    _check_cost_maps(network)
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


def _build_report(network, model, eps, eps_residual, record, gammas, converged, solver):
    """The report of the winning candidate, from the record of it that the stop test kept."""
    f = record["flows"].plain_flat()
    if MODEL_DEFAULTS[model][1]:  # Frank-Wolfe: the written times are the costs at the flows
        t = network.edges.cost(f)
        per_edge, total = duality_gap(network, t, f)
        record = dict(record, t=t, per_edge_gap=per_edge, total_gap=total)
    tau = experienced_times(network, record["t"], f)
    total_time = float(tau @ f)
    # shortest paths under the experienced costs, hard at every level
    weights = effective_weights(network, tau, [0.0] * network.n_levels)
    dist, _ = _od_values(network.levels[0], weights[0], network.plan, 0.0, level=1)
    shortest = dict(zip(network.plan.pairs, dist.tolist()))
    return EquilibriumReport(
        model=model,
        eps=eps,
        eps_residual=eps_residual,
        multipliers=record["t"] - network.free_flow_times(),
        total_time=total_time,
        shortest_costs=shortest,
        gammas=list(gammas),
        converged=converged,
        solver=solver,
        **record,
    )


def solve_assignment(
    network: Network,
    model: str = "beckmann",
    eps: float = 1e-6,
    eps_residual: float = None,
    gammas=None,
    max_iter: int = 200000,
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

    Every model certified by the Fenchel triple below starts at the costs of
    the flows loaded at t_free: the dual is evaluated once at t_free (counted
    in the report's oracle calls), and the run starts at tau_e(f_e) on every
    smooth (positive-gain BPR) edge and at t_free on the others, clipped to
    the box.  beckmann and beckmann_md start at t_free: their Frank-Wolfe
    certificate ran out of steps from the shifted start on a Braess network.
    On the metric path (a triple-certified model, no capped SD edge, some
    positive curvature) the prox step, L and mu are measured in
    sum_e w_e * d_e^2, w_e e's conjugate curvature floored at 1/100 of the
    largest, and the run starts in a gradient phase: after step 0, and after
    every next step whose gap (its gap_trace entry) is at most half the step
    before's, it restarts from x, so its steps are gradient steps of one
    point each; the first step that does not halve the gap ends the phase,
    and the run goes on accelerated.  The curvature is measured at the start
    and again at x at every restart, and the step after a restart opens at
    the secant L = |g(x) - g(y)|_* / |x - y| of the step before, g the smooth
    part's gradient, in the new metric.  mu stays as measured at the start:
    it is nonzero only when every smooth edge has power 1, whose curvature is
    constant, so the metric is then the start's bit for bit.

    After every step the flows at the gradient point y (with t = y) and at x
    (with t = x) are certified, each by a duality_gap call of its own, so
    the gradient at y is always the full assignment: sampled origins would
    add work, not replace any.  A gradient-phase step after step 0
    certifies x alone: its y is the last step's x, certified then, and its
    gap_trace entry is the smaller of x's gap and the last entry.  Off the
    metric path (capped networks, beckmann and beckmann_md) so is the
    step-weighted average of the flows at y (with t = x).  The average is no
    route choice at x, so its Fenchel gap adds a bound on the soft-min term,
    which flows read off a point meet with equality; the report's total_gap
    and route_gap carry that bound.  Averaged over a gradient phase's short
    legs it certified flows 0.005 off the assignment at the written times, so
    the metric path keeps none.  Certificate: the equilibrium gap
    <tau(f),f> - sum d_w SP_w(tau(f)) <= eps for beckmann and beckmann_md,
    which then write t = tau(f), where the report computes their per-edge
    terms, once; for every other model, Fenchel gap <= eps,
    capacity violation <= eps_residual and complementarity
    <= 10*max(eps, eps_residual), so stochastic/multistage may end uncertified
    on SD edges; their report carries the winner's certificate as the stop
    test computed it.  A tolerance that is not positive and finite, a negative
    max_iter, or an SD edge under beckmann or beckmann_md raises a
    ValueError before any work.
    """
    if eps_residual is None:
        eps_residual = eps
    _check_budget(max_iter, eps=eps, eps_residual=eps_residual)
    base_gammas = model_gammas(network, model)  # rejects an unknown model first
    if model in ("stochastic", "beckmann", "beckmann_md") and network.n_levels != 1:
        raise ValueError(f"model {model!r} expects a single-level network")
    _, fw, zero_ok = MODEL_DEFAULTS[model]
    if fw:  # certified by the Frank-Wolfe gap
        _check_cost_maps(network)
    gammas = base_gammas if gammas is None else _checked_gammas(network, gammas)
    if any(g <= 0 and not (zero_ok and g == 0) for g in gammas):
        raise ValueError(f"model {model!r} needs positive smoothing at every level")

    oracle = DualOracle(network, gammas)
    acc = np.zeros(network.n_flows)  # step-weighted sum of the flows at the points y
    psi = 0.0  # step-weighted sum of the route-choice entropy terms at the points y
    # rank (not certified, certificate value), so a certified candidate always
    # wins, and record, the winner's report fields as its certificate gave them
    best = {}
    comp_tol = 10.0 * max(eps, eps_residual)

    def consider(t_pt, flows, route_gap, conjugate):
        """Certify (t, flows), route_gap the bound of their soft-min term and
        conjugate the values of edges.conjugate(t); keep the best."""
        f = flows.plain_flat()
        if fw:  # the report computes the Fenchel terms, at t = tau(f)
            cert = gap = frank_wolfe_gap(network, f)
            ok = gap <= eps
            record = dict(fw_gap=gap, capacity_violation=0.0, complementarity=0.0)  # no SD edge
        else:
            per_edge, gap = duality_gap(network, t_pt, f, conjugate)
            gap += route_gap
            viol = capacity_violation(network, f)
            comp = complementarity_residual(network, t_pt, f)
            ok = gap <= eps and viol <= eps_residual and comp <= comp_tol
            cert = max(gap, viol, comp)
            record = dict(per_edge_gap=per_edge, total_gap=gap, fw_gap=math.nan,
                          route_gap=route_gap, capacity_violation=viol, complementarity=comp)
        if not best or (not ok, cert) < best["rank"]:
            best.update(rank=(not ok, cert),
                        record=dict(record, t=np.array(t_pt, dtype=float), flows=flows))
        return gap, ok

    def stop(state):
        nonlocal psi, gradient_phase
        value_y, flow_y, conj_y = oracle.point(state.y)
        value_x, flow_x, conj_x = oracle.point(state.x)
        trace = state.report.gap_trace
        # a gradient-phase step after step 0 starts at y = the last step's x,
        # certified then: its gap is in trace[-1]
        fresh = gradient_phase and bool(trace)
        checked = [] if fresh else [consider(state.y, flow_y, 0.0, conj_y[0])]
        checked.append(consider(state.x, flow_x, 0.0, conj_x[0]))
        if not metric:
            np.add(acc, state.alpha * flow_y.values, out=acc)
            psi += state.alpha * (value_y - flow_y.plain_flat() @ state.y)
            # the average is read at once, before the next step moves acc
            avg = FlowState(network, lambda out: np.multiply(acc, 1.0 / state.A, out=out))
            # flows read off a point meet the soft-min Fenchel term with equality;
            # by Jensen, psi / A bounds the entropy term of their average
            route_gap = max(0.0, avg.plain_flat() @ state.x - value_x + psi / state.A)
            checked.append(consider(state.x, avg, route_gap, conj_x[0]))
        trace.append(min([gap for gap, _ in checked] + (trace[-1:] if fresh else [])))
        if any(ok for _, ok in checked):
            return "certified"
        gradient_phase = gradient_phase and (len(trace) == 1 or trace[-1] <= 0.5 * trace[-2])
        if not gradient_phase:
            return None
        # the next step is measured in the curvature at x and opens at this
        # step's secant L = |g(x) - g(y)|_* / |x - y| in that metric
        prox.scale = curvature_metric(state.x, prox.scale)
        dg = (flow_y.plain_flat() - flow_x.plain_flat()
              + _smooth_grad(edges, conj_x) - _smooth_grad(edges, conj_y))
        dx_sq = prox.norm_sq(state.x - state.y)
        secant = math.sqrt(dg @ (dg / prox.scale) / dx_sq) if dx_sq > 0.0 else 0.0
        return "restart", secant

    def curvature_metric(t, fallback):
        """The conjugates' curvature at t floored at 1/100 of its largest, or
        fallback where it is 0 on every edge."""
        curvature = edges.curvature(t)
        top = np.max(curvature)
        return np.fmax(curvature, top / 100.0) if top > 0.0 else fallback

    prox, t0, edges = oracle.prox(), network.free_flow_times(), network.edges
    metric = False  # the metric path (see the docstring) skips the average
    if not fw:  # start at the BPR costs of the flows loaded at t_free
        oracle.value_grad(t0)
        t0 = prox.clip(np.where(edges.smooth, edges.cost(oracle.point(t0)[1].plain_flat()), t0))
        scale = None if edges.capped.any() else curvature_metric(t0, None)  # see docstring
        metric = scale is not None
        if metric:
            prox.scale = scale
    gradient_phase = metric  # gradient steps while each halves the gap
    _, rep = umt_minimize(
        oracle, prox, t0, eps,
        mu=oracle.strong_convexity(prox.scale), max_iter=max_iter, stop=stop,
    )
    if not fw:  # the start's evaluation is an oracle call of the solve
        rep.value_calls += 1
        rep.grad_calls += 1
    return _build_report(
        network, model, eps, eps_residual, best["record"], gammas,
        rep.termination == "certified", rep,
    )


def solve_multistage(network: Network, eps: float = 1e-6, eps_residual: float = None,
                     gammas=None, max_iter: int = 200000) -> EquilibriumReport:
    """Joint dual solve of a nested multilevel network; see solve_assignment."""
    return solve_assignment(network, "multistage", eps, eps_residual, gammas, max_iter)
