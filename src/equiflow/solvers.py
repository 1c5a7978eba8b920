"""First-order solvers: adaptive accelerated method, restarts, mirror descent.

The workhorse is an accelerated gradient method with a doubling line
search on the local Lipschitz estimate and an eps-slack in the exit test,
so it self-tunes to the smoothness of the objective (from nonsmooth to
Lipschitz-gradient) and tolerates inexact oracles.  One step loop does
every step; step 0 is the step from A = 0.  Composite terms are handled
unlinearized through the prox setup's model-minimization step.

An oracle whose value and gradient share a by-product (an assignment, a
softmax) computes it once per point (SmoothOracle._per_point), the value among
them: the line search, the stop tests and a finish read it back.  Solve loops
read by-products back by point, as oracle.point(y), not from the last call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

L_CEILING = 1e18  # a line-search Lipschitz estimate beyond this means a broken oracle


class DivergedOracleError(RuntimeError):
    """The accelerated method cannot go on.

    Either the line-search Lipschitz estimate blew past the ceiling, which
    almost always means the oracle's gradient is inconsistent with its
    values, or the step aggregate overflowed (the solver stalled) before
    the stop test certified.
    """


class SmoothOracle:
    """Value/gradient oracle; subclasses may declare a gradient variance bound."""

    variance_bound = None
    _read = _valued = (None, None)  # (x.tobytes(), by-products) per cache slot

    def _per_point(self, x, read):
        """self._by_products(x), which a subclass defines, kept in two slots.

        The by-products begin with the value at x, formed once per point.  The
        read slot holds the last point whose by-products were read, the valued
        slot the last point only valued.  Every lookup checks both, so the line
        search's trial values never evict the gradient point.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        for held, result in (self._read, self._valued):
            if held == key:
                break
        else:
            result = self._by_products(x)
        if read:
            self._read = (key, result)
        else:
            self._valued = (key, result)
        return result

    def value(self, x):
        raise NotImplementedError

    def value_grad(self, x):
        raise NotImplementedError

    def stochastic_grad(self, x, rng, batch):
        """Mean of `batch` independent unbiased gradient draws."""
        raise NotImplementedError


class FunctionOracle(SmoothOracle):
    def __init__(self, f, grad):
        self._f = f
        self._grad = grad

    def value(self, x):
        return self._f(x)

    def value_grad(self, x):
        return self._f(x), self._grad(x)


class EuclideanProx:
    """Half-squared-distance prox on a box, with an optional linear composite.

    Composite term: <linear, x> plus the box indicator.  `scale` > 0 gives |d|^2 =
    sum scale_i d_i^2 (dual norm sum g_i^2/scale_i); its default 1.0 is exact.
    """

    def __init__(self, lower=None, upper=None, linear=None, scale=1.0):
        self.lower = None if lower is None else np.asarray(lower, dtype=float)
        self.upper = None if upper is None else np.asarray(upper, dtype=float)
        self.linear = None if linear is None else np.asarray(linear, dtype=float)
        self.scale = np.asarray(scale, dtype=float)

    def clip(self, x):
        if self.lower is not None:
            x = np.maximum(x, self.lower)
        if self.upper is not None:
            x = np.minimum(x, self.upper)
        return x

    def norm_sq(self, d):
        return float(d @ (self.scale * d))

    def composite_value(self, x):
        return 0.0 if self.linear is None else float(self.linear @ x)

    def model_argmin(self, y0, G, S, mu, Y):
        """argmin |x-y0|^2/2 + <G,x> + (mu/2)(S|x|^2 - 2<Y,x>_W) + S*h(x), W = diag(scale)."""
        w = self.scale
        num = w * y0 - G
        if mu > 0.0:
            num = num + mu * (w * Y)
        if self.linear is not None:
            num = num - S * self.linear
        return self.clip(num / (w * (1.0 + mu * S)))

    def mirror_step(self, x, v):
        """The box-clipped step x - W^-1 v, v a gradient (dual-norm) vector."""
        return self.clip(x - v / self.scale)


@dataclass
class SolverReport:
    iterations: int = 0
    value_calls: int = 0
    grad_calls: int = 0
    restarts: int = 0
    final_value: float = math.nan
    termination: str = ""
    value_trace: list = field(default_factory=list)
    lipschitz_trace: list = field(default_factory=list)
    alpha_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    batch_trace: list = field(default_factory=list)
    trial_trace: list = field(default_factory=list)  # line-search trials of each step


@dataclass
class UmtState:
    """Solver internals exposed to stop tests."""

    k: int
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    alpha: float
    A: float
    L: float
    fx: float
    report: SolverReport = None


def _check_budget(max_iter, **tolerances):
    """Reject a tolerance that is not positive and finite, or a negative step budget."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")


def umt_minimize(
    oracle,
    prox,
    y0,
    eps,
    mu=0.0,
    max_iter=100000,
    r2=None,
    stop=None,
    rng=None,
    finish=None,
):
    """Composite minimization by the adaptive accelerated triangle scheme.

    Each outer step doubles the Lipschitz estimate L until the model
    inequality (with slack alpha/(2A)*eps) holds; the step aggregate solves
    A_{k+1}(1 + A_k*mu) = L*alpha^2 exactly.  A step opens at half the
    last accepted L only if the last step passed with room for it,
    f(x) <= model - (L/4)|x - y|^2 (the inequality at L/2 with that step's
    own x - y and slack), and at the accepted L otherwise; the trials of
    each step are in report.trial_trace; |x - y|, L and mu are in the prox's
    norm, scaled or not.  Step 0 is the same step taken from A = 0,
    u = x = y0, with L first tried at 1; it ends with x = u, so the next
    step's y is x itself for every trial L and is evaluated once, as step
    0's y0 is.  With r2 >= V(x*, y0) given, stops once r2/A <= eps/2, which
    certifies F(x) - F* <= eps.  `stop` may end the run early with a reason, or return
    "restart": the run then goes on from the current x as step 0 of a fresh
    run centred there (A = 0, u = x), which keeps the last accepted L and
    whether to open at half of it, while k, the oracle counts and the traces
    of the report go on in the same call and `report.restarts` counts the
    restarts.  `stop` may instead return ("restart", L): the fresh run then
    opens at L, or, when L is not a positive finite number, restarts as
    above.  A stop test may change the prox's scale before a restart; the
    fresh run is measured in it, with mu as given.  A restart voids the r2 test.
    When `stop` returns "finish", `finish(x, report, max_iter - k)` goes on
    from x by a method of its own and returns (x, reason, steps): its steps
    count in k and its oracle calls in the report, and a reason of None
    goes on with this method from the x it returned, as after a restart.
    Given `rng`, the gradients at y are mini-batch means (see umt_stochastic).
    An eps that is not positive and finite, or a negative max_iter, raises a
    ValueError before any step.
    """
    _check_budget(max_iter, eps=eps)
    if rng is not None and oracle.variance_bound is None:
        raise ValueError("mini-batch run requires the oracle's variance bound")
    if rng is not None:  # a bound on |g|^2, in the dual norm: sum g_i^2/scale_i <= |g|^2/min(scale)
        variance = oracle.variance_bound / np.min(prox.scale)
    y0 = np.asarray(y0, dtype=float)
    rep = SolverReport()

    # step 0 is the step from A = 0: alpha = 1/L, slack eps/2, L first tried at
    # 1, and its x_new is its u_new, bit for bit, since (alpha*u)/alpha == u
    A, u, x, G, Y = 0.0, y0, y0, 0.0, 0.0
    center = y0
    L, halve = 1.0, False
    k = 0
    while True:
        if halve:
            L = L / 2.0
        y = None
        for trials in itertools.count(1):
            base = (1.0 + A * mu) / (2.0 * L)
            alpha = base + math.sqrt(base * base + A * (1.0 + A * mu) / L)
            A_new = A + alpha
            # after a fresh start (A = 0) and after the step from it, u is x, so
            # y is x for every trial L: taken as x itself and evaluated once
            if y is None or u is not x:
                y = x if u is x else (alpha * u + A * x) / A_new if math.isfinite(A_new) else None
                if y is None or not np.isfinite(y).all():
                    raise DivergedOracleError(
                        f"solver stalled at step {k}: the step aggregate A = {A_new:.3g} or "
                        f"the point y overflowed (L = {L:.3g}) before the stop test certified"
                    )
                rep.value_calls += 1
                if rng is None:
                    rep.grad_calls += 1
                    fy, gy = oracle.value_grad(y)
                else:
                    m = max(1, math.ceil(8.0 * variance * A_new / (L * alpha * eps)))
                    gy = oracle.stochastic_grad(y, rng, m)
                    rep.batch_trace.append(m)
                    fy = oracle.value(y)
            G_new = G + alpha * gy
            Y_new = Y + alpha * y if mu > 0.0 else Y  # model_argmin reads Y only then
            u_new = prox.model_argmin(center, G_new, A_new, mu, Y_new)
            x_new = u_new if A == 0.0 else (alpha * u_new + A * x) / A_new
            fx = oracle.value(x_new)
            rep.value_calls += 1
            d = x_new - y
            d_sq = prox.norm_sq(d)
            model = fy + float(gy @ d) + 0.5 * L * d_sq + alpha / (2.0 * A_new) * eps
            if model >= fx:
                # the next step opens at L/2 only if this one would have passed there
                halve = fx <= model - 0.25 * L * d_sq
                break
            L *= 2.0
            if L > L_CEILING:
                raise DivergedOracleError(
                    f"line-search L exceeded ceiling {L_CEILING}; oracle inconsistent?"
                )
        A, u, x, G, Y = A_new, u_new, x_new, G_new, Y_new
        rep.alpha_trace.append(alpha)
        rep.lipschitz_trace.append(L)
        rep.trial_trace.append(trials)
        rep.value_trace.append(fx + prox.composite_value(x))
        state = UmtState(k=k, x=x, u=u, y=y, alpha=alpha, A=A, L=L, fx=fx, report=rep)
        reason = stop(state) if stop is not None else None
        if isinstance(reason, tuple):  # ("restart", L): the fresh run opens at L
            reason, opening = reason
            if 0.0 < opening < math.inf:
                L, halve = opening, False
        if reason == "finish":
            x, reason, steps = finish(x, rep, max_iter - k)
            k += steps
            reason = reason or "restart"
        if reason == "restart":
            if r2 is not None:
                raise ValueError("a restart voids the r2 certificate; pass r2=None")
            rep.restarts += 1
            A, u, center, G, Y = 0.0, x, x, 0.0, 0.0
            reason = None
        if reason is None and r2 is not None and r2 / A <= 0.5 * eps:
            reason = "certified"
        if reason is None and k >= max_iter:
            reason = "max_iter"
        if reason is not None:
            break
        k += 1

    rep.iterations = k
    rep.final_value = rep.value_trace[-1]
    rep.termination = reason
    return x, rep


def umt_stochastic(oracle, prox, y0, eps, mu=0.0, seed=0, **kwargs):
    """Mini-batch variant; batch sizes follow ceil(8*D*A/(L*alpha*eps)).

    With variance bound D = 0 the trajectory coincides with the
    deterministic method draw for draw.
    """
    rng = np.random.default_rng(seed)
    return umt_minimize(oracle, prox, y0, eps, mu=mu, rng=rng, **kwargs)


def restart_wrapper(
    oracle,
    prox,
    y0,
    mu,
    lipschitz,
    eps,
    restarts,
    callback=None,
    **umt_kwargs,
):
    """Geometric restarts for a mu-strongly-convex objective.

    One mu = 0 run restarts every ceil(sqrt(16*L/mu)) + 1 steps from its
    current point; with the Euclidean prox's V(x, y) = |x - y|^2/2 the
    objective gap halves per restart, so restarts >= log2(mu*|y0 - x*|^2/eps)
    reach eps.
    callback(leg, x, report) runs at each leg's end, report.final_value
    being that leg's last value; report.iterations counts every step.
    An r2 in umt_kwargs is rejected: a restart voids it.
    """
    if mu <= 0:
        raise ValueError("restart schedule requires mu > 0")
    if "r2" in umt_kwargs:
        raise ValueError("a restart voids the r2 certificate")
    n_inner = math.ceil(math.sqrt(16.0 * lipschitz / mu))

    def stop(state):
        leg, step = divmod(state.k, n_inner + 1)
        if step < n_inner:
            return None
        state.report.final_value = state.report.value_trace[-1]
        if callback is not None:
            callback(leg, state.x, state.report)
        return "restart" if leg < restarts else f"{restarts} restarts of {n_inner} iterations"

    return umt_minimize(oracle, prox, y0, eps, mu=0.0, stop=stop,
                        max_iter=(restarts + 1) * (n_inner + 1) - 1, **umt_kwargs)


@dataclass
class MirrorReport:
    iterations: int = 0
    productive: int = 0
    nonproductive: int = 0
    h_f: float = math.nan
    h_g: float = math.nan
    final_value: float = math.nan
    termination: str = ""
    step_trace: list = field(default_factory=list)


def mirror_descent_constrained(
    f_grad,
    prox,
    eps,
    M_f,
    M_g,
    N,
    x0,
    g_value=None,
    g_grad=None,
    rng=None,
    f_value=None,
):
    """Constrained (stochastic) mirror descent with literal step sizes.

    Productive steps (g(x) <= eps) move along the objective with
    h_f = eps/(M_f*M_g); the rest move along the constraint with
    h_g = eps/M_g**2.  Returns the average of productive iterates; with
    none, an infeasibility-suspected report and no point.
    """
    h_f = eps / (M_f * M_g)
    h_g = eps / (M_g * M_g)
    x = np.asarray(x0, dtype=float).copy()
    rep = MirrorReport(h_f=h_f, h_g=h_g)
    acc = np.zeros_like(x)
    for _ in range(N):
        if g_value is None or g_value(x) <= eps:
            acc += x
            rep.productive += 1
            rep.step_trace.append(h_f)
            x = prox.mirror_step(x, h_f * f_grad(x, rng))
        else:
            rep.nonproductive += 1
            rep.step_trace.append(h_g)
            x = prox.mirror_step(x, h_g * g_grad(x, rng))
    rep.iterations = N
    if rep.productive == 0:
        rep.termination = "infeasibility-suspected"
        return None, rep
    x_bar = acc / rep.productive
    rep.termination = "budget"
    if f_value is not None:
        rep.final_value = f_value(x_bar)
    return x_bar, rep
