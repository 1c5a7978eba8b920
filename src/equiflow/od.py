"""Entropy model of the origin-destination matrix as an entropy-linear program.

The most-likely OD matrix consistent with zone marginals and travel costs
minimizes <c, x> + gamma * sum x ln x over the simplex subject to row and
column sums.  The dual in the constraint multipliers is smooth with a
closed-form softmax primal map; it is minimized by the same adaptive
accelerated method used elsewhere, with the constraints applied as row and
column sums (no stored matrix).  The method restarts whenever the dual value
rises from one step to the next (the function scheme of O'Donoghue & Candes
2015), which cuts its momentum oscillation.  Once the marginals are close,
damped Newton steps on the dual finish the solve (the Sinkhorn-Newton method
of Brauer, Clason, Lorenz & Wirth 2017; the dual is a log-sum-exp of an
affine map, generalized self-concordant in the sense of Sun & Tran-Dinh
2019).  One primal candidate per step, the softmax at the current dual
point, is certified by value gap plus marginal residual.  The gap must be
small on both sides, not only from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import EuclideanProx, SmoothOracle, _check_budget, umt_minimize


class MarginalMap:
    """ELP constraint matrix as an operator that stores no matrix.

    ``A @ x``: the row sums, then the column sums, of ``x.reshape(nr, nc)``.
    ``A.T @ y``: ``y_row[:, None] + y_col``.
    """

    nbytes = 0

    def __init__(self, nr, nc, transposed=False):
        self.nr, self.nc, self.transposed = nr, nc, transposed
        rows, n = nr + nc, nr * nc
        self.shape = (n, rows) if transposed else (rows, n)

    @property
    def T(self):
        return MarginalMap(self.nr, self.nc, not self.transposed)

    def __matmul__(self, v):
        nr, nc = self.nr, self.nc
        if self.transposed:
            return (v[:nr, None] + v[None, nr:]).ravel()
        m = v.reshape(nr, nc)
        return np.concatenate((m.sum(axis=1), m.sum(axis=0)))


@dataclass
class ElpProblem:
    """Entropy-linear program over the flattened, mass-normalized matrix.

    Constraints: every row and every column sum.  Each block of b sums to 1,
    so no dual gradient moves along "all row (or all column) multipliers +c".
    """

    cost: np.ndarray        # (n_rows * n_cols,) flattened
    A: MarginalMap          # constraints x marginals
    b: np.ndarray
    gamma: float
    shape: tuple
    mass: float

    @property
    def n(self):
        return self.cost.size


def build_elp(L, W, T, gamma) -> ElpProblem:
    """Normalize each marginal to unit mass and set up the constraint operator."""
    L = np.asarray(L, dtype=float)
    W = np.asarray(W, dtype=float)
    T = np.asarray(T, dtype=float)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if L.size == 0 or W.size == 0:
        raise ValueError(f"empty marginals: {L.size} rows and {W.size} columns")
    if np.any(L <= 0) or np.any(W <= 0):
        raise ValueError("marginals must be positive")
    with np.errstate(over="ignore"):  # an overflowing total is reported below
        mass, w_mass = L.sum(), W.sum()
    if not (math.isfinite(mass) and math.isfinite(w_mass)):
        raise ValueError(f"marginal totals must be finite, got {mass} and {w_mass}")
    if not math.isclose(mass, w_mass, rel_tol=1e-9):
        raise ValueError(f"unbalanced marginals: {mass} vs {w_mass}")
    nr, nc = len(L), len(W)
    if T.shape != (nr, nc):
        raise ValueError(f"cost matrix shape {T.shape} != ({nr}, {nc})")
    # W / mass would leave the dual unbounded along "all columns +c" when the totals differ
    return ElpProblem(cost=T.ravel().copy(), A=MarginalMap(nr, nc),
                      b=np.concatenate((L / mass, W / w_mass)), gamma=float(gamma),
                      shape=(nr, nc), mass=mass)


class ElpDualOracle(SmoothOracle):
    """Smooth dual in the constraint multipliers y.

    value = <y, b> + gamma * log-sum-exp of (-(c + A^T y)/gamma);
    gradient = b - A x(y) with x(y) the softmax of the same logits.
    """

    def __init__(self, problem: ElpProblem):
        self.p = problem

    def _by_products(self, y):
        """(log-sum-exp, read-only softmax) of the logits -(c + A^T y)/gamma, kept per point."""
        logits = -(self.p.cost + self.p.A.T @ y) / self.p.gamma
        m = logits.max()
        e = np.exp(logits - m)
        s = e.sum()
        e /= s
        e.flags.writeable = False
        return m + math.log(s), e

    def primal(self, y):
        return self._per_point(y, read=True)[1]

    def value(self, y):
        lse, _ = self._per_point(y, read=False)
        return float(y @ self.p.b) + self.p.gamma * lse

    def value_grad(self, y):
        lse, x = self._per_point(y, read=True)
        return float(y @ self.p.b) + self.p.gamma * lse, self.p.b - self.p.A @ x


def primal_value(problem: ElpProblem, x):
    x = np.asarray(x, dtype=float)
    pos = x[x > 0]
    return float(problem.cost @ x) + problem.gamma * float(np.sum(pos * np.log(pos)))


@dataclass
class ElpSolution:
    matrix: np.ndarray
    potentials: np.ndarray
    gap: float
    residual: float
    gamma: float
    converged: bool
    newton_steps: int = 0
    solver: object = None


NEWTON_HANDOVER = 1e-1  # unit-mass marginal residual at which Newton steps take over
ARMIJO = 1e-4  # fraction of the predicted decrease a Newton step must keep
NEWTON_MIN_STEP = 2.0 ** -10  # a shorter step hands the solve back to the accelerated method


def _cholesky_solve(a, b):
    """Solve a z = b for symmetric positive definite a, or NaN if it is not.

    A left-looking Cholesky factorization: its last row, bordered by b,
    is the forward solve.  Its products are matrix-vector products, whose
    rounding, unlike that of LAPACK's threaded factorizations, does not
    depend on the number of BLAS threads.
    """
    n = len(b)
    low = np.zeros((n + 1, n))
    border = np.vstack((a, b))
    for j in range(n):
        v = border[j:, j] - low[j:, :j] @ low[j, :j]
        if not v[0] > 0.0:
            return np.full(n, np.nan)
        low[j:, j] = v / math.sqrt(v[0])
    z = low[n].copy()
    for i in reversed(range(n)):
        z[i] = (z[i] - low[i + 1:n, i] @ z[i + 1:]) / low[i, i]
    return z


def newton_direction(x, g, gamma):
    """Newton step d of the dual at softmax x (nr, nc) with gradient g.

    The Hessian is (M - m m^T) / gamma with M = [[diag(r), x], [x^T, diag(s)]]
    (r, s the row and column sums of x) and m = (r, s) = M (1, 0).  Each block
    of g sums to 0, so M d = -gamma g makes m^T d = 0 and d a Newton step.
    The row block is eliminated (the Schur complement on the columns) and,
    with the last column multiplier fixed, the rest is solved by Cholesky.
    When that system is not positive definite, as when exp(-T/gamma)
    underflows in enough cells to split the matrix into blocks, d is NaN.
    """
    nr = x.shape[0]
    r, s = x.sum(axis=1), x.sum(axis=0)
    rhs = -gamma * g
    with np.errstate(divide="ignore", invalid="ignore"):
        xr = x / r[:, None]
        schur = np.diag(s) - x.T @ xr
        col = rhs[nr:] - xr.T @ rhs[:nr]
        d_col = np.append(_cholesky_solve(schur[:-1, :-1], col[:-1]), 0.0)
        return np.concatenate(((rhs[:nr] - x @ d_col) / r, d_col))


def solve_entropy_od(L, W, T, gamma, eps=1e-8, eps_residual=1e-6,
                     max_iter=100000) -> ElpSolution:
    """Certified OD matrix from marginals L, W and cost matrix T.

    Minimizes the smooth dual and, after each step, certifies the softmax
    at the current point against the dual value there.  It certifies when
    |gap| <= eps and the residual <= eps_residual (both on the unit-mass
    problem); an uncertified run returns the step with the least
    max(|gap|/eps, residual/eps_residual).  The accelerated method runs
    until the residual falls to NEWTON_HANDOVER; damped Newton steps
    (Armijo on the dual value) then finish the solve, each certified the
    same way and counted in the same step budget.  A Newton step that is
    not a descent direction, or that Armijo cuts below NEWTON_MIN_STEP,
    hands the solve back to the accelerated method (a restart from its
    point), which hands over again once the residual is a tenth of the one
    that Newton started from.  The accelerated method restarts from the
    current point, too, when a step does not certify and the dual value
    rose from the previous step.  A tolerance that is not positive and
    finite, a negative max_iter, or an eps whose unit-mass square (the line
    search's slack) is 0 or inf, raises a ValueError before any step.
    """
    _check_budget(max_iter, eps=eps, eps_residual=eps_residual)
    problem = build_elp(L, W, T, gamma)
    oracle = ElpDualOracle(problem)
    prox = EuclideanProx()
    y0 = np.zeros(problem.A.shape[0])
    # tolerances act on the unit-mass problem so the rescaled matrix obeys
    # the caller's residual tolerance
    scale = float(max(problem.mass, 1.0))
    eps_n = float(eps) / scale
    eps_res_n = eps_residual / scale
    if not 0.0 < eps_n * eps_n < math.inf:
        raise ValueError(f"eps out of range, got {eps}: (eps / max(marginal total, 1))**2 "
                         "must be positive and finite")

    best = {"x": None}
    run = {"fx": math.inf, "handover": NEWTON_HANDOVER, "newton_steps": 0}

    def certify(y, fy, report):
        """(residual, certified) of the softmax at y; fy is the dual value there."""
        x = oracle.primal(y)
        gap = fy + primal_value(problem, x)
        res = float(np.linalg.norm(problem.A @ x - problem.b))
        report.gap_trace.append(gap)
        cert = max(abs(gap) / eps_n, res / eps_res_n)
        if best["x"] is None or cert < best["cert"]:
            best.update(x=x, cert=cert, gap=gap, res=res)
        return res, abs(gap) <= eps_n and res <= eps_res_n

    def stop(state):
        # state.fx is the dual value the line search computed at state.x
        res, ok = certify(state.x, state.fx, state.report)
        if ok:
            return "certified"
        if res <= run["handover"]:
            run.update(fx=state.fx, res=res)
            return "finish"
        rose = state.fx > run["fx"]
        run["fx"] = state.fx
        return "restart" if rose else None

    def newton(y, report, budget):
        """Damped Newton steps from y; (point, reason, steps) for umt_minimize."""
        fy = run["fx"]
        for step in range(1, budget + 1):
            _, g = oracle.value_grad(y)  # the softmax at y is held from its value
            report.value_calls += 1
            report.grad_calls += 1
            d = newton_direction(oracle.primal(y).reshape(problem.shape), g, problem.gamma)
            slope = float(g @ d)
            # a step that moves no logit by more than gamma/4 changes the
            # softmax, so the Hessian, by a factor of at most e^(1/2) on its
            # way, and lowers the value by at least (1 - e^(1/2)/2) |slope|:
            # it needs no value test, which rounding spoils near the optimum
            move = float(np.abs(problem.A.T @ d).max())
            t = 1.0
            while slope < 0.0 and t >= NEWTON_MIN_STEP:
                y_t = y + t * d
                f_t = oracle.value(y_t)
                report.value_calls += 1
                if t * move <= 0.25 * problem.gamma or f_t <= fy + ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                run["handover"] = 0.1 * run["res"]
                return y, None, step - 1
            y, fy = y_t, f_t
            run["newton_steps"] += 1
            report.value_trace.append(fy)
            if certify(y, fy, report)[1]:
                return y, "certified_newton", step
        return y, "max_iter", budget

    # when the Newton steps hand back for good, the accelerated method must
    # finish alone.  Its last iterate's gap is <y, b - A x(y)>, so |gap| <=
    # eps_n needs the dual solved far past eps_n; at a line-search slack of
    # eps_n each restart's step 0 (slack eps_n/2) undoes what the leg gained,
    # and small gamma solves stall short of the certificate
    y, rep = umt_minimize(oracle, prox, y0, eps_n * eps_n, mu=0.0, max_iter=max_iter,
                          stop=stop, finish=newton)
    return ElpSolution(
        matrix=(best["x"] * problem.mass).reshape(problem.shape),
        potentials=y,
        gap=best["gap"] * problem.mass,
        residual=best["res"] * problem.mass,
        gamma=float(gamma),
        converged=rep.termination in ("certified", "certified_newton"),
        newton_steps=run["newton_steps"],
        solver=rep,
    )


BALANCE_TOL = 1e-12  # unit-mass row-sum tolerance of balancing_oracle
BALANCE_SWEEPS = 100000  # sweeps balancing_oracle takes before it gives up


def balancing_oracle(L, W, T, gamma):
    """Alternating row/column scaling of exp(-T/gamma) to both marginals.

    Independent verification route; returns (matrix, converged).  Like
    build_elp it balances the unit-mass problem (L / sum L, W / sum W) and
    rescales the result by sum L.  It stops when every unit-mass row sum is
    within BALANCE_TOL, and within 1e-9 / sum L: the rescaled matrix is off
    by about the rescaled row error (4.65e-6 at mass 8.3e6 with BALANCE_TOL
    alone), so up to mass 1e7 it stays within 1e-8.  Neither bound is taken
    below 8 ulps of the row's marginal, the rounding of its sum.  Each row's
    least cost, then each column's, is subtracted before exponentiating: the
    scalings absorb both shifts, and every row and column of the kernel
    holds a 1, so none underflows.  The column update makes the column sums
    exact, so each sweep tests the row sums only.  A kernel spanning more
    than the float range is balanced again, from the start, on log scalings.
    """
    L, W = np.asarray(L, dtype=float), np.asarray(W, dtype=float)
    p, q = L / L.sum(), W / W.sum()
    bound = np.maximum(min(BALANCE_TOL, 1e-9 / L.sum()), 8.0 * np.spacing(p))
    C = np.asarray(T, dtype=float)
    C = C - C.min(axis=1, keepdims=True)
    log_k = (C - C.min(axis=0, keepdims=True)) / -gamma
    K = np.exp(log_k)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            Kv = K @ np.ones(len(W))
            for _ in range(BALANCE_SWEEPS):
                u = p / Kv
                v = q / (K.T @ u)
                Kv = K @ v  # the convergence test's product is the next sweep's
                if converged := bool(np.all(np.abs(u * Kv - p) <= bound)):
                    break
    except FloatingPointError:  # a scaling overflowed or divided by 0
        log_p, log_q, log_rows = np.log(p), np.log(q), np.logaddexp.reduce(log_k, axis=1)
        for _ in range(BALANCE_SWEEPS):
            log_u = log_p - log_rows
            log_v = log_q - np.logaddexp.reduce(log_k + log_u[:, None], axis=0)
            log_rows = np.logaddexp.reduce(log_k + log_v, axis=1)
            if converged := bool(np.all(np.abs(np.exp(log_u + log_rows) - p) <= bound)):
                break
        return np.exp(log_k + log_u[:, None] + log_v) * L.sum(), converged
    return (u[:, None] * K) * v[None, :] * L.sum(), converged

