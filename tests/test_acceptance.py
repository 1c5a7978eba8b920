"""Acceptance checks: one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see every line; each
test evaluates its criterion, prints the verdict, then asserts it.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.optimize

import equiflow
from equiflow import (
    DualOracle,
    EdgeCostModel,
    EuclideanProx,
    FunctionOracle,
    LevelGraph,
    Network,
    SmoothOracle,
    assignment_flows,
    balancing_oracle,
    dual_value_grad,
    mirror_descent_constrained,
    restart_wrapper,
    softmin_flows,
    solve_assignment,
    solve_entropy_od,
    solve_multistage,
    stochastic_origin_oracle,
    umt_minimize,
    umt_stochastic,
)
from equiflow.cli import main

from conftest import (
    BRAESS_BASE_INSTANCE,
    BRAESS_SHORTCUT_INSTANCE,
    enumerate_walks,
    edge_integral,
    enumerated_softmin,
    random_network,
    write_instance,
)
from test_solvers import abs_oracle, chain_oracle


def verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_gradient_fidelity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        m = 1 + i % 2
        gamma = (0.1, 1.0)[(i // 2) % 2]
        net = random_network(rng, m=m, gamma=gamma)
        t = net.free_flow_times() + rng.uniform(0.1, 0.8, size=net.n_times)
        value, flow = assignment_flows(net, t)
        flat = flow.plain_flat()
        h = 1e-5
        for e in range(net.n_times):
            tp, tm = t.copy(), t.copy()
            tp[e] += h
            tm[e] -= h
            vp, _ = assignment_flows(net, tp)
            vm, _ = assignment_flows(net, tm)
            fd = (vp - vm) / (2 * h)
            worst = max(worst, abs(fd - flat[e]) / max(1.0, abs(flat[e])))
    elapsed = time.perf_counter() - start
    verdict(1, "gradient fidelity", worst <= 1e-6 and elapsed < 10.0)


def test_criterion_02_enumeration_oracle():
    worst = 0.0
    fixtures = 0
    seed = 0
    while fixtures < 20:
        seed += 1
        rng = np.random.default_rng(200 + seed)
        net = random_network(rng, m=1)
        lg = net.levels[0]
        hops = lg.n_vertices - 1
        walks = enumerate_walks(lg, 0, lg.n_vertices - 1, hops)
        if not walks or len(walks) > 200:
            continue
        fixtures += 1
        w = rng.uniform(0.2, 2.0, size=lg.n_edges)
        gamma = 0.7
        value, flows = softmin_flows(lg, w, {(0, lg.n_vertices - 1): 1.0}, gamma, hops)
        ev, ef = enumerated_softmin(lg, w, 0, lg.n_vertices - 1, gamma, hops)
        worst = max(worst, abs(value - ev), float(np.abs(flows - ef).max()))
    verdict(2, "enumeration oracle", worst <= 1e-10)


def test_criterion_03_classical_equilibria(tmp_path, pigou_network):
    start = time.perf_counter()
    rep = solve_assignment(pigou_network, model="beckmann", eps=1e-9)
    f = rep.flows.plain_flat()
    pigou_ok = (rep.converged and abs(f[0]) <= 1e-4 and abs(f[1] - 1.0) <= 1e-4
                and time.perf_counter() - start < 5.0)

    start = time.perf_counter()
    base = write_instance(tmp_path / "base.net", BRAESS_BASE_INSTANCE)
    shortcut = write_instance(tmp_path / "shortcut.net", BRAESS_SHORTCUT_INSTANCE)
    out = str(tmp_path / "out")
    code = main(["compare", shortcut, base, "--model", "beckmann",
                 "--eps", "1e-9", "--out", out])
    payload = json.load(open(os.path.join(out, "comparison.json"), encoding="utf-8"))
    times = {r["scenario"]: float(r["total_time"]) for r in payload["scenarios"]}
    braess_ok = (code == 0
                 and abs(times["shortcut"] - 2.0) <= 1e-4
                 and abs(times["base"] - 1.5) <= 1e-4
                 and payload["ranking"] == ["base", "shortcut"]
                 and time.perf_counter() - start < 5.0)
    verdict(3, "classical equilibria", pigou_ok and braess_ok)


def test_criterion_04_stable_dynamics_certificates(sd_two_link):
    eps = eps_res = 1e-6
    rep = solve_assignment(sd_two_link, model="stable_dynamics",
                           eps=eps, eps_residual=eps_res)
    lip = max(rep.solver.lipschitz_trace)
    radius = 1.0  # optimal times (2, 2) from the start (1, 2)
    budget = 6.0 * max(math.sqrt(lip * radius ** 2 / eps),
                       math.sqrt(lip / eps_res) * radius)
    ok = (rep.converged
          and rep.total_gap <= eps
          and rep.capacity_violation <= eps_res
          and rep.complementarity <= 1e-5
          and rep.solver.iterations <= budget)
    verdict(4, "stable dynamics certificates", ok)


def test_criterion_05_regime_scaling():
    epss = [1e-2, 1e-3, 1e-4]

    def slope_for(oracle, x0, r2):
        iters = []
        for eps in epss:
            _, rep = umt_minimize(oracle, EuclideanProx(), x0, eps=eps, r2=r2)
            iters.append(max(rep.iterations, 1))
        return np.polyfit(np.log10(epss), np.log10(iters), 1)[0]

    s_nonsmooth = slope_for(abs_oracle(), np.array([0.02]), 0.5 * 0.02 ** 2)
    oracle, r2 = chain_oracle(800, 0.1)
    s_smooth = slope_for(oracle, np.zeros(800), r2)
    ok = abs(s_nonsmooth - (-2.0)) <= 0.3 and abs(s_smooth - (-0.5)) <= 0.3
    verdict(5, "regime scaling", ok)


def test_criterion_06_restart_geometry():
    diag = np.array([0.01, 0.05, 0.2, 1.0])
    oracle = FunctionOracle(
        lambda x: 0.5 * float(x @ (diag * x)),
        lambda x: diag * x,
    )
    x0 = np.ones(4)
    mu = 0.01
    values = []
    restart_wrapper(oracle, EuclideanProx(), x0, mu=mu, lipschitz=1.0,
                    eps=1e-14, restarts=6,
                    callback=lambda leg, p, r: values.append(r.final_value))
    r0_sq = float(x0 @ x0)
    ok = len(values) >= 6
    prev = mu * r0_sq / 2.0  # guaranteed gap entering the first leg
    for v in values[:6]:
        # each restart halves the guaranteed gap; allow factor-2 slack
        ok &= v <= 2.0 * 0.5 * prev + 1e-15
        prev = 0.5 * prev
    verdict(6, "restart geometry", ok)


def test_criterion_07_mirror_descent():
    # minimize x1 + 2 x2 on the unit box subject to x1 + x2 >= 1
    eps, m_f, m_g = 0.05, 3.0, 1.5
    c = np.array([1.0, 2.0])
    radius_sq = 0.5  # from the box center
    n_steps = math.ceil(2.0 * m_g ** 2 * radius_sq / eps ** 2) + 1
    grid = np.linspace(0.0, 1.0, 501)
    xx, yy = np.meshgrid(grid, grid)
    feasible = 1.0 - xx - yy <= 0.0
    f_star = (xx + 2.0 * yy)[feasible].min()
    prox = EuclideanProx(lower=np.zeros(2), upper=np.ones(2))
    f_gaps, g_vals = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xb, rep = mirror_descent_constrained(
            lambda x, r: c + r.uniform(-0.5, 0.5, size=2),
            prox, eps=eps, M_f=m_f, M_g=m_g, N=n_steps,
            x0=np.full(2, 0.5),
            g_value=lambda x: 1.0 - x[0] - x[1],
            g_grad=lambda x, r: np.array([-1.0, -1.0]),
            rng=rng,
        )
        f_gaps.append(float(c @ xb) - f_star)
        g_vals.append(1.0 - xb[0] - xb[1])
    ok = (np.mean(f_gaps) <= (m_f / m_g) * eps and np.mean(g_vals) <= eps)
    verdict(7, "mirror descent", ok)


def test_criterion_08_entropy_od():
    ok = True
    for size, seed in ((3, 81), (10, 88)):
        rng = np.random.default_rng(seed)
        L = rng.uniform(0.5, 2.0, size=size)
        W = rng.uniform(0.5, 2.0, size=size)
        W *= L.sum() / W.sum()
        T = rng.uniform(0.0, 3.0, size=(size, size))
        start = time.perf_counter()
        sol = solve_entropy_od(L, W, T, 0.5, eps=1e-11, eps_residual=1e-7)
        elapsed = time.perf_counter() - start
        ref, balanced = balancing_oracle(L, W, T, 0.5)
        ok &= (sol.converged and balanced
               and np.abs(sol.matrix - ref).max() <= 1e-6
               and sol.residual <= 1e-6
               and elapsed < 5.0)
    verdict(8, "entropy OD", ok)


def _multistage_toy():
    inner = LevelGraph(4, plain_edges=[
        (0, 1, EdgeCostModel("bpr", 1.0, 1.0, 1.0, 1.0)),
        (0, 1, EdgeCostModel("bpr", 1.5, 1.0, 1.0, 1.0)),
        (2, 3, EdgeCostModel("bpr", 1.0, 1.0, 2.0, 1.0)),
        (2, 3, EdgeCostModel("bpr", 2.0, 1.0, 1.0, 1.0)),
    ], gamma=1.0)
    outer = LevelGraph(2, plain_edges=[
        (0, 1, EdgeCostModel("bpr", 2.2, 1.0, 0.0, 1.0)),
    ], nested_edges=[(0, 1, (0, 1)), (0, 1, (2, 3))], gamma=1.0)
    return Network([outer, inner], {(0, 1): 1.0})


def _toy_primal(net, z):
    """Explicit path objective over route logits z (3 outer + 2 inner splits)."""
    x = np.exp(z[:3] - z[:3].max())
    x = x / x.sum()                    # outer routes: fixed, nested A, nested B
    sa = 1.0 / (1.0 + math.exp(-z[3]))  # split of route A inside level 2
    sb = 1.0 / (1.0 + math.exp(-z[4]))
    y = np.array([x[1] * sa, x[1] * (1 - sa), x[2] * sb, x[2] * (1 - sb)])
    models = net.levels[1].plain_edges
    val = 2.2 * x[0] + sum(edge_integral(m, y[i]) for i, (_, _, m) in enumerate(models))
    # route entropies, each relative to the demand feeding its level
    val += sum(v * math.log(v) for v in x if v > 0)
    for j, splits in ((1, (sa, 1 - sa)), (2, (sb, 1 - sb))):
        for s in splits:
            if s > 0 and x[j] > 0:
                val += x[j] * s * math.log(s)
    return val


def test_criterion_09_multistage_consistency():
    net = _multistage_toy()
    rep = solve_multistage(net, eps=1e-7)
    dual_at_solution = DualOracle(net, rep.gammas).value(rep.t)
    best = math.inf
    for seed in range(8):
        rng = np.random.default_rng(seed)
        res = scipy.optimize.minimize(lambda z: _toy_primal(net, z),
                                      rng.normal(size=5), method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-12,
                                               "maxiter": 20000})
        best = min(best, res.fun)
    # strong duality: the primal minimum equals minus the dual minimum
    gap = abs(best - (-dual_at_solution))
    verdict(9, "multistage consistency", rep.converged and gap <= 1e-5)


class _ExactStochastic(SmoothOracle):
    """Quadratic whose stochastic gradient is exact (variance 0)."""

    variance_bound = 0.0

    def value(self, x):
        return 0.5 * float(x @ x)

    def value_grad(self, x):
        return self.value(x), np.asarray(x, dtype=float)

    def stochastic_grad(self, x, rng, batch):
        return np.asarray(x, dtype=float)


def test_criterion_10_stochastic_unbiasedness():
    lg = LevelGraph(3, plain_edges=[
        (0, 2, EdgeCostModel("bpr", 1.0, 1.0, 0.5, 0.5)),
        (0, 1, EdgeCostModel("bpr", 0.5, 2.0, 0.3, 1.0)),
        (1, 2, EdgeCostModel("bpr", 1.0, 1.0, 0.4, 0.25)),
    ])
    net = Network([lg], {(0, 2): 1.0, (1, 2): 2.0})
    t = net.free_flow_times() + 0.3
    _, grad, _ = dual_value_grad(net, t)
    origins = net.origins()
    weights = np.array([sum(d for (o, _), d in net.demands.items() if o == org)
                        for org in origins])
    probs = weights / weights.sum()
    rng = np.random.default_rng(0)
    n = 10000
    draws = np.empty((n, net.n_times))
    for i in range(n):
        o = origins[rng.choice(len(origins), p=probs)]
        draws[i] = stochastic_origin_oracle(net, t, [o])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    unbiased = bool(np.all(np.abs(mean - grad) <= 3 * se + 1e-12))

    oracle = _ExactStochastic()
    xs, rs = umt_stochastic(oracle, EuclideanProx(), np.ones(4), eps=1e-8,
                            seed=5, r2=2.0)
    xd, rd = umt_minimize(oracle, EuclideanProx(), np.ones(4), eps=1e-8, r2=2.0)
    identical = (np.array_equal(xs, xd) and rs.value_trace == rd.value_trace
                 and rs.alpha_trace == rd.alpha_trace)
    verdict(10, "stochastic unbiasedness", unbiased and identical)


def test_criterion_11_cli_determinism(tmp_path):
    inst = write_instance(tmp_path / "braess.net", BRAESS_SHORTCUT_INSTANCE)
    costs = tmp_path / "costs.csv"
    costs.write_text("0,0,0.3\n0,1,1.2\n1,0,0.8\n1,1,0.1\n", encoding="utf-8")
    rows = tmp_path / "rows.csv"
    rows.write_text("0,2.0\n1,1.0\n", encoding="utf-8")
    cols = tmp_path / "cols.csv"
    cols.write_text("0,1.5\n1,1.5\n", encoding="utf-8")
    # OpenBLAS reads its thread count once, when numpy loads: each side runs
    # its CLI calls in interpreters of its own
    src = os.path.dirname(os.path.dirname(equiflow.__file__))
    blobs = []
    for run, threads in (("a", "1"), ("b", "4")):
        out = str(tmp_path / run)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv in (["solve", inst, "--model", "beckmann", "--eps", "1e-9", "--trace"],
                     ["od", str(costs), str(rows), str(cols), "--gamma", "0.5"]):
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from equiflow.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv, "--out", out],
                env=env, capture_output=True, text=True, timeout=300, encoding="utf-8")
            assert done.returncode == 0, done.stderr
        files = {}
        for name in ("solution.csv", "summary.json", "trace.csv",
                     "matrix.csv", "certificate.json"):
            files[name] = open(os.path.join(out, name), "rb").read()
        blobs.append(files)
    verdict(11, "CLI determinism", blobs[0] == blobs[1])
