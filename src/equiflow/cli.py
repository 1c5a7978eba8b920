"""Command-line front end: solve instances, compare scenarios, fit OD matrices.

Exit codes: 0 when every requested certificate was met, 1 on input or
validation errors (usage errors too), a failed --verify or a diverged
or stalled solve, 2 when the budget ran out (best-so-far files are still
written).  Each subcommand takes only the flags and config keys it reads.
All floats are serialized with 17 significant digits so files round-trip
exactly; identical inputs and config give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# solve_multistage stays bound here for bench/tracing.py to patch
from .dual import MODELS, duality_gap, solve_assignment, solve_multistage  # noqa: F401
from .network import NetworkError, load_network
from .od import balancing_oracle, solve_entropy_od
from .solvers import DivergedOracleError
# hard_shortest and softmin_potentials stay bound here for bench/tracing.py to patch
from .softmin import _sweep_forward, effective_weights, hard_shortest, softmin_potentials  # noqa: F401

FLOAT_FMT = "%.17g"


def fmt(x) -> str:
    return FLOAT_FMT % float(x)


# JSON types of the config keys; bool passes only where it is listed
CONFIG_TYPES = {
    "model": str, "eps": (int, float), "eps_residual": (int, float),
    "gamma": (dict, list, int, float), "max_iter": int,
    "out": str, "trace": bool, "verify": bool, "dump_potentials": bool,
}


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    unknown = set(cfg) - CONFIG_TYPES.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        types = CONFIG_TYPES[key]
        if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
            names = [t.__name__ for t in (types if isinstance(types, tuple) else (types,))]
            raise ValueError(f"config key {key!r} must be {' or '.join(names)}, got {value!r}")
    return cfg


def _merge_config(args):
    """Config file supplies defaults; explicit flags win; checks the budget."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in cfg.items():
        if not hasattr(args, key):  # the subcommand has no such flag
            raise ValueError(f"config key {key!r} is not used by {args.command}")
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.max_iter is not None and args.max_iter < 0:
        raise ValueError(f"--max-iter must be nonnegative, got {args.max_iter}")
    return args


def _gamma_overrides(network, gamma_flags):
    if isinstance(gamma_flags, dict):  # from a config file: {"1": 0.5}
        gamma_flags = [f"{k}={v}" for k, v in sorted(gamma_flags.items())]
    elif not isinstance(gamma_flags, (list, type(None))):
        raise ValueError(f"config key 'gamma' must be per-level overrides, got {gamma_flags!r}")
    gammas = list(network.gammas())
    for item in gamma_flags or []:
        level, _, value = str(item).partition("=")
        try:
            k = int(level)
            v = float(value)
        except ValueError:
            raise ValueError(f"bad gamma override {item!r}; expected level=value") from None
        if not 1 <= k <= network.n_levels:
            raise ValueError(f"gamma override for missing level {k}")
        if not 0 <= v < math.inf:
            raise ValueError(f"gamma override for level {k} must be finite and "
                             f"nonnegative, got {v}")
        gammas[k - 1] = v
    return gammas


def _out_dir(args):
    out = args.out or os.environ.get("EQUIFLOW_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_solution_csv(path, network, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# floats formatted %.17g\n")
        fh.write("level,edge,tail,head,t,flow,gap,multiplier\n")
        idx = 0
        for k, lg in enumerate(network.levels):
            for j, (tail, head, _) in enumerate(lg.plain_edges):
                fh.write(
                    f"{k + 1},{j},{tail},{head},{fmt(report.t[idx])},"
                    f"{fmt(report.flows.plain[k][j])},{fmt(report.per_edge_gap[idx])},"
                    f"{fmt(report.multipliers[idx])}\n"
                )
                idx += 1
            for j, (tail, head, od) in enumerate(lg.nested_edges):
                fh.write(
                    f"{k + 1},n{j},{tail},{head},,{fmt(report.flows.nested[k][j])},,\n"
                )


def _summary_dict(report):
    return {
        "model": report.model,
        "eps": fmt(report.eps),
        "eps_residual": fmt(report.eps_residual),
        "converged": report.converged,
        "iterations": report.solver.iterations,
        "value_calls": report.solver.value_calls,
        "grad_calls": report.solver.grad_calls,
        "total_gap": fmt(report.total_gap),
        "route_gap": fmt(report.route_gap),
        "fw_gap": None if math.isnan(report.fw_gap) else fmt(report.fw_gap),
        "capacity_violation": fmt(report.capacity_violation),
        "complementarity": fmt(report.complementarity),
        "total_time": fmt(report.total_time),
        "gammas": [fmt(g) for g in report.gammas],
        "shortest_costs": {f"{o}->{d}": fmt(v) for (o, d), v in sorted(report.shortest_costs.items())},
    }


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path, report):
    """One row per iteration."""
    rep = report.solver
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# floats formatted %.17g\n")
        fh.write("iter,value,lipschitz,gap\n")
        for i, row in enumerate(zip(rep.value_trace, rep.lipschitz_trace, rep.gap_trace)):
            fh.write(f"{i},{','.join(map(fmt, row))}\n")


def _write_potentials(path, network, report):
    weights = effective_weights(network, report.t, report.gammas)
    lg = network.levels[0]
    gamma = report.gammas[0]
    origins = network.origins()
    u, _ = _sweep_forward(lg, weights[0], origins, gamma, lg.n_vertices - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# floats formatted %.17g\n")
        fh.write("origin,vertex,potential\n")
        for b, o in enumerate(origins):
            for v in range(lg.n_vertices):
                fh.write(f"{o},{v},{fmt(u[v, b])}\n")


def _tolerance(value, default, flag):
    """A positive, finite tolerance from the command line, or the default."""
    if value is None:
        return default
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be positive and finite, got {value}")
    return value


def _solve_one(instance, args):
    network = load_network(instance)
    gammas = _gamma_overrides(network, args.gamma)
    eps = _tolerance(args.eps, 1e-6, "--eps")
    eps_res = _tolerance(args.eps_residual, None, "--eps-residual")
    max_iter = args.max_iter if args.max_iter is not None else 200000
    model = args.model or ("multistage" if network.n_levels > 1 else "beckmann")
    report = solve_assignment(
        network, model=model, eps=eps, eps_residual=eps_res,
        gammas=gammas if args.gamma else None, max_iter=max_iter,
    )
    return network, report


def cmd_solve(args) -> int:
    network, report = _solve_one(args.instance, args)
    out = _out_dir(args)
    _write_solution_csv(os.path.join(out, "solution.csv"), network, report)
    _write_json(os.path.join(out, "summary.json"), _summary_dict(report))
    if args.trace:
        _write_trace(os.path.join(out, "trace.csv"), report)
    if args.dump_potentials:
        _write_potentials(os.path.join(out, "potentials.csv"), network, report)
    if args.verify:
        # the route-choice bound of averaged flows is part of the certified gap
        total = duality_gap(network, report.t, report.flows)[1] + report.route_gap
        ok = math.isclose(total, report.total_gap, rel_tol=1e-12, abs_tol=1e-15)
        print(f"verification {'PASS' if ok else 'FAIL'}: recomputed gap {fmt(total)}")
        if not ok:
            return 1
    fw = "" if math.isnan(report.fw_gap) else f" fw_gap={fmt(report.fw_gap)}"
    print(f"{'certified' if report.converged else 'uncertified'} "
          f"gap={fmt(report.total_gap)}{fw} total_time={fmt(report.total_time)}")
    return 0 if report.converged else 2


def cmd_compare(args) -> int:
    rows = []
    od_sets = []
    all_ok = True
    for instance in args.instances:
        network, report = _solve_one(instance, args)
        od_sets.append(set(network.demands))
        name = os.path.splitext(os.path.basename(instance))[0]
        rows.append({
            "scenario": name,
            "total_time": report.total_time,
            "total_gap": report.total_gap,
            "converged": report.converged,
        })
        all_ok &= report.converged
    if any(s != od_sets[0] for s in od_sets[1:]):
        raise ValueError("scenarios do not share the same OD set")
    ranking = sorted(rows, key=lambda r: (r["total_time"], r["scenario"]))
    out = _out_dir(args)
    payload = {
        "scenarios": [
            {k: (fmt(v) if isinstance(v, float) else v) for k, v in r.items()}
            for r in rows
        ],
        "ranking": [r["scenario"] for r in ranking],
    }
    _write_json(os.path.join(out, "comparison.json"), payload)
    with open(os.path.join(out, "comparison.csv"), "w", encoding="utf-8") as fh:
        fh.write("# floats formatted %.17g\n")
        fh.write("rank,scenario,total_time,total_gap,converged\n")
        for rank, r in enumerate(ranking, start=1):
            fh.write(f"{rank},{r['scenario']},{fmt(r['total_time'])},"
                     f"{fmt(r['total_gap'])},{int(r['converged'])}\n")
    print("ranking: " + " < ".join(r["scenario"] for r in ranking))
    return 0 if all_ok else 2


def _csv_records(path, n_ids):
    """(line number, integer ids, value) per record of a comma-separated file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                ids = tuple(int(x) for x in fields[:-1])
                value = float(fields[-1])
            except ValueError:
                ids = None
            if ids is None or len(ids) != n_ids:
                raise ValueError(f"{path}: line {lineno}: expected {n_ids} integer ids "
                                 f"and a value, got {line!r}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: value must be finite, got {value}")
            yield lineno, ids, value


def _read_marginal_csv(path):
    """Zone ids in ascending order and their marginals."""
    values = {}
    for lineno, (zone,), v in _csv_records(path, 1):
        if zone in values:
            raise ValueError(f"{path}: line {lineno}: duplicate zone {zone}")
        values[zone] = v
    zones = sorted(values)
    return zones, np.array([values[z] for z in zones])


def _read_cost_csv(path, rows, cols):
    """Cost matrix over the marginal files' zones; every pair needs one entry."""
    row_at = {z: k for k, z in enumerate(rows)}
    col_at = {z: k for k, z in enumerate(cols)}
    T = np.zeros((len(rows), len(cols)))
    seen = np.zeros(T.shape, dtype=bool)
    for lineno, (i, j), v in _csv_records(path, 2):
        if i not in row_at or j not in col_at:
            raise ValueError(f"{path}: line {lineno}: zone pair {i},{j} is not in the "
                             f"row and column marginal files")
        r, c = row_at[i], col_at[j]
        if seen[r, c]:
            raise ValueError(f"{path}: line {lineno}: duplicate zone pair {i},{j}")
        T[r, c] = v
        seen[r, c] = True
    if not seen.all():
        r, c = np.argwhere(~seen)[0]
        raise ValueError(f"{path}: no cost for zone pair {rows[r]},{cols[c]} "
                         f"({int((~seen).sum())} of {seen.size} pairs missing)")
    return T


def cmd_od(args) -> int:
    rows, L = _read_marginal_csv(args.rows)
    cols, W = _read_marginal_csv(args.cols)
    T = _read_cost_csv(args.costs, rows, cols)
    gamma = args.gamma if args.gamma is not None else 1.0
    if not isinstance(gamma, (int, float)):  # a config file's per-level overrides
        raise ValueError(f"config key 'gamma' must be a number for od, got {gamma!r}")
    eps = _tolerance(args.eps, 1e-8, "--eps")
    eps_res = _tolerance(args.eps_residual, 1e-6, "--eps-residual")
    sol = solve_entropy_od(
        L, W, T, gamma, eps=eps, eps_residual=eps_res,
        max_iter=args.max_iter if args.max_iter is not None else 100000,
    )
    out = _out_dir(args)
    with open(os.path.join(out, "matrix.csv"), "w", encoding="utf-8") as fh:
        fh.write("# floats formatted %.17g\n")
        fh.write("row,col,value\n")
        nr, nc = sol.matrix.shape
        for i in range(nr):
            for j in range(nc):
                fh.write(f"{i},{j},{fmt(sol.matrix[i, j])}\n")
    _write_json(os.path.join(out, "certificate.json"), {
        "gamma": fmt(sol.gamma),
        "gap": fmt(sol.gap),
        "residual": fmt(sol.residual),
        "converged": sol.converged,
        "iterations": sol.solver.iterations,
        "dropped_constraint": sol.extra["dropped_constraint"],
        "primal": sol.extra["primal"],
    })
    if args.verify:
        ref, ok = balancing_oracle(L, W, T, gamma)
        err = float(np.abs(ref - sol.matrix).max())
        passed = ok and err <= 1e-6
        print(f"verification {'PASS' if passed else 'FAIL'}: max deviation {fmt(err)}")
        if not passed:
            return 1
    print(f"{'certified' if sol.converged else 'uncertified'} "
          f"gap={fmt(sol.gap)} residual={fmt(sol.residual)}")
    return 0 if sol.converged else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 1 like other input errors; 2 means the budget ran out."""
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="equiflow",
        description="Equilibrium assignment and OD-matrix solvers with gap certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        """Flags every subcommand reads."""
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--eps-residual", dest="eps_residual", type=float, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--out", default=None)

    def routing(p):
        """Flags of the assignment subcommands, solve and compare."""
        p.add_argument("--model", default=None, choices=MODELS)
        p.add_argument("--gamma", action="append", metavar="LEVEL=VALUE", default=None)
        common(p)

    p_solve = sub.add_parser("solve", help="solve one assignment instance")
    p_solve.add_argument("instance")
    routing(p_solve)
    p_solve.add_argument("--verify", action="store_true", default=None)
    p_solve.add_argument("--trace", action="store_true", default=None)
    p_solve.add_argument("--dump-potentials", dest="dump_potentials",
                         action="store_true", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="solve and rank several scenarios")
    p_cmp.add_argument("instances", nargs="+")
    routing(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_od = sub.add_parser("od", help="entropy OD-matrix fit from marginals and costs")
    p_od.add_argument("costs", help="CSV of row,col,cost")
    p_od.add_argument("rows", help="CSV of zone,marginal (row sums)")
    p_od.add_argument("cols", help="CSV of zone,marginal (column sums)")
    p_od.add_argument("--gamma", type=float, default=None)
    common(p_od)
    p_od.add_argument("--verify", action="store_true", default=None)
    p_od.set_defaults(func=cmd_od)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except (NetworkError, ValueError, OSError, json.JSONDecodeError,
            DivergedOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
