"""Command-line front end: solve instances, compare scenarios, fit OD matrices.

Exit codes: 0 when every requested certificate was met, 1 on input or
validation errors (usage errors too), a failed --verify or a diverged
or stalled solve, 2 when the budget ran out (best-so-far files are still
written).  Each subcommand takes only the flags and config keys it reads.
All floats are serialized with 17 significant digits so files round-trip
exactly; identical inputs and config give byte-identical output.  Under
every model, the gap that solve prints and compare writes is the answer's
certificate: its per-edge Fenchel terms plus its route term.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

# solve_multistage stays bound here for bench/tracing.py to patch
from .dual import (MODELS, duality_gap, frank_wolfe_gap, model_gammas,  # noqa: F401
                   solve_assignment, solve_multistage)
from .network import NetworkError, ParseError, load_network, text_records
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
    with open(path, encoding="utf-8-sig") as fh:
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
    """Config file supplies defaults; explicit flags win."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in cfg.items():
        if not hasattr(args, key):  # the subcommand has no such flag
            raise ValueError(f"config key {key!r} is not used by {args.command}")
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _gamma_overrides(network, model, gamma_flags):
    """The model's smoothing per level with the LEVEL=VALUE overrides applied, or None."""
    if isinstance(gamma_flags, dict):  # from a config file: {"1": 0.5}
        gamma_flags = [f"{k}={v}" for k, v in sorted(gamma_flags.items())]
    elif not isinstance(gamma_flags, (list, type(None))):
        raise ValueError(f"config key 'gamma' must be per-level overrides, got {gamma_flags!r}")
    if not gamma_flags:
        return None
    gammas = model_gammas(network, model)
    for item in gamma_flags:
        level, _, value = str(item).partition("=")
        try:
            k, v = int(level), float(value)
        except ValueError:
            raise ValueError(f"bad gamma override {item!r}; expected level=value") from None
        if not 1 <= k <= network.n_levels:
            raise ValueError(f"gamma override for missing level {k}")
        gammas[k - 1] = v
    return gammas


def _out_dir(args):
    out = args.out or os.environ.get("EQUIFLOW_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, *blocks):
    """The float-format line, the header, then the rows of each block:
    (row %-format, list of row tuples), the format filled once per block."""
    body = "".join([layout * len(rows) % tuple(itertools.chain.from_iterable(rows))
                    for layout, rows in blocks])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# floats formatted {FLOAT_FMT}\n{header}\n{body}")


def _summary_dict(report):
    return {
        "model": report.model,
        "eps": fmt(report.eps),
        "eps_residual": fmt(report.eps_residual),
        "converged": report.converged,
        "iterations": report.solver.iterations,
        "restarts": report.solver.restarts,
        "stop_reason": report.solver.termination,
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
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _potential_rows(network, report):
    weights = effective_weights(network, report.t, report.gammas)
    lg = network.levels[0]
    origins = network.origins()
    u, _ = _sweep_forward(lg, weights[0], origins, report.gammas[0], lg.n_vertices - 1)
    return [(o, v, x) for o, column in zip(origins, u.T.tolist()) for v, x in enumerate(column)]


def _solver_kwargs(args):
    """The tolerances and budget the user set; the solver's defaults fill the rest
    and the solver checks them."""
    given = {"eps": args.eps, "eps_residual": args.eps_residual, "max_iter": args.max_iter}
    return {k: v for k, v in given.items() if v is not None}


def _solve_one(network, args):
    model = args.model or ("multistage" if network.n_levels > 1 else "beckmann")
    gammas = _gamma_overrides(network, model, args.gamma)
    return solve_assignment(network, model=model, gammas=gammas, **_solver_kwargs(args))


def cmd_solve(args) -> int:
    """Solve one instance and write its files; --verify rechecks the gap.

    The recheck recomputes the gap from the written times and flows, the
    Frank-Wolfe route term of beckmann and beckmann_md included.  An
    averaged answer's route term (`route_gap`, a Jensen bound) is taken as
    reported, and the printed line says so.
    """
    network = load_network(args.instance)
    report = _solve_one(network, args)
    out = _out_dir(args)
    # (t, flow, gap, multiplier) of each plain edge, level after level; a
    # level's zip with its edges takes exactly its own cells
    cells = zip(*(a.tolist() for a in (report.t, report.flows.plain_flat(),
                                        report.per_edge_gap, report.multipliers)))
    blocks = []
    for k, (lg, nested) in enumerate(zip(network.levels, report.flows.nested), start=1):
        blocks += [("%s,%s,%s,%s,%.17g,%.17g,%.17g,%.17g\n",
                    [(k, j, tail, head, *c) for j, ((tail, head, _), c)
                     in enumerate(zip(lg.plain_edges, cells))]),
                   ("%s,n%s,%s,%s,,%.17g,,\n",  # nested edges have no t, gap or multiplier
                    [(k, j, tail, head, f) for j, ((tail, head, _), f)
                     in enumerate(zip(lg.nested_edges, nested.tolist()))])]
    _write_csv(os.path.join(out, "solution.csv"), "level,edge,tail,head,t,flow,gap,multiplier",
               *blocks)
    _write_json(os.path.join(out, "summary.json"), _summary_dict(report))
    if args.trace:
        rep = report.solver
        _write_csv(os.path.join(out, "trace.csv"), "iter,value,lipschitz,gap,trials",
                   ("%s,%.17g,%.17g,%.17g,%s\n", [(i, *row) for i, row in enumerate(zip(
                       rep.value_trace, rep.lipschitz_trace, rep.gap_trace, rep.trial_trace))]))
    if args.dump_potentials:
        _write_csv(os.path.join(out, "potentials.csv"), "origin,vertex,potential",
                   ("%s,%s,%.17g\n", _potential_rows(network, report)))
    hard = not math.isnan(report.fw_gap)  # beckmann and beckmann_md: fw_gap is the route term
    if args.verify:
        flows = report.flows.plain_flat()
        route = frank_wolfe_gap(network, flows) if hard else report.route_gap
        total = duality_gap(network, report.t, flows)[1] + route
        ok = math.isclose(total, report.total_gap, rel_tol=1e-12, abs_tol=1e-15)
        unchecked = (f"; route-choice term {fmt(route)} taken as reported"
                     if route > 0 and not hard else "")
        print(f"verification {'PASS' if ok else 'FAIL'}: recomputed gap {fmt(total)}{unchecked}")
        if not ok:
            return 1
    fw = f" fw_gap={fmt(report.fw_gap)}" if hard else ""
    print(f"{'certified' if report.converged else 'uncertified'} "
          f"gap={fmt(report.total_gap)}{fw} total_time={fmt(report.total_time)}")
    return 0 if report.converged else 2


def cmd_compare(args) -> int:
    networks = [load_network(instance) for instance in args.instances]
    if any(set(n.demands) != set(networks[0].demands) for n in networks[1:]):
        raise ValueError("scenarios do not share the same OD set")
    rows = []
    all_ok = True
    for instance, network in zip(args.instances, networks):
        report = _solve_one(network, args)
        name = os.path.splitext(os.path.basename(instance))[0]
        rows.append({
            "scenario": name,
            "total_time": report.total_time,
            "total_gap": report.total_gap,
            "converged": report.converged,
        })
        all_ok &= report.converged
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
    _write_csv(os.path.join(out, "comparison.csv"), "rank,scenario,total_time,total_gap,converged",
               ("%s,%s,%.17g,%.17g,%s\n",
                [(rank, r["scenario"], r["total_time"], r["total_gap"], int(r["converged"]))
                 for rank, r in enumerate(ranking, start=1)]))
    print("ranking: " + " < ".join(r["scenario"] for r in ranking))
    return 0 if all_ok else 2


def _csv_records(path, n_ids):
    """(line number, integer ids, value) per record of a comma-separated file.

    The reference reader, and the one that words every line-numbered error.
    """
    for lineno, line in text_records(path):
        fields = line.split(",")
        try:
            ids = tuple(int(x) for x in fields[:-1])
            value = float(fields[-1])
        except ValueError:
            ids = None
        if ids is None or len(ids) != n_ids:
            what = "a zone id" if n_ids == 1 else f"{n_ids} integer ids"
            raise ParseError(path, lineno, f"expected {what} and a value, got {line!r}")
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"value must be finite, got {value}")
        yield lineno, ids, value


def _bulk_records(path, n_ids):
    """One id array per id column and the value array of a file, parsed in one
    pass; None when numpy rejects or warns on the file or a value is not
    finite, so that the reference reader words the error.  Whitespace-only
    lines, which numpy reads as a one-field record, reach it blank."""
    dtype = [(f"id{k}", np.intp) for k in range(n_ids)] + [("value", float)]
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            lines = ("\n" if line.isspace() else line for line in fh)
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments="#", ndmin=1)
        except (ValueError, Warning):
            return None
    if not np.isfinite(table["value"]).all():
        return None
    return [table[f"id{k}"] for k in range(n_ids)], table["value"]


def _positions(zones, ids):
    """Each id's position in the ascending, nonempty `zones`, or None when one is missing."""
    zones = np.asarray(zones)
    at = np.minimum(np.searchsorted(zones, ids), len(zones) - 1)
    return at if (zones[at] == ids).all() else None


def _read_marginal_csv(path):
    """Zone ids in ascending order and their marginals; a file without a
    record is an error."""
    bulk = _bulk_records(path, 1)
    if bulk is not None:
        (zones,), values = bulk
        order = np.argsort(zones)
        zones = zones[order]
        if not (zones[1:] == zones[:-1]).any():
            return zones.tolist(), values[order]
    values = {}
    for lineno, (zone,), v in _csv_records(path, 1):
        if zone in values:
            raise ParseError(path, lineno, f"duplicate zone {zone}")
        values[zone] = v
    if not values:
        raise ParseError(path, None, "no zone records")
    zones = sorted(values)
    return zones, np.array([values[z] for z in zones])


def _read_cost_csv(path, rows, cols):
    """Cost matrix over the marginal files' zones; every pair needs one entry."""
    bulk = _bulk_records(path, 2)
    if bulk is not None:
        (i, j), values = bulk
        r, c = _positions(rows, i), _positions(cols, j)
        if r is not None and c is not None:
            cell = r * len(cols) + c
            if (np.bincount(cell, minlength=len(rows) * len(cols)) == 1).all():
                T = np.empty((len(rows), len(cols)))
                T.flat[cell] = values
                return T
    row_at = {z: k for k, z in enumerate(rows)}
    col_at = {z: k for k, z in enumerate(cols)}
    T = np.zeros((len(rows), len(cols)))
    seen = np.zeros(T.shape, dtype=bool)
    for lineno, (i, j), v in _csv_records(path, 2):
        if i not in row_at or j not in col_at:
            raise ParseError(path, lineno,
                             f"zone pair {i},{j} is not in the row and column marginal files")
        r, c = row_at[i], col_at[j]
        if seen[r, c]:
            raise ParseError(path, lineno, f"duplicate zone pair {i},{j}")
        T[r, c] = v
        seen[r, c] = True
    if not seen.all():
        r, c = np.argwhere(~seen)[0]
        raise ParseError(path, None, f"no cost for zone pair {rows[r]},{cols[c]} "
                                     f"({int((~seen).sum())} of {seen.size} pairs missing)")
    return T


def cmd_od(args) -> int:
    rows, L = _read_marginal_csv(args.rows)
    cols, W = _read_marginal_csv(args.cols)
    T = _read_cost_csv(args.costs, rows, cols)
    gamma = args.gamma if args.gamma is not None else 1.0
    if not isinstance(gamma, (int, float)):  # a config file's per-level overrides
        raise ValueError(f"config key 'gamma' must be a number for od, got {gamma!r}")
    sol = solve_entropy_od(L, W, T, gamma, **_solver_kwargs(args))
    out = _out_dir(args)
    _write_csv(os.path.join(out, "matrix.csv"), "row,col,value",
               ("%s,%s,%.17g\n", [(r, c, x) for r, row in zip(rows, sol.matrix.tolist())
                                   for c, x in zip(cols, row)]))
    _write_json(os.path.join(out, "certificate.json"), {
        "gamma": fmt(sol.gamma),
        "gap": fmt(sol.gap),
        "residual": fmt(sol.residual),
        "converged": sol.converged,
        "iterations": sol.solver.iterations,
        "newton_steps": sol.newton_steps,
        "restarts": sol.solver.restarts,
        "stop_reason": sol.solver.termination,
    })
    if args.verify:
        ref, ok = balancing_oracle(L, W, T, gamma)
        err = float(np.abs(ref - sol.matrix).max())
        passed = ok and err <= 1e-6
        unbalanced = "" if ok else "; balancing did not converge"
        print(f"verification {'PASS' if passed else 'FAIL'}: max deviation {fmt(err)}{unbalanced}")
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


@functools.cache
def _parser():
    """The parser, built on the first call rather than at import: parsing
    leaves it as it was, so every call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except (NetworkError, ValueError, OSError, json.JSONDecodeError,
            DivergedOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
