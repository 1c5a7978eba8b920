"""Seeded instance generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data; the files
the CLI reads are written by `write_*`.  Nothing here imports equiflow, so
the program under test sees only the generated files.
"""

from __future__ import annotations

import math

FMT = "%.17g"


def grid_edges(k):
    """Directed edges of a k x k grid, both directions of every link."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges += [(v, v + 1), (v + 1, v)]
            if r + 1 < k:
                edges += [(v, v + k), (v + k, v)]
    return edges


def od_pairs(rng, n, count):
    """`count` distinct ordered pairs of distinct vertices, sorted."""
    pairs = set()
    while len(pairs) < count:
        o, d = rng.randrange(n), rng.randrange(n)
        if o != d:
            pairs.add((o, d))
    return sorted(pairs)


def bpr_record(rng, powers):
    """(t_free, capacity, gain, power) of one congestible edge."""
    return (rng.uniform(1.0, 2.0), rng.uniform(1.0, 3.0), rng.uniform(0.5, 1.0),
            rng.choice(powers))


def split_demand(rng, pairs, total):
    """Demands on `pairs` with random shares of a fixed total."""
    shares = [rng.uniform(0.5, 2.0) for _ in pairs]
    return [(o, d, total * x / sum(shares)) for (o, d), x in zip(pairs, shares)]


def grid_stochastic(rng, k=6, n_od=8):
    """BPR grid with mixed powers, gamma 1, default hop bound."""
    edges = grid_edges(k)
    recs = [(u, v, "bpr", bpr_record(rng, (0.25, 0.5, 1.0))) for u, v in edges]
    demands = split_demand(rng, od_pairs(rng, k * k, n_od), float(n_od))
    return {"levels": {1: recs}, "demands": demands, "gammas": {1: 1.0}}


def capacity_mixed(rng, k=4, open_row=0, sd_share=0.3, cut=0.45, total=0.5):
    """BPR grid with about 30% hard-capacity (SD) edges, some of them binding.

    Each vertex of the left column sends demand to the vertex of the right
    column in its row.  The rightward links across the middle of the grid
    are SD edges whose capacity (`cut` of an even share of the demand) must
    bind, except the one in `open_row`, a BPR edge that keeps the instance
    feasible.  The other SD edges get capacities above the total demand and
    never bind.
    """
    edges = grid_edges(k)
    demands = split_demand(rng, [(r * k, r * k + k - 1) for r in range(k)], total)
    mid = k // 2 - 1
    crossing = [e for e, (u, v) in enumerate(edges) if u % k == mid and v == u + 1]
    binding = [e for r, e in enumerate(crossing) if r != open_row]
    others = [e for e in range(len(edges)) if e not in crossing]
    loose = rng.sample(others, max(0, round(sd_share * len(edges)) - len(binding)))
    recs = []
    for e, (u, v) in enumerate(edges):
        t_free, cap, gain, power = bpr_record(rng, (0.25, 0.5, 1.0))
        if e in binding:
            recs.append((u, v, "sd", (t_free, total / k * cut)))
        elif e in loose:
            recs.append((u, v, "sd", (t_free, total * rng.uniform(1.0, 2.0))))
        else:
            recs.append((u, v, "bpr", (t_free, cap, gain, power)))
    return {"levels": {1: recs}, "demands": demands, "gammas": {1: 0.1}}


def nested_multistage(rng, k=5, zones=6, n_nested=8, n_od=8):
    """Ring of zones whose shortcuts are priced by OD pairs of a BPR grid."""
    ring = []
    for z in range(zones):
        for u, v in ((z, (z + 1) % zones), ((z + 1) % zones, z)):
            ring.append((u, v, "bpr", bpr_record(rng, (0.5, 1.0))))
    nested = []
    for u, v in od_pairs(rng, zones, n_nested):
        o, d = od_pairs(rng, k * k, 1)[0]
        nested.append((u, v, "nested", (o, d)))
    inner = [(u, v, "bpr", bpr_record(rng, (0.5, 1.0))) for u, v in grid_edges(k)]
    demands = split_demand(rng, od_pairs(rng, zones, n_od), float(n_od))
    return {"levels": {1: ring + nested, 2: inner}, "demands": demands,
            "gammas": {1: 0.5, 2: 0.5}}


def od_entropy(rng, n):
    """Euclidean costs between n zones and positive balanced marginals."""
    pts = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)) for _ in range(n)]
    costs = [[math.dist(p, q) for q in pts] for p in pts]
    rows = [rng.uniform(1.0, 10.0) for _ in range(n)]
    cols = [rng.uniform(1.0, 10.0) for _ in range(n)]
    scale = sum(rows) / sum(cols)
    cols = [c * scale for c in cols]
    return {"costs": costs, "rows": rows, "cols": cols}


def write_network(path, inst):
    with open(path, "w", encoding="utf-8") as fh:
        for level, recs in sorted(inst["levels"].items()):
            for u, v, kind, params in recs:
                if kind == "nested":
                    fh.write(f"{level} {u} {v} nested {params[0]}:{params[1]}\n")
                else:
                    fh.write(f"{level} {u} {v} {kind} " + " ".join(FMT % x for x in params) + "\n")
        for o, d, dem in inst["demands"]:
            fh.write(f"od 1 {o} {d} {FMT % dem}\n")
        for level, g in sorted(inst["gammas"].items()):
            fh.write(f"gamma {level} {FMT % g}\n")


def write_od(prefix, inst):
    """Write COSTS, ROWS and COLS CSVs; returns their three paths."""
    paths = [f"{prefix}_costs.csv", f"{prefix}_rows.csv", f"{prefix}_cols.csv"]
    with open(paths[0], "w", encoding="utf-8") as fh:
        for i, row in enumerate(inst["costs"]):
            for j, c in enumerate(row):
                fh.write(f"{i},{j},{FMT % c}\n")
    for path, vals in zip(paths[1:], (inst["rows"], inst["cols"])):
        with open(path, "w", encoding="utf-8") as fh:
            for i, x in enumerate(vals):
                fh.write(f"{i},{FMT % x}\n")
    return paths
