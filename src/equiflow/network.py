"""Multilevel transport network: edge cost models, conjugates, instance loading.

A network is an ordered stack of level graphs.  Edges of a level are either
"plain" (they carry a cost model and a travel-time variable) or "nested"
(their cost is the smoothed shortest-path value of an origin-destination
pair one level up).  Demands are attached to level-1 OD pairs only; demands
of deeper levels are induced by the flows on the nested edges that
reference them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

BPR = "bpr"
SD = "sd"


class NetworkError(Exception):
    pass


class ParseError(NetworkError):
    """Malformed input file; carries its path and the 1-based line number,
    or None, and reads "PATH: line N: message" (or "PATH: message")."""

    def __init__(self, path, lineno, message):
        where = f"{path}: " if lineno is None else f"{path}: line {lineno}: "
        super().__init__(where + message)
        self.path = path
        self.lineno = lineno


class ValidationError(NetworkError):
    """Inconsistent instance; lists every violation found, after its file's path if given."""

    def __init__(self, violations, path=None):
        super().__init__(("" if path is None else f"{path}: ") + "; ".join(violations))
        self.violations = list(violations)
        self.path = path


@dataclass(frozen=True)
class EdgeCostModel:
    """Per-edge cost family: BPR power law or its stable-dynamics limit.

    A BPR edge takes t_free * (1 + bpr_gain * (f / capacity) ** bpr_power)
    at flow f: bpr_power is the exponent of f / capacity, and validation
    keeps it in (0, 1].  Nesterov & de Palma (2003) write the exponent as
    1 / mu, so their mu = 0.25 is bpr_power 4, not this default of 0.25.
    """

    kind: str
    t_free: float
    capacity: float = math.inf
    bpr_gain: float = 0.0
    bpr_power: float = 0.25

    def __post_init__(self):
        if self.kind not in (BPR, SD):
            raise ValueError(f"unknown cost kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Cost parameters of every plain edge, as read-only arrays.

    The arrays align with the time vector.  gain is 0 on SD edges.
    smooth marks positive-gain BPR edges, whose conjugate is smooth in t;
    capped marks capacitated SD edges, whose conjugate is linear and
    whose flow is bounded by capacity; pinned marks zero-gain BPR and
    uncapacitated SD edges, whose time stays at t_free.  The methods
    evaluate the cost map, its integral and the integral's conjugate on
    all edges at once.
    """

    t_free: np.ndarray
    capacity: np.ndarray
    gain: np.ndarray
    power: np.ndarray
    is_sd: np.ndarray
    pinned: np.ndarray
    smooth: np.ndarray
    capped: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def of(cls, models: list) -> "EdgeTable":
        gain = np.array([0.0 if m.kind == SD else m.bpr_gain for m in models], dtype=float)
        capacity = np.array([m.capacity for m in models], dtype=float)
        is_sd = np.array([m.kind == SD for m in models], dtype=bool)
        pinned = np.where(is_sd, np.isinf(capacity), gain == 0)
        return cls(
            t_free=np.array([m.t_free for m in models], dtype=float),
            capacity=capacity,
            gain=gain,
            power=np.array([m.bpr_power for m in models], dtype=float),
            is_sd=is_sd,
            pinned=pinned,
            smooth=gain > 0,
            capped=is_sd & ~pinned,
        )

    def cost(self, f) -> np.ndarray:
        """Travel time t_free * (1 + gain * (f/capacity)**power) at flows f.

        Zero gain, SD edges included, makes it exactly t_free.
        """
        return self.t_free * (1.0 + self.gain * (_flows(f) / self.capacity) ** self.power)

    @cached_property
    def groups(self) -> tuple:
        """(smooth, capped, pinned, sd): each group's edges as a slice when
        they are contiguous, else as an index array; None when empty."""
        return tuple(map(_group, (self.smooth, self.capped, self.pinned, self.is_sd)))

    @cached_property
    def _capped_capacity(self) -> np.ndarray:
        return self.capacity[self.capped]

    @cached_property
    def _smooth_constants(self) -> tuple:
        """Per smooth edge: capacity, 1/mu, mu/(1+mu) and gain * t_free
        (conjugate), 1 + mu and gain * t_free * capacity / (1+mu) (integral)."""
        s = self.groups[0]
        mu, cap, scale = self.power[s], self.capacity[s], self.gain[s] * self.t_free[s]
        return cap, 1.0 / mu, mu / (1.0 + mu), scale, 1.0 + mu, scale * cap / (1.0 + mu)

    def integral(self, f) -> np.ndarray:
        """Cost integral sigma_e(f) from 0 to f; +inf for SD flow above capacity."""
        f = _flows(f)
        smooth, capped, _, _ = self.groups
        out = self.t_free * f
        if smooth is not None:
            cap, _, _, _, mu1, lead = self._smooth_constants
            out[smooth] += lead * (f[smooth] / cap) ** mu1
        if capped is not None:
            out[capped] = np.where(f[capped] > self._capped_capacity, math.inf, out[capped])
        return out

    def conjugate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Conjugate sigma*_e(t) of the cost integral and its maximizing flow.

        Both are 0 at or below t_free, except on capacitated SD edges:
        value capacity * (t - t_free) and flow capacity from t_free on
        (not defined below it).  Above t_free a smooth edge's flow inverts
        its cost map, f(t) solves t = cost(f), and integrating f over
        [t_free, t] gives the value mu/(1+mu) * f(t) * (t - t_free);
        pinned edges give +inf.
        """
        dt = np.asarray(t, dtype=float) - self.t_free
        value, flow = np.zeros(dt.shape), np.zeros(dt.shape)
        smooth, capped, pinned, _ = self.groups
        if smooth is not None:
            cap, inv_mu, ratio, scale, _, _ = self._smooth_constants
            d = np.fmax(dt[smooth], 0.0)  # at or below t_free both are 0
            f = flow[smooth] = cap * (d / scale) ** inv_mu
            value[smooth] = ratio * f * d
        if capped is not None:
            flow[capped] = self._capped_capacity
            value[capped] = self._capped_capacity * dt[capped]
        if pinned is not None:
            value[pinned] = flow[pinned] = np.where(dt[pinned] > 0, math.inf, 0.0)
        return value, flow

    def curvature(self, t) -> np.ndarray:
        """sigma*''_e(t), the derivative of the conjugate's flow: on a smooth edge
        (capacity/(mu*scale)) * (d/scale)**(1/mu - 1), d = max(t - t_free, 0), from
        above at t_free; 0 on the others, whose conjugates are linear or pinned."""
        out, smooth = np.zeros(np.shape(t)), self.groups[0]
        if smooth is not None:
            cap, inv_mu, _, scale, _, _ = self._smooth_constants
            d = np.fmax(np.asarray(t, dtype=float)[smooth] - self.t_free[smooth], 0.0)
            out[smooth] = cap * inv_mu / scale * (d / scale) ** (inv_mu - 1.0)
        return out


def _group(mask):
    """The indices where mask holds: a slice when they are contiguous, None when empty."""
    i = np.flatnonzero(mask)
    if not len(i):
        return None
    return slice(int(i[0]), int(i[-1]) + 1) if i[-1] - i[0] == len(i) - 1 else i


def _flows(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    low = f.min(initial=0.0)
    if low < 0:
        raise ValueError(f"negative flow {low}")
    return f


@dataclass(frozen=True, eq=False)
class LevelGraph:
    """Directed multigraph of one level; immutable, so its caches stay valid.

    plain_edges:  (tail, head, EdgeCostModel)
    nested_edges: (tail, head, (origin, dest)) referencing an OD pair of
                  the next level.
    Both are stored as tuples.  Edge indices run over plain edges first,
    then nested edges.
    """

    n_vertices: int
    plain_edges: tuple = ()
    nested_edges: tuple = ()
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "plain_edges", tuple(self.plain_edges))
        object.__setattr__(self, "nested_edges", tuple(self.nested_edges))

    @property
    def n_edges(self) -> int:
        return len(self.plain_edges) + len(self.nested_edges)

    @cached_property
    def tails(self) -> np.ndarray:
        return np.array([e[0] for e in self.plain_edges + self.nested_edges], dtype=np.intp)

    @cached_property
    def heads(self) -> np.ndarray:
        return np.array([e[1] for e in self.plain_edges + self.nested_edges], dtype=np.intp)

    @cached_property
    def head_groups(self) -> tuple:
        """In-edges grouped by head, each group closed by one virtual edge.

        Virtual edge E + v (E = n_edges) runs from row n_vertices + v to
        v; a soft-min sweep keeps round 0 in those rows, so the virtual
        edge carries the empty walk at an origin, and every vertex has a
        group.  Returns (order, tails, starts, heads): order sorts the
        indices 0..E+n_vertices-1 stably by head, tails and heads are
        their endpoints in that order, and v's group begins at starts[v].
        """
        n = self.n_vertices
        heads = np.concatenate([self.heads, np.arange(n)])
        tails = np.concatenate([self.tails, n + np.arange(n)])
        order = np.argsort(heads, kind="stable")
        counts = np.bincount(heads, minlength=n)
        return order, tails[order], np.cumsum(counts) - counts, heads[order]

    @cached_property
    def log_fan_in(self) -> float:
        """Log of the size of head_groups' largest group, a head's in-edges and
        its virtual edge, which bounds the log of a soft-min hop's sum."""
        return math.log(np.bincount(self.heads).max(initial=0) + 1)

    @cached_property
    def tail_groups(self) -> tuple:
        """(order, starts, vertices, tails, heads) for segment reductions over edge tails.

        order sorts the edge indices stably by tail, tails and heads are
        their endpoints in that order, and the run of vertices[i] begins
        at starts[i].  Vertices without an out-edge have no run.
        """
        order = np.argsort(self.tails, kind="stable")
        tails = self.tails[order]
        starts = np.flatnonzero(np.diff(tails, prepend=-1))
        return order, starts, tails[starts], tails, self.heads[order]

    @cached_property
    def dense_index(self) -> np.ndarray:
        """Each edge's entry of a flat V x V matrix indexed [head, tail]."""
        return self.heads * self.n_vertices + self.tails

    @cached_property
    def nested_plan(self) -> "PairPlan":
        """The pairs of the next level that the nested edges reference, at no demand."""
        refs = [od for (_, _, od) in self.nested_edges]
        plan = PairPlan.of(dict.fromkeys(refs, 0.0))
        index = {od: i for i, od in enumerate(plan.pairs)}
        return replace(plan, fold=np.array([index[od] for od in refs], dtype=np.intp))


@dataclass(eq=False)
class Network:
    """Validated multilevel network with level-1 demands."""

    levels: list
    demands: dict  # (origin, dest) -> demand, level-1 only

    def __post_init__(self):
        violations = validate(self.levels, self.demands)
        if violations:
            raise ValidationError(violations)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @cached_property
    def flow_slices(self) -> tuple:
        """(plain, nested): per level, the slices of FlowState.values that
        hold its plain and its nested edge flows, every plain edge first."""
        groups = [lg.plain_edges for lg in self.levels] + [lg.nested_edges for lg in self.levels]
        bounds = list(itertools.accumulate(map(len, groups), initial=0))
        slices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        return slices[:self.n_levels], slices[self.n_levels:]

    @property
    def plain_slices(self) -> list:
        """Slice of the flat time vector per level (plain edges only)."""
        return self.flow_slices[0]

    @property
    def n_times(self) -> int:
        return self.plain_slices[-1].stop

    @property
    def n_flows(self) -> int:
        return self.flow_slices[1][-1].stop

    @cached_property
    def edges(self) -> EdgeTable:
        """Cost parameters of every plain edge, aligned with the time vector."""
        return EdgeTable.of([model for lg in self.levels for _, _, model in lg.plain_edges])

    def free_flow_times(self) -> np.ndarray:
        return self.edges.t_free.copy()

    def gammas(self) -> list:
        return [lg.gamma for lg in self.levels]

    @cached_property
    def plan(self) -> "PairPlan":
        """The level-1 demands as a PairPlan, built on first use."""
        return PairPlan.of(self.demands)

    def origins(self) -> list:
        """Distinct level-1 origins in sorted order."""
        return self.plan.origins.tolist()


@dataclass(frozen=True, eq=False)
class PairPlan:
    """The OD pairs of one level, laid out for one sweep from all their origins.

    pairs: distinct (origin, dest), grouped by ascending origin, in order of
    first appearance within a group; a sweep from origins finds pair i at
    u[dests[i], columns[i]], flat index cells[i].  A plan of nested
    references has fold, the pair of each nested edge.  Every sweep runs
    over origins (a chunk over a slice) and lists every pair, with demand
    or not, in this one order.  Arrays are read-only.
    """

    pairs: tuple
    origins: np.ndarray
    dests: np.ndarray
    columns: np.ndarray
    cells: np.ndarray
    demand: np.ndarray
    fold: np.ndarray = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def of(cls, demands) -> "PairPlan":
        """The plan of a mapping (origin, dest) -> demand, or the plan given."""
        if isinstance(demands, PairPlan):
            return demands
        pairs = tuple(sorted(demands, key=lambda od: od[0]))  # stable: keeps first appearance
        column = {o: b for b, o in enumerate(dict.fromkeys(o for o, _ in pairs))}
        dests = np.array([d for _, d in pairs], dtype=np.intp)
        columns = np.array([column[o] for o, _ in pairs], dtype=np.intp)
        return cls(pairs, np.array(list(column), dtype=np.intp), dests, columns,
                   dests * len(column) + columns,
                   np.array([demands[od] for od in pairs], dtype=float))

    def hand_down(self, flows) -> "PairPlan":
        """This plan at the demands that nested-edge flows hand down: each
        pair sums the positive flows of its edges, in edge order."""
        live = flows > 0.0
        return replace(self, demand=np.bincount(self.fold[live], flows[live],
                                                minlength=len(self.pairs)))

    def listed(self) -> np.ndarray:
        """The pairs with demand, in plan order: handed down, those given flow."""
        return np.flatnonzero(self.demand)

    def __iter__(self):
        """The listed (origin, dest) pairs; bench/tracing.py counts a call's origins by them."""
        return (self.pairs[i] for i in self.listed())

    def totals(self) -> list:
        """Each origin's total demand, summed in pair order."""
        return np.bincount(self.columns, self.demand, minlength=len(self.origins)).tolist()


def validate(levels, demands) -> list:
    """Collect every violation; an empty list means the instance is valid."""
    bad = []
    if not levels:
        return ["network has no levels"]
    m = len(levels)
    for k, lg in enumerate(levels, start=1):
        if not 0 <= lg.gamma < math.inf:
            bad.append(f"level {k}: gamma must be finite and nonnegative, got {lg.gamma}")
        for tail, head, model in lg.plain_edges:
            where = f"level {k} edge {tail}->{head}"
            bad += _endpoint_problems(where, tail, head, lg.n_vertices)
            if not 0 < model.t_free < math.inf:
                bad.append(f"{where}: t_free must be positive and finite")
            if not model.capacity > 0:
                bad.append(f"{where}: capacity must be positive")
            if model.kind == BPR:
                if math.isinf(model.capacity) and model.bpr_gain > 0:
                    bad.append(f"{where}: BPR edge needs a finite capacity")
                if not 0 <= model.bpr_gain < math.inf:
                    bad.append(f"{where}: bpr_gain must be finite and nonnegative")
                if not (0 < model.bpr_power <= 1):
                    bad.append(f"{where}: bpr_power outside (0, 1]")
        for tail, head, od in lg.nested_edges:
            where = f"level {k} nested edge {tail}->{head}"
            if k == m:
                bad.append(f"{where}: top level admits no nested edges")
                continue
            bad += _endpoint_problems(where, tail, head, lg.n_vertices)
            nxt = levels[k]  # level k+1, 0-based index k
            o, d = od
            if not (0 <= o < nxt.n_vertices and 0 <= d < nxt.n_vertices):
                bad.append(f"{where}: referenced OD {o}->{d} outside level {k + 1}")
            if o == d:
                bad.append(f"{where}: referenced OD is a self-pair")
    for (o, d), dem in demands.items():
        where = f"demand {o}->{d}"
        lg = levels[0]
        if not (0 <= o < lg.n_vertices and 0 <= d < lg.n_vertices):
            bad.append(f"{where}: vertex outside level 1")
        if o == d:
            bad.append(f"{where}: origin equals destination")
        if not 0 < dem < math.inf:
            bad.append(f"{where}: demand must be positive and finite")
    if not demands:
        bad.append("no level-1 demands")
    return bad


def _endpoint_problems(where, tail, head, n) -> list:
    """The endpoint rule of every edge, plain or nested: two distinct vertices in 0..n-1."""
    bad = [f"{where}: self-loop"] if tail == head else []
    if not (0 <= tail < n and 0 <= head < n):
        bad.append(f"{where}: vertex out of range")
    return bad


class FlowState:
    """Every edge flow of one point in one read-only array, `values`: the
    plain flows of every level first, then each level's nested flows
    (Network.flow_slices).  plain[k] aligns with levels[k].plain_edges,
    nested[k] with levels[k].nested_edges and plain_flat() with the time
    vector; all are views of values, so a read copies nothing.  On first
    read fill(values) writes the flows into the zeroed array it is handed.
    """

    def __init__(self, network: Network, fill):
        self._network = network
        self._fill = fill

    @cached_property
    def values(self) -> np.ndarray:
        values = np.zeros(self._network.n_flows)
        self._fill(values)
        del self._fill  # releases what fill holds, such as kept forward sweeps
        values.flags.writeable = False
        return values

    @cached_property
    def plain(self) -> list:
        return [self.values[s] for s in self._network.plain_slices]

    @cached_property
    def nested(self) -> list:
        return [self.values[s] for s in self._network.flow_slices[1]]

    def plain_flat(self) -> np.ndarray:
        return self.values[:self._network.n_times]


def text_records(path):
    """(line number, stripped text) of each line of a UTF-8 file that holds a record, after
    a byte-order mark and '#' comments are dropped.  A byte b that does not decode reads
    as chr(0xDC00 + b) under surrogate escapes and raises a ParseError naming its line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            bad = None if raw.isascii() else next((c for c in raw if "\udc80" <= c <= "\udcff"), None)
            if bad:
                raise ParseError(path, lineno, f"byte 0x{ord(bad) - 0xDC00:02x} is not UTF-8")
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def _parse(kind, token, what, path, lineno):
    """token as an int or a float; a ParseError naming the line when it is not one."""
    try:
        return kind(token)
    except ValueError:
        raise ParseError(path, lineno, f"bad {what} {token!r}") from None


def load_network(path) -> Network:
    """Load the whitespace-separated edge-list format.

    Records (comments start with '#'):
      level tail head bpr t_free capacity gain power
      level tail head sd  t_free capacity [gain power]   (trailing fields ignored)
      level tail head nested o:d        references OD pair (o, d) one level up
      od level origin dest demand       level must be 1
      gamma level value                 optional smoothing scale per level
    A malformed record raises a ParseError and an inconsistent instance a
    ValidationError; both messages begin with the path.
    """
    plain = {}   # level -> list
    nested = {}  # level -> list
    gammas = {}  # level -> (line number, value)
    demands = {}

    for lineno, line in text_records(path):
        tok = line.split()
        if tok[0] == "od":
            if len(tok) != 5:
                raise ParseError(path, lineno, "od record needs: od level origin dest demand")
            level = _parse(int, tok[1], "level", path, lineno)
            if level != 1:
                raise ParseError(path, lineno, "demands are only declared at level 1")
            o = _parse(int, tok[2], "origin", path, lineno)
            d = _parse(int, tok[3], "dest", path, lineno)
            dem = _parse(float, tok[4], "demand", path, lineno)
            if (o, d) in demands:
                raise ParseError(path, lineno, f"duplicate demand for OD {o}->{d}")
            demands[(o, d)] = dem
            continue
        if tok[0] == "gamma":
            if len(tok) != 3:
                raise ParseError(path, lineno, "gamma record needs: gamma level value")
            level = _parse(int, tok[1], "level", path, lineno)
            if level in gammas:
                raise ParseError(path, lineno, f"duplicate gamma for level {level}")
            gammas[level] = (lineno, _parse(float, tok[2], "gamma", path, lineno))
            continue
        if len(tok) < 5:
            raise ParseError(path, lineno, "edge record needs at least 5 fields")
        level = _parse(int, tok[0], "level", path, lineno)
        tail = _parse(int, tok[1], "tail", path, lineno)
        head = _parse(int, tok[2], "head", path, lineno)
        kind = tok[3]
        if kind == "nested":
            ref = tok[4].split(":")
            if len(ref) != 2:
                raise ParseError(path, lineno, "nested reference must look like o:d")
            o = _parse(int, ref[0], "nested origin", path, lineno)
            d = _parse(int, ref[1], "nested dest", path, lineno)
            nested.setdefault(level, []).append((tail, head, (o, d)))
        elif kind in (BPR, SD):
            if len(tok) != 8 and not (kind == SD and len(tok) == 6):
                fields = "t_free capacity gain power" if kind == BPR else "t_free capacity"
                raise ParseError(path, lineno, f"{kind} record needs: level tail head {kind} {fields}")
            params = [_parse(float, tok[4], "t_free", path, lineno),
                      _parse(float, tok[5], "capacity", path, lineno)]
            if kind == BPR:  # an sd record's trailing fields are ignored
                params += [_parse(float, tok[6], "gain", path, lineno),
                           _parse(float, tok[7], "power", path, lineno)]
            plain.setdefault(level, []).append((tail, head, EdgeCostModel(kind, *params)))
        else:
            raise ParseError(path, lineno, f"unknown edge kind {kind!r}")

    if not (plain or nested or demands):
        raise ParseError(path, None, "empty instance")
    # the levels are those with edge records: a nested reference names vertices, not a level
    edge_levels = sorted(set(plain) | set(nested))
    n_levels = max([1, *edge_levels])
    for level, (lineno, _) in gammas.items():
        if not 1 <= level <= n_levels:
            raise ParseError(path, lineno, f"gamma for missing level {level}")
    if edge_levels != list(range(1, n_levels + 1)):
        raise ValidationError([f"levels must be contiguous starting at 1, got {edge_levels}"], path)

    def n_vertices(k):
        """One more than the largest vertex named on level k: by its edges, by
        the nested references into it and, on level 1, by the demands."""
        named = [(tail, head) for tail, head, _ in plain.get(k, []) + nested.get(k, [])]
        named += [od for _, _, od in nested.get(k - 1, [])] + (list(demands) if k == 1 else [])
        return max(itertools.chain([-1], *named)) + 1

    levels = [
        LevelGraph(
            n_vertices=n_vertices(k),
            plain_edges=plain.get(k, []),
            nested_edges=nested.get(k, []),
            gamma=gammas.get(k, (None, 1.0))[1],
        )
        for k in range(1, n_levels + 1)
    ]
    try:
        return Network(levels=levels, demands=demands)
    except ValidationError as exc:
        raise ValidationError(exc.violations, path) from None
