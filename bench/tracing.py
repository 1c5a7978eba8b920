"""Spans around the public functions of each equiflow layer, from outside.

Functions are patched at the module attribute where their caller looks
them up (``from .softmin import assignment_flows`` binds a second name in
``equiflow.dual``), so every call through the program is seen without an
edit to the package.  Spans are kept in memory; a span's self time is its
duration minus the time of its direct children (calls are sequential).
"""

from __future__ import annotations

import importlib
import inspect
import time

# span name -> places the callers look the function up ("module:attr" or
# "module:Class.method")
PATCHES = {
    "network.load_network": ["cli:load_network", "network:load_network"],
    "dual.solve_assignment": ["cli:solve_assignment", "dual:solve_assignment"],
    "dual.solve_multistage": ["cli:solve_multistage", "dual:solve_multistage"],
    "dual.DualOracle.value": ["dual:DualOracle.value"],
    "dual.DualOracle.value_grad": ["dual:DualOracle.value_grad"],
    "dual.duality_gap": ["cli:duality_gap", "dual:duality_gap"],
    "dual.capacity_violation": ["dual:capacity_violation"],
    "dual.complementarity_residual": ["dual:complementarity_residual"],
    "dual.frank_wolfe_gap": ["dual:frank_wolfe_gap"],
    "softmin.assignment_flows": ["dual:assignment_flows", "softmin:assignment_flows"],
    "softmin.softmin_flows": ["softmin:softmin_flows"],
    "softmin.softmin_potentials": ["cli:softmin_potentials", "softmin:softmin_potentials"],
    "softmin.effective_weights": ["cli:effective_weights", "dual:effective_weights",
                                  "softmin:effective_weights"],
    "softmin.hard_shortest": ["cli:hard_shortest", "softmin:hard_shortest"],
    "softmin.all_or_nothing": ["dual:all_or_nothing", "softmin:all_or_nothing"],
    "solvers.umt_minimize": ["dual:umt_minimize", "od:umt_minimize", "solvers:umt_minimize"],
    "od.solve_entropy_od": ["cli:solve_entropy_od", "od:solve_entropy_od"],
    "od.build_elp": ["od:build_elp"],
    "od.ElpDualOracle.value": ["od:ElpDualOracle.value"],
    "od.ElpDualOracle.value_grad": ["od:ElpDualOracle.value_grad"],
    "od.primal_value": ["od:primal_value"],
    "od.balancing_oracle": ["cli:balancing_oracle", "od:balancing_oracle"],
}


class Tracer:
    """Records spans and counters while a traced CLI call is running."""

    def __init__(self):
        self.spans = []      # (call, span, parent, name, start, end)
        self.stats = {}      # name -> [count, total_s, self_s]
        self.counters = {}   # name -> number
        self.call = None     # id of the CLI call in progress
        self._stack = []     # [span id, child seconds]
        self._saved = []

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def run(self, name, fn, *args, **kwargs):
        if self.call is None:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            self.spans[sid] = (self.call, sid, parent, name, start, end)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return traced

    def cli_call(self, call_id, main, argv):
        """Run one CLI call as the root span ``cli.main``."""
        self.call = call_id
        try:
            return self.run("cli.main", main, argv)
        finally:
            self.call = None

    # -- patching -----------------------------------------------------------

    def _special(self, name, fn):
        if name == "softmin.softmin_flows":
            def traced(graph, weights, demands, *args, **kwargs):
                if self.call is not None:
                    self.add("softmin.origin_sweeps", len({o for o, _ in demands}))
                return self.run(name, fn, graph, weights, demands, *args, **kwargs)
            return traced
        if name == "od.build_elp":
            def traced(*args, **kwargs):
                problem = self.run(name, fn, *args, **kwargs)
                if self.call is not None:
                    self.counters["od.A_bytes"] = max(self.counters.get("od.A_bytes", 0),
                                                      problem.A.nbytes)
                return problem
            return traced
        if name == "solvers.umt_minimize":
            sig = inspect.signature(fn)

            def traced(*args, **kwargs):
                if self.call is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                for key in ("stop", "callback"):
                    if bound.arguments.get(key) is not None:
                        bound.arguments[key] = self.wrap(f"solvers.{key}", bound.arguments[key])
                x, rep = self.run(name, fn, *bound.args, **bound.kwargs)
                self.add("solvers.iterations", rep.iterations)
                self.add("solvers.value_calls", rep.value_calls)
                self.add("solvers.grad_calls", rep.grad_calls)
                return x, rep
            return traced
        return self.wrap(name, fn)

    def install(self):
        for name, places in PATCHES.items():
            for place in places:
                mod_name, attr = place.split(":")
                owner = importlib.import_module(f"equiflow.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[leaf]
                self._saved.append((owner, leaf, orig))
                setattr(owner, leaf, self._special(name, orig))

    def uninstall(self):
        while self._saved:
            owner, leaf, orig = self._saved.pop()
            setattr(owner, leaf, orig)

    # -- results ------------------------------------------------------------

    def count(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, *names):
        return sum(self.stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_time(self, *names):
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def snapshot(self):
        """Counts per span name plus counters, for per-call differences."""
        snap = {n: st[0] for n, st in self.stats.items()}
        snap.update(self.counters)
        return snap

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call,span,parent,name,start,end\n")
            fh.writelines(f"{c},{s},{p},{n},{a:.9f},{b:.9f}\n"
                          for c, s, p, n, a, b in self.spans)
