"""equiflow benchmark: time to certificate through the real CLI.

Usage (from the repository root):

    python3 bench/run.py --workload grid_stochastic --seed 1 --seconds 20 --trace 0

Each run generates its instances from the seed, writes them under
bench/.work/, calls ``equiflow.cli.main(argv)`` in this process once per
instance, rechecks every answer independently and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` solves the same
instances once untraced and once with spans around every layer, and reports
the per-layer metrics.  See bench/WORKLOADS.md for why each workload exists.

The untraced pass of ``--trace 0`` also times a fixed pure-Python loop ten
times a second, from a SIGALRM handler that runs between the program's
bytecodes.  ``wall_ref`` is the program's share of the pass times the mean
rate of that loop: the work done, in loops, whatever speed the shared
machine runs at during the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# one Python thread and at most nproc BLAS threads, fixed before numpy loads
BLAS_THREADS = str(os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, BLAS_THREADS)

sys.path[:0] = [str(SRC), str(BENCH)]
import recheck  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
REF_PERIOD_S = 0.1
REF_STEPS = 20000


# est_s: seconds one instance takes at this commit on a 2-core Xeon VM
# while other tenants load it; a run solves about 0.9 * --seconds / est_s.
WORKLOADS = {
    "grid_stochastic": {
        "est_s": 1.0, "model": "stochastic", "eps": 1e-4,
        "make": lambda rng, i, n, smoke: workloads.grid_stochastic(
            rng, k=3 if smoke else 4, n_od=3 if smoke else 8),
    },
    "capacity_mixed": {
        "est_s": 1.2, "model": "mixed", "eps": 1e-3, "capacity": True,
        # the unconstrained crossing link rotates over the rows
        "make": lambda rng, i, n, smoke: workloads.capacity_mixed(
            rng, k=2 if smoke else 3, open_row=i % (2 if smoke else 3)),
    },
    "nested_multistage": {
        "est_s": 1.9, "model": None, "eps": 1e-4,
        "make": lambda rng, i, n, smoke: workloads.nested_multistage(
            rng, k=3 if smoke else 5, zones=4 if smoke else 6,
            n_nested=3 if smoke else 8, n_od=3 if smoke else 8),
    },
    "od_entropy": {
        "est_s": 5.0, "od": True,
        # zone counts climb geometrically from 10 to 50 over the run's
        # instances, so every run spans the whole range; the largest
        # instance dominates the time, so its size is not left to the seed
        "make": lambda rng, i, n, smoke: workloads.od_entropy(
            rng, 4 if smoke else round(10 * 5 ** (i / max(n - 1, 1)))),
    },
}


def ref_loop():
    """Fixed pure-Python work, about 3 ms on a 2-core Xeon VM."""
    acc = 0.0
    xs = [0.5 * i for i in range(64)]
    for i in range(REF_STEPS):
        acc += xs[i & 63] * 1.0001 + (i % 7)
    return acc


class SpeedSampler:
    """Times `ref_loop` every REF_PERIOD_S seconds of wall time.

    The timer's handler runs between the program's bytecodes, so the samples
    cover a pass evenly however long its calls are.  On a shared 2-core Xeon
    VM the speed drifts by a third over minutes and by more within a second;
    the loop rate measured alongside the program takes that out of
    `wall_ref`.
    """

    def __init__(self):
        self.samples = []
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        self.samples.append(_time(ref_loop))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def work(self, wall):
        """Loops' worth of work done in the `wall` seconds that held the samples.

        A pass shorter than one period (the self-test's) gets one sample
        taken after it.
        """
        busy = wall - sum(self.samples)
        samples = self.samples or [_time(ref_loop)]
        return busy * statistics.fmean(1.0 / r for r in samples)


def _time(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def env_stamp():
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3 = "unknown"
    with contextlib.suppress(OSError), \
            open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
        l3 = fh.read().strip()
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "l3": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _import_seconds():
    """Seconds `import equiflow` takes in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import equiflow; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def make_calls(name, seed, count, work, smoke=False):
    """Generate and write the run's instances; returns one dict per call."""
    spec = WORKLOADS[name]
    calls = []
    for i in range(count):
        rng = random.Random(f"{name}:{seed}:{i}")
        inst = spec["make"](rng, i, count, smoke)
        out = work / f"out{i}"
        if spec.get("od"):
            paths = workloads.write_od(str(work / f"in{i}"), inst)
            argv = ["od", *paths, "--verify", "--out", str(out)]
        else:
            path = work / f"in{i}.net"
            workloads.write_network(path, inst)
            model = ["--model", spec["model"]] if spec["model"] else []
            argv = ["solve", str(path), *model, "--eps", repr(spec["eps"]), "--verify",
                    "--out", str(out)]
        calls.append({"inst": inst, "argv": argv, "out": out})
    return calls


def setup(name, seed, count, work, smoke=False):
    """Median over SETUP_REPS of import time plus instance generation."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        imp = _import_seconds()
        start = time.perf_counter()
        calls = make_calls(name, seed, count, work, smoke)
        times.append(imp + time.perf_counter() - start)
    return calls, statistics.median(times)


def digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(calls, tracer=None, sampler=None):
    """Call the CLI once per instance; returns (wall seconds, results)."""
    from equiflow import cli

    results = []
    timing = sampler if sampler is not None else contextlib.nullcontext()
    with timing:
        start = time.perf_counter()
        for i, call in enumerate(calls):
            results.append(_call(cli, i, call, tracer))
        wall = time.perf_counter() - start
    for call, res in zip(calls, results):
        res["digest"] = digest(call["out"]) if call["out"].is_dir() else "missing"
    return wall, results


def _call(cli, i, call, tracer):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        if tracer is not None:
            before = tracer.snapshot()
        try:
            if tracer is None:
                rc = cli.main(call["argv"])
            else:
                rc = tracer.cli_call(i, cli.main, call["argv"])
        except Exception as exc:  # a crash is a failed call, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
    res = {"rc": rc, "stdout": buf.getvalue(), "stderr": err.getvalue()}
    if tracer is not None:
        after = tracer.snapshot()
        res["delta"] = {k: v - before.get(k, 0) for k, v in after.items()}
    return res


def check_answers(name, calls, results):
    """Mark each result certified or not; return problems that make it wrong.

    A call is certified when it exits 0, prints `verification PASS` and
    passes the independent recheck.  A call that exits 0 but fails the
    recheck is a wrong answer, not just a failed call.
    """
    spec = WORKLOADS[name]
    wrong = []
    for i, (call, res) in enumerate(zip(calls, results)):
        res["certified"] = False
        res["binding"] = 0
        if res["rc"] != 0 or "verification PASS" not in res["stdout"]:
            print(f"call {i} not certified (exit {res['rc']}): "
                  f"{(res['stdout'] + res['stderr']).strip()[:200]}", file=sys.stderr)
            continue
        if spec.get("od"):
            problems = recheck.check_matrix(call["inst"], call["out"] / "matrix.csv")
        else:
            problems, res["binding"] = recheck.check_solution(
                call["inst"], call["out"] / "solution.csv", spec["eps"],
                capacity=spec.get("capacity", False))
        res["certified"] = not problems
        if problems:
            wrong.append(f"call {i}: certified but {'; '.join(problems)}")
    return wrong


def check_trace_counts(name, calls, results):
    """The spans must see every oracle call the solver reports."""
    wrong = []
    for i, (call, res) in enumerate(zip(calls, results)):
        d = res["delta"]
        if WORKLOADS[name].get("od"):
            with open(call["out"] / "certificate.json", encoding="utf-8") as fh:
                solver = json.load(fh)
            pairs = [("iterations", solver["iterations"], d.get("solvers.iterations", 0)),
                     ("grad_calls", d.get("solvers.grad_calls", 0),
                      d.get("od.ElpDualOracle.value_grad", 0))]
        else:
            with open(call["out"] / "summary.json", encoding="utf-8") as fh:
                solver = json.load(fh)
            grads = d.get("dual.DualOracle.value_grad", 0)
            pairs = [("iterations", solver["iterations"], d.get("solvers.iterations", 0)),
                     ("grad_calls", solver["grad_calls"], grads),
                     ("value_calls", solver["value_calls"],
                      grads + d.get("dual.DualOracle.value", 0))]
        for what, expect, seen in pairs:
            if expect != seen:
                wrong.append(f"call {i}: solver reports {what}={expect}, spans saw {seen}")
    return wrong


def layer_metrics(tr, results, untraced_wall, traced_wall):
    iters = tr.counters.get("solvers.iterations", 0)
    sweeps = tr.counters.get("softmin.origin_sweeps", 0)
    flows_s = tr.total("softmin.softmin_flows")
    assignments = tr.count("softmin.assignment_flows")
    cert = ("dual.duality_gap", "dual.capacity_violation", "dual.complementarity_residual",
            "dual.frank_wolfe_gap")
    oracle = ("dual.DualOracle.value", "dual.DualOracle.value_grad")
    elp = ("od.ElpDualOracle.value", "od.ElpDualOracle.value_grad")
    binding = [r["binding"] for r in results]
    m = {
        "network.load_s": (tr.total("network.load_network"), "s"),
        "cli.self_s": (tr.self_time("cli.main"), "s"),
        "softmin.assignments": (assignments, "count"),
        "softmin.flows_calls": (tr.count("softmin.softmin_flows"), "count"),
        "softmin.origin_sweeps": (sweeps, "count"),
        "softmin.flows_s": (flows_s, "s"),
        "softmin.us_per_origin_sweep": (1e6 * flows_s / sweeps if sweeps else 0.0, "us"),
        "softmin.potential_sweeps": (tr.count("softmin.softmin_potentials"), "count"),
        "softmin.potentials_s": (tr.total("softmin.softmin_potentials"), "s"),
        "softmin.pricing_s": (tr.total("softmin.effective_weights"), "s"),
        "softmin.assignment_self_s": (tr.self_time("softmin.assignment_flows"), "s"),
        "softmin.hard_shortest_calls": (tr.count("softmin.hard_shortest"), "count"),
        "softmin.hard_shortest_s": (tr.total("softmin.hard_shortest"), "s"),
        "dual.value_calls": (tr.count(oracle[0]), "count"),
        "dual.grad_calls": (tr.count(oracle[1]), "count"),
        "dual.oracle_self_s": (tr.self_time(*oracle), "s"),
        "dual.assignments_per_iter": (
            assignments / iters if iters and tr.count(oracle[1]) else 0.0, "1"),
        "dual.cert_calls": (sum(tr.count(c) for c in cert), "count"),
        "dual.cert_s": (tr.total(*cert), "s"),
        "dual.solve_self_s": (
            tr.self_time("dual.solve_assignment", "dual.solve_multistage"), "s"),
        "dual.binding_sd_min": (min(binding) if binding else 0, "count"),
        "solvers.iterations": (iters, "count"),
        "solvers.value_calls": (tr.counters.get("solvers.value_calls", 0), "count"),
        "solvers.grad_calls": (tr.counters.get("solvers.grad_calls", 0), "count"),
        "solvers.trials_per_iter": (
            (tr.counters.get("solvers.grad_calls", 0) - tr.count("solvers.umt_minimize"))
            / iters if iters else 0.0, "1"),
        "solvers.self_s": (tr.self_time("solvers.umt_minimize"), "s"),
        "solvers.stop_s": (tr.total("solvers.stop"), "s"),
        "solvers.callback_s": (tr.total("solvers.callback"), "s"),
        "od.value_calls": (tr.count(elp[0]), "count"),
        "od.grad_calls": (tr.count(elp[1]), "count"),
        "od.oracle_s": (tr.total(*elp), "s"),
        "od.build_s": (tr.total("od.build_elp"), "s"),
        "od.A_bytes": (tr.counters.get("od.A_bytes", 0), "B"),
        "od.primal_value_s": (tr.total("od.primal_value"), "s"),
        "od.verify_s": (tr.total("od.balancing_oracle"), "s"),
        "od.solve_self_s": (tr.self_time("od.solve_entropy_od"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
    return m


def run(name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (result dict, details for the caller).

    The run solves about 0.9 * seconds / est_s instances (half as many when
    traced, since those are solved twice); `smoke` makes every instance
    tiny and solves two, for the self-test.
    """
    work = WORK / name / f"seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    spec = WORKLOADS[name]
    count = max(1, round(0.9 * seconds / spec["est_s"]))
    if trace:
        count = max(1, count // 2)
    if smoke:
        count = 2
    calls, setup_s = setup(name, seed, count, work, smoke)
    import equiflow

    if not Path(equiflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"equiflow imported from {equiflow.__file__}, not {SRC}")
    sampler = None if trace else SpeedSampler()
    wall, results = run_pass(calls, sampler=sampler)
    passes = [results]
    wrong = check_answers(name, calls, results)
    first = [r["digest"] for r in results]
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced = run_pass(calls, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        wrong += check_answers(name, calls, traced)
        wrong += check_trace_counts(name, calls, traced)
        if [r["digest"] for r in traced] != first:
            wrong.append("traced pass wrote different files than the untraced pass")
        tracer.write(work / "spans.csv")
    all_results = [r for p in passes for r in p]
    certified = sum(r["certified"] for r in all_results)
    if trace:
        metrics = layer_metrics(tracer, traced, wall, traced_wall)
        metrics["certified_frac"] = (certified / len(all_results), "1")
        metrics["wall_s"] = (wall, "s")
    else:
        metrics = {
            "wall_ref": (sampler.work(wall), "ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    result = {
        "correct": not wrong,
        "attempted": len(all_results),
        "failed": len(all_results) - certified,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    outputs = hashlib.sha256("".join(first).encode()).hexdigest()
    return result, {"wrong": wrong, "sha256": outputs, "instances": count,
                    "work": work, "calls": calls, "wall_s": wall,
                    "ref_samples": sampler.samples if sampler else []}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "equiflow" / "__init__.py").is_file():
        print(f"error: no equiflow sources under {SRC}", file=sys.stderr)
        return 1
    env = env_stamp()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in info["wrong"]:
        print(f"WRONG: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "instances": info["instances"], "wall_s": info["wall_s"],
              "ref_samples": info["ref_samples"],
              "outputs_sha256": info["sha256"], "env": env, "result": result}
    with open(info["work"] / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"outputs_sha256 {args.workload} seed {args.seed} {info['sha256']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
