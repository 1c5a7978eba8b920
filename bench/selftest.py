"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

Runs every workload on tiny instances, untraced and traced, and checks that
every metric BENCHMARK.json names is printed with its unit, that two traced
runs at one seed agree on counts and output bytes, that the recheck flags a
corrupted solution.csv flow and matrix.csv entry, that its routing check
flags flow shifted around a grid cycle with times kept at their edge costs
(a corruption the gap and conservation checks pass), and that the benchmark
refuses to run without the equiflow sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
STEADY_COUNTS = ("solvers.iterations", "solvers.value_calls", "solvers.grad_calls",
                 "softmin.assignments", "softmin.origin_sweeps")


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_metrics(result, wanted, what):
    got = result["metrics"]
    expect(set(got) >= {m["name"] for m in wanted}
           and all(got[m["name"]]["unit"] == m["unit"] for m in wanted),
           f"{what}: every metric printed with its unit")


def corrupt(path, mangle):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = mangle(lines[2])
    path.write_text("".join(lines), encoding="utf-8")


def bump_flow(line):
    fields = line.split(",")
    fields[5] = repr(float(fields[5]) + 0.25)
    return ",".join(fields)


def shift_cycle(inst, path, delta):
    """Push `delta` more flow around a 4-cycle of a grid level of solution.csv.

    BPR times are reset to the cost of the new flow, so every Fenchel term
    on the cycle is zero and conservation still holds: only a routing check
    can tell.  The cycle avoids SD edges that bind or would overflow.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    level = max(inst["levels"])
    recs = {(u, v): (kind, params) for u, v, kind, params in inst["levels"][level]}
    row = {}
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(level) and fields[4]:
            row[(int(fields[2]), int(fields[3]))] = i
    k = math.isqrt(1 + max(max(e) for e in recs))
    for v in (r * k + c for r in range(k - 1) for c in range(k - 1)):
        square = [v, v + 1, v + 1 + k, v + k]
        for ring in (square, square[::-1]):
            cycle = list(zip(ring, ring[1:] + ring[:1]))
            fields = {e: lines[row[e]].split(",") for e in cycle}
            if all(recs[e][0] == "bpr" or (float(fields[e][4]) <= recs[e][1][0] * (1 + 1e-9)
                                           and float(fields[e][5]) + delta <= recs[e][1][1])
                   for e in cycle):
                break
        else:
            continue
        break
    else:
        raise RuntimeError("no 4-cycle to shift flow around")
    for e in cycle:
        f = fields[e]
        flow = float(f[5]) + delta
        f[5] = repr(flow)
        if recs[e][0] == "bpr":
            t0, cap, gain, p = recs[e][1]
            f[4] = repr(t0 * (1.0 + gain * (flow / cap) ** p))
        lines[row[e]] = ",".join(f)
    path.write_text("".join(lines), encoding="utf-8")


def main():
    for name, spec in run.WORKLOADS.items():
        result, info = run.run(name, seed=1, seconds=0, trace=False, smoke=True)
        expect(result["correct"] and result["attempted"] >= 1, f"{name}: answers recheck")
        check_metrics(result, SPEC["end_to_end"], name)
        traced, tinfo = run.run(name, seed=1, seconds=0, trace=True, smoke=True)
        again, ainfo = run.run(name, seed=1, seconds=0, trace=True, smoke=True)
        expect(traced["correct"], f"{name}: traced run sees every oracle call")
        check_metrics(traced, SPEC["per_layer"], f"{name} traced")
        expect(all(traced["metrics"][k]["value"] == again["metrics"][k]["value"]
                   for k in STEADY_COUNTS), f"{name}: counts repeat at one seed")
        expect(tinfo["sha256"] == ainfo["sha256"], f"{name}: outputs repeat byte for byte")

        call = info["calls"][0]
        if spec.get("od"):
            target = call["out"] / "matrix.csv"
            corrupt(target, lambda line: line.rsplit(",", 1)[0] + ",0.5\n")
            problems = run.recheck.check_matrix(call["inst"], target)
        else:
            target = call["out"] / "solution.csv"
            corrupt(target, bump_flow)
            problems, _ = run.recheck.check_solution(call["inst"], target, spec["eps"],
                                                     capacity=spec.get("capacity", False))
        expect(bool(problems), f"{name}: recheck flags a corrupted {target.name}")
        if not spec.get("od"):
            target = info["calls"][1]["out"] / "solution.csv"
            inst = info["calls"][1]["inst"]
            shift_cycle(inst, target, 0.1 * sum(d for _, _, d in inst["demands"]))
            problems, _ = run.recheck.check_solution(inst, target, spec["eps"],
                                                     capacity=spec.get("capacity", False))
            expect(bool(problems) and all(p.startswith("routing") for p in problems),
                   f"{name}: only the routing check flags flow shifted around a cycle")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "od_entropy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources: nonzero exit and no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
