"""Command-line interface: exit codes, output files, determinism, config."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from equiflow import hard_shortest, load_network, softmin, softmin_potentials, solve_assignment
from equiflow.cli import main
from equiflow.dual import MODELS

from conftest import (
    BRAESS_BASE_INSTANCE,
    BRAESS_SHORTCUT_INSTANCE,
    PIGOU_INSTANCE,
    SD_TWO_LINK_INSTANCE,
    deadline,
    record_solve_points,
    wide_kernel_draw,
    write_instance,
)


# 3x3 grid, row-aligned demand, binding hard-capacity (sd) crossings, gamma 0.1.
# An early averaged candidate of the mixed solve has the lowest
# max(gap, violation, complementarity) but a capacity violation above
# eps_residual; a later candidate certifies.
CAPACITY_MIXED_INSTANCE = """\
1 0 1 sd 1.91719905784275 0.074999999999999997
1 1 0 bpr 1.6702061762409512 1.4141979894671532 0.60587326016049103 1
1 0 3 sd 1.1543498682785396 0.74964952348431946
1 3 0 bpr 1.6880622077578478 1.6083741787552293 0.97968071478054686 0.25
1 1 2 bpr 1.8688697084208927 1.8757635622875666 0.9982002546055474 0.25
1 2 1 sd 1.4525961056500809 0.69031959893510964
1 1 4 sd 1.8972079891427827 0.54656488541744785
1 4 1 bpr 1.1140814081082329 2.190997924252672 0.82558316627546713 0.5
1 2 5 bpr 1.7806748889630408 1.3378670800431005 0.86848750493579685 1
1 5 2 bpr 1.2782904765249212 1.4673843616033735 0.7119565160179826 0.5
1 3 4 bpr 1.5886995549060403 1.154335355354267 0.8594987391542569 0.25
1 4 3 bpr 1.8692502508983235 1.9773604634089406 0.98096407100989746 0.5
1 3 6 bpr 1.5963255718893521 2.5881679258617769 0.80022438457188616 0.5
1 6 3 bpr 1.7053425296955529 1.1405740022098025 0.8830981849438504 0.25
1 4 5 bpr 1.0072157657521843 2.545929736686328 0.83552886816156691 0.5
1 5 4 bpr 1.9322875968095243 2.859917261908413 0.50447126662125508 1
1 4 7 bpr 1.3066504934900949 1.1926957362357917 0.70345456803533457 0.25
1 7 4 bpr 1.4734586076488867 1.8164156296526708 0.74303921726340361 0.5
1 5 8 bpr 1.4413239955490551 1.9475046000086227 0.5870568536290568 0.25
1 8 5 bpr 1.5670369615792625 1.078199055757203 0.9330443299281348 0.25
1 6 7 sd 1.4838678418953659 0.074999999999999997
1 7 6 sd 1.5954323553660705 0.84557229678546997
1 7 8 bpr 1.2260371354753095 2.7775998999759217 0.94062861683673538 0.5
1 8 7 sd 1.4904829163017497 0.85966257209753349
od 1 0 2 0.14343360370833125
od 1 3 5 0.27850165831812712
od 1 6 8 0.078064737973541617
gamma 1 0.10000000000000001
"""


# level-2 soft values at gamma 10 price both nested edges far below 0, so
# level 1 has a negative cycle 0 -> 1 -> 0 and no shortest-path tree
NEGATIVE_CYCLE_INSTANCE = """\
1 2 0 bpr 1.0 1.0 1.0 1.0
1 3 2 bpr 1.0 1.0 1.0 1.0
1 0 1 nested 0:1
1 1 0 nested 1:0
2 0 1 bpr 0.1 1.0 1.0 1.0
2 0 1 bpr 0.1 1.0 1.0 1.0
2 0 1 bpr 0.1 1.0 1.0 1.0
2 1 0 bpr 0.1 1.0 1.0 1.0
2 1 0 bpr 0.1 1.0 1.0 1.0
2 1 0 bpr 0.1 1.0 1.0 1.0
od 1 2 1 1.0
"""


# two levels: a plain outer link and a nested one priced by a two-route inner level
NESTED_INSTANCE = """\
1 0 1 bpr 1.0 1.0 0.5 1.0
1 0 1 nested 0:1
2 0 1 bpr 0.5 1.0 0.5 1.0
2 0 1 bpr 0.6 1.0 0.3 0.5
od 1 0 1 1.0
"""

# two levels with BPR routes inside and no gamma records: the network's own
# scale is 1 on both levels, stable_dynamics' is 0.1
NESTED_BPR_INSTANCE = """\
1 0 1 bpr 1.0 1.0 0.5 1.0
1 0 1 nested 0:1
2 0 1 bpr 1.0 1.0 0.5 1.0
2 0 1 bpr 1.5 1.0 0.5 1.0
od 1 0 1 1.0
"""

# an outer link priced by two inner SD links, one capacitated
NESTED_SD_INSTANCE = """\
1 0 1 nested 0:1
2 0 1 sd 1.0 1.0
2 0 1 sd 2.0 inf
od 1 0 1 2.0
gamma 1 0.1
gamma 2 0.1
"""


def grid_instance(k=4):
    """k x k BPR grid, both directions, six ODs from five origins; no gamma line."""
    lines = []
    for v in range(k * k):
        r, c = divmod(v, k)
        for w in ([v + 1] if c + 1 < k else []) + ([v + k] if r + 1 < k else []):
            for a, b in ((v, w), (w, v)):
                lines.append(f"1 {a} {b} bpr {1.0 + 0.25 * ((a + 2 * b) % 3)} 1.0 0.15 "
                             f"{(0.5, 1.0)[(a + b) % 2]}")
    n = k * k
    for o, d in ((0, n - 1), (0, k - 1), (k - 1, n - k), (n - 1, 0), (n - k, k + 1), (k + 2, 0)):
        lines.append(f"od 1 {o} {d} 0.{o % 7 + 2}")
    return "\n".join(lines) + "\n"


def read_solution(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("level,"):
                continue
            rows.append(line.rstrip("\n").split(","))
    return rows


def od_inputs(tmp_path, costs, L, W):
    c = tmp_path / "costs.csv"
    c.write_text("".join(f"{i},{j},{v}\n" for (i, j), v in costs.items()), encoding="utf-8")
    r = tmp_path / "rows.csv"
    r.write_text("".join(f"{i},{v}\n" for i, v in enumerate(L)), encoding="utf-8")
    w = tmp_path / "cols.csv"
    w.write_text("".join(f"{j},{v}\n" for j, v in enumerate(W)), encoding="utf-8")
    return str(c), str(r), str(w)


class TestSolve:
    def test_pigou_certified(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = str(tmp_path / "out")
        code = main(["solve", inst, "--model", "beckmann", "--eps", "1e-9",
                     "--out", out])
        assert code == 0
        assert "certified" in capsys.readouterr().out
        rows = read_solution(os.path.join(out, "solution.csv"))
        flows = [float(r[5]) for r in rows]
        assert flows[0] == pytest.approx(0.0, abs=1e-4)
        assert flows[1] == pytest.approx(1.0, abs=1e-4)
        summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
        assert summary["converged"] is True

    @pytest.mark.parametrize("model,start", [("stochastic", 1), ("beckmann", 0)])
    def test_summary_counts_every_oracle_call(self, tmp_path, monkeypatch, model, start):
        # the evaluation at t_free that places a stochastic solve's start is
        # an oracle call of the solve; beckmann starts at t_free itself
        seen = record_solve_points(monkeypatch)
        inst = write_instance(tmp_path / "grid.net", grid_instance())
        out = tmp_path / "out"
        assert main(["solve", inst, "--model", model, "--max-iter", "20",
                     "--out", str(out)]) in (0, 2)
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        grads, values = len(seen["value_grad"]), len(seen["value"])
        inner_values, inner_grads = seen["umt_calls"][0]
        assert (summary["value_calls"], summary["grad_calls"]) == (grads + values, grads)
        assert (grads + values, grads) == (inner_values + start, inner_grads + start)

    @pytest.mark.parametrize("capped,model,eps", [(False, "stochastic", 1e-6),
                                                  (True, "mixed", 1e-3)])
    def test_summary_counts_the_restarts(self, tmp_path, capped, model, eps):
        # a solve in the curvature metric restarts in its gradient phase; one
        # on a network with a capped edge never restarts.  On the 4 x 4 grid
        # the stochastic solve took 2 steps once its phase steps opened at
        # their secants; the 5 x 5 one takes 7
        text = grid_instance(5) + ("1 0 1 sd 0.5 0.3\n" if capped else "")
        inst = write_instance(tmp_path / "in.net", text)
        out = tmp_path / "out"
        assert main(["solve", inst, "--model", model, "--eps", repr(eps),
                     "--out", str(out)]) == 0
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        rep = solve_assignment(load_network(inst), model=model, eps=eps)
        assert rep.solver.iterations >= 5
        assert summary["restarts"] == rep.solver.restarts
        assert (summary["restarts"] > 0) != capped

    def test_corrupt_instance_reports_line(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "bad.net", "# ok\n1 0 1 bpr oops 1 1 1\n")
        code = main(["solve", inst, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_instance_names_its_line(self, tmp_path, capsys):
        # the message names the line, not the decoder's position in its buffer
        inst = tmp_path / "bad.net"
        inst.write_bytes("# caf\u00e9\n".encode() + b"1 0 1 bpr 1.0 \xff 0.5 1.0\nod 1 0 1 1.0\n")
        assert main(["solve", str(inst), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: line 2: byte 0xff is not UTF-8\n"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # line 1 used to fail as "bad level '\ufeff1'"
        runs = {"plain": PIGOU_INSTANCE, "bom": "\ufeff" + PIGOU_INSTANCE}
        for name, text in runs.items():
            inst = write_instance(tmp_path / "pigou.net", text)
            assert main(["solve", inst, "--model", "stochastic",
                         "--out", str(tmp_path / name)]) == 0
        assert open(inst, "rb").read(3) == b"\xef\xbb\xbf"
        for f in ("solution.csv", "summary.json"):
            assert (tmp_path / "bom" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes()
        # a bad byte is still named with its line
        (tmp_path / "bad.net").write_bytes(b"\xef\xbb\xbf# ok\n1 0 1 bpr 1.0 \xff 0.5 1.0\n")
        assert main(["solve", str(tmp_path / "bad.net"), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith("error: line 2: byte 0xff is not UTF-8\n")

    def test_negative_cycle_exits_1(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "neg.net", NEGATIVE_CYCLE_INSTANCE)
        with deadline(60):
            code = main(["solve", inst, "--model", "multistage", "--gamma", "1=0",
                         "--gamma", "2=10", "--max-iter", "5", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: level 1: ") and "OD 2->1" in err and "cycle" in err

    def test_budget_exhausted_is_uncertified(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "sd.net", SD_TWO_LINK_INSTANCE)
        out = str(tmp_path / "out")
        code = main(["solve", inst, "--model", "stable_dynamics",
                     "--max-iter", "3", "--out", out])
        assert code == 2
        assert "uncertified" in capsys.readouterr().out
        # best-so-far files are still written
        assert os.path.exists(os.path.join(out, "solution.csv"))

    @pytest.mark.parametrize("instance, flags, code, reason", [
        (PIGOU_INSTANCE, ["--model", "beckmann", "--eps", "1e-9"], 0, "certified"),
        (SD_TWO_LINK_INSTANCE, ["--model", "stable_dynamics", "--max-iter", "3"], 2, "max_iter"),
    ])
    def test_summary_names_the_stop_reason(self, tmp_path, instance, flags, code, reason):
        inst = write_instance(tmp_path / "in.net", instance)
        out = tmp_path / "out"
        assert main(["solve", inst, *flags, "--out", str(out)]) == code
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert summary["stop_reason"] == reason
        assert summary["converged"] is (reason == "certified")

    def test_verify_trace_and_potentials(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = str(tmp_path / "out")
        code = main(["solve", inst, "--model", "stochastic", "--gamma", "1=0.2",
                     "--verify", "--trace", "--dump-potentials", "--out", out])
        assert code == 0
        assert "verification PASS" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "trace.csv"))
        assert os.path.exists(os.path.join(out, "potentials.csv"))
        summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
        assert summary["gammas"] == ["0.20000000000000001"]

    @pytest.mark.parametrize("model,gamma", [("stochastic", "1"), ("stochastic", "0.3"),
                                             ("beckmann_md", None)])
    def test_potentials_match_per_origin_sweeps(self, tmp_path, model, gamma):
        inst = write_instance(tmp_path / "grid.net", grid_instance())
        out = tmp_path / "out"
        flags = ["--gamma", f"1={gamma}"] if gamma else []
        code = main(["solve", inst, "--model", model, *flags, "--max-iter", "20",
                     "--dump-potentials", "--out", str(out)])
        assert code in (0, 2)
        net = load_network(inst)
        lg = net.levels[0]
        t = np.array([float(r[4]) for r in read_solution(out / "solution.csv")])
        g = float(gamma or 0.0)
        expected = ["# floats formatted %.17g", "origin,vertex,potential"]
        for o in net.origins():
            u = (softmin_potentials(lg, t, o, g, lg.n_vertices - 1) if g > 0
                 else hard_shortest(lg, t, o)[0])
            expected += [f"{o},{v},{x:.17g}" for v, x in enumerate(u)]
        assert len(net.origins()) == 5
        assert (out / "potentials.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_subgradient_trace_has_a_row_per_iteration(self, tmp_path):
        # iterations count from 0, so a run that stops at iteration k traced k + 1 steps
        inst = write_instance(tmp_path / "braess.net", BRAESS_BASE_INSTANCE)
        out = str(tmp_path / "out")
        code = main(["solve", inst, "--model", "beckmann_md", "--trace",
                     "--max-iter", "50", "--out", out])
        assert code == 2
        summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
        lines = open(os.path.join(out, "trace.csv"), encoding="utf-8").read().splitlines()
        assert lines[1] == "iter,value,lipschitz,gap,trials"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == summary["iterations"] + 1 == 51
        assert all(int(r[4]) >= 1 for r in rows)
        assert all(np.isfinite([float(x) for x in r[1:]]).all() for r in rows)
        assert min(float(r[3]) for r in rows) == float(summary["fw_gap"])

    @pytest.mark.parametrize("model", ["beckmann", "beckmann_md"])
    @pytest.mark.parametrize("instance", [PIGOU_INSTANCE, BRAESS_BASE_INSTANCE,
                                          BRAESS_SHORTCUT_INSTANCE],
                             ids=["pigou", "braess_base", "braess_shortcut"])
    def test_fw_gap_models_write_a_certified_pair(self, tmp_path, capsys, model, instance):
        # the written times are the costs at the written flows, so the
        # Fenchel terms are Fenchel-Young equalities: zero up to rounding
        inst = write_instance(tmp_path / "in.net", instance)
        out = tmp_path / "out"
        code = main(["solve", inst, "--model", model, "--verify", "--out", str(out)])
        assert code == 0
        assert "verification PASS" in capsys.readouterr().out
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert abs(float(summary["total_gap"])) <= 1e-6
        assert float(summary["fw_gap"]) <= 1e-6
        rows = np.array(read_solution(out / "solution.csv"))[:, 4:7].astype(float)
        t, flows, gaps = rows.T
        assert np.array_equal(t, load_network(inst).edges.cost(flows))
        assert np.abs(gaps).max() <= 1e-6
        assert gaps.sum() == pytest.approx(float(summary["total_gap"]), abs=1e-15)

    @pytest.mark.parametrize("model,shown", [("beckmann_md", True), ("stochastic", False)])
    def test_final_line_shows_fw_gap(self, tmp_path, capsys, model, shown):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = str(tmp_path / "out")
        assert main(["solve", inst, "--model", model, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
        last = capsys.readouterr().out.splitlines()[-1]
        assert ("fw_gap" in last) == shown
        if shown:
            assert f" fw_gap={summary['fw_gap']} " in last

    @pytest.mark.parametrize("flag", ["--eps", "--eps-residual"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_tolerance_exits_1(self, tmp_path, capsys, flag, value):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = tmp_path / "o"
        code = main(["solve", inst, flag, value, "--out", str(out)])
        # the library's message, naming its parameter
        name = flag[2:].replace("-", "_")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {name} must be positive and finite, got {float(value)}\n")
        assert not out.exists()

    def test_failed_verify_exits_1(self, tmp_path, capsys, monkeypatch):
        from equiflow import cli

        monkeypatch.setattr(cli, "duality_gap", lambda *args: (None, 1.0))
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        code = main(["solve", inst, "--eps", "1e-9", "--verify", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "verification FAIL" in capsys.readouterr().out

    def test_bad_gamma_override(self, tmp_path):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        assert main(["solve", inst, "--gamma", "2=0.5",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-0.5", "-0.5")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_or_negative_gamma_override(self, tmp_path, capsys, value, shown, source):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        if source == "flag":
            flags = ["--gamma", f"1={value}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"gamma": [f"1={value}"]}), encoding="utf-8")
            flags = ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", inst, "--model", "stochastic", *flags,
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: level 1: gamma must be finite and nonnegative, got {shown}\n")

    @pytest.mark.parametrize("command", ["solve", "compare", "od"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_max_iter_exits_1(self, tmp_path, capsys, command, source):
        if command == "od":
            inputs = od_inputs(tmp_path, {(0, 0): 1.0}, [1.0], [1.0])
        else:
            inputs = [write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)]
        if source == "flag":
            flags = ["--max-iter", "-5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"max_iter": -5}), encoding="utf-8")
            flags = ["--config", str(cfg)]
        out = tmp_path / "o"
        assert main([command, *inputs, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: max_iter must be nonnegative, got -5\n"
        assert not out.exists()

    def test_subgradient_zero_budget_takes_one_step(self, tmp_path):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = tmp_path / "o"
        code = main(["solve", inst, "--model", "beckmann_md", "--max-iter", "0", "--trace",
                     "--out", str(out)])
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert code == (0 if summary["converged"] else 2)
        assert summary["iterations"] == 0  # iterations count from 0
        # comment, header, 1 row
        assert len((out / "trace.csv").read_text(encoding="utf-8").splitlines()) == 3

    def test_deterministic_outputs(self, tmp_path):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["solve", inst, "--model", "beckmann", "--eps", "1e-9",
                         "--out", out]) == 0
            outs.append(out)
        for fname in ("solution.csv", "summary.json"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b

    def test_outputs_do_not_depend_on_the_blas_threads(self, tmp_path):
        # an 8 x 8 grid and a two-way tail of 6 more vertices, with an origin
        # at every vertex, takes the dense kernel.  Its 70 x 70 and (adjoint)
        # 140 x 140 products are large enough for OpenBLAS to split them over
        # threads, and no multiple of 8 rows: one thread and two must write
        # the same bytes
        k, n = 8, 70
        edges = [line for line in grid_instance(k).splitlines() if line.startswith("1 ")]
        edges += [f"1 {a} {b} bpr 1.5 1.0 0.15 1.0"
                  for v in range(k * k - 1, n - 1) for a, b in ((v, v + 1), (v + 1, v))]
        ods = [f"od 1 {o} {(7 * o + 31) % n} 0.5" for o in range(n)]
        inst = write_instance(tmp_path / "grid.net", "\n".join(edges + ods) + "\n")
        lg = load_network(inst).levels[0]
        _, kept = softmin._sweep_forward(lg, np.ones(lg.n_edges), [0], 1.0, n - 1, keep=True)
        assert kept[2] == "dense"  # (Z_H, (K, origins, H), "dense")
        src = os.path.dirname(os.path.dirname(softmin.__file__))
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from equiflow.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "solve", inst, "--model", "stochastic",
                 "--gamma", "1=1", "--max-iter", "3", "--dump-potentials", "--trace",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300, encoding="utf-8")
            assert done.returncode in (0, 2), done.stderr
            files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        # trace.csv's lipschitz and trials columns follow the secants
        assert "potentials.csv" in files["1"] and "trace.csv" in files["1"]
        assert files["1"] == files["2"]

    def test_out_env_var(self, tmp_path, monkeypatch):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        out = str(tmp_path / "from_env")
        monkeypatch.setenv("EQUIFLOW_OUT", out)
        assert main(["solve", inst, "--model", "beckmann", "--eps", "1e-9"]) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))


class TestModelRouting:
    @pytest.mark.parametrize("model", ["mixed", "stable_dynamics", None])
    def test_nested_network_runs_requested_model(self, tmp_path, model):
        inst = write_instance(tmp_path / "nested.net", NESTED_INSTANCE)
        out = tmp_path / "out"
        flags = ["--model", model] if model else []
        assert main(["solve", inst, *flags, "--eps", "1e-4", "--out", str(out)]) == 0
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert summary["model"] == (model or "multistage")
        assert summary["converged"] is True

    @pytest.mark.parametrize("model", ["stochastic", "beckmann", "beckmann_md"])
    def test_single_level_models_reject_nested_network(self, tmp_path, capsys, model):
        inst = write_instance(tmp_path / "nested.net", NESTED_INSTANCE)
        assert main(["solve", inst, "--model", model, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: model {model!r} expects a single-level network\n"

    @pytest.mark.parametrize("model", ["beckmann", "beckmann_md", None])
    def test_frank_wolfe_models_reject_sd_edges(self, tmp_path, capsys, model):
        # beckmann is the single-level default
        inst = write_instance(tmp_path / "sd.net", SD_TWO_LINK_INSTANCE)
        flags = ["--model", model] if model else []
        assert main(["solve", inst, *flags, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: equilibrium gap needs BPR cost maps on every edge\n")

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_partial_gamma_override_keeps_model_smoothing(self, tmp_path, command):
        # overriding level 2 with its own value used to put the network's
        # scale (1) on level 1 in place of stable_dynamics' 0.1
        inst = write_instance(tmp_path / "nested.net", NESTED_BPR_INSTANCE)
        instances = [inst] if command == "solve" else [inst, inst]
        runs = {"model": [], "override": ["--gamma", "2=0.1"]}
        for name, flags in runs.items():
            assert main([command, *instances, "--model", "stable_dynamics", *flags,
                         "--out", str(tmp_path / name)]) == 0
        for path in (tmp_path / "model").iterdir():
            assert (tmp_path / "override" / path.name).read_bytes() == path.read_bytes()
        if command == "solve":
            summary = json.load(open(tmp_path / "override" / "summary.json", encoding="utf-8"))
            assert summary["gammas"] == ["0.10000000000000001", "0.10000000000000001"]

    def test_override_applies_on_the_model_smoothing(self, tmp_path):
        inst = write_instance(tmp_path / "nested.net", NESTED_BPR_INSTANCE)
        out = tmp_path / "out"
        assert main(["solve", inst, "--model", "stable_dynamics", "--gamma", "1=0.3",
                     "--out", str(out)]) == 0
        assert json.load(open(out / "summary.json", encoding="utf-8"))["gammas"] == [
            "0.29999999999999999", "0.10000000000000001"]


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "beckmann", "eps": 1e-3,
                                   "out": str(tmp_path / "cfg_out")}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--eps", "1e-9"]) == 0
        summary = json.load(open(tmp_path / "cfg_out" / "summary.json", encoding="utf-8"))
        assert summary["model"] == "beckmann"
        assert float(summary["eps"]) == 1e-9  # flag beats config

    def test_config_gamma_dict_matches_flag(self, tmp_path):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": {"1": 0.5}}), encoding="utf-8")
        runs = {"flag": ["--gamma", "1=0.5"], "config": ["--config", str(cfg)]}
        for name, flags in runs.items():
            assert main(["solve", inst, "--model", "stochastic", *flags,
                         "--out", str(tmp_path / name)]) == 0
        for f in ("solution.csv", "summary.json"):
            assert (tmp_path / "config" / f).read_bytes() == (tmp_path / "flag" / f).read_bytes()
        summary = json.load(open(tmp_path / "config" / "summary.json", encoding="utf-8"))
        assert summary["gammas"] == ["0.5"]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # used to fail as "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        text = json.dumps({"model": "stochastic", "gamma": {"1": 0.5}})
        for name, prefix in [("plain", ""), ("bom", "\ufeff")]:
            cfg.write_text(prefix + text, encoding="utf-8")
            assert main(["solve", inst, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert cfg.read_bytes()[:3] == b"\xef\xbb\xbf"
        for f in ("solution.csv", "summary.json"):
            assert (tmp_path / "bom" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes()
        summary = json.load(open(tmp_path / "bom" / "summary.json", encoding="utf-8"))
        assert summary["gammas"] == ["0.5"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epz": 1e-3}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_seed_key_rejected(self, tmp_path, capsys):
        # the CLI runs no mini-batch solve, so a seed would change nothing
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

    def test_hops_key_rejected(self, tmp_path, capsys):
        # no subcommand has a hop flag, so the key would be dropped silently
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hops": 3}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['hops']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("max_iter", "50"), ("max_iter", 50.0), ("eps", "1e-3"),
        ("trace", "yes"), ("model", 3), ("gamma", 0.5), ("gamma", "1=0.5"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, key, value):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r} must be ") and "Traceback" not in err

    @pytest.mark.parametrize("key, value, message", [
        ("model", "wardrop", "error: unknown model 'wardrop'"),
        ("gamma", [1], "error: bad gamma override 1"),
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, key, value, message):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_unknown_model_with_override_rejected(self, tmp_path, capsys):
        # the overrides apply on the model's smoothing, so the name is checked first
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "wardrop"}), encoding="utf-8")
        assert main(["solve", inst, "--config", str(cfg), "--gamma", "1=0.5",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown model 'wardrop'; expected one of {MODELS}\n")


class TestCompare:
    def test_braess_ranking(self, tmp_path, capsys):
        base = write_instance(tmp_path / "base.net", BRAESS_BASE_INSTANCE)
        shortcut = write_instance(tmp_path / "shortcut.net", BRAESS_SHORTCUT_INSTANCE)
        out = str(tmp_path / "out")
        code = main(["compare", shortcut, base, "--model", "beckmann",
                     "--eps", "1e-9", "--out", out])
        assert code == 0
        payload = json.load(open(os.path.join(out, "comparison.json"), encoding="utf-8"))
        assert payload["ranking"] == ["base", "shortcut"]
        times = {r["scenario"]: float(r["total_time"]) for r in payload["scenarios"]}
        assert times["base"] == pytest.approx(1.5, abs=1e-4)
        assert times["shortcut"] == pytest.approx(2.0, abs=1e-4)
        assert "base < shortcut" in capsys.readouterr().out

    def test_identical_scenarios_rank_by_name(self, tmp_path):
        a = write_instance(tmp_path / "a.net", PIGOU_INSTANCE)
        b = write_instance(tmp_path / "b.net", PIGOU_INSTANCE)
        out = str(tmp_path / "out")
        assert main(["compare", b, a, "--model", "beckmann", "--eps", "1e-9",
                     "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "comparison.json"), encoding="utf-8"))
        assert payload["ranking"] == ["a", "b"]

    def test_od_sets_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # the mismatch used to surface only after every scenario was solved
        from equiflow import cli

        solves = []
        real = cli.solve_assignment
        monkeypatch.setattr(cli, "solve_assignment",
                            lambda *a, **kw: solves.append(1) or real(*a, **kw))
        a = write_instance(tmp_path / "a.net", PIGOU_INSTANCE)
        b = write_instance(tmp_path / "b.net", BRAESS_BASE_INSTANCE)
        assert main(["compare", a, a, b, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: scenarios do not share the same OD set\n"
        assert solves == []

    def test_mismatched_od_sets_rejected(self, tmp_path, capsys):
        a = write_instance(tmp_path / "a.net", PIGOU_INSTANCE)
        other = "1 0 1 bpr 1.0 1.0 0.0 1.0\n1 1 2 bpr 1.0 1.0 0.0 1.0\nod 1 0 2 1.0\n"
        b = write_instance(tmp_path / "b.net", other)
        assert main(["compare", a, b, "--model", "beckmann",
                     "--out", str(tmp_path / "o")]) == 1
        assert "OD set" in capsys.readouterr().err


class TestCertifiedOutput:
    @pytest.mark.parametrize("model", ["mixed", "stable_dynamics", "stochastic", "multistage"])
    def test_converged_flows_meet_every_tolerance(self, tmp_path, model):
        from equiflow import capacity_violation, complementarity_residual, duality_gap
        from equiflow.network import load_network

        inst = write_instance(tmp_path / "cap.net", CAPACITY_MIXED_INSTANCE)
        out = tmp_path / "out"
        eps = 1e-3
        code = main(["solve", inst, "--model", model, "--eps", repr(eps), "--verify",
                     "--out", str(out)])
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert code == 0 and summary["converged"] is True
        rows = read_solution(out / "solution.csv")
        t = np.array([float(r[4]) for r in rows])
        f = np.array([float(r[5]) for r in rows])
        net = load_network(inst)
        assert duality_gap(net, t, f)[1] <= eps
        assert capacity_violation(net, f) <= eps
        assert complementarity_residual(net, t, f) <= 10 * eps

    def test_stochastic_capacitated_link_certificate_holds(self, tmp_path):
        # the Fenchel gap clamps flow to capacity, so on its own it certified
        # this link overloaded by 0.46 at step 0
        inst = write_instance(tmp_path / "sd.net", SD_TWO_LINK_INSTANCE)
        out = tmp_path / "out"
        code = main(["solve", inst, "--model", "stochastic", "--out", str(out)])
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert code == (0 if summary["converged"] else 2)
        if summary["converged"]:
            eps, eps_res = float(summary["eps"]), float(summary["eps_residual"])
            assert float(summary["capacity_violation"]) <= eps_res
            assert float(summary["complementarity"]) <= 10 * max(eps, eps_res)

    def test_average_certificate_writes_its_route_bound(self, tmp_path, capsys):
        # the nested SD network of test_multistage_with_capacitated_inner_level
        # certifies through the step-weighted average; its edge Fenchel terms
        # sum to 0.0, which was all total_gap carried
        inst = write_instance(tmp_path / "nested_sd.net", NESTED_SD_INSTANCE)
        out = tmp_path / "out"
        code = main(["solve", inst, "--max-iter", "5000", "--verify", "--out", str(out)])
        printed = capsys.readouterr().out
        summary = json.load(open(out / "summary.json", encoding="utf-8"))
        assert code == 0 and "verification PASS" in printed
        # --verify rechecks only the edge terms and says so
        assert (f"; route-choice term {summary['route_gap']} taken as reported\n"
                in printed)
        gaps = [float(r[6]) for r in read_solution(out / "solution.csv") if r[6]]
        assert sum(gaps) == 0.0
        route = float(summary["route_gap"])
        assert 0.0 < route <= float(summary["eps"])
        assert summary["total_gap"] == summary["route_gap"]
        assert f"certified gap={summary['total_gap']} " in printed.splitlines()[-1]


class TestBadInput:
    VALID = ["1 0 1 bpr 1.0 1.0 0.5 1.0", "1 0 1 bpr 2.0 1.0 0.0 1.0", "od 1 0 1 1.0",
             "gamma 1 1.0"]

    @pytest.mark.parametrize("line, record", [
        (3, "gamma 1 nan"),
        (3, "gamma 1 inf"),
        (0, "1 0 1 bpr 1.0 1.0 nan 1.0"),
        (0, "1 0 1 bpr 1.0 1.0 inf 1.0"),
        (0, "1 0 1 bpr 1.0 1.0 0.5 nan"),
        (0, "1 0 1 bpr inf 1.0 0.5 1.0"),
        (1, "1 0 1 sd nan 1.0"),
        (2, "od 1 0 1 nan"),
        (2, "od 1 0 1 inf"),
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, line, record):
        lines = list(self.VALID)
        lines[line] = record
        inst = write_instance(tmp_path / "nan.net", "\n".join(lines) + "\n")
        code = main(["solve", inst, "--model", "stochastic", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    EDGE = "1 0 1 bpr 1.0 1.0 0.5 1.0\n"
    INNER = "2 0 1 bpr 1.0 1.0 0.5 1.0\n"
    OD = "od 1 0 1 1.0\n"

    @pytest.mark.parametrize("text, message", [
        ("1 -1 1 bpr 1.0 1.0 0.5 1.0\n" + OD, "level 1 edge -1->1: vertex out of range"),
        ("1 0 1 bpr 1.0 inf 0.5 1.0\n" + OD,
         "level 1 edge 0->1: BPR edge needs a finite capacity"),
        ("1 0 0 nested 0:1\n" + EDGE + INNER + OD, "level 1 nested edge 0->0: self-loop"),
        ("1 0 1 nested -1:1\n" + INNER + OD,
         "level 1 nested edge 0->1: referenced OD -1->1 outside level 2"),
        ("1 0 1 nested 1:1\n" + INNER + OD,
         "level 1 nested edge 0->1: referenced OD is a self-pair"),
        (EDGE + "od 1 -1 1 1.0\n", "demand -1->1: vertex outside level 1"),
        (EDGE + "od 1 1 1 1.0\n", "demand 1->1: origin equals destination"),
        ("one 0 1 bpr 1.0 1.0 0.5 1.0\n" + OD, "line 1: bad level 'one'"),
        (EDGE + "od 1 0 1\n", "line 2: od record needs: od level origin dest demand"),
        (EDGE + "od 2 0 1 1.0\n", "line 2: demands are only declared at level 1"),
        (EDGE + OD + "gamma 1\n", "line 3: gamma record needs: gamma level value"),
        # these three gamma records were dropped or overwritten silently
        (EDGE + OD + "gamma 3 0.2\n", "line 3: gamma for missing level 3"),
        (EDGE + OD + "gamma 0 9\n", "line 3: gamma for missing level 0"),
        (EDGE + OD + "gamma 1 0.5\ngamma 1 0.5\n", "line 4: duplicate gamma for level 1"),
        ("1 0 1 bpr\n" + OD, "line 1: edge record needs at least 5 fields"),
        ("1 0 1 nested 0-1\n" + INNER + OD, "line 1: nested reference must look like o:d"),
        ("1 0 1 bpr 1.0 1.0 0.5\n" + OD,
         "line 1: bpr record needs: level tail head bpr t_free capacity gain power"),
        ("1 0 1 sd 1.0 1.0 0.5\n" + OD,
         "line 1: sd record needs: level tail head sd t_free capacity"),
        ("1 0 1 linear 1.0\n" + OD, "line 1: unknown edge kind 'linear'"),
        ("# no records\n", "empty instance"),
        (EDGE + "3 0 1 bpr 1.0 1.0 0.5 1.0\n" + OD,
         "levels must be contiguous starting at 1, got [1, 3]"),
    ], ids=["vertex-range", "bpr-capacity", "nested-self-loop", "nested-od-range",
            "nested-od-self-pair", "demand-range", "demand-self-pair", "bad-int",
            "od-fields", "od-level", "gamma-fields", "gamma-level-above", "gamma-level-0",
            "gamma-duplicate", "edge-fields", "nested-ref", "bpr-fields", "sd-fields",
            "edge-kind", "empty", "levels-gap"])
    def test_bad_record_exits_1(self, tmp_path, capsys, text, message):
        inst = write_instance(tmp_path / "bad.net", text)
        code = main(["solve", inst, "--model", "stochastic", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_diverged_solver_exits_1(self, tmp_path, capsys, monkeypatch):
        from equiflow import cli
        from equiflow.solvers import DivergedOracleError

        def diverge(*args, **kwargs):
            raise DivergedOracleError("line-search L exceeded ceiling")

        monkeypatch.setattr(cli, "solve_assignment", diverge)
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        assert main(["solve", inst, "--out", str(tmp_path / "o")]) == 1
        assert "error: line-search L exceeded ceiling" in capsys.readouterr().err

    def test_step_aggregate_overflow_reported(self, tmp_path, capsys):
        # beckmann on Pigou has mu = 1, so the step aggregate grows
        # geometrically and overflows before the stop test certifies
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        assert main(["solve", inst, "--gamma", "1=0.5", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver stalled at step ")
        assert "the step aggregate A = inf or the point y overflowed" in err
        assert "no walk" not in err


class TestUnreadOptions:
    """Each subcommand takes only the flags and config keys it reads."""

    def inputs(self, tmp_path, command):
        if command == "od":
            return od_inputs(tmp_path, {(0, 0): 1.0}, [1.0], [1.0])
        return [write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)]

    @pytest.mark.parametrize("command, flag", [
        ("compare", "--verify"), ("compare", "--trace"), ("od", "--seed=1"), ("od", "--trace"),
        ("solve", "--seed=1"),
    ])
    def test_flag_rejected(self, tmp_path, capsys, command, flag):
        # usage errors exit 1 like other input errors; 2 means budget exhausted
        with pytest.raises(SystemExit) as exc:
            main([command, *self.inputs(tmp_path, command), flag, "--out", str(tmp_path / "o")])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("compare", "dump_potentials", True), ("compare", "trace", True),
        ("compare", "verify", True), ("od", "model", "beckmann"),
        ("od", "trace", True), ("od", "dump_potentials", True),
    ])
    def test_config_key_rejected(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "o"
        inputs = self.inputs(tmp_path, command)
        assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config key {key!r} is not used by {command}\n")
        assert not out.exists()


class TestOd:
    def test_uniform_two_by_two(self, tmp_path, capsys):
        costs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        c, r, w = od_inputs(tmp_path, costs, [1.0, 1.0], [1.0, 1.0])
        out = str(tmp_path / "out")
        code = main(["od", c, r, w, "--gamma", "1.0", "--verify", "--out", out])
        assert code == 0
        assert "verification PASS" in capsys.readouterr().out
        cells = {}
        with open(os.path.join(out, "matrix.csv"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("row,"):
                    continue
                i, j, v = line.split(",")
                cells[(int(i), int(j))] = float(v)
        assert all(v == pytest.approx(0.5, abs=1e-6) for v in cells.values())
        cert = json.load(open(os.path.join(out, "certificate.json"), encoding="utf-8"))
        assert cert["converged"] is True

    def test_unbalanced_marginals_error(self, tmp_path, capsys):
        costs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        c, r, w = od_inputs(tmp_path, costs, [1.0, 1.0], [1.0, 2.0])
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert "unbalanced" in capsys.readouterr().err

    def test_duplicate_marginal_zone_rejected(self, tmp_path, capsys):
        c, r, w = od_inputs(tmp_path, {(0, 0): 1.0, (0, 1): 1.0}, [2.0], [1.0, 1.0])
        with open(w, "a", encoding="utf-8") as fh:
            fh.write("1,1.0\n")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {w}: line 3: duplicate zone 1\n"

    def test_duplicate_cost_pair_rejected(self, tmp_path, capsys):
        c, r, w = od_inputs(tmp_path, {(0, 0): 1.0, (0, 1): 1.0}, [2.0], [1.0, 1.0])
        with open(c, "a", encoding="utf-8") as fh:
            fh.write("0,1,2.0\n")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {c}: line 3: duplicate zone pair 0,1\n"

    def test_missing_cost_entry_rejected(self, tmp_path, capsys):
        costs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0}
        c, r, w = od_inputs(tmp_path, costs, [1.0, 1.0], [1.0, 1.0])
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert "no cost for zone pair 1,1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cost_zone_outside_marginals_rejected(self, tmp_path, capsys):
        costs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0, (2, 1): 1.0}
        c, r, w = od_inputs(tmp_path, costs, [1.0, 1.0], [1.0, 1.0])
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert "line 5: zone pair 2,1 is not in" in capsys.readouterr().err

    @pytest.mark.parametrize("record, message", [
        ("0;0;1.0", "line 2: expected 2 integer ids and a value"),
        ("0,1,nan", "line 2: value must be finite"),
        ("0,1,inf", "line 2: value must be finite"),
    ])
    def test_malformed_cost_line_rejected(self, tmp_path, capsys, record, message):
        c, r, w = od_inputs(tmp_path, {(0, 0): 1.0}, [1.0], [1.0, 1.0])
        with open(c, "a", encoding="utf-8") as fh:
            fh.write(record + "\n")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "inf"], "gamma must be positive and finite, got inf"),
        (["--gamma", "nan"], "gamma must be positive and finite, got nan"),
        (["--eps", "nan"], "eps must be positive and finite, got nan"),
        (["--eps", "-1"], "eps must be positive and finite, got -1.0"),
        (["--eps-residual", "nan"], "eps_residual must be positive and finite, got nan"),
        (["--eps-residual", "inf"], "eps_residual must be positive and finite, got inf"),
    ], ids=["gamma-inf", "gamma-nan", "eps-nan", "eps-negative", "eps-residual-nan",
            "eps-residual-inf"])
    def test_bad_parameter_exits_1(self, tmp_path, capsys, flags, message):
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        assert main(["od", c, r, w, *flags, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_failed_verify_exits_1(self, tmp_path, capsys, monkeypatch):
        from equiflow import cli

        monkeypatch.setattr(cli, "balancing_oracle",
                            lambda L, W, T, gamma: (np.zeros((len(L), len(W))), True))
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        assert main(["od", c, r, w, "--verify", "--out", str(tmp_path / "o")]) == 1
        assert "verification FAIL" in capsys.readouterr().out

    def test_verify_passes_beyond_the_float_range(self, tmp_path, capsys):
        # the reference balancing overflowed, warned three times and printed
        # "verification FAIL: max deviation nan" for a certified solve
        L, W, T = wide_kernel_draw()
        c, r, w = od_inputs(tmp_path, {(i, j): T[i, j] for i in range(len(L))
                                       for j in range(len(W))}, L, W)
        assert main(["od", c, r, w, "--gamma", "0.1", "--verify",
                     "--out", str(tmp_path / "o")]) == 0
        assert "verification PASS" in capsys.readouterr().out

    def test_matrix_is_the_last_iterate(self, tmp_path, monkeypatch):
        from equiflow import od

        # every step, accelerated or Newton, certifies the softmax it hands
        # to primal_value; replay them through a spy
        steps = []
        real = od.primal_value

        def spy(problem, x):
            steps.append(x)
            return real(problem, x)

        monkeypatch.setattr(od, "primal_value", spy)
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        L = [2.0, 1.0]
        c, r, w = od_inputs(tmp_path, costs, L, [1.5, 1.5])
        out = tmp_path / "out"
        assert main(["od", c, r, w, "--gamma", "0.5", "--out", str(out)]) == 0
        cert = json.load(open(out / "certificate.json", encoding="utf-8"))
        assert cert["stop_reason"] == "certified_newton" and cert["newton_steps"] > 0
        assert cert["iterations"] + 1 == len(steps) and "primal" not in cert
        lines = (out / "matrix.csv").read_text(encoding="utf-8").splitlines()
        written = np.array([float(line.split(",")[2]) for line in lines[2:]])
        assert np.array_equal(written, steps[-1] * sum(L))

    @pytest.mark.parametrize("budget, code, reason", [
        ([], 0, "certified_newton"), (["--max-iter", "2"], 2, "max_iter"),
        (["--eps", "1", "--eps-residual", "1"], 0, "certified"),
    ])
    def test_certificate_names_the_stop_reason(self, tmp_path, budget, code, reason):
        # tolerances loose enough to certify before the hand-over to Newton
        # steps certify in the accelerated phase
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        out = tmp_path / "out"
        assert main(["od", c, r, w, "--gamma", "0.5", *budget, "--out", str(out)]) == code
        cert = json.load(open(out / "certificate.json", encoding="utf-8"))
        assert cert["stop_reason"] == reason
        assert cert["converged"] is (reason != "max_iter")
        assert (cert["newton_steps"] > 0) is (reason == "certified_newton")

    def test_outputs_do_not_depend_on_the_blas_threads(self, tmp_path):
        # 120 zones: the Newton steps form the 120 x 120 product x.T @ xr,
        # large enough for OpenBLAS to split over threads, and factor a
        # 119 x 119 system by matrix-vector products (od._cholesky_solve),
        # not LAPACK; one thread and two must write the same bytes
        rng = np.random.default_rng(120)
        pts = rng.uniform(0.0, 4.0, size=(120, 2))
        T = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        L, W = rng.uniform(1.0, 10.0, size=(2, 120))
        W *= L.sum() / W.sum()
        c, r, w = od_inputs(tmp_path, {(i, j): T[i, j] for i in range(120) for j in range(120)},
                            L, W)
        src = os.path.dirname(os.path.dirname(softmin.__file__))
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from equiflow.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "od", c, r, w, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300, encoding="utf-8")
            assert done.returncode == 0, done.stderr
            files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert json.loads(files["1"]["certificate.json"])["newton_steps"] > 0
        assert files["1"] == files["2"]

    def test_config_gamma_applies(self, tmp_path):
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["od", c, r, w, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.load(open(out / "certificate.json", encoding="utf-8"))["gamma"] == "0.5"

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "gamma must be positive and finite, got nan"),
        ({"1": 0.5}, "config key 'gamma' must be a number"),
    ])
    def test_config_gamma_checked(self, tmp_path, capsys, value, message):
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": value}), encoding="utf-8")
        assert main(["od", c, r, w, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_matrix_rows_are_zone_ids(self, tmp_path):
        # the rows used to be positions: 0,0 0,1 1,0 1,1
        c = tmp_path / "costs.csv"
        c.write_text("10,0,0.3\n10,9,1.2\n20,0,0.8\n20,9,0.1\n", encoding="utf-8")
        r = tmp_path / "rows.csv"
        r.write_text("20,1.0\n10,2.0\n", encoding="utf-8")
        w = tmp_path / "cols.csv"
        w.write_text("9,1.5\n0,1.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["od", str(c), str(r), str(w), "--verify", "--out", str(out)]) == 0
        lines = (out / "matrix.csv").read_text(encoding="utf-8").splitlines()
        cells = {tuple(map(int, line.split(",")[:2])): float(line.split(",")[2])
                 for line in lines[2:]}
        assert list(cells) == [(10, 0), (10, 9), (20, 0), (20, 9)]
        assert cells[(10, 0)] + cells[(10, 9)] == pytest.approx(2.0, abs=1e-6)
        assert cells[(10, 9)] + cells[(20, 9)] == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("empty", ["rows", "both"])
    def test_empty_marginal_files_exit_1(self, tmp_path, capsys, empty):
        c, r, w = od_inputs(tmp_path, {}, [], [])
        if empty == "rows":
            (tmp_path / "cols.csv").write_text("0,1.0\n", encoding="utf-8")
        n_cols = int(empty == "rows")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: empty marginals: 0 rows and {n_cols} columns\n"

    def test_overflowing_marginal_total_exits_1(self, tmp_path, capsys):
        # the sum overflowed with a RuntimeWarning, then failed as "eps must be positive"
        costs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        c, r, w = od_inputs(tmp_path, costs, [1e308, 1e308], [1e308, 1e308])
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: marginal totals must be finite, got inf and inf\n")

    def test_unbalanced_verification_says_so(self, tmp_path, capsys, monkeypatch):
        from equiflow import cli

        monkeypatch.setattr(cli, "balancing_oracle",
                            lambda L, W, T, gamma: (np.zeros((len(L), len(W))), False))
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        assert main(["od", c, r, w, "--verify", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out.endswith("; balancing did not converge\n")

    def test_deterministic_matrix(self, tmp_path):
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        c, r, w = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["od", c, r, w, "--gamma", "0.5", "--out", out]) == 0
            blobs.append(open(os.path.join(out, "matrix.csv"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_first_bad_line_is_named(self, tmp_path, capsys):
        # two faults: the bulk parse trips on line 4, the value check on line 2
        c, r, w = od_inputs(tmp_path, {}, [1.0, 1.0], [1.0, 1.0])
        with open(c, "w", encoding="utf-8") as fh:
            fh.write("0,0,1.0\n0,1,nan\n1,0,1.0\n0;1;2\n")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {c}: line 2: value must be finite, got nan\n"

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["costs", "rows", "cols"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys, which):
        # the bulk parse fails on the decode; the reference reader names the line
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        files = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        with open(files[which], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines.insert(1, "# caf\u00e9 \xff\n".encode("latin-1"))
        with open(files[which], "wb") as fh:
            fh.write(b"".join(lines))
        assert main(["od", *files, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {files[which]}: line 2: byte 0xe9 is not UTF-8\n")

    def test_malformed_marginal_line_rejected(self, tmp_path, capsys):
        c, r, w = od_inputs(tmp_path, {(0, 0): 1.0}, [1.0], [1.0])
        with open(r, "w", encoding="utf-8") as fh:
            fh.write("0;1.0\n")
        assert main(["od", c, r, w, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {r}: line 1: expected a zone id and a value, got '0;1.0'\n")

    @pytest.mark.parametrize("reader", ["bulk", "reference"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, reader):
        # spreadsheet exports start with one; line 1 used to fail as
        # "expected 1 integer ids and a value, got '\ufeff0,1.0'"
        from equiflow import cli

        if reader == "reference":
            monkeypatch.setattr(cli, "_bulk_records", lambda path, n_ids: None)
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        files = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        assert main(["od", *files, "--out", str(tmp_path / "plain")]) == 0
        for path in files:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\ufeff" + text)
        assert open(files[0], "rb").read(3) == b"\xef\xbb\xbf"
        assert main(["od", *files, "--out", str(tmp_path / "bom")]) == 0
        assert ((tmp_path / "bom" / "matrix.csv").read_bytes()
                == (tmp_path / "plain" / "matrix.csv").read_bytes())


class TestOdReader:
    """The bulk reader against the per-line reader, kept as the reference."""

    ROWS, COLS = (3, 7, 12), (12, 3, 7)
    TOKENS = ["0.1", "2.675", "0.30000000000000004", "1e-320", "4.9406564584124654e-324",
              "-0", "1.7976931348623157e308", "123456789.12345678", "7"]

    @staticmethod
    def read(c, r, w):
        from equiflow import cli

        rows, L = cli._read_marginal_csv(r)
        cols, W = cli._read_marginal_csv(w)
        return rows, L, cols, W, cli._read_cost_csv(c, rows, cols)

    def write(self, tmp_path, variant):
        """COSTS, ROWS and COLS in one of the well-formed layouts."""
        cells = [(i, j, self.TOKENS[k % len(self.TOKENS)])
                 for k, (i, j) in enumerate((i, j) for i in self.ROWS for j in self.COLS)]
        files = {"costs": cells, "rows": [(z, "1.5") for z in self.ROWS],
                 "cols": [(z, "0.5") for z in self.COLS[::-1]]}
        lead, end = "", "\n"

        def line(*fields):
            return ",".join(map(str, fields))

        if variant == "shuffled":
            np.random.default_rng(5).shuffle(cells)
        elif variant == "crlf":
            end = "\r\n"
        elif variant == "comments":
            lead = "# zone ids, then a value\n\n"
            end = "  # a note\n\n"
        elif variant == "spaces":
            def line(*fields):
                return " " + " ,\t".join(map(str, fields)) + " "
        elif variant == "plus":
            def line(*fields):
                return ",".join([f"+{z}" for z in fields[:-1]] + [fields[-1]])
        elif variant == "whitespace":
            lead, end = " \t \n", "\n   \n"
        paths = []
        for name, records in files.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes((lead + "".join(line(*rec) + end for rec in records)).encode())
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("variant", ["plain", "shuffled", "crlf", "spaces", "plus",
                                         "comments", "whitespace"])
    def test_bulk_matches_the_reference_bit_for_bit(self, tmp_path, monkeypatch, variant):
        from equiflow import cli

        files = self.write(tmp_path, variant)

        def refuse(path, n_ids):
            raise AssertionError("the bulk reader fell back to the per-line reader")

        with monkeypatch.context() as m:
            m.setattr(cli, "_csv_records", refuse)
            bulk = self.read(*files)
        with monkeypatch.context() as m:
            m.setattr(cli, "_bulk_records", lambda path, n_ids: None)
            reference = self.read(*files)
        assert bulk[0] == reference[0] == list(self.ROWS)
        assert bulk[2] == reference[2] == sorted(self.COLS)
        for got, want in zip(bulk[1::2], reference[1::2]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert sorted(reference[4].ravel().tolist()) == sorted(map(float, self.TOKENS))

    @pytest.mark.parametrize("costs, column", [
        ("0,0,1_0\n1,0,2.0\n", [10.0, 2.0]),
        ("0,0,1.0\n   \n1,0,2.0\n", [1.0, 2.0]),
        ("0,0,1.0\n1_0,0,2.0\n", None),
    ], ids=["underscore-value", "whitespace-line", "underscore-id"])
    def test_files_numpy_rejects_go_to_the_reference(self, tmp_path, costs, column):
        # the per-line reader's verdict stands: a result when it finds
        # nothing wrong, else its line-numbered error
        c, r, w = od_inputs(tmp_path, {}, [1.0, 1.0], [2.0])
        with open(c, "w", encoding="utf-8") as fh:
            fh.write(costs)
        if column is None:
            with pytest.raises(ValueError, match=r"line 2: zone pair 10,0 is not in"):
                self.read(c, r, w)
        else:
            assert self.read(c, r, w)[4][:, 0].tolist() == column


class TestCsvLayout:
    def test_every_csv_has_one_layout(self, tmp_path, monkeypatch):
        # every CSV the CLI writes: the float-format line, its header, and
        # one line per row the library handed over, floats at 17 digits
        from equiflow import cli

        written = {}
        real = cli._write_csv

        def spy(path, header, rows):
            rows = [tuple(r) for r in rows]
            written[path] = (header, rows)
            real(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", spy)
        nested = write_instance(tmp_path / "nested.net", NESTED_INSTANCE)
        pigou = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        od_files = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        outs = [tmp_path / name for name in ("solve", "compare", "od")]
        assert main(["solve", nested, "--trace", "--dump-potentials", "--out", str(outs[0])]) == 0
        assert main(["compare", nested, pigou, "--out", str(outs[1])]) == 0
        assert main(["od", *od_files, "--out", str(outs[2])]) == 0
        csvs = sorted(str(p) for out in outs for p in out.glob("*.csv"))
        assert [os.path.basename(p) for p in csvs] == [
            "comparison.csv", "matrix.csv", "potentials.csv", "solution.csv", "trace.csv"]
        assert sorted(written) == csvs
        for path, (header, rows) in written.items():
            lines = open(path, encoding="utf-8").read().splitlines()
            assert lines[:2] == ["# floats formatted %.17g", header]
            assert len(lines) == len(rows) + 2 and rows
            for line, row in zip(lines[2:], rows):
                fields = line.split(",")
                assert len(fields) == len(row) == len(header.split(","))
                for field, x in zip(fields, row):
                    if isinstance(x, float):
                        assert float(field) == x and field == f"{x:.17g}"
                    else:
                        assert field == ("" if x is None else str(x))
        nested_rows = [r for r in read_solution(outs[0] / "solution.csv") if r[1].startswith("n")]
        assert nested_rows == [["1", "n0", "0", "1", "", nested_rows[0][5], "", ""]]
        assert float(nested_rows[0][5]) > 0

    @pytest.mark.parametrize("rows", [
        [(-0.0, 5e-324, 1e308, np.float64(0.1), np.int64(-3), True, None, "n0")] * 3,
        [(1, 0, 0, 1, 0.25, np.float64(0.5), 0.0, -0.0),
         (1, "n0", 0, 1, None, 0.75, None, None),
         (2, 1, 1, 0, 5e-324, 1e308, 1.0, 2.0)],
        [[1, 2.5], (1.5, 2), (None,), (), ("n0", None, True, np.float64(-0.0))],
        [],
    ], ids=["one-shape", "solution-rows", "mixed-shapes", "no-rows"])
    def test_fields_keep_their_format(self, tmp_path, rows):
        from equiflow import cli

        def field(x):  # the rule the writer had when it joined field by field
            return "%.17g" % x if isinstance(x, float) else "" if x is None else str(x)

        path = tmp_path / "out.csv"
        cli._write_csv(str(path), "a,b", iter(rows))
        assert path.read_text(encoding="utf-8") == "# floats formatted %.17g\na,b\n" + "".join(
            ",".join(map(field, row)) + "\n" for row in rows)


class TestParserState:
    """main builds its parser once; no call may leave state for the next."""

    @staticmethod
    def fresh(argv):
        src = os.path.dirname(os.path.dirname(softmin.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-c", "import sys; from equiflow.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=300, encoding="utf-8")

    @pytest.mark.parametrize("before", ["gamma-flag", "config", "od-between"])
    def test_a_call_leaves_no_state(self, tmp_path, capsys, before):
        inst = write_instance(tmp_path / "pigou.net", PIGOU_INSTANCE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "stochastic", "gamma": {"1": 0.5}, "trace": True,
                                   "max_iter": 3}), encoding="utf-8")
        costs = {(0, 0): 0.3, (0, 1): 1.2, (1, 0): 0.8, (1, 1): 0.1}
        od_files = od_inputs(tmp_path, costs, [2.0, 1.0], [1.5, 1.5])
        earlier = {
            "gamma-flag": [["solve", inst, "--model", "stochastic", "--gamma", "1=0.5"]],
            "config": [["solve", inst, "--config", str(cfg)]],
            "od-between": [["solve", inst, "--model", "stochastic", "--gamma", "1=0.5",
                            "--verify"],
                           ["od", *od_files, "--gamma", "0.5"]],
        }[before]
        for k, argv in enumerate(earlier):
            assert main([*argv, "--out", str(tmp_path / f"earlier{k}")]) in (0, 2)
        summary = (tmp_path / "earlier0" / "summary.json").read_text(encoding="utf-8")
        assert json.loads(summary)["gammas"] == ["0.5"]
        argv = ["solve", inst]
        capsys.readouterr()
        code = main([*argv, "--out", str(tmp_path / "later")])
        later = capsys.readouterr()
        done = self.fresh([*argv, "--out", str(tmp_path / "fresh")])
        assert (code, later.out, later.err) == (done.returncode, done.stdout, done.stderr)
        files = {name: {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
                 for name in ("later", "fresh")}
        assert sorted(files["later"]) == ["solution.csv", "summary.json"]
        assert files["later"] == files["fresh"]
