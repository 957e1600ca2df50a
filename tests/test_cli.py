import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from absfw.cli import main, CSV_HEADER


def read_trace(path):
    meta, rows = None, []
    status_line = None
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if ln.startswith("# {"):
                meta = json.loads(ln[2:])
            elif ln.startswith("# status="):
                status_line = ln[2:]
            elif ln and not ln.startswith("#") and ln != CSV_HEADER:
                rows.append(ln.split(","))
    return meta, rows, status_line


class TestRun:
    def test_chained_lq_run(self, tmp_path):
        out = tmp_path / "clq.csv"
        rc = main([
            "run", "--problem", "chained_lq", "--n", "5", "--step", "sqrt",
            "--max-iters", "40", "--out", str(out),
        ])
        assert rc == 0
        meta, rows, status = read_trace(out)
        assert meta["name"] == "chained_lq" and meta["n"] == 5
        assert len(rows) == 40
        assert status.startswith("status=max_iters")
        gaps = np.array([float(r[2]) for r in rows])
        assert np.all(gaps >= -1e-12)
        assert np.all(np.isfinite([float(r[3]) for r in rows]))

    def test_header_format(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["run", "--problem", "mifflin2", "--max-iters", "5", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[1] == "t,alpha,gap,fval,inner_polyhedra,lp_calls,elapsed_ms"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--problem", "lasso", "--n", "8", "--p", "12", "--seed", "3",
                "--max-iters", "10"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("#")]
        # elapsed_ms is excluded from determinism guarantees
        rows_a = [ln.rsplit(",", 1)[0] for ln in strip(a)]
        rows_b = [ln.rsplit(",", 1)[0] for ln in strip(b)]
        assert rows_a == rows_b

    def test_maxq_c2_terminates(self, tmp_path):
        out = tmp_path / "maxq.csv"
        rc = main(["run", "--problem", "maxq", "--n", "10", "--set", "C2",
                   "--step", "sqrt", "--gap-tol", "1e-10", "--out", str(out)])
        assert rc == 0
        _, rows, status = read_trace(out)
        assert "gap_tol_reached" in status or "exact_gap_zero" in status
        assert len(rows) <= 500

    def test_sweep(self, tmp_path, monkeypatch):
        # the suffix goes before the file name's extension, never into a directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.d").mkdir()
        for out, stem, ext in (("sweep.csv", "sweep", ".csv"), ("./trace", "trace", ""),
                               ("runs.d/trace", "runs.d/trace", "")):
            rc = main(["run", "--problem", "chained_lq", "--n", "3,4", "--max-iters", "5",
                       "--out", out])
            assert rc == 0
            for n in (3, 4):
                meta, rows, _ = read_trace(tmp_path / f"{stem}_n{n}{ext}")
                assert meta["n"] == n and len(rows) == 5

    def test_partial_inner_limit(self, tmp_path):
        out = tmp_path / "pl.csv"
        rc = main(["run", "--problem", "rosenbrock_nesterov2", "--n", "4",
                   "--max-iters", "8", "--partial-inner-limit", "1", "--out", str(out)])
        assert rc == 0
        _, rows, _ = read_trace(out)
        assert all(int(r[4]) == 1 for r in rows)  # one polyhedron per inner solve

    def test_status_line_counts_inner_statuses(self, tmp_path):
        out = tmp_path / "inner.csv"
        main(["run", "--problem", "maxq", "--n", "6", "--set", "C2", "--out", str(out)])
        _, rows, status = read_trace(out)
        assert status.startswith("status=gap_tol_reached")
        assert f" inner=local_min:{len(rows)} " in status
        main(["run", "--problem", "rosenbrock_nesterov2", "--n", "6", "--max-iters", "20",
              "--partial-inner-limit", "1", "--out", str(out)])
        _, rows, status = read_trace(out)
        counts = dict(kv.split(":") for kv in status.split(" inner=")[1].split(" ")[0].split(","))
        assert int(counts["inner_limit"]) > 0
        assert sum(map(int, counts.values())) == len(rows)

    def test_status_line_counts_warm_starts(self, tmp_path):
        # the first subproblem has no previous vertex; on maxq C3 some
        # previous vertices break a pinned kink's sign and start nothing
        out = tmp_path / "warm.csv"
        main(["run", "--problem", "maxq", "--n", "8", "--set", "C3", "--out", str(out)])
        _, rows, status = read_trace(out)
        assert all(len(r) == 7 for r in rows)
        hits, calls = map(int, status.rsplit(" warm=", 1)[1].split("/"))
        assert calls == len(rows) and 0 < hits < calls - 1

    def test_status_line_counts_pivots(self, tmp_path, lp_solves):
        # pivots=P, the trace's lp_pivots summed, comes just before warm=H/N
        out = tmp_path / "pivots.csv"
        main(["run", "--problem", "chained_lq", "--n", "5", "--max-iters", "40", "--out", str(out)])
        _, rows, status = read_trace(out)
        assert all(len(r) == 7 for r in rows)
        head, pivots = status.rsplit(" warm=", 1)[0].rsplit(" pivots=", 1)
        assert " " not in pivots and head.startswith("status=")
        assert int(pivots) == sum(c.result.simplex_iters for c in lp_solves) > 0

    def test_partial_inner_limit_below_one_is_exit_2(self, tmp_path, capsys):
        for limit in ("0", "-3"):
            rc = main(["run", "--problem", "rosenbrock_nesterov2", "--n", "4",
                       "--max-iters", "3", "--partial-inner-limit", limit,
                       "--out", str(tmp_path / "no.csv")])
            assert rc == 2
            assert "--partial-inner-limit must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["--problem", "lasso", "--n", "5", "--p", "8", "--rho", "nan"], "rho must be finite and nonnegative"),
        (["--problem", "lasso", "--n", "5", "--p", "8", "--rho", "inf"], "rho must be finite and nonnegative"),
        (["--problem", "maxq", "--n", "4", "--set", "C2", "--gap-tol", "nan"], "gap_tol must be nonnegative"),
    ], ids=["rho-nan", "rho-inf", "gap-tol-nan"])
    def test_non_finite_parameter_is_exit_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "no.csv"
        assert main(["run", *args, "--max-iters", "3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_iters_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no.csv"
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--max-iters", "-3",
                   "--out", str(out)])
        assert rc == 2
        assert "max_iters must be nonnegative" in capsys.readouterr().err
        assert not out.exists()
        # zero iterations stay legal: an empty trace
        assert main(["run", "--problem", "chained_lq", "--n", "4", "--max-iters", "0",
                     "--out", str(out)]) == 0
        _, rows, status = read_trace(out)
        assert rows == [] and status.startswith("status=max_iters")

    def test_chained_problems_need_no_flag(self, tmp_path, capsys):
        for problem in ("chained_mifflin2", "chained_crescent2"):
            rc = main(["run", "--problem", problem, "--n", "4", "--max-iters", "2",
                       "--out", str(tmp_path / "x.csv")])
            assert rc == 0
        rc = main(["run", "--problem", "chained_nothing", "--n", "4", "--max-iters", "2",
                   "--out", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "unknown problem 'chained_nothing'" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("problem=chained_lq\nn=4\nmax_iters=7\n")
        out = tmp_path / "cfg.csv"
        rc = main(["run", "--config", str(cfg), "--max-iters", "3", "--out", str(out)])
        assert rc == 0
        _, rows, _ = read_trace(out)
        assert len(rows) == 3  # explicit flag wins over the file

    def test_config_monotone_switch(self, tmp_path, capsys):
        """``monotone=true`` acts as --monotone and ``monotone=false`` as its
        absence, to the CSV apart from elapsed_ms; other values exit 2."""
        def csv(*args):
            out = tmp_path / "m.csv"
            assert main(["run", *args, "--out", str(out)]) == 0
            return [ln.rsplit(",", 1)[0] for ln in out.read_text().splitlines()]

        base = ["--problem", "mifflin2", "--step", "sqrt", "--max-iters", "30"]
        cfg = tmp_path / "cfg"
        on, off = csv(*base, "--monotone"), csv(*base)
        assert on != off
        for value, want in (("true", on), ("false", off)):
            cfg.write_text(f"problem=mifflin2\nmonotone={value}\n")
            assert csv("--config", str(cfg), "--step", "sqrt", "--max-iters", "30") == want
        cfg.write_text("problem=mifflin2\nmonotone=yes\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "no.csv")]) == 2
        assert "bad config line 'monotone=yes'" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    def test_bad_step_config_is_exit_2(self, tmp_path):
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "short",
                   "--out", str(tmp_path / "no.csv")])
        assert rc == 2

    def test_harmonic_step(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "harmonic",
                   "--max-iters", "5", "--out", str(out)])
        assert rc == 0
        meta, rows, _ = read_trace(out)
        assert meta["step"] == "harmonic"
        assert [float(r[1]) for r in rows] == [2.0 / (t + 2.0) for t in range(5)]

    def test_fixed_step_with_horizon(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "fixed",
                   "--horizon", "9", "--max-iters", "5", "--out", str(out)])
        assert rc == 0
        _, rows, _ = read_trace(out)
        assert [float(r[1]) for r in rows] == [1.0 / 3.0] * 5

    def test_fixed_step_without_horizon_is_exit_2(self, tmp_path, capsys):
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "fixed",
                   "--out", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "fixed-horizon rule needs T >= 1" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    @pytest.mark.parametrize("step, extra", [
        ("sqrt", ["--horizon", "0", "--gamma", "-3"]),
        ("harmonic", ["--gamma", "4.0"]),
        ("fixed", ["--horizon", "9", "--gamma", "4.0"]),
        ("short", ["--gamma", "4.0", "--horizon", "9"]),
    ])
    def test_unused_step_parameter_is_exit_2(self, tmp_path, capsys, step, extra):
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", step, *extra,
                   "--out", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "rule takes no" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_short_step_gamma_not_finite_is_exit_2(self, tmp_path, capsys, gamma):
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "short",
                   "--gamma", gamma, "--out", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "short-step rule needs a finite gamma > 0" in capsys.readouterr().err
        assert not (tmp_path / "no.csv").exists()

    def test_short_step_with_gamma(self, tmp_path):
        out = tmp_path / "ss.csv"
        rc = main(["run", "--problem", "chained_lq", "--n", "4", "--step", "short",
                   "--gamma", "4.0", "--max-iters", "10", "--out", str(out)])
        assert rc == 0
        _, rows, _ = read_trace(out)
        fvals = [float(r[3]) for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(fvals, fvals[1:]))


class TestSolverErrorPath:
    def test_solver_error_exits_3(self, tmp_path, monkeypatch):
        import absfw.cli as cli
        from absfw.lp import LpError

        def boom(*args, **kwargs):
            raise LpError("synthetic breakdown")

        monkeypatch.setattr(cli, "asfw_run", boom)
        rc = cli.main(["run", "--problem", "chained_lq", "--n", "4",
                       "--max-iters", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_overflowing_objective_exits_3(self, tmp_path, capsys):
        # rho * ||x||_1 overflows at the start point: an EvaluationError
        rc = main(["run", "--problem", "lasso", "--n", "5", "--p", "8", "--rho", "1e308",
                   "--max-iters", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "solver error: node 48: non-finite value in scale" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_runs_from_a_checkout(self, tmp_path):
        args = ["run", "--problem", "maxq", "--n", "5", "--set", "C2", "--max-iters", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "absfw", *args, "--out", str(tmp_path / "m.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main([*args, "--out", str(tmp_path / "in.csv")]) == 0
        m_meta, m_rows, m_status = read_trace(tmp_path / "m.csv")
        meta, rows, status = read_trace(tmp_path / "in.csv")
        assert len(m_rows) == 2
        assert (m_meta, [r[:-1] for r in m_rows], m_status) == (meta, [r[:-1] for r in rows], status)


class TestAasmTable:
    def test_small_table(self, capsys):
        rc = main(["aasm-table", "--n-max", "4"])
        assert rc == 0
        outp = capsys.readouterr().out
        lines = [ln for ln in outp.splitlines() if ln and ln[0].isdigit()]
        assert len(lines) == 4
        for n, ln in enumerate(lines, start=1):
            parts = ln.split()
            assert int(parts[1]) <= 2 ** n
            assert "yes" in parts

    def test_rejects_large_n(self, capsys):
        assert main(["aasm-table", "--n-max", "25"]) == 2

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_rejects_n_max_below_one(self, capsys, n_max):
        assert main(["aasm-table", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-max must be between 1 and 20" in captured.err


class TestSelftest:
    def test_exit_zero(self, capsys, monkeypatch):
        """Exit 0 with a PASS line per suite, and 1 with a FAIL line when a
        suite fails.  The suites themselves run in the criterion-8 test."""
        import absfw.cli as cli
        from absfw.selftest import CheckResult

        results = [CheckResult(f"suite{k}", True, "ok") for k in range(5)]
        seeds = []
        monkeypatch.setattr(cli, "run_all", lambda seed: seeds.append(seed) or results)
        assert main(["selftest", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        results[2] = CheckResult("suite2", False, "broken")
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL suite2 - broken" in out
        assert seeds == [4, 0]

    def test_corrupted_linearization_detected(self):
        # corrupting L must flip the decay suite to a failure; with s = 1,
        # L[-1, 0] is the diagonal, which no form may hold
        from absfw.plmodel import AbsLinearForm
        from absfw.selftest import linearization_decay_suite

        def tamper(form):
            if form.s < 2:
                return form
            L = np.array(form.L)
            L[-1, 0] += 0.37
            return AbsLinearForm(n=form.n, s=form.s, Z=form.Z, M=form.M, L=L,
                                 a=form.a, b=form.b, babs=form.babs, c=form.c, d=form.d)

        res = linearization_decay_suite(seed=7, cases=40, tamper=tamper)
        assert not res.passed

    def test_corrupted_duals_detected(self):
        from dataclasses import replace
        from absfw.selftest import lp_duality_suite

        def tamper(sol):
            return replace(sol, dual_eq=sol.dual_eq + 0.5, dual_in=sol.dual_in + 0.5)

        res = lp_duality_suite(seed=5, cases=30, tamper=tamper)
        assert not res.passed
