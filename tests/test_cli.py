"""CLI tests: matrix parsing with locations, exit codes, reports, and file checks."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opineq.abelian import JointDiagonalizationError
from opineq.cli import MatrixParseError, main, parse_matrix_text
from opineq.harness import ConfigError
from opineq.linalg import JacobiConvergenceError, SpectrumDomainError

from random_matrices import spread_pairs


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def matrix_text(a):
    """``a``'s entries in the matrix file format, each decimal round-tripping exactly."""
    rows = ["  ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) for row in a.entries]
    return "\n".join([f"dim: {a.dim}", *rows, ""])


HERM_X = """# the rank-one all-ones matrix, c = 1
dim: 2
role: x
1.0 0.0   1.0 0.0
1.0 0.0   1.0 0.0
"""

HERM_Y = """dim: 2
role: y
1.3 0.0   0.0 0.0
0.0 0.0   4.42 0.0
"""


class TestParser:
    def test_parses_square_matrix(self):
        assert np.allclose(parse_matrix_text(HERM_X), np.ones((2, 2)))

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Matrix file format", 1)[1].split("```")[1]
        assert parse_matrix_text(block).tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_complex_entries(self):
        assert parse_matrix_text("dim: 2\n0 0  0 -1\n0 1  0 0\n")[0, 1] == -1j

    def test_rectangular_frame(self):
        assert parse_matrix_text("dim: 3 2\n1 0 0 0\n0 0 1 0\n0 0 0 0\n").shape == (3, 2)

    def test_missing_header(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1.0 0.0\n")
        assert err.value.line == 1

    def test_bad_token_location(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("dim: 2\n1.0 0.0  1.0 0.0\n1.0 0.0  oops 0.0\n")
        assert err.value.line == 3
        assert err.value.column == 10
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("dim: 2\n1.0 0.0  1.0 0.0\n1.0 0.0  1.0 oops\n")
        assert err.value.line == 3
        assert err.value.column == 14
        assert "bad decimal 'oops'" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_decimal_rejected(self, token):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text(f"dim: 2\n1.0 0.0  0.0 0.0\n0.0 0.0  {token} 0.0\n")
        assert (err.value.line, err.value.column) == (3, 10)
        assert f"bad decimal {token!r}" in str(err.value)

    def test_wrong_token_count(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("dim: 2\n1.0 0.0\n")
        assert err.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("dim: 3\n1 0 0 0 0 0\n")


class TestCheckCommand:
    def test_loewner_example_pass(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", HERM_X)
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", "loewner", x, y]) == 0
        assert "pass" in capsys.readouterr().out

    def test_loewner_fail(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n2 0 0 0\n0 0 0 0\n")
        y = write(tmp_path, "y.mat", "dim: 2\n1 0 0 0\n0 0 1 0\n")
        assert main(["check", "loewner", x, y]) == 1
        assert "fail" in capsys.readouterr().out

    def test_wmaj_pass(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", "dim: 2\n2 0 0 0\n0 0 2 0\n")
        b = write(tmp_path, "b.mat", "dim: 2\n3 0 0 0\n0 0 1 0\n")
        assert main(["check", "wmaj", a, b]) == 0

    def test_wmaj_fail(self, tmp_path):
        a = write(tmp_path, "a.mat", "dim: 2\n3 0 0 0\n0 0 1 0\n")
        b = write(tmp_path, "b.mat", "dim: 2\n2 0 0 0\n0 0 2 0\n")
        assert main(["check", "wmaj", a, b]) == 1

    @pytest.mark.parametrize(
        "name, decompositions, line",
        [("loewner", 1, "loewner: pass gap=1"), ("wmaj", 2, "wmaj: pass gap=3")],
        ids=["loewner", "wmaj"],
    )
    def test_each_matrix_decomposed_once(
        self, tmp_path, capsys, eig_calls, name, decompositions, line
    ):
        a = write(tmp_path, "a.mat", "dim: 3\n1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n")
        b = write(tmp_path, "b.mat", "dim: 3\n2 0 0 0 0 0\n0 0 3 0 0 0\n0 0 0 0 4 0\n")
        assert main(["check", name, a, b]) == 0
        assert len(eig_calls) == decompositions
        assert capsys.readouterr().out == line + "\n"

    def test_gmean_oracle(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n2.0 0.0  0.4 0.0\n0.4 0.0  1.5 0.0\n")
        y = write(tmp_path, "y.mat", "dim: 2\n1.0 0.0  0.0 -0.3\n0.0 0.3  2.0 0.0\n")
        assert main(["check", "gmean", x, y, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle-deviation" in out

    def test_gmean_oracle_decomposes_each_matrix_once(self, tmp_path, jacobi_runs):
        # no kernel run: x and y are certified by their checked Cholesky floors,
        # whose factors the mean's polar step and the quadrature's guard read
        x = write(tmp_path, "x.mat", "dim: 2\n2.0 0.0  0.4 0.0\n0.4 0.0  1.5 0.0\n")
        y = write(tmp_path, "y.mat", "dim: 2\n1.0 0.0  0.0 -0.3\n0.0 0.3  2.0 0.0\n")
        assert main(["check", "gmean", x, y, "--oracle"]) == 0
        assert jacobi_runs == []

    def test_jensen_decomposes_each_matrix_once(self, tmp_path, capsys, jacobi_runs):
        a = write(tmp_path, "a.mat", "dim: 2\n0 0 1 0\n1 0 0 0\n")
        b = write(tmp_path, "b.mat", "dim: 2\n2 0 3 0\n3 0 2 0\n")
        assert main(["check", "jensen", a, b]) == 0
        assert capsys.readouterr().out == "jensen: pass gap=10\n"
        # member 0 only: the cube comes from the joint spectrum's bounds
        distinct = {m.entries.tobytes() for m in jacobi_runs}
        assert len(jacobi_runs) == len(distinct) == 1

    def test_gmean_singular_x(self, tmp_path, capsys):
        # the oracle's guard refuses x; the mean alone lifts the pair
        x = write(tmp_path, "x.mat", "dim: 2\n1 0 0 0\n0 0 0 0\n")
        y = write(tmp_path, "y.mat", "dim: 2\n1.0 0.0  0.0 -0.3\n0.0 0.3  2.0 0.0\n")
        assert main(["check", "gmean", x, y, "--oracle"]) == 2
        assert "x is singular at tolerance" in capsys.readouterr().out
        assert main(["check", "gmean", x, y]) == 0
        assert capsys.readouterr().out.startswith("gmean: pass norm=")

    def test_gmean_oracle_beyond_the_top_rung(self, tmp_path, capsys):
        # x = I and y = diag(r, 1): kappa about 2r; the top rung reaches 1e7
        x = write(tmp_path, "x.mat", "dim: 2\n1 0 0 0\n0 0 1 0\n")
        near = write(tmp_path, "near.mat", "dim: 2\n1e4 0 0 0\n0 0 1 0\n")
        far = write(tmp_path, "far.mat", "dim: 2\n1e8 0 0 0\n0 0 1 0\n")
        assert main(["check", "gmean", x, near, "--oracle"]) == 0
        assert capsys.readouterr().out.startswith("gmean: pass oracle-deviation=")
        assert main(["check", "gmean", x, far, "--oracle"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("gmean: invalid input (x and y are too far apart")
        assert "Traceback" not in out

    def test_gmean_oracle_passes_spread_pairs(self, tmp_path, capsys):
        # dim 5, spectra over [1, 1e7]: a mean formed from the inner matrix
        # L^-1 y L^-* carries its condition kappa(x) kappa(y) and lands up to
        # 1.2e-5 (1 + ||gm||) from the oracle, past the bound on 21 of these
        # pairs; the polar step stays within a thousandth of the printed bound
        for i, (x, y) in enumerate(spread_pairs(7)):
            fx, fy = write(tmp_path, "x.mat", matrix_text(x)), write(tmp_path, "y.mat", matrix_text(y))
            assert main(["check", "gmean", fx, fy, "--oracle"]) == 0, i
            dev, bound = re.fullmatch(
                r"gmean: pass oracle-deviation=(\S+) bound=(\S+)\n", capsys.readouterr().out
            ).groups()
            assert float(dev) <= 1e-3 * float(bound), i

    def test_gmean_indefinite_input(self, tmp_path):
        x = write(tmp_path, "x.mat", "dim: 2\n-1 0 0 0\n0 0 1 0\n")
        y = write(tmp_path, "y.mat", "dim: 2\n1 0 0 0\n0 0 1 0\n")
        assert main(["check", "gmean", x, y, "--oracle"]) == 2

    def test_kyfan(self, tmp_path):
        a = write(tmp_path, "a.mat", "dim: 3\n3 0 0 0 0 0\n0 0 2 0 0 0\n0 0 0 0 1 0\n")
        u = write(tmp_path, "u.mat", "dim: 3 2\n0 0 0 0\n1 0 0 0\n0 0 1 0\n")
        assert main(["check", "kyfan", a, u]) == 0

    def test_kyfan_bad_frame(self, tmp_path):
        a = write(tmp_path, "a.mat", "dim: 2\n1 0 0 0\n0 0 2 0\n")
        u = write(tmp_path, "u.mat", "dim: 2 1\n1 0\n1 0\n")
        assert main(["check", "kyfan", a, u]) == 2

    def test_jensen_flip_matrix(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n0 0 1 0\n1 0 0 0\n")
        assert main(["check", "jensen", x]) == 0
        assert "pass" in capsys.readouterr().out

    def test_jensen_noncommuting_invalid(self, tmp_path):
        x = write(tmp_path, "x.mat", "dim: 2\n0 0 1 0\n1 0 0 0\n")
        z = write(tmp_path, "z.mat", "dim: 2\n1 0 0 0\n0 0 -1 0\n")
        assert main(["check", "jensen", x, z]) == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n1.0 0.0\n")
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", "loewner", x, y]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["loewner", "wmaj", "gmean"])
    def test_non_finite_matrix_exit_2(self, tmp_path, capsys, name):
        x = write(tmp_path, "x.mat", "dim: 2\n1 0 0 0\n0 0 nan 0\n")
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", name, x, y]) == 2
        assert "line 3, column 5: bad decimal 'nan'" in capsys.readouterr().err

    def test_non_finite_xi_exit_2(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n0 0 1 0\n1 0 0 0\n")
        xi = write(tmp_path, "xi.mat", "dim: 2 1\n1 0\nnan 0\n")
        assert main(["check", "jensen", x, "--xi", xi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3, column 1: bad decimal 'nan'" in captured.err

    def test_non_unit_xi_exit_2(self, tmp_path, capsys):
        x = write(tmp_path, "x.mat", "dim: 2\n0 0 1 0\n1 0 0 0\n")
        xi = write(tmp_path, "xi.mat", "dim: 2 1\n1 0\n1 0\n")
        assert main(["check", "jensen", x, "--xi", xi]) == 2
        assert capsys.readouterr().out == "jensen: invalid input (xi is not a unit vector)\n"

    def test_missing_file_exit_2(self, tmp_path):
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", "loewner", str(tmp_path / "absent.mat"), y]) == 2

    def test_wrong_file_count(self, tmp_path):
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", "loewner", y]) == 2

    def test_numerical_dead_end_exit_2(self, tmp_path, capsys, monkeypatch):
        from opineq import linalg

        monkeypatch.setattr(linalg, "_SWEEP_CAP", 0)
        x = write(tmp_path, "x.mat", HERM_X)
        y = write(tmp_path, "y.mat", HERM_Y)
        assert main(["check", "loewner", x, y]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: no convergence after 0 sweeps")

    def test_overflowing_norm_exit_2(self, tmp_path, capsys):
        # finite entries whose norm overflows: the difference has no computable spectrum
        # (its smallest eigenvalue is -1e160), so there is no verdict to print
        x = write(tmp_path, "zero.mat", "dim: 2\n0 0 0 0\n0 0 0 0\n")
        y = write(tmp_path, "big.mat", "dim: 2\n0 0 1e160 0\n1e160 0 0 0\n")
        with np.errstate(over="ignore"):  # numpy 2 reports the overflow in the norm's dot
            assert main(["check", "loewner", x, y]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: norm not finite")

    @pytest.mark.parametrize("name", ["loewner", "wmaj", "gmean", "jensen"])
    def test_dimension_mismatch_exit_2(self, tmp_path, capsys, name):
        a = write(tmp_path, "a.mat", "dim: 2\n1 0 0 0\n0 0 1 0\n")
        b = write(tmp_path, "b.mat", "dim: 3\n1 0 0 0 0 0\n0 0 1 0 0 0\n0 0 0 0 1 0\n")
        assert main(["check", name, a, b]) == 2
        assert f"{name}: invalid input (dimension mismatch" in capsys.readouterr().out


class TestCampaignCommand:
    def test_small_campaign_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["campaign", "--theorem", "KF", "--count", "20", "--dim", "2..6",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] == 20
        assert report["schema_version"] == 1

    def test_unknown_theorem_exit_2(self, capsys):
        assert main(["campaign", "--theorem", "T9", "--count", "5"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_zero_count_exit_2(self):
        assert main(["campaign", "--theorem", "T2", "--count", "0"]) == 2

    def test_unwritable_output_exit_2(self, tmp_path):
        code = main(
            ["campaign", "--theorem", "KF", "--count", "5",
             "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")]
        )
        assert code == 2

    def test_numerical_dead_end_exit_2(self, tmp_path, capsys, monkeypatch):
        # a numerical dead end reaches no verdict: exit 2, never the counterexample code 1
        from opineq import linalg

        monkeypatch.setattr(linalg, "_SWEEP_CAP", 0)
        out = tmp_path / "r.json"
        code = main(
            ["campaign", "--theorem", "KF", "--count", "2", "--dim", "3", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical error: no convergence")
        assert not out.exists()

    def test_ex1_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "ex1.json"
        code = main(
            ["campaign", "--theorem", "EX1", "--count", "8", "--sweep", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "lam" in text and "overall" in text
        report = json.loads(out.read_text())
        assert all(r["status"] == "pass" for r in report["verdicts"])

    def test_seed_default_is_fixed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["campaign", "--theorem", "CHAIN", "--count", "5", "--dim", "2..4", "--out", str(a)])
        main(["campaign", "--theorem", "CHAIN", "--count", "5", "--dim", "2..4", "--out", str(b)])
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        ja.pop("wall_time_s"), jb.pop("wall_time_s")
        assert ja == jb

    def test_report_round_trip_replays(self, tmp_path):
        from opineq.harness import CampaignReport, replay_instance

        out = tmp_path / "t6.json"
        main(["campaign", "--theorem", "T6", "--count", "6", "--dim", "2..4",
              "--arity", "1..2", "--seed", "5", "--out", str(out)])
        report = CampaignReport.from_json(out.read_text())
        assert report.summary["fail"] == 0


class TestRunCampaignsScript:
    def test_help_runs_from_a_plain_checkout(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_campaigns.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(script), "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "--outdir" in done.stdout


def _kyfan_files(tmp_path):
    a = write(tmp_path, "a.mat", "dim: 3\n3 0 0 0 0 0\n0 0 2 0 0 0\n0 0 0 0 1 0\n")
    u = write(tmp_path, "u.mat", "dim: 3 2\n0 0 0 0\n1 0 0 0\n0 0 1 0\n")
    return a, u


class TestExitCodeTable:
    """Every error that reaches ``main`` exits 2 with its table line; only a fail exits 1."""

    # (error, stderr prefix); an error outside the table prints its traceback, and only
    # a ConfigError is a configuration error
    ERRORS = [
        (lambda: ConfigError("bad config"), "config error: bad config"),
        (lambda: ValueError("field is not unital"), "Traceback (most recent call last):"),
        (lambda: SpectrumDomainError("off the domain"), "Traceback (most recent call last):"),
        (lambda: MatrixParseError("bad row", 3), "parse error: line 3, column 1: bad row"),
        (lambda: JacobiConvergenceError("stuck"), "numerical error: stuck"),
        (lambda: JointDiagonalizationError("residual"), "numerical error: residual"),
        (lambda: OSError("disk full"), "cannot write report: disk full"),
        (lambda: RuntimeError("boom"), "Traceback (most recent call last):"),
    ]
    IDS = ["config", "value", "domain", "parse", "jacobi", "joint", "os", "runtime"]

    @staticmethod
    def raiser(make):
        def raise_it(*args):
            raise make()

        return raise_it

    @pytest.mark.parametrize("make, prefix", ERRORS, ids=IDS)
    def test_raised_inside_a_campaign(self, tmp_path, capsys, monkeypatch, make, prefix):
        from opineq import harness

        monkeypatch.setattr(harness, "kyfan_check", self.raiser(make))
        out = tmp_path / "r.json"
        assert main(["campaign", "--theorem", "KF", "--count", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        assert captured.err.rstrip().endswith(str(make()))
        assert not out.exists()

    @pytest.mark.parametrize("make, prefix", ERRORS, ids=IDS)
    def test_raised_inside_a_check(self, tmp_path, capsys, monkeypatch, make, prefix):
        from opineq import cli

        monkeypatch.setattr(cli, "kyfan_check", self.raiser(make))
        assert main(["check", "kyfan", *_kyfan_files(tmp_path)]) == 2
        captured = capsys.readouterr()
        if isinstance(make(), SpectrumDomainError):  # a check's domain error is its verdict
            assert (captured.out, captured.err) == ("kyfan: invalid input (off the domain)\n", "")
        else:
            assert captured.out == ""
            assert captured.err.startswith(prefix)
            assert captured.err.rstrip().endswith(str(make()))

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--theorem", "KF", "--rtol", "0.5"],
            ["campaign", "--theorem", "KF", "--dim", "2..x"],
            ["campaign", "--theorem", "KF", "--arity", "2..x"],
            ["campaign", "--theorem", "T1", "--seed", "-1"],
            ["campaign", "--theorem", "T6", "--functions", "max,sum-of-sqares"],
            ["campaign", "--theorem", "KF", "--functions", "nonsense"],
            ["campaign", "--theorem", "KF", "--functions", "max"],
            ["campaign", "--theorem", "T1", "--functions", "affine,max"],
            ["campaign", "--theorem", "KF", "--count", "2", "--sweep"],
            ["check", "loewner", "x.mat", "y.mat", "--rtol", "0.5"],
        ],
        ids=[
            "campaign-rtol", "campaign-dim", "campaign-arity", "campaign-negative-seed",
            "campaign-misspelt-function", "campaign-unknown-function",
            "campaign-functions-for-an-id-that-picks-none", "campaign-function-never-picked",
            "campaign-sweep-for-an-id-other-than-ex1", "check-rtol",
        ],
    )
    def test_bad_argument_value(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []


class TestRunCampaignsScriptExit:
    def test_reports_and_summary_lines(self, tmp_path, capsys, monkeypatch, script):
        monkeypatch.setattr(script, "STANDARD", [("KF", 3, "2..3", "1..3", 5)])
        monkeypatch.setattr(sys, "argv", ["run_campaigns.py", "--outdir", str(tmp_path)])
        assert script.main() == 0
        report = tmp_path / "report-KF-seed5.json"
        summary, total = capsys.readouterr().out.splitlines()
        assert summary.startswith("KF: 3 instances | pass 3 fail 0 ")
        assert summary.endswith(f"| report {report}")
        assert re.fullmatch(r"1 campaigns in \d+\.\d s", total)
        mine = tmp_path / "mine.json"
        main(["campaign", "--theorem", "KF", "--count", "3", "--dim", "2..3", "--seed", "5",
              "--out", str(mine)])
        ja, jb = json.loads(report.read_text()), json.loads(mine.read_text())
        ja.pop("wall_time_s"), jb.pop("wall_time_s")
        assert ja == jb

    @pytest.mark.parametrize(
        "codes, worst", [([0, 0], 0), ([0, 1, 0], 1), ([1, 2, 0], 2), ([2, 1], 2)]
    )
    def test_exit_code_is_the_worst(self, tmp_path, monkeypatch, script, codes, worst):
        returned = iter(codes)
        monkeypatch.setattr(script, "opineq", lambda argv: next(returned))
        monkeypatch.setattr(script, "STANDARD", script.STANDARD[: len(codes)])
        monkeypatch.setattr(sys, "argv", ["run_campaigns.py", "--outdir", str(tmp_path)])
        assert script.main() == worst

    def test_numerical_dead_end_exits_2(self, tmp_path, capsys, monkeypatch, script):
        from opineq import linalg

        monkeypatch.setattr(linalg, "_SWEEP_CAP", 0)
        monkeypatch.setattr(script, "STANDARD", [("KF", 2, "3..3", "1..3", 5)])
        monkeypatch.setattr(sys, "argv", ["run_campaigns.py", "--outdir", str(tmp_path)])
        assert script.main() == 2
        assert capsys.readouterr().err.startswith("numerical error: no convergence")
