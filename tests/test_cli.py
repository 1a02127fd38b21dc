"""Command-line front end."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

from dppoison.harness.cli import main

TINY_CONFIG = textwrap.dedent(
    """
    victim:
      mechanism: objective
      base: logistic
      lam: 10.0
      epsilon: 0.5
    cost:
      goal: label-aversion
    data:
      kind: gen-1d
      n: 9
    eval:
      kind: grid-1d
      m: 11
    attack:
      k: 9
      T: 8
      T_eval: 16
    seed: 2
    curve_points: 3
    """
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_module(*argv):
    """Run `python -m dppoison.harness.cli` from the source checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "dppoison.harness.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def strict_json(text):
    """json.loads that rejects the non-JSON constants Infinity and NaN."""

    def no_constants(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=no_constants)


class TestBound:
    def test_pure(self, capsys):
        code, out = run_cli(capsys, "bound", "--j", "0.5", "--epsilon", "0.1", "--k", "10")
        assert code == 0
        got = json.loads(out)
        assert got["lower_bound"] == pytest.approx(0.5 * math.exp(-1.0))
        assert "min_items" not in got

    def test_pure_min_items(self, capsys):
        code, out = run_cli(
            capsys, "bound", "--j", "0.5", "--epsilon", "0.1", "--tau", "20"
        )
        assert code == 0
        assert json.loads(out)["min_items"] == 30

    def test_approx_with_delta(self, capsys):
        code, out = run_cli(
            capsys,
            "bound",
            "--j", "0.5",
            "--epsilon", "0.1",
            "--k", "10",
            "--delta", "0.01",
            "--cbar", "1",
            "--tau", "inf",
        )
        assert code == 0
        got = json.loads(out)
        a = 0.01 / math.expm1(0.1)
        assert got["lower_bound"] == pytest.approx(math.exp(-1.0) * (0.5 + a) - a)
        assert got["min_items"] == 19

    def test_nonpositive_sign(self, capsys):
        code, out = run_cli(
            capsys,
            "bound",
            "--j", "-0.5",
            "--epsilon", "0.1",
            "--k", "10",
            "--sign", "non-positive",
        )
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(-0.5 * math.exp(1.0))

    def test_module_entry_point(self):
        # `python -m dppoison.harness.cli` is the way to run the CLI from a
        # source checkout; it must run main and exit with its status
        proc = run_module("bound", "--j", "0.5", "--epsilon", "0.1", "--k", "10")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["lower_bound"] == pytest.approx(0.5 * math.exp(-1.0))

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["--j", "0.5", "--epsilon", "0.1", "--tau", "inf"], "min_items", "inf"),
            (
                ["--j", "-0.5", "--epsilon", "1", "--k", "1000", "--sign", "non-positive"],
                "lower_bound",
                "-inf",
            ),
        ],
    )
    def test_infinite_values_are_valid_json(self, capsys, argv, key, value):
        code, out = run_cli(capsys, "bound", *argv)
        assert code == 0
        assert strict_json(out)[key] == value

    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--config", "nowhere.yaml"], ["--out", "/nonexistent"]]
    )
    def test_run_flags_rejected(self, capsys, flag):
        # bound reads no config and writes no files; a flag it would ignore
        # is an error
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--j", "0.5", "--epsilon", "0.1", "--k", "10", *flag])
        assert exc.value.code != 0

    def test_delta_without_cbar_fails(self, capsys):
        with pytest.raises(SystemExit, match="^bound: delta > 0 requires cbar$"):
            main(["bound", "--j", "0.5", "--epsilon", "0.1", "--delta", "0.01"])

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--epsilon", "1000"], {"lower_bound": 0.5}),
            (["--epsilon", "800", "--tau", "2"], {"lower_bound": 0.5, "min_items": 1}),
        ],
    )
    def test_large_epsilon_with_delta(self, capsys, argv, expected):
        # e^eps - 1 overflows here; the delta slack tends to 0
        code, out = run_cli(capsys, "bound", "--j", "0.5", "--delta", "0.1", "--cbar", "1", *argv)
        assert code == 0
        assert strict_json(out) == expected

    def test_non_finite_query_is_one_line(self):
        proc = run_module("bound", "--j", "nan", "--epsilon", "0.1", "--k", "1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "bound: j_clean must be finite, got nan\n"

    def test_invalid_query_is_one_line_without_traceback(self):
        # cbar bounds |C|, so |J| = 1e308 > cbar = 1 is an invalid query
        proc = run_module(
            "bound", "--j", "1e308", "--epsilon", "5", "--delta", "0.5", "--cbar", "1", "--tau", "2"
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr == "bound: |j_clean| = 1e+308 cannot exceed cbar = 1.0, which bounds |C|\n"


class TestGenData:
    def test_writes_csvs(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        code, out = run_cli(capsys, "gen-data", "--config", config_path, "--out", out_dir)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "dataset.csv"))
        assert os.path.exists(os.path.join(out_dir, "eval.csv"))
        assert "dataset:" in out

    def test_missing_out_flag(self, config_path):
        with pytest.raises(SystemExit):
            main(["gen-data", "--config", config_path])


class TestAttack:
    def test_end_to_end(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out = run_cli(capsys, "attack", "--config", config_path, "--out", out_dir)
        assert code == 0
        line = json.loads(out)
        assert line["out"] == os.path.abspath(out_dir)
        assert "final_mean" in line and "lower_bound" in line
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["error"] is None

    def test_solver_failure_is_reported_with_status_1(self, config_path, tmp_path, capsys, monkeypatch):
        import dppoison.harness.experiment as experiment
        from dppoison import SolverError

        def fails(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(experiment, "run_attack", fails)
        code, out = run_cli(capsys, "attack", "--config", config_path, "--out", str(tmp_path / "run"))
        assert code == 1
        assert json.loads(out)["error"] == "solver failure after 1 cost rows: instrumented failure"

    @pytest.mark.parametrize("text", ["", "- 1\n- 2\n", "5\n"], ids=["empty", "list", "number"])
    def test_config_that_is_not_a_mapping_is_refused(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config must be a mapping$"):
            main(["attack", "--config", str(path), "--out", str(tmp_path / "run")])
        assert not (tmp_path / "run").exists()

    def test_infinite_bound_is_valid_json(self, tmp_path, capsys):
        # k * epsilon = 900 overflows the pure bound of a nonpositive cost
        path = tmp_path / "eps100.yaml"
        path.write_text(TINY_CONFIG.replace("epsilon: 0.5", "epsilon: 100.0"))
        out_dir = str(tmp_path / "run")
        code, out = run_cli(capsys, "attack", "--config", str(path), "--out", out_dir)
        assert code == 0
        assert strict_json(out)["lower_bound"] == "-inf"
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            assert strict_json(fh.read())["lower_bound"] == "-inf"

    def test_tiny_epsilon_rejected_before_output(self, tmp_path):
        # 2/epsilon overflows to an infinite noise scale; the run must stop
        # at the config, not fail later in the solver
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "configs", "synth1d_flip.yaml"), encoding="utf-8") as fh:
            text = fh.read()
        assert "epsilon: 0.1\n" in text
        path = tmp_path / "synth1d_flip.yaml"
        path.write_text(text.replace("epsilon: 0.1\n", "epsilon: 1.0e-309\n"))
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="noise scale must be finite and positive"):
            main(["attack", "--config", str(path), "--out", str(out_dir)])
        assert not out_dir.exists()

    def test_seed_override_echoed(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, _ = run_cli(
            capsys, "attack", "--config", config_path, "--out", out_dir, "--seed", "42"
        )
        assert code == 0
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["seed"] == 42

    @pytest.mark.parametrize("seed", [-1, 2**128 + 1])
    def test_seed_override_that_would_alias_another_is_refused(self, config_path, tmp_path, seed):
        # the streams fold seeds mod 2**128: these would replay 2**128 - 1 and 1
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**128), got {seed}")):
            main(["attack", "--config", config_path, "--out", str(out_dir), "--seed", str(seed)])
        assert not out_dir.exists()

    def test_sweep_config_rejected(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(
            TINY_CONFIG
            + textwrap.dedent(
                """
                sweep:
                  kind: epsilon
                  values: [0.5, 1.0]
                """
            )
        )
        with pytest.raises(SystemExit, match="sweep"):
            main(["attack", "--config", str(path), "--out", str(tmp_path / "o")])


class TestSweep:
    def test_runs_sweep_config(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(
            TINY_CONFIG
            + textwrap.dedent(
                """
                sweep:
                  kind: epsilon
                  values: [0.5, 1.0]
                """
            )
        )
        out_dir = str(tmp_path / "o")
        code, out = run_cli(capsys, "sweep", "--config", str(path), "--out", out_dir)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "costs.csv"))

    def test_plain_config_rejected(self, config_path, tmp_path):
        with pytest.raises(SystemExit, match="no sweep"):
            main(["sweep", "--config", config_path, "--out", str(tmp_path / "o")])


class TestEvaluate:
    def test_clean_cost_only(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "eval")
        code, out = run_cli(capsys, "evaluate", "--config", config_path, "--out", out_dir)
        assert code == 0
        line = json.loads(out)
        assert "clean_mean" in line
        assert not os.path.exists(os.path.join(out_dir, "trace.csv"))

    def test_sweep_config_rejected(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(TINY_CONFIG + "sweep: {kind: epsilon, values: [0.5, 1.0]}\n")
        with pytest.raises(SystemExit, match="sweep"):
            main(["evaluate", "--config", str(path), "--out", str(tmp_path / "o")])


class TestRunConfigs:
    def test_runs_each_config_with_its_subcommand(self, config_path, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.yaml"
        sweep_path.write_text(TINY_CONFIG + "sweep: {kind: epsilon, values: [0.5, 1.0]}\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        out = tmp_path / "runs"
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "run_configs.py"), str(out),
             config_path, str(sweep_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep" / "costs.csv").read_text().startswith("epsilon,")
        assert not (out / "sweep" / "trace.csv").exists()
        run_cli(capsys, "attack", "--config", config_path, "--out", str(tmp_path / "direct"))
        for name in ("costs.csv", "trace.csv"):
            assert (out / "tiny" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["resolve"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
