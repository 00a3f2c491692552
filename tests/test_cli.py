import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowup.cli as cli
from blowup.cli import ExperimentConfig, _fmt, _write_csv, emit_config, main, parse_config, run_experiment
from blowup.errors import ConfigError

GOOD = """\
# quadratic blow-up probe
m = 1
k = 0
a = [1]
q = constant(1.0)
h = power(2.0)
run = detect-blowup
thresholds = [1e3, 1e6, 1e9]
horizon = 2.0
"""


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(GOOD)
        assert cfg.run == "detect-blowup"
        assert cfg.m == 1 and cfg.k == 0
        assert cfg.a == (1.0,)
        assert cfg.h == "power(2.0)"
        assert cfg.thresholds == (1e3, 1e6, 1e9)

    def test_k_range_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("m = 2\nk = 3\na = [1, 1]\nq = constant(1)\nh = power(1)\n")
        assert any("0 <= k <= m-1" in e for e in exc.value.errors)

    def test_function_precondition_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("h = power(-1)\n")
        assert any("line 1" in e for e in exc.value.errors)

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("m = 1\nbogus = 3\n")
        assert any("line 2" in e and "bogus" in e for e in exc.value.errors)
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            parse_config("seed = 1\n")  # no run reads a seed

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("m = x\nwat = 1\nrun = fly\n")
        assert len(exc.value.errors) >= 3

    def test_comments_and_blanks(self):
        cfg = parse_config("\n# hi\nm = 1  # trailing\nk = 0\na = [0]\n")
        assert cfg.m == 1 and cfg.a == (0.0,)

    @pytest.mark.parametrize("text,message", [
        ("tol = abc\n", "line 1: tol must be a real number"),
        ("a = 1\n", "line 1: a must be a [..] list"),
        ("a = [1, x]\n", "line 1: a must list real numbers"),
        ("m 1\n", "line 1: expected 'key = value'"),
        ("m = 1\nm = 2\n", "line 2: duplicate key 'm'"),
    ], ids=["real", "list", "list-entry", "no-equals", "duplicate"])
    def test_line_errors_named(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [message]

    def test_round_trip(self):
        cfg = parse_config(GOOD)
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert emit_config(again) == emit_config(cfg)

    def test_round_trip_all_key_kinds(self):
        cfg = ExperimentConfig(
            run="verify-lemma22",
            n=2,
            g="power(1.0)",
            u0=1.0,
            T=2.0,
            grid_size=100,
            b=(1.0, 2.0),
        )
        assert parse_config(emit_config(cfg)) == cfg


class TestRunExperiment:
    def test_classify_report(self, tmp_path, capsys):
        cfg = ExperimentConfig(run="classify", h="power(2.0)", n=1)
        status = run_experiment(cfg, out_dir=tmp_path)
        out = capsys.readouterr().out
        assert status == 0
        text = (tmp_path / "classify.txt").read_text()
        assert "verdict=Converges" in text
        assert "estimate=1.0" in text
        assert "method=ExactFamily" in text
        assert "verdict=Converges" in out

    def test_integrate_csv_schema(self, tmp_path):
        cfg = parse_config(
            "run = integrate\nm = 2\nk = 0\na = [1, 0]\nq = constant(1.0)\n"
            "h = power(1.0)\nT = 3.0\ntol = 1e-9\n"
        )
        status = run_experiment(cfg, out_dir=tmp_path)
        assert status == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,w0,w1"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_detect_blowup_report(self, tmp_path):
        cfg = parse_config(GOOD)
        status = run_experiment(cfg, out_dir=tmp_path)
        assert status == 0
        text = (tmp_path / "detect-blowup.txt").read_text()
        assert "kind=BlowUp" in text
        t_est = [l for l in text.splitlines() if l.startswith("t_blow_estimate=")][0]
        assert abs(float(t_est.split("=")[1]) - 1.0) <= 1e-3

    def test_detect_blowup_writes_the_method(self, tmp_path):
        base = "run = detect-blowup\nm = 1\nk = 0\na = [1]\nh = power(2.0)\nhorizon = 2.0\n"
        for q, method in (("constant(1.0)", "tail"), ("constant(0.0)", "none")):
            assert run_experiment(parse_config(base + f"q = {q}\n"), tmp_path / q) == 0
            assert f"t_blow_method={method}\n" in (tmp_path / q / "detect-blowup.txt").read_text()

    def test_detect_blowup_past_the_horizon(self, tmp_path, capsys):
        # w' = w^1.1 from 1: the tail's T* = 10 lies past the horizon 8
        cfg = tmp_path / "past.cfg"
        cfg.write_text("run = detect-blowup\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(1.1)\n"
                       "horizon = 8.0\n")
        assert main(["detect-blowup", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "detect-blowup.txt").read_text()
        assert "kind=GlobalUpToHorizon\n" in text and "t_blow_method=tail\n" in text
        assert "# global up to horizon 8.0; blow-up at t = 10.0000000000" in capsys.readouterr().out

    def test_pipeline_artifacts(self, tmp_path):
        cfg = parse_config(
            "run = pipeline\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(2.0)\n"
            "horizon = 5.0\n"
        )
        status = run_experiment(cfg, out_dir=tmp_path)
        assert status == 0
        text = (tmp_path / "pipeline.txt").read_text()
        assert "label=BlowUpDetected" in text
        assert (tmp_path / "probe.csv").exists()

    def test_majorize_csv(self, tmp_path):
        cfg = parse_config(
            "run = majorize\nh = power(1.0)\nn = 1\na = [1]\nq = constant(1.0)\n"
            "J = 5\nhorizon = 10.0\n"
        )
        status = run_experiment(cfg, out_dir=tmp_path)
        assert status == 0
        lines = (tmp_path / "majorization.csv").read_text().splitlines()
        assert lines[0] == "j,t_j,tau_j,eps_j,margin_min"
        assert len(lines) == 7  # header + rows j=0..5
        margins = [float(l.split(",")[-1]) for l in lines[1:]]
        assert all(mv > 0 for mv in margins)

    def test_verify_comparison_status(self, tmp_path):
        cfg = ExperimentConfig(run="verify-lemma22", g="power(1.0)", n=1, u0=1.0, T=3.0)
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        assert "passed=true" in (tmp_path / "verify-lemma22.txt").read_text()

    def test_config_error_status(self, capsys):
        cfg = ExperimentConfig(run="classify")  # missing h / n
        assert run_experiment(cfg) == 2
        assert "config error" in capsys.readouterr().err

    def test_construct_report(self, tmp_path):
        cfg = parse_config("run = construct\nh = power(1.0)\nn = 1\nb = [1]\nT = 1.0\ntol = 1e-10\n")
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "iterates.csv").read_text().splitlines()
        assert lines[0] == "j,t,v_j"
        text = (tmp_path / "construct.txt").read_text()
        assert "converged=true" in text

    def test_construct_whose_majorant_leaves_floats_writes_nothing(self, tmp_path, capsys):
        # the tower is built (the test diverges exactly), but majorant_slack
        # inverts a majorant that leaves the float range before T
        cfg = parse_config("run = construct\nh = powerlog(1, 1)\nn = 1\nb = [1]\nT = 1.0\n")
        assert run_experiment(cfg, out_dir=tmp_path) == 2
        assert "could not bracket target" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestDeterminism:
    @pytest.mark.parametrize(
        "cfg_text,artifact",
        [
            (
                "run = integrate\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\n"
                "h = power(1.0)\nT = 2.0\ntol = 1e-9\n",
                "trajectory.csv",
            ),
            (
                "run = majorize\nh = power(1.0)\nn = 1\na = [1]\nq = constant(1.0)\n"
                "J = 4\nhorizon = 10.0\n",
                "majorization.csv",
            ),
            (
                "run = pipeline\nm = 2\nk = 0\na = [1, 1]\nq = constant(1.0)\n"
                "h = power(1.0)\nhorizon = 3.0\n",
                "constructed.csv",
            ),
        ],
    )
    def test_bit_identical_reruns(self, tmp_path, cfg_text, artifact):
        cfg = parse_config(cfg_text)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / artifact).read_bytes()
        b = (tmp_path / "b" / artifact).read_bytes()
        assert a == b


class TestMain:
    def test_classify_cmd(self, capsys):
        assert main(["classify", "--h", "power(2.0)", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "Converges" in out and "estimate=1.0" in out

    def test_classify_scaled_cmd(self, capsys):
        assert main(["classify", "--h", "power(2.0)", "--n", "1", "--alpha", "2.0"]) == 0
        assert "estimate=0.25" in capsys.readouterr().out

    def test_integrate_reports_an_escape(self, tmp_path, capsys):
        # w' = w^2 from 1 blows up at t = 1, before T = 2
        cfg = tmp_path / "p.cfg"
        cfg.write_text("m = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(2.0)\n")
        assert main(["integrate", "--config", str(cfg), "--T", "2.0", "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "reached_T=false" in lines and "event=escape" in lines
        t_event = float(next(line for line in lines if line.startswith("t_event=")).split("=")[1])
        assert 1.0 <= t_event <= 1.0 + 1e-6
        assert "# escaped before T" in lines

    def test_verify_cmd(self, capsys):
        assert main(["verify-lemma22", "--n", "2", "--g", "constant(1.0)", "--u0", "1", "--T", "2"]) == 0

    def test_batch(self, tmp_path, capsys):
        c1 = tmp_path / "one.cfg"
        c1.write_text("run = classify\nh = power(2.0)\nn = 1\n")
        c2 = tmp_path / "two.cfg"
        c2.write_text("run = classify\nh = power(1.0)\nn = 1\n")
        out = tmp_path / "out"
        assert main(["batch", "--configs", str(c1), str(c2), "--out", str(out)]) == 0
        assert (out / "one" / "classify.txt").exists()
        assert (out / "two" / "classify.txt").exists()

    def test_two_calls_in_one_process_agree(self, tmp_path, capsys):
        # the argument tree is built once per process and reused
        cfg = tmp_path / "c.cfg"
        cfg.write_text("h = power(0.6)\nn = 1\nb = [1]\nT = 1.0\n")
        runs = []
        for name in ("a", "b"):
            assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            files = sorted(p.name for p in (tmp_path / name).iterdir())
            runs.append((capsys.readouterr().out, files,
                         [(tmp_path / name / f).read_bytes() for f in files]))
        assert runs[0] == runs[1] and runs[0][1] == ["construct.txt", "iterates.csv"]
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["construct", "--bogus", "1"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "--bogus" in errors[0]
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("command,cfg_text,flags", [
        ("classify", "h = power(2.0)\nn = 1\n", []),
        ("classify", "h = powerlog(1.0, 2.0, 2.718281828459045)\nn = 1\n", ["--alpha", "2.0"]),
        ("integrate", "m = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(1.0)\n", ["--T", "2.0"]),
        ("detect-blowup", GOOD, []),
        ("construct", "h = power(0.6)\nn = 1\nb = [1]\nT = 1.0\n", []),
        ("pipeline", "m = 2\nk = 1\na = [1, 1]\nq = constant(1.0)\nh = power(1.0)\n", ["--horizon", "2.0"]),
    ], ids=["classify", "classify-scaled", "integrate", "detect-blowup", "construct", "pipeline"])
    def test_stdout_is_the_report(self, command, cfg_text, flags, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
        stdout = capsys.readouterr().out
        for line in stdout.splitlines():
            assert line == "" or line.startswith("# ") or re.match(r"[^\s=#]+=", line), line
        assert stdout == (out / f"{command}.txt").read_text()

    def test_integrate_has_no_csv_flag(self, tmp_path, capsys):
        # the trajectory CSV is an --out artifact, as every run's CSVs are
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg_text", [
        ("integrate", "m = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(2.0)\n"),
        ("construct", "h = power(0.5)\nn = 1\nb = [1]\n"),
    ], ids=["integrate", "construct"])
    def test_infinite_horizon_exits_2(self, command, cfg_text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        assert main([command, "--config", str(cfg), "--T", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: T must be > 0 and finite, got inf\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value,message", [
        ("--T", "-1", "T must be > 0 and finite, got -1.0"),
        ("--T", "inf", "T must be > 0 and finite, got inf"),
        ("--grid-size", "1", "grid_size must be an integer >= 2, got 1"),
    ], ids=["T-negative", "T-inf", "grid-size-1"])
    def test_comparison_inputs_named(self, flag, value, message, capsys):
        argv = ["verify-lemma22", "--g", "power(1.0)", "--n", "1", "--u0", "1", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_batch_propagates_failure(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run = fly\n")
        out = tmp_path / "out"
        assert main(["batch", "--configs", str(bad), "--out", str(out)]) == 2

    def test_majorize_from_data_past_the_escape_threshold(self, tmp_path, capsys):
        # u escapes at t = 0 with a one-node trajectory: the run reports the
        # companion's escape and exits 2
        cfg = tmp_path / "escaped.cfg"
        cfg.write_text("h = power(2.0)\nn = 1\na = [1e13]\nq = constant(1.0)\n")
        assert main(["majorize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "companion solution escaped at t=0.0" in capsys.readouterr().err


# every flag of every subcommand, with a value and the config key it must set;
# --tol only where a solve reads it
TOL = ("--tol", "1e-8", "tol", 1e-8)
FLAGS = {
    "classify": [("--h", "power(2.0)", "h", "power(2.0)"), ("--n", "3", "n", 3),
                 ("--alpha", "2.5", "alpha", 2.5)],
    "integrate": [("--T", "4.5", "T", 4.5), TOL],
    "detect-blowup": [("--horizon", "7.5", "horizon", 7.5), TOL],
    "construct": [("--T", "1.5", "T", 1.5), TOL],
    "majorize": [("--J", "4", "J", 4), ("--horizon", "9.0", "horizon", 9.0), TOL],
    "verify-lemma22": [("--n", "2", "n", 2), ("--g", "power(1.0)", "g", "power(1.0)"),
                       ("--u0", "1.5", "u0", 1.5), ("--T", "2.5", "T", 2.5),
                       ("--grid-size", "50", "grid_size", 50)],
    "pipeline": [("--horizon", "3.5", "horizon", 3.5), TOL],
}

PROBLEM = "m = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(1.0)\n"


class TestSurface:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_land_in_config_keys(self, command, tmp_path, monkeypatch):
        import blowup.cli as cli

        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, out_dir=None: seen.append(cfg) or 0)
        cfg_file = tmp_path / "base.cfg"
        cfg_file.write_text("alpha = 9.0\nhorizon = 1.0\n")
        argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        for flag, raw, _key, _val in FLAGS[command]:
            argv += [flag, raw]
        assert main(argv) == 0
        (cfg,) = seen
        assert cfg.run == command
        assert cfg.out == str(tmp_path / "o")
        for _flag, _raw, key, val in FLAGS[command]:
            assert getattr(cfg, key) == val
        # keys without a flag keep the config file's value
        if "alpha" not in [key for *_, key, _v in FLAGS[command]]:
            assert cfg.alpha == 9.0

    @pytest.mark.parametrize(
        "command,text",
        [
            ("classify", "run = fly\nh = power(2.0)\nn = 1\n"),
            ("integrate", PROBLEM.replace("m = 1", "m = 0").replace("a = [1]", "a = []")),
            ("integrate", PROBLEM.replace("k = 0", "k = 1")),
            ("integrate", PROBLEM.replace("a = [1]", "a = [1, 1]")),
            ("integrate", PROBLEM.replace("a = [1]", "a = [-1]")),
            ("majorize", "h = power(1.0)\nn = 1\na = [-1]\nJ = 2\nhorizon = 2.0\n"),
            ("integrate", PROBLEM + "T = 0.5\ntol = 1.0\n"),
            ("construct", "h = power(1.0)\nn = 1\nb = [1]\ntol = 1e-20\n"),
            ("detect-blowup", PROBLEM + "thresholds = [5]\nhorizon = 0.5\n"),
            ("detect-blowup", PROBLEM + "thresholds = [100, 50]\nhorizon = 0.5\n"),
            ("classify", "h = power(2.0)\nn = 0\n"),
            ("verify-lemma22", "g = power(1.0)\nn = 0\nu0 = 1\n"),
            ("construct", "h = power(1.0)\nn = 0\nb = [1]\n"),
            # a flag gets the same checks as the config key it sets
            ("construct --tol 0.5", "h = power(1.0)\nn = 1\nb = [1]\n"),
        ],
    )
    def test_rejected_configs_exit_2(self, command, text, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        assert main(command.split() + ["--config", str(cfg_file)]) == 2
        assert "error" in capsys.readouterr().err

    def test_tol_reaches_the_majorize_solve_and_is_no_classify_flag(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("h = power(0.75)\nn = 2\na = [1, 1]\nJ = 4\nhorizon = 10.0\n")
        tables = []
        for name, extra in (("default", []), ("loose", ["--tol", "1e-6"])):
            assert main(["majorize", "--config", str(cfg), "--out", str(tmp_path / name), *extra]) == 0
            tables.append((tmp_path / name / "majorization.csv").read_bytes())
        assert tables[0] != tables[1]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--h", "power(2.0)", "--n", "1", "--tol", "1e-6"])
        assert exc.value.code == 2 and "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        ("classify", "h = power(2.0)\nn = 1\n"),
        ("verify-lemma22", "g = power(1.0)\nn = 2\nu0 = 1.0\nT = 1.0\ngrid_size = 50\n"),
    ], ids=["classify", "verify-lemma22"])
    def test_tol_key_refused_where_no_solve_reads_it(self, command, text, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg.write_text(text + "tol = 1e-6\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert f"config error: run {command} reads no tol" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="reads no tol"):
            parse_config(f"run = {command}\n" + text + "tol = 1e-6\n")

    def test_readme_command_lines_parse(self):
        # every example in README's "Command line" block is a valid invocation
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("blowup ")]
        assert len(lines) == 7
        for line in lines:
            argv = shlex.split(line)[1:]
            assert cli._parser().parse_args(argv).command == argv[0]

    def test_empty_thresholds_run_the_default_ladder(self, tmp_path):
        base = "run = detect-blowup\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(2.0)\n"
        assert run_experiment(parse_config(base + "thresholds = []\n"), tmp_path / "empty") == 0
        assert run_experiment(parse_config(base), tmp_path / "unset") == 0
        empty = (tmp_path / "empty" / "detect-blowup.txt").read_text()
        assert empty == (tmp_path / "unset" / "detect-blowup.txt").read_text()
        assert [line.split("=")[0] for line in empty.splitlines() if line.startswith("t_escape_")] == [
            "t_escape_10",
        ]


def reference_csv(header, rows) -> bytes:
    """The per-cell writer: every value of every row through ``_fmt``."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def trajectory_rows(traj):
    return ["t"] + [f"w{i}" for i in range(traj.m)], [[t] + list(y) for t, y in zip(traj.ts, traj.ys)]


def majorization_rows(table):
    header = ["j", "t_j", "tau_j", "eps_j", "margin_min"]
    return header, [[r.j, r.t_j, r.tau_j, r.eps_j, r.margin_min] for r in table.rows]


def expected_csvs(run, result) -> dict:
    """Each CSV a run writes, as (header, rows), from the library's result."""
    if run == "construct":
        return {"iterates.csv": (["j", "t", "v_j"], [[j, t, v] for j, it in enumerate(result.iterates)
                                                     for t, v in zip(result.grid, it)])}
    if run == "integrate":
        return {"trajectory.csv": trajectory_rows(getattr(result, "trajectory", result))}
    if run == "majorize":
        return {"majorization.csv": majorization_rows(result)}
    out = {}
    for name, traj in (("constructed.csv", result.constructed), ("direct.csv", result.direct),
                       ("probe.csv", result.blowup and result.blowup.trajectory)):
        if traj is not None:
            out[name] = trajectory_rows(traj)
    if result.majorization is not None:
        out["majorization.csv"] = majorization_rows(result.majorization)
    return out


# doubles whose repr is easy to get wrong: signed zero, the infinities, nan,
# the least subnormal, values near the largest finite double, and two whose
# shortest repr is far shorter than 17 digits
SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1e16]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def column(kind, n):
    """A strategy for one column of n values, in every form a call site passes."""
    return {
        "float64": st.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
        "float-list": st.lists(FLOATS, min_size=n, max_size=n),
        "int-array": st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n).map(np.array),
        "int-list": st.lists(st.integers(), min_size=n, max_size=n),
        "bool-array": st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        "str-list": st.lists(TEXT, min_size=n, max_size=n),
    }[kind]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float64", "float-list", "int-array", "int-list",
                                           "bool-array", "str-list"]), min_size=1, max_size=5))
    return [f"c{i}" for i in range(len(kinds))], [draw(column(kind, n)) for kind in kinds]


class TestWriteCsv:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(tables())
    def test_same_bytes_as_the_per_cell_writer(self, tmp_path_factory, table):
        header, columns = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, zip(*columns))

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])

    # each run type that writes CSVs, with constant and piecewise q
    PIECEWISE = "piecewise((0,0.4):1.2, (0.4,inf):0.6)"
    RUNS = {
        "construct": ("picard_solve", "run = construct\nh = power(0.6)\nn = 1\nb = [1]\nT = 1.0\n"),
        "integrate": ("integrate", "run = integrate\nm = 2\nk = 0\na = [1, 0.5]\nh = power(1.0)\nT = 2.0\n"),
        "majorize": ("majorization_experiment",
                     "run = majorize\nh = power(0.75)\nn = 2\na = [1, 1]\nJ = 4\nhorizon = 10.0\n"),
        "pipeline": ("run_pipeline", "run = pipeline\nm = 2\nk = 0\na = [1, 1]\nh = power(0.5)\n"
                                     "horizon = 2.0\n"),
        "pipeline-blowup": ("run_pipeline", "run = pipeline\nm = 1\nk = 0\na = [1]\nh = power(2.0)\n"
                                            "horizon = 5.0\n"),
    }

    @pytest.mark.parametrize("q", ["constant(1.0)", PIECEWISE], ids=["constant", "piecewise"])
    @pytest.mark.parametrize("name", list(RUNS))
    def test_artifacts_match_the_per_cell_writer(self, name, q, tmp_path, monkeypatch):
        target, text = self.RUNS[name]
        seen, call = [], getattr(cli, target)
        monkeypatch.setattr(cli, target, lambda *args, **kw: seen.append(call(*args, **kw)) or seen[-1])
        cfg = parse_config(text + f"q = {q}\n")
        assert run_experiment(cfg, out_dir=tmp_path) == 0
        (result,) = seen
        expected = expected_csvs(cfg.run, result)
        assert expected and sorted(expected) == sorted(p.name for p in tmp_path.glob("*.csv"))
        for file, (header, rows) in expected.items():
            assert (tmp_path / file).read_bytes() == reference_csv(header, rows), file
