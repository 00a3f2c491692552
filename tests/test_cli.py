import pytest

from blowup.cli import ExperimentConfig, emit_config, main, parse_config, run_experiment
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

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("m = x\nwat = 1\nrun = fly\n")
        assert len(exc.value.errors) >= 3

    def test_comments_and_blanks(self):
        cfg = parse_config("\n# hi\nm = 1  # trailing\nk = 0\na = [0]\n")
        assert cfg.m == 1 and cfg.a == (0.0,)

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
            seed=7,
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

    def test_integrate_csv_flag(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("m = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(1.0)\n")
        csv = tmp_path / "out.csv"
        assert main([
            "integrate", "--config", str(cfg), "--T", "2.0", "--tol", "1e-9",
            "--csv", str(csv),
        ]) == 0
        assert csv.read_text().splitlines()[0] == "t,w0"

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

    def test_batch_propagates_failure(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run = fly\n")
        out = tmp_path / "out"
        assert main(["batch", "--configs", str(bad), "--out", str(out)]) == 2


# every flag of every subcommand, with a value and the config key it must set
FLAGS = {
    "classify": [("--h", "power(2.0)", "h", "power(2.0)"), ("--n", "3", "n", 3),
                 ("--alpha", "2.5", "alpha", 2.5)],
    "integrate": [("--T", "4.5", "T", 4.5)],
    "detect-blowup": [("--horizon", "7.5", "horizon", 7.5)],
    "construct": [("--T", "1.5", "T", 1.5)],
    "majorize": [("--J", "4", "J", 4), ("--horizon", "9.0", "horizon", 9.0)],
    "verify-lemma22": [("--n", "2", "n", 2), ("--g", "power(1.0)", "g", "power(1.0)"),
                       ("--u0", "1.5", "u0", 1.5), ("--T", "2.5", "T", 2.5),
                       ("--grid-size", "50", "grid_size", 50)],
    "pipeline": [("--horizon", "3.5", "horizon", 3.5)],
}
COMMON = [("--seed", "7", "seed", 7), ("--tol", "1e-8", "tol", 1e-8)]

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
        for flag, raw, _key, _val in FLAGS[command] + COMMON:
            argv += [flag, raw]
        assert main(argv) == 0
        (cfg,) = seen
        assert cfg.run == command
        assert cfg.out == str(tmp_path / "o")
        for _flag, _raw, key, val in FLAGS[command] + COMMON:
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

    def test_empty_thresholds_run_the_default_ladder(self, tmp_path):
        base = "run = detect-blowup\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\nh = power(2.0)\n"
        assert run_experiment(parse_config(base + "thresholds = []\n"), tmp_path / "empty") == 0
        assert run_experiment(parse_config(base), tmp_path / "unset") == 0
        empty = (tmp_path / "empty" / "detect-blowup.txt").read_text()
        assert empty == (tmp_path / "unset" / "detect-blowup.txt").read_text()
        assert "t_escape_10=" in empty and "t_escape_1e+11=" in empty
