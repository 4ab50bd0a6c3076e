"""CLI: config handling, experiment runs, fits, and calculator subcommands."""

import math

import pytest
import yaml

from dualradio import engine
from dualradio.cli import (ConfigError, build_trial_config, expand_sweep,
                           fit_scaling, main, normalize_config, parse_delta,
                           read_trials_csv)
from dualradio.engine import csv_header


def base_config(**overrides):
    cfg = {
        "problem": "local",
        "engine": "analytic_star",
        "gadget": {"kind": "star", "delta": 64, "n": 66},
        "algo": "rlb",
        "tau": 2,
        "adversary": {"kind": "iid_subset"},
        "trials": 25,
        "seed": 11,
        "max_rounds": 400,
        "out": "unused.csv",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestConfigParsing:
    def test_parse_delta_forms(self):
        assert parse_delta(64) == 64
        assert parse_delta("64") == 64
        assert parse_delta("log2:10") == 1024
        with pytest.raises(ConfigError, match="delta"):
            parse_delta(1)
        with pytest.raises(ConfigError, match="delta"):
            parse_delta("log2:x")

    def test_errors_name_offending_key(self):
        with pytest.raises(ConfigError, match="gadget.kind"):
            normalize_config(base_config(gadget={"delta": 8}))
        with pytest.raises(ConfigError, match="trials"):
            normalize_config(base_config(trials=0))
        with pytest.raises(ConfigError, match="sweep.bogus"):
            normalize_config(base_config(sweep={"bogus": [1]}))
        with pytest.raises(ConfigError, match="adversary.kind"):
            expand_sweep(normalize_config(
                base_config(adversary={"kind": "nope"})))
        with pytest.raises(ConfigError, match="adversary.l"):
            expand_sweep(normalize_config(
                base_config(adversary={"kind": "degree_walk_restricted"})))

    def test_sweep_expansion_order(self):
        cfg = normalize_config(base_config(sweep={"tau": [1, 2, 4, 8]}))
        points = expand_sweep(cfg)
        assert [p["tau"] for p in points] == [1, 2, 4, 8]

    def test_single_point_when_no_sweep(self):
        points = expand_sweep(normalize_config(base_config()))
        assert len(points) == 1

    def test_build_trial_config(self):
        points = expand_sweep(normalize_config(base_config()))
        trial_cfg, trials = build_trial_config(points[0])
        assert trials == 25
        assert trial_cfg.schedule.label == "rlb"
        assert trial_cfg.adversary["tau"] == 2  # defaults to the point's tau

    def test_auto_max_rounds_resolves(self):
        points = expand_sweep(normalize_config(base_config(max_rounds="auto")))
        trial_cfg, _ = build_trial_config(points[0])
        assert trial_cfg.max_rounds > 1000


class TestRunCommand:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out)))
        assert main(["run", path]) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == csv_header()
        assert len(lines) == 1 + 25
        assert "rate" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out)))
        assert main(["run", path]) == 0
        first = out.read_bytes()
        assert main(["run", path]) == 0
        assert out.read_bytes() == first

    def test_jobs_do_not_change_output(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = base_config(out=str(out), trials=10, sweep={"tau": [1, 2, 3]})
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        serial = out.read_bytes()
        assert main(["run", path, "--jobs", "3"]) == 0
        assert out.read_bytes() == serial

    def test_sweep_summary_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cfg = base_config(out=str(out), trials=5, sweep={"tau": [1, 2, 4, 8]})
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        body = capsys.readouterr().out
        assert body.count("iid_subset") == 4
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 20
        assert [r.split(",")[0] for r in rows] == [str(i) for i in range(20)]

    def test_print_config_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(sweep={"tau": [1, 2]}))
        assert main(["run", path, "--print-config"]) == 0
        echoed = yaml.safe_load(capsys.readouterr().out)
        again = normalize_config(echoed)
        assert expand_sweep(again) == expand_sweep(normalize_config(
            yaml.safe_load(open(path))))

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(trials=-3))
        assert main(["run", path]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out)))
        assert main(["run", path, "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["materialized", "analytic_star"])
    def test_correlated_shift_on_star_rejected(self, tmp_path, capsys, engine):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), engine=engine, adversary={"kind": "correlated_shift"}))
        assert main(["run", path]) == 1
        assert "star gadget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("adversary, message", [
        ({"kind": "static", "edges": [3, 3]}, "listed more than once"),
        ({"kind": "static", "edges": [-1]}, "not unreliable edge indices"),
    ])
    def test_bad_static_edges_rejected(self, tmp_path, capsys, adversary, message):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), engine="materialized", gadget={"kind": "star", "delta": 16},
            adversary=adversary))
        assert main(["run", path]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["local", "global"])
    def test_receiver_kind_on_chained_gadget_rejected(self, tmp_path, capsys, problem):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), problem=problem, engine="materialized", algo="frlb", tau=1,
            gadget={"kind": "chained", "delta": 257, "diameter": 24},
            adversary={"kind": "gap"}))
        assert main(["run", path]) == 1
        assert "chained gadget has no designated receiver" in capsys.readouterr().err
        assert not out.exists()

    def test_virtual_star_on_materialized_engine_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), engine="materialized", gadget={"kind": "star", "delta": "log2:30"},
            adversary={"kind": "iid_subset", "edge_prob": 1.0}))
        assert main(["run", path]) == 1
        assert "run it on the analytic_star engine" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"adversary": ["kind", "static"]}, "adversary: must be a mapping"),
        ({"sweep": {"adversary": [{"kind": "static"}, "gap"]}},
         "sweep.adversary[1]: must be a mapping"),
        ({"adversary": {"kind": "iid_subset", "edge_prob": "0.5"}},
         "adversary.edge_prob: must be a number in [0, 1] or null, got '0.5'"),
        ({"adversary": {"kind": "degree_walk_restricted", "l": "2"}},
         "adversary.l: must be an integer, got '2'"),
        ({"sweep": {"adversary": [{"kind": "degree_walk_deterministic", "l": 2,
                                   "start_degree": "5"}]}},
         "adversary.start_degree: must be an integer, got '5'"),
        ({"adversary": {"kind": "gap", "strict": "no"}},
         "adversary.strict: must be true or false, got 'no'"),
        ({"adversary": {"kind": "static", "edges": "12"}},
         "adversary.edges: must be a list of integers, got '12'"),
        ({"adversary": {"kind": "static", "edges": [0, True]}},
         "adversary.edges: must be a list of integers, got [0, True]"),
        ({"adversary": {"kind": "static", "extra_degree": "2"}},
         "adversary.extra_degree: must be an integer, got '2'"),
        ({"gadget": {"kind": "double_star", "delta": 64},
          "adversary": {"kind": "correlated_shift", "shift": True}},
         "adversary.shift: must be an integer, got True"),
        ({"adversary": {"kind": "iid_subset", "edge_probability": 0.3}},
         "adversary.edge_probability: iid_subset reads only tau, edge_prob"),
        ({"adversary": {"kind": "gap", "edge_prob": 0.3}},
         "adversary.edge_prob: gap reads only tau, strict"),
        ({"adversary": {"kind": "iid_subset", "tau": "2"}},
         "adversary.tau: must be a positive integer or null, got '2'"),
        ({"adversary": {"kind": "iid_subset", "tau": True}},
         "adversary.tau: must be a positive integer or null, got True"),
        ({"adversary": {"kind": "iid_subset", "edge_prob": float("nan")}},
         "adversary.edge_prob: must be a number in [0, 1] or null, got nan"),
        ({"tau": None, "adversary": {"kind": "argmin"}},
         "adversary.tau: argmin needs a finite tau"),
    ], ids=["adversary", "sweep-adversary", "edge-prob-string", "l-string",
            "start-degree-string", "strict-string", "edges-string", "edges-bool",
            "extra-degree-string", "shift-bool", "unknown-key", "key-of-another-kind",
            "tau-string", "tau-bool", "edge-prob-nan", "phase-kind-point-tau-null"])
    def test_bad_adversary_is_a_config_error(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), **overrides))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"trails": 1000}, "trails: unknown config key"),
        ({"max_round": 5}, "max_round: unknown config key"),
        ({"gadget": {"kind": "star", "delta": 64, "nn": 66}},
         "gadget.nn: not a key of star gadgets"),
        ({"gadget": {"kind": "double_star", "delta": 64, "n": 66}},
         "gadget.n: not a key of double_star gadgets"),
        ({"gadget": {"kind": "star", "delta": 64, "n": "66"}},
         "gadget.n: must be an integer, got '66'"),
        ({"engine": "materialized", "problem": "global",
          "gadget": {"kind": "chained", "delta": 10, "diameter": "24"}},
         "gadget.diameter: must be an integer, got '24'"),
        ({"tau": True}, "tau: must be a positive integer or null, got True"),
        ({"sweep": {"tau": [1, True]}}, "tau: must be a positive integer or null, got True"),
        ({"trials": True}, "trials: must be a positive integer, got True"),
        ({"seed": True}, "seed: must be an integer, got True"),
        ({"max_rounds": True}, "max_rounds: must be 'auto' or a positive integer, got True"),
    ], ids=["top-level-key", "top-level-near-miss", "gadget-key", "gadget-key-of-another-kind",
            "gadget-n-string", "gadget-diameter-string", "tau-bool", "sweep-tau-bool",
            "trials-bool", "seed-bool", "max-rounds-bool"])
    def test_bad_config_key_is_a_config_error(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), **overrides))
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_later_point_stops_the_run_before_any_point(self, tmp_path, capsys,
                                                             monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "run_trials", lambda *args: runs.append(args))
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), sweep={"adversary": [
            {"kind": "iid_subset"}, {"kind": "iid_subset", "edge_prob": 1.5}]}))
        assert main(["run", path]) == 1
        assert "adversary.edge_prob: must be a number in [0, 1] or null, got 1.5" \
            in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_no_partial_left_behind(self, tmp_path):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out)))
        main(["run", path])
        assert not (tmp_path / "t.csv.partial").exists()


class TestFitCommand:
    @staticmethod
    def synthetic_csv(tmp_path):
        # medians exactly 3x the local-tau predictor 2^l / l at tau = 1
        rows = [csv_header()]
        trial = 0
        for dl2 in (4, 8, 16, 32):
            pred = (2 ** dl2) / dl2
            median = 3 * pred
            for _ in range(3):
                rows.append(f"{trial},{trial},local,rlb,analytic_star,{dl2},1,"
                            f"iid_subset,1,{int(median)},{int(median)}")
                trial += 1
        path = tmp_path / "synthetic.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_exponent_one_on_exact_data(self, tmp_path):
        rows = read_trials_csv(self.synthetic_csv(tmp_path))
        fit = fit_scaling(rows, "local-tau", {})
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_cli_fit_prints_exponent(self, tmp_path, capsys):
        path = self.synthetic_csv(tmp_path)
        assert main(["fit", path, "--predictor", "local-tau"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("exponent")][0]
        assert float(line.split()[1]) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points_rejected(self, tmp_path):
        rows = [csv_header(), "0,0,local,rlb,analytic_star,4,1,iid_subset,1,5,5"]
        path = tmp_path / "short.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--predictor", "local-tau"]) == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "absent.csv"), "--predictor", "local-tau"]) == 1
        assert "absent.csv: No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("row, count", [
        ("0,0,local,rlb,analytic_star,4,1,iid_subset,1,5", 10),
        ("0,0,local,rlb,analytic_star,4,1,iid_subset,1,5,5,7", 12),
    ], ids=["short", "long"])
    def test_wrong_field_count_names_the_line(self, tmp_path, capsys, row, count):
        good = "1,1,local,rlb,analytic_star,4,1,iid_subset,1,5,5"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([csv_header(), good, "", row]) + "\n")
        assert main(["fit", str(path), "--predictor", "local-tau"]) == 1
        assert f"line 4 has {count} fields, expected 11" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("0,0,local,rlb,analytic_star,4,1,iid_subset,yes,5,5",
         "line 4: completed must be 0 or 1, got 'yes'"),
        ("0,0,local,rlb,analytic_star,4,1,iid_subset,1,,5",
         "line 4: completion_round of a completed trial must be an integer, got ''"),
        ("0,0,local,rlb,analytic_star,4,1,iid_subset,1,4.5,5",
         "line 4: completion_round of a completed trial must be an integer, got '4.5'"),
    ], ids=["completed", "empty-round", "fractional-round"])
    def test_bad_completion_fields_name_the_line(self, tmp_path, capsys, row, message):
        good = "1,1,local,rlb,analytic_star,4,1,iid_subset,1,5,5"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([csv_header(), good, "", row]) + "\n")
        assert main(["fit", str(path), "--predictor", "local-tau"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_global_predictor_needs_diameter(self, tmp_path):
        rows = read_trials_csv(self.synthetic_csv(tmp_path))
        with pytest.raises(ConfigError, match="--param D"):
            fit_scaling(rows, "global-tau2", {})
        fit = fit_scaling(rows, "global-tau2", {"D": "24"})
        assert math.isfinite(fit.exponent)


class TestScalingSweeps:
    """End-to-end sweep -> CSV -> fit, checking the predicted trends."""

    @staticmethod
    def run_sweep_rows(configs, trials):
        from dualradio.engine import run_trials, trial_csv_row

        rows = []
        tid = 0
        for cfg in configs:
            stats = run_trials(cfg, trials)
            for res in stats.results:
                rows.append(trial_csv_row(tid, cfg, res))
                tid += 1
        return rows

    def test_frlb_vs_worst_stable_adversary_trend(self, tmp_path):
        from dualradio.engine import TrialConfig
        from dualradio.gadgets import star_gadget
        from dualradio.schedules import frlb_schedule

        delta = 2 ** 12
        g = star_gadget(delta, delta + 2)
        configs = []
        for tau in (1, 2, 3, 4):
            sched = frlb_schedule(delta, tau)
            configs.append(TrialConfig(
                problem="local", gadget=g, schedule=sched,
                adversary={"kind": "argmin", "tau": tau}, seed=2000,
                max_rounds=200_000, engine_mode="analytic_star"))
        rows = self.run_sweep_rows(configs, 400)
        path = tmp_path / "sweep.csv"
        path.write_text(csv_header() + "\n" + "\n".join(rows) + "\n")
        fit = fit_scaling(read_trials_csv(str(path)), "local-tau2", {})
        assert 0.7 <= fit.exponent <= 1.3

    def test_decay_vs_correlated_shift_trend(self, tmp_path):
        from dualradio.engine import TrialConfig
        from dualradio.gadgets import double_star
        from dualradio.schedules import decay_schedule

        configs = []
        # a fourth sweep point (2^14) satisfies the fit's minimum-point rule
        for dl2 in (8, 10, 12, 14):
            delta = 2 ** dl2
            g = double_star(delta)
            sched = decay_schedule(delta)
            configs.append(TrialConfig(
                problem="local", gadget=g, schedule=sched,
                adversary={"kind": "correlated_shift",
                           "shift": sched.cycle_length},
                seed=3000, max_rounds=100_000, engine_mode="analytic_star"))
        rows = self.run_sweep_rows(configs, 300)
        path = tmp_path / "sweep.csv"
        path.write_text(csv_header() + "\n" + "\n".join(rows) + "\n")
        fit = fit_scaling(read_trials_csv(str(path)), "shift", {})
        assert fit.exponent >= 0.7


class TestCalculators:
    def test_oracle_exact(self, capsys):
        assert main(["oracle", "exact", "4", "0.25", "false"]) == 0
        assert capsys.readouterr().out.strip() == "0.421875"

    def test_oracle_wpi(self, capsys):
        assert main(["oracle", "wpi", "0.5", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "0 0.25"

    def test_oracle_prosing_and_interval(self, capsys):
        assert main(["oracle", "prosing", "2", "0.5"]) == 0
        v = float(capsys.readouterr().out.strip())
        assert v == pytest.approx(1 / (2 * math.e), rel=1e-12)
        assert main(["oracle", "interval", "2", "8", "0.25"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(
            0.2669677734375, abs=1e-14)

    def test_gadget_star_output(self, capsys):
        assert main(["gadget", "star", "4", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 6\n")
        assert out.count("U ") == 2

    @pytest.mark.parametrize("argv, usage", [
        (["oracle", "exact", "4"], "oracle exact takes <d> <p> [flag], got 1"),
        (["oracle", "interval", "1", "2"], "oracle interval takes <d1> <d2> <p> [flag], got 2"),
        (["oracle", "phase-sum", "4"], "oracle phase-sum takes <degree> <flag> <p>..., got 1"),
        (["oracle", "prosing", "2", "0.5", "1"], "oracle prosing takes <d> <p>, got 3"),
        (["gadget", "star", "4"], "gadget star takes <delta> <n>, got 1"),
        (["gadget", "double_star", "8", "9"], "gadget double_star takes <delta>, got 2"),
    ], ids=["exact", "interval", "phase-sum", "prosing-extra", "star", "double-star-extra"])
    def test_wrong_value_count_is_an_error(self, capsys, argv, usage):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {usage} value(s)\n"

    def test_schedule_dump(self, capsys):
        assert main(["schedule", "rlb", "--delta", "16", "--tau", "2"]) == 0
        assert capsys.readouterr().out == "index,probability\n1,0.25\n2,0.0625\n"
