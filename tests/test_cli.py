"""CLI: config handling, experiment runs, fits, and calculator subcommands."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

from dualradio import cli, engine
from dualradio.cli import (ConfigError, build_trial_config, expand_sweep,
                           fit_scaling, load_config, main, normalize_config, parse_delta,
                           read_trials_csv)
from dualradio.engine import csv_header
from dualradio.model import DualGraph

ROOT = Path(__file__).resolve().parents[1]


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
        # an adversary spec is checked once, when its point's config is built
        [point] = expand_sweep(normalize_config(base_config(adversary={"kind": "nope"})))
        with pytest.raises(ValueError, match="adversary.kind"):
            build_trial_config(point)
        [point] = expand_sweep(normalize_config(
            base_config(adversary={"kind": "degree_walk_restricted"})))
        with pytest.raises(ValueError, match="adversary.l"):
            build_trial_config(point)

    def test_sweep_expansion_order(self):
        cfg = normalize_config(base_config(sweep={"tau": [1, 2, 4, 8]}))
        points = expand_sweep(cfg)
        assert [p["tau"] for p in points] == [1, 2, 4, 8]

    def test_single_point_when_no_sweep(self):
        points = expand_sweep(normalize_config(base_config()))
        assert len(points) == 1

    def test_points_hold_parsed_delta_and_full_adversary(self):
        points = expand_sweep(normalize_config(base_config(
            gadget={"kind": "star", "delta": "log2:30"},
            sweep={"adversary": [{"kind": "iid_subset"}, {"tau": 4}]})))
        assert [p["gadget"]["delta"] for p in points] == [2 ** 30, 2 ** 30]
        assert [p["adversary"] for p in points] == [{"kind": "iid_subset", "tau": 2},
                                                   {"kind": "static", "tau": 4}]

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

    @pytest.mark.parametrize("adversary_tau", [1, 8])
    def test_global_cap_and_budget_share_the_algorithm_tau(self, adversary_tau):
        # an adversary tau override changes neither the round cap nor the
        # per-node budget: both are sized for the tau the schedule was built for
        points = expand_sweep(normalize_config(base_config(
            problem="global", engine="materialized",
            gadget={"kind": "chained", "delta": 257, "diameter": 24}, algo="frlb",
            tau=8, adversary={"kind": "static", "tau": adversary_tau},
            max_rounds="auto")))
        trial_cfg, _ = build_trial_config(points[0])
        n, k = trial_cfg.gadget.node_count, trial_cfg.schedule.cycle_length
        assert trial_cfg.adversary["tau"] == adversary_tau
        assert trial_cfg.rgb_reps == engine.rgb_repetitions(257, 8, 0.1, n)
        assert trial_cfg.max_rounds == 100 * (24 // 3 + 2) * trial_cfg.rgb_reps * 2 * k
        # a config built without the CLI sizes its budget the same way
        direct = engine.TrialConfig(problem="global", gadget=trial_cfg.gadget,
                                    schedule=trial_cfg.schedule,
                                    adversary=trial_cfg.adversary, seed=1, max_rounds=10)
        assert direct.rgb_reps == trial_cfg.rgb_reps

    @pytest.mark.parametrize("tau", [1, None])
    def test_decay_cap_and_budget_follow_its_cycle_length(self, tau):
        # decay names no tau, so a point's tau sizes neither its budget nor
        # its round cap: both follow the cycle length, as a direct config does
        points = expand_sweep(normalize_config(base_config(
            problem="global", engine="materialized",
            gadget={"kind": "chained", "delta": 257, "diameter": 24}, algo="decay",
            tau=tau, adversary={"kind": "static"}, max_rounds="auto")))
        trial_cfg, _ = build_trial_config(points[0])
        n, k = trial_cfg.gadget.node_count, trial_cfg.schedule.cycle_length
        assert trial_cfg.rgb_reps == engine.rgb_repetitions(257, k, 0.1, n) == 220
        assert trial_cfg.max_rounds == 100 * (24 // 3 + 2) * 220 * 2 * k
        direct = engine.TrialConfig(problem="global", gadget=trial_cfg.gadget,
                                    schedule=trial_cfg.schedule,
                                    adversary=trial_cfg.adversary, seed=1, max_rounds=10)
        assert direct.rgb_reps == trial_cfg.rgb_reps


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

    def test_summary_count_column_is_the_trial_count(self, tmp_path, capsys):
        # max_rounds 5 leaves some trials unfinished: the column counts every
        # trial of the point, finished or not, and its header says so
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), max_rounds=5))
        assert main(["run", path]) == 0
        header, row = (line.split() for line in capsys.readouterr().out.splitlines()[1:])
        assert float(row[5]) < 1
        assert header[4] == "trials" and row[4] == "25"

    def test_summary_tau_is_the_adversary_tau(self, tmp_path, capsys):
        # the adversary's own tau overrides the point's, in the CSV rows and
        # in the summary line alike
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), tau=1, trials=5, adversary={"kind": "iid_subset", "tau": 4}))
        assert main(["run", path]) == 0
        summary = capsys.readouterr().out.splitlines()[2].split()
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert {r[6] for r in rows} == {"4"}
        assert summary[:4] == ["rlb", "6", "4", "iid_subset"]

    def test_print_config_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(sweep={"tau": [1, 2]}))
        assert main(["run", path, "--print-config"]) == 0
        echoed = yaml.safe_load(capsys.readouterr().out)
        again = normalize_config(echoed)
        assert expand_sweep(again) == expand_sweep(normalize_config(load_config(path)))

    def test_print_config_builds_every_point(self, tmp_path, capsys):
        # the gap construction is infeasible on the second point (delta 257,
        # tau 2): the config is not echoed, as the run would not start
        path = write_config(tmp_path, base_config(
            gadget={"kind": "star", "delta": 257}, adversary={"kind": "gap"},
            sweep={"tau": [1, 2]}))
        assert main(["run", path, "--print-config"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gap construction infeasible" in captured.err

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

    @pytest.mark.parametrize("kind, delta, tau", [
        ("gap", "log2:1050", 40), ("gap", "log2:1100", 1), ("argmin", "log2:1100", 1),
    ], ids=["gap-degree", "gap-probability", "argmin-probability"])
    def test_phase_kind_beyond_the_double_range_rejected(self, tmp_path, capsys, kind,
                                                         delta, tau):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), gadget={"kind": "star", "delta": delta}, tau=tau,
            adversary={"kind": kind}))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} computes") and err.count("\n") == 1
        assert "delta - 1 < 2^1024 and every schedule probability at least 2^-1074" in err
        assert not out.exists() and not (tmp_path / "t.csv.partial").exists()

    def test_static_degree_beyond_the_double_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), gadget={"kind": "star", "delta": "log2:1100"},
            adversary={"kind": "static", "extra_degree": 2 ** 1050}))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err == ("error: static computes the receiver's degree 1 + extra_degree as a "
                       "double, so it needs 1 + extra_degree < 2^1024 - 2^970; got "
                       "1 + extra_degree = 2^1050\n")
        assert not out.exists() and not (tmp_path / "t.csv.partial").exists()

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
        ({"max_rounds": True}, "max_rounds: must be a positive integer or None (auto), got True"),
        ({"max_rounds": 0}, "max_rounds: must be a positive integer or None (auto), got 0"),
        ({"problem": "sideways"}, "problem: must be local or global, got 'sideways'"),
        ({"engine": "analytic"}, "engine: unknown engine 'analytic'"),
        ({"epsilon": 1.5}, "epsilon: must be in (0,1), got 1.5"),
        ({"sweep": {"tau": [2, 0]}}, "tau: must be a positive integer or null, got 0"),
        ({"sweep": {"algo": ["rlb", "rlbx"]}}, "algo: unknown algorithm 'rlbx'"),
    ], ids=["top-level-key", "top-level-near-miss", "gadget-key", "gadget-key-of-another-kind",
            "gadget-n-string", "gadget-diameter-string", "tau-bool", "sweep-tau-bool",
            "trials-bool", "seed-bool", "max-rounds-bool", "max-rounds-zero", "problem",
            "engine", "epsilon", "sweep-tau-entry", "sweep-algo-entry"])
    def test_bad_config_key_is_a_config_error(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), **overrides))
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("text, message", [
        ("trials: 5\ntrials: 2\n", "trials: repeated key (line 8)"),
        ("adversary: {kind: iid_subset, kind: static}\n", "kind: repeated key (line 7)"),
        ("sweep:\n  adversary:\n    - {kind: iid_subset}\n    - kind: static\n"
         "      tau: 2\n      kind: gap\n", "kind: repeated key (line 12)"),
    ], ids=["top-level", "nested", "in-a-list"])
    def test_repeated_key_is_a_config_error(self, tmp_path, capsys, text, message):
        # a YAML mapping that names a key twice would keep the last value
        out = tmp_path / "t.csv"
        path = tmp_path / "cfg.yaml"
        path.write_text("problem: local\nengine: analytic_star\n"
                        "gadget: {kind: star, delta: 64, n: 66}\nalgo: rlb\nmax_rounds: 400\n"
                        f"out: {out}\n" + text)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_merged_keys_may_be_overridden(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("gadget:\n  <<: {kind: star, delta: 64, n: 70}\n  n: 66\n")
        assert load_config(str(path)) == {"gadget": {"kind": "star", "delta": 64, "n": 66}}

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_infeasible_last_point_stops_the_run_before_any_point(self, tmp_path, capsys,
                                                                  monkeypatch, jobs):
        # the gap construction is feasible at delta 257 for tau 1, not for tau 2
        runs = []
        monkeypatch.setattr(engine, "run_trials", lambda *args: runs.append(args))
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(
            out=str(out), gadget={"kind": "star", "delta": 257}, adversary={"kind": "gap"},
            sweep={"tau": [1, 2]}))
        assert main(["run", path, "--jobs", jobs]) == 1
        assert "gap construction infeasible: x = 0 < 1 for delta=257, tau=2" \
            in capsys.readouterr().err
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_workers_run_the_configs_built_up_front(self, tmp_path, monkeypatch):
        built = []

        def counted(point):
            built.append(point["tau"])
            return build_trial_config(point)

        monkeypatch.setattr(cli, "build_trial_config", counted)
        path = write_config(tmp_path, base_config(out=str(tmp_path / "t.csv"),
                                                  sweep={"tau": [1, 2, 3]}))
        assert main(["run", path, "--jobs", "2"]) == 0
        assert built == [1, 2, 3]

    def test_analytic_point_builds_no_graph(self, monkeypatch):
        # gap-long's point: a 65,539-node star, described by its shape alone
        cfg = normalize_config(load_config(str(ROOT / "bench/workloads/gap-long.yaml")))
        [point] = expand_sweep(cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("a DualGraph was built")

        monkeypatch.setattr(DualGraph, "__init__", refuse)
        config, _ = build_trial_config(point)
        assert config.gadget.node_count == 65_539
        assert engine.run_trials(config, 3).trial_count == 3

    @pytest.mark.parametrize("out, message", [
        ("missing/t.csv", "cannot write {out}: No such file or directory"),
        (".", "{out} is a directory")], ids=["missing-dir", "directory"])
    def test_unwritable_out_stops_the_run_before_any_point(self, tmp_path, capsys,
                                                           monkeypatch, out, message):
        runs = []
        monkeypatch.setattr(engine, "run_trials", lambda *args: runs.append(args))
        out = tmp_path / out
        path = write_config(tmp_path, base_config(out=str(out)))
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == f"error: out: {message.format(out=out)}\n"
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("out, flag", [(5, None), (None, None), ("t.csv", "")],
                             ids=["number", "null", "empty-flag"])
    def test_bad_out_stops_the_run_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                    out, flag):
        # `out` from the config, or `--out` over it; a relative path would
        # write its `.partial` into the working directory
        runs = []
        monkeypatch.setattr(engine, "run_trials", lambda *args: runs.append(args))
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, base_config(out=out))
        argv = ["run", path] + ([] if flag is None else ["--out", flag])
        assert main(argv) == 1
        got = out if flag is None else flag
        assert capsys.readouterr().err == f"error: out: expected a nonempty path, got {got!r}\n"
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_no_partial_left_behind(self, tmp_path):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out)))
        main(["run", path])
        assert not (tmp_path / "t.csv.partial").exists()


def run_program(argv):
    """A fresh interpreter running `argv` with the package from `src/`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("collecting", [True, False])
def test_program_import_leaves_model_and_collector_alone(collecting):
    # every run starts with `import dualradio.cli`: it imports no reference
    # model and leaves the collector on or off as the caller set it;
    # `gadget`, which prints the model's graph text, imports the model itself
    code = "\n".join([
        "import gc, sys",
        "gc.enable()" if collecting else "gc.disable()",
        "import dualradio.cli",
        "print('dualradio.model' in sys.modules, gc.isenabled())",
        "dualradio.cli.main(['gadget', 'star', '4', '6'])",
    ])
    proc = run_program(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"False {collecting}\n"
                           "n 6\nE 0 1\nE 0 2\nE 0 3\nE 0 5\nE 1 4\nU 2 4\nU 3 4\n")


class TestStreamingRun:
    """`run` formats each trial's row as the trial finishes and appends it
    to `.partial`, and keeps of a point only its completion rounds."""

    CHAIN = {"problem": "global", "engine": "materialized",
             "gadget": {"kind": "chained", "delta": 1025, "diameter": 24},
             "algo": "frlb", "tau": 1, "adversary": {"kind": "static"},
             "max_rounds": 1000000}

    @staticmethod
    def traced_peak(tmp_path, cfg):
        """Peak traced memory of an in-process run of `cfg`."""
        path = write_config(tmp_path, cfg, name=f"cfg-{cfg['trials']}.yaml")
        out = tmp_path / "t.csv"
        if out.exists():
            out.unlink()
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_analytic_point_memory_does_not_grow_with_trials(self, tmp_path, capsys):
        # a point keeps a count per completion round, at most max_rounds + 1
        # of them, where a list of rounds would take 8 bytes a trial; both
        # runs pass a seed block boundary, where one block is held at a time
        cfg = base_config(max_rounds=2000)
        self.traced_peak(tmp_path, dict(cfg, trials=10))  # first-use caches
        low = self.traced_peak(tmp_path, dict(cfg, trials=3000))
        high = self.traced_peak(tmp_path, dict(cfg, trials=10_000))
        assert (high - low) / 7000 < 4, (low, high)

    def test_seed_block_boundary_holds_one_block(self, tmp_path, capsys):
        # a 1,024-trial seed block takes about 110 KB while it is derived;
        # 2,000 trials cross one block boundary, 1,000 none
        cfg = base_config(max_rounds=2000)
        self.traced_peak(tmp_path, dict(cfg, trials=10))  # first-use caches
        low = self.traced_peak(tmp_path, dict(cfg, trials=1000))
        high = self.traced_peak(tmp_path, dict(cfg, trials=2000))
        assert high - low < 32 * 1024, (low, high)

    def test_materialized_point_keeps_no_delivery_array(self, tmp_path, capsys):
        # a kept result holds an int64 delivery round per node
        n = cli.gadgets.build_gadget("chained", 1025, diameter=24).node_count
        self.traced_peak(tmp_path, dict(self.CHAIN, trials=1))
        low = self.traced_peak(tmp_path, dict(self.CHAIN, trials=4))
        high = self.traced_peak(tmp_path, dict(self.CHAIN, trials=16))
        assert high - low < 8 * n, (low, high, n)

    def test_rows_are_made_as_trials_finish(self, tmp_path, monkeypatch):
        events = []
        run_trial, trial_csv_row = engine.run_trial, cli.trial_csv_row

        def traced_trial(config, trial=0, start=None):
            events.append(("trial", trial))
            return run_trial(config, trial, start)

        def traced_row(trial_id, config, result):
            events.append(("row", trial_id))
            return trial_csv_row(trial_id, config, result)

        monkeypatch.setattr(engine, "run_trial", traced_trial)
        monkeypatch.setattr(cli, "trial_csv_row", traced_row)
        path = write_config(tmp_path, base_config(out=str(tmp_path / "t.csv"), trials=3,
                                                  sweep={"tau": [1, 2]}))
        assert main(["run", path]) == 0
        assert events == [(kind, i) for t in range(6)
                          for kind, i in (("trial", t % 3), ("row", t))]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_run_removes_partial_and_keeps_the_old_csv(self, tmp_path, capsys,
                                                              monkeypatch, error):
        out = tmp_path / "t.csv"
        out.write_bytes(b"an earlier run's rows\n")
        partial = tmp_path / "t.csv.partial"
        run_trial = engine.run_trial
        opened = []

        def fails_on_second_point(config, trial=0, start=None):
            if config.adversary["tau"] == 2:
                opened.append(partial.exists())
                raise error("trial failed")
            return run_trial(config, trial, start)

        monkeypatch.setattr(engine, "run_trial", fails_on_second_point)
        path = write_config(tmp_path, base_config(out=str(out), sweep={"tau": [1, 2]}))
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(["run", path])
        else:
            assert main(["run", path]) == 1
            assert capsys.readouterr().err == "error: trial failed\n"
        assert opened == [True]
        assert out.read_bytes() == b"an earlier run's rows\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "t.csv"]


class TestProgram:
    """`python -m dualradio.cli` as its own process: the only caller whose
    `main` freezes the heap before the interpreter exits."""

    MATERIALIZED = {"problem": "global", "engine": "materialized",
                    "gadget": {"kind": "chained", "delta": 257, "diameter": 24},
                    "algo": "frlb", "tau": 1, "adversary": {"kind": "chained_gap"},
                    "trials": 2, "max_rounds": 1000000}

    @pytest.mark.parametrize("overrides", [{}, MATERIALIZED],
                             ids=["analytic", "materialized"])
    def test_process_output_equals_in_process(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, base_config(**overrides))
        proc_out, here_out = tmp_path / "process.csv", tmp_path / "in-process.csv"
        proc = run_program(["-m", "dualradio.cli", "run", path, "--seed", "7",
                            "--out", str(proc_out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert main(["run", path, "--seed", "7", "--out", str(here_out)]) == 0
        assert proc_out.read_bytes() == here_out.read_bytes()
        here = capsys.readouterr().out.splitlines()
        lines = proc.stdout.splitlines()
        assert lines[0] == f"wrote {proc_out}" and here[0] == f"wrote {here_out}"
        assert lines[1].split()[-4:] == ["rate", "median", "p90", "mean"]
        assert lines[1:] == here[1:] and len(lines) == 3

    def test_process_bad_config_leaves_no_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), trials=0))
        proc = run_program(["-m", "dualradio.cli", "run", path])
        assert proc.returncode == 1
        assert proc.stdout == ""
        errors = proc.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: trials")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("trials, code", [(25, 0), (0, 1)], ids=["ok", "error"])
    def test_program_freezes_the_heap_after_the_command(self, tmp_path, trials, code):
        path = write_config(tmp_path, base_config(out=str(tmp_path / "t.csv"), trials=trials))
        script = ("import gc, sys\n"
                  "from dualradio.cli import main\n"
                  "before = gc.get_freeze_count()\n"
                  f"sys.argv = ['dualradio', 'run', {path!r}]\n"
                  "code = main()\n"
                  "print('frozen', before, gc.get_freeze_count() > 0, code)\n")
        proc = run_program(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"frozen 0 True {code}"

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"], ["oracle", "exact", "4", "0.25"], ["run", "{bad}"]],
        ids=["run", "oracle", "failing-run"])
    def test_in_process_call_keeps_the_collector(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, base_config(out=str(tmp_path / "t.csv")))
        bad = write_config(tmp_path, base_config(trials=0), name="bad.yaml")
        argv = [a.format(cfg=cfg, bad=bad) for a in argv]
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(argv) == (1 if argv[-1] == bad else 0)
        assert (gc.get_freeze_count(), gc.isenabled()) == before


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

    def test_fit_of_a_run_takes_each_summary_median(self, tmp_path, capsys):
        # max_rounds 5 leaves some trials of every point unfinished, fewer
        # than half of them
        out = tmp_path / "t.csv"
        path = write_config(tmp_path, base_config(out=str(out), max_rounds=5,
                                                  sweep={"tau": [1, 2, 3, 4]}))
        assert main(["run", path]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(table) == 4
        assert all(0.5 < float(row[5]) < 1 for row in table)
        fit = fit_scaling(read_trials_csv(str(out)), "local-tau", {})
        assert [m for _, m in fit.points] == [float(row[6]) for row in table]


class TestScalingSweeps:
    """End-to-end sweep -> CSV -> fit, checking the predicted trends."""

    @staticmethod
    def run_sweep_rows(configs, trials):
        from dualradio.engine import run_trials, trial_csv_row

        rows = []
        for cfg in configs:
            run_trials(cfg, trials,
                       lambda t, res: rows.append(trial_csv_row(len(rows), cfg, res)))
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
