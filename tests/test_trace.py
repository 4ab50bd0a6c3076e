"""The benchmark tracer (bench/trace.py) still finds and wraps the package
API it measures: it patches names and reads call arguments by position, so
a signature change would otherwise surface only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from dualradio.cli import build_trial_config, expand_sweep, normalize_config
from dualradio.engine import run_trials

ROOT = Path(__file__).resolve().parents[1]

ANALYTIC = {
    "problem": "local", "engine": "analytic_star",
    "gadget": {"kind": "star", "delta": 64, "n": 66},
    "algo": "rlb", "tau": 2, "adversary": {"kind": "iid_subset"},
    "trials": 20, "max_rounds": 2000,
}
MATERIALIZED = {
    "problem": "global", "engine": "materialized",
    "gadget": {"kind": "chained", "delta": 257, "diameter": 24},
    "algo": "frlb", "tau": 1, "adversary": {"kind": "chained_gap"},
    "trials": 2, "max_rounds": 1000000,
}


def trace(tmp_path, config):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace.py"), str(cfg), "5",
         str(tmp_path / "out.csv"), str(summary), str(tmp_path / "spans.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(summary.read_text())["counts"]


@pytest.mark.parametrize("config", [ANALYTIC, MATERIALIZED], ids=["analytic", "materialized"])
def test_tracer_wraps_the_policy_api(tmp_path, config):
    counts = trace(tmp_path, config)
    assert counts["engine.trials"] == config["trials"]
    # bench/run.py requires one call per trial of each of these wrapped names
    for name in ("engine.run_trial", "engine.trial_rngs", "adversary.make_policy",
                 "engine.trial_csv_row"):
        assert counts[f"{name}.calls"] == config["trials"], name
    if config["engine"] == "analytic_star":
        assert counts["adversary.degrees.calls"] > 0
        assert counts["adversary.degrees.rounds"] >= counts["engine.rounds_executed"] > 0
    else:
        assert counts["adversary.sample_edges.calls"] == counts["engine.rounds_executed"] > 0
        # the adversary is entered in round 1 and in each round after a
        # delivery, as the same trials run in-process show: a period-1
        # chained_gap table names no other round
        cfg = normalize_config({**config, "seed": 5})
        point_config, trials = build_trial_config(expand_sweep(cfg)[0])
        entered = 0
        for res in run_trials(point_config, trials).results:
            later = {r + 1 for r in res.first_delivery.values() if r < res.rounds_executed}
            entered += len(later | {1})
        assert counts["adversary.pre_round.calls"] == entered < counts["engine.rounds_executed"]
        # bench/run.py requires collision counting to be seen, however few
        # transmitters the round loop counts
        assert counts["engine.round_counts.calls"] > 0
