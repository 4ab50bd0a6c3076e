"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with `pytest -s tests/test_acceptance.py` to see
the lines as they print)."""

import math
import time

import numpy as np
import pytest

from dualradio.adversary import gap_plan, shift_plan
from dualradio.engine import (TrialConfig, rlb_repetitions, rlbc_repetitions,
                              rgb_repetitions, run_trial, run_trials)
from dualradio.gadgets import build_gadget, chained_gadgets, double_star, star_gadget
from dualradio.model import DualGraph, build_round_topology
from dualradio.oracle import (brute_force_delivery_prob, exact_success_prob,
                              interval_min_bound, phase_success_sum,
                              prosing_bound, weierstrass_bounds)
from dualradio.schedules import (decay_schedule, frlb_schedule, log2e_of,
                                 rlb_schedule, rlbc_schedule)

LN_2E = math.log(2.0 * math.e)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def elapsed_ok(t0: float, budget_s: float) -> tuple[float, bool]:
    dt = time.time() - t0
    return dt, dt < budget_s


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for d in range(1, 13):
        graph = DualGraph.from_parts(d + 1, [(0, a) for a in range(1, d + 1)], [])
        topo = build_round_topology(graph, [], 1)
        for k in range(1, 16):
            p = k / 16.0
            for flag in (False, True):
                probs = {a: p for a in range(1, d + 1)}
                if flag:
                    probs[0] = p
                brute = brute_force_delivery_prob(graph, topo, probs, 0)
                closed = exact_success_prob(d, p, flag)
                worst = max(worst, abs(brute - closed))
    dt, in_time = elapsed_ok(t0, 1.0)
    report(1, "exact_success_prob == brute force on stars",
           worst <= 1e-12 and in_time, f"max |diff| {worst:.2e}, {dt:.2f}s")


def test_criterion_02_prosing_grid():
    t0 = time.time()
    ok = True
    for d in range(1, 2001):
        for k in range(1, 21):
            p = 2.0 ** -k
            if prosing_bound(d, p) > exact_success_prob(d, p, True) + 1e-15:
                ok = False
                break
        if not ok:
            break
    dt, in_time = elapsed_ok(t0, 5.0)
    report(2, "(pd)/(2e)^(pd) lower-bounds exact success on the full grid",
           ok and in_time, f"{dt:.2f}s")


def test_criterion_03_interval_lemma():
    t0 = time.time()
    unimodal = True
    for p in (0.5, 0.25, 0.1, 0.03, 0.011, 2.0 ** -8):
        vals = [exact_success_prob(d, p) for d in range(1, 4097)]
        changes, prev = 0, 1
        for a, b in zip(vals, vals[1:]):
            cur = 1 if b > a else (-1 if b < a else prev)
            if cur != prev:
                changes += 1
            prev = cur
        if changes > 1:
            unimodal = False
    rng = np.random.default_rng(42)
    endpoint_ok = True
    for _ in range(500):
        d1 = int(rng.integers(1, 400))
        d2 = int(rng.integers(d1, 401))
        p = float(rng.uniform(0.001, 0.9))
        lo = interval_min_bound(d1, d2, p)
        for d in range(d1, d2 + 1):
            if exact_success_prob(d, p) < lo - 1e-12:
                endpoint_ok = False
    dt, in_time = elapsed_ok(t0, 5.0)
    report(3, "success is unimodal in degree; endpoint min bounds interiors",
           unimodal and endpoint_ok and in_time, f"{dt:.2f}s")


def test_criterion_04_weierstrass():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10_000):
        xs = rng.random(int(rng.integers(0, 11))).tolist()
        lo, hi = weierstrass_bounds(xs)
        prod = 1.0
        for x in xs:
            prod *= 1.0 - x
        if not (lo <= prod + 1e-12 and prod <= hi + 1e-12):
            ok = False
    dt, in_time = elapsed_ok(t0, 1.0)
    report(4, "Weierstrass sandwich on 10^4 random vectors", ok and in_time,
           f"{dt:.2f}s")


def test_criterion_05_rlb_upper_bound():
    t0 = time.time()
    delta, eps, trials = 64, 0.1, 20_000
    g = star_gadget(delta, delta + 2)
    sigma = math.sqrt(eps * (1 - eps) / trials)
    details = []
    ok = True
    for tau in (1, 2, 3, 6):
        sched = rlb_schedule(delta, tau)
        reps = rlb_repetitions(delta, tau, eps)
        cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                          adversary={"kind": "iid_subset", "tau": tau},
                          seed=50_000 + tau, max_rounds=reps * sched.cycle_length,
                          engine_mode="analytic_star", epsilon=eps)
        stats = run_trials(cfg, trials)
        fail = 1.0 - stats.success_rate
        details.append(f"tau={tau} fail={fail:.4f}")
        ok &= fail <= eps + 3 * sigma
    dt, in_time = elapsed_ok(t0, 120.0)
    report(5, "RLB repetition budget meets eps=0.1 vs re-randomizing adversary",
           ok and in_time, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_06_frlb_double_cycle():
    t0 = time.time()
    delta, trials = 64, 100_000
    g = star_gadget(delta, delta + 2)
    details = []
    ok = True
    for tau in (1, 2, 4):
        sched = frlb_schedule(delta, tau)
        tau_bar = sched.cycle_length
        bound = log2e_of(delta) / (4.0 * delta ** (1.0 / tau_bar) * tau_bar)
        cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                          adversary={"kind": "iid_subset", "tau": tau},
                          seed=60_000 + tau, max_rounds=2 * tau_bar,
                          engine_mode="analytic_star")
        stats = run_trials(cfg, trials)
        rate = stats.success_rate
        sigma = math.sqrt(max(rate * (1 - rate), bound * (1 - bound)) / trials)
        details.append(f"tau={tau} rate={rate:.4f} bound={bound:.4f}")
        ok &= rate >= bound - 3 * sigma
    dt, in_time = elapsed_ok(t0, 120.0)
    report(6, "FRLB(2) double-cycle success meets its guaranteed rate",
           ok and in_time, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_07_local_lower_bound_trend():
    t0 = time.time()
    # (a) the per-phase oracle bound, wherever the construction is feasible
    combos = ((8, 1), (12, 1), (12, 2), (16, 1), (16, 2))
    bound_ok = True
    for dot_log2, tau in combos:
        delta = 2 ** dot_log2 + 1
        probs = list(rlb_schedule(delta, tau).cycle[:tau])
        plan = gap_plan(probs, delta)
        dot = delta - 1
        bound = 32.0 * math.log(dot) / (dot ** (1.0 / tau) * tau)
        bound_ok &= phase_success_sum(probs, plan.degree) <= bound
    # (delta-1 = 2^8, tau = 2) is structurally infeasible and must reject
    with pytest.raises(ValueError):
        gap_plan(list(rlb_schedule(2 ** 8 + 1, 2).cycle[:2]), 2 ** 8 + 1)

    # (b) simulated medians in the admissible combo (only 2^16 allows tau=1)
    delta, tau = 2 ** 16 + 1, 1
    dot = delta - 1
    g = star_gadget(delta, delta + 2)
    sched = rlb_schedule(delta, tau)
    cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                      adversary={"kind": "gap", "tau": tau}, seed=70_000,
                      max_rounds=200_000, engine_mode="analytic_star")
    stats = run_trials(cfg, 1000)
    median_phases = stats.median_completion / tau
    threshold = dot ** (1.0 / tau) * tau / (64.0 * math.log(dot))
    dt, in_time = elapsed_ok(t0, 300.0)
    report(7, "gap adversary: per-phase oracle bound and median round trend",
           bound_ok and median_phases >= threshold and in_time,
           f"median {median_phases:.0f} phases >= {threshold:.1f}, {dt:.1f}s")


def test_criterion_08_correlated_shift():
    t0 = time.time()
    det_ok = True
    for delta in (256, 4096):
        root = math.sqrt(delta)
        scheds = (decay_schedule(delta), rlb_schedule(delta, 2 ** 20),
                  frlb_schedule(delta, 2 ** 20))
        for sched in scheds:
            cycle = sched.cycle
            plan = shift_plan(cycle, delta, shift=len(cycle))
            for t in range(1, len(cycle) + 1):
                alpha = cycle[(t - 1) % len(cycle)] * plan.degree_at(t)
                if not (alpha >= root - 1e-9 or alpha <= 1.0 / root + 1e-9):
                    det_ok = False

    delta = 4096
    g = double_star(delta)
    sched = decay_schedule(delta)
    l = sched.cycle_length
    cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                      adversary={"kind": "correlated_shift", "shift": l},
                      seed=80_000, max_rounds=100_000,
                      engine_mode="analytic_star")
    stats = run_trials(cfg, 1000)
    median_cycles = stats.median_completion / l
    threshold = math.sqrt(delta) / (2.0 * l)
    dt, in_time = elapsed_ok(t0, 120.0)
    report(8, "correlated shift: extreme products and the median cycle count",
           det_ok and median_cycles >= threshold and in_time,
           f"median {median_cycles:.1f} cycles >= {threshold:.2f}, {dt:.1f}s")


def test_criterion_09_global_rgb():
    t0 = time.time()
    delta, diameter, eps, trials = 2 ** 8 + 1, 24, 0.1, 1000
    g = chained_gadgets(delta, diameter)
    n = g.node_count

    # benign model: static-empty adversary never changes (tau = infinity),
    # so the algorithm runs at its clamp tau_bar = ceil(log_2e delta) = 4
    benign_tau = 2 ** 20
    sched_b = frlb_schedule(delta, benign_tau)
    cfg_b = TrialConfig(problem="global", gadget=g, schedule=sched_b,
                        adversary={"kind": "static", "tau": None}, seed=90_000,
                        max_rounds=10 ** 6, epsilon=eps,
                        rgb_reps=rgb_repetitions(delta, benign_tau, eps, n))
    stats_b = run_trials(cfg_b, trials)

    # fading model at tau = 1, the only gap-feasible stability at this delta
    sched_g = frlb_schedule(delta, 1)
    cfg_g = TrialConfig(problem="global", gadget=g, schedule=sched_g,
                        adversary={"kind": "chained_gap", "tau": 1}, seed=91_000,
                        max_rounds=10 ** 6, epsilon=eps,
                        rgb_reps=rgb_repetitions(delta, 1, eps, n))
    stats_g = run_trials(cfg_g, trials)

    rate_ok = stats_b.success_rate >= 1.0 - eps
    ratio = stats_g.median_completion / stats_b.median_completion
    dt, in_time = elapsed_ok(t0, 300.0)
    report(9, "global broadcast: benign completion rate and 2x gap-chain trend",
           rate_ok and ratio >= 2.0 and in_time,
           f"benign rate {stats_b.success_rate:.3f}, median ratio {ratio:.2f}, {dt:.0f}s")


def test_criterion_10_rlbc_restricted():
    t0 = time.time()
    delta, tau, eps, trials = 2 ** 4885, 1000, 0.2, 200
    sched = rlbc_schedule(delta, tau)
    l = int(math.floor(2.0 ** (4885 / (tau * (1.0 - 1.0 / log2e_of(tau)))))) // 4
    budget_cycles = rlbc_repetitions(delta, tau, eps)
    g = build_gadget("star", delta)
    cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                      adversary={"kind": "degree_walk_restricted", "tau": tau,
                                 "l": l, "walk_mode": "dodging"},
                      seed=100_000, max_rounds=budget_cycles * sched.cycle_length,
                      engine_mode="analytic_star", epsilon=eps)
    stats = run_trials(cfg, trials)
    sigma = math.sqrt(eps * (1 - eps) / trials)
    need = 1.0 - eps - 3 * sigma
    dt, in_time = elapsed_ok(t0, 600.0)
    report(10, "RLBC beats the restricted dodging walk within its cycle budget",
           stats.success_rate >= need and in_time,
           f"rate {stats.success_rate:.3f} >= {need:.3f}, l={l}, "
           f"budget {budget_cycles} cycles, {dt:.0f}s")


def test_criterion_11_cross_engine():
    t0 = time.time()
    delta, tau, trials = 8, 3, 100_000
    g = star_gadget(delta, delta + 2)
    sched = rlb_schedule(delta, tau)
    rates = {}
    for engine in ("materialized", "analytic_star"):
        cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                          adversary={"kind": "iid_subset", "tau": tau},
                          seed=110_000, max_rounds=1, engine_mode=engine)
        rates[engine] = run_trials(cfg, trials).success_rate
    p = sum(rates.values()) / 2.0
    sigma = math.sqrt(2.0 * p * (1.0 - p) / trials)
    diff = abs(rates["materialized"] - rates["analytic_star"])
    dt, in_time = elapsed_ok(t0, 60.0)
    report(11, "materialized and analytic engines agree per round",
           diff <= 3 * sigma and in_time,
           f"|{rates['materialized']:.4f} - {rates['analytic_star']:.4f}| "
           f"= {diff:.4f} <= {3 * sigma:.4f}, {dt:.0f}s")


def test_criterion_12_reproducibility(tmp_path):
    import yaml

    from dualradio.cli import main

    config = {
        "problem": "local",
        "engine": "analytic_star",
        "gadget": {"kind": "star", "delta": 64, "n": 66},
        "algo": "rlb",
        "adversary": {"kind": "iid_subset"},
        "trials": 500,
        "seed": 120_000,
        "max_rounds": 2000,
        "sweep": {"tau": [1, 2, 3, 6]},
        "out": str(tmp_path / "acc.csv"),
    }
    path = tmp_path / "acc.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["run", str(path)]) == 0
    first = (tmp_path / "acc.csv").read_bytes()
    assert main(["run", str(path)]) == 0
    second = (tmp_path / "acc.csv").read_bytes()
    report(12, "acceptance runs are byte-identical under a fixed seed",
           first == second and len(first) > 0, f"{len(first)} bytes")
