"""Trial execution: reproducibility, oracle cross-checks, and aggregation."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from dualradio import adversary, engine
from dualradio.adversary import ObservableHistory, make_policy
from dualradio.engine import (_NEVER, CSV_COLUMNS, Stats, TrialConfig, TrialResult,
                              _SeedWords, _transmitter_window, aggregate, csv_header,
                              default_max_rounds, frlb_repetitions,
                              pcg64_seed_words, rlb_repetitions, round_counts,
                              run_analytic_star_trial, run_trial, run_trials, split_seed,
                              stream_seeds, trial_csv_row, trial_rngs, verify_stability,
                              wilson_interval)
from dualradio.gadgets import (Gadget, build_gadget, chained_gadgets, double_star,
                               star_gadget)
from dualradio.model import DualGraph, build_round_topology, deliver, transmit_counts
from dualradio.oracle import exact_success_prob
from dualradio.schedules import Schedule, decay_schedule, frlb_schedule, rlb_schedule


def custom_gadget(graph, broadcasters, receivers, source=None, delta=None):
    return Gadget(kind="star" if source is None else "chained",
                  graph=graph, delta=delta or graph.max_degree,
                  broadcasters=frozenset(broadcasters),
                  receivers=frozenset(receivers), source=source)


def star_config(delta=16, tau=4, adversary=None, seed=7, engine="materialized",
                max_rounds=2000, algo="rlb"):
    g = star_gadget(delta, delta + 2)
    sched = rlb_schedule(delta, tau) if algo == "rlb" else frlb_schedule(delta, tau)
    return TrialConfig(problem="local", gadget=g, schedule=sched,
                       adversary=adversary or {"kind": "static", "tau": tau},
                       seed=seed, max_rounds=max_rounds, engine_mode=engine)


class TestSeeding:
    def test_split_seed_is_stable(self):
        assert split_seed(1, "nodes") == split_seed(1, "nodes")
        assert split_seed(1, "nodes") != split_seed(1, "adversary")
        assert split_seed(1, "nodes") != split_seed(2, "nodes")

    def test_streams_disjoint(self):
        n1, a1, p1 = trial_rngs(5)
        assert n1.random() != a1.random()

    def test_batched_seed_words_match_seed_sequence(self):
        rng = np.random.default_rng(20261018)
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        seeds += rng.integers(0, 2 ** 64, 1000, dtype=np.uint64).tolist()
        words = pcg64_seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4)
        for s, w in zip(seeds, words):
            assert (w == np.random.SeedSequence(s).generate_state(4, np.uint64)).all(), s
            assert np.random.PCG64(_SeedWords(w)).state == np.random.PCG64(s).state, s

    def test_trial_streams_are_seeded_from_split_seeds(self):
        # a point's batch and a lone call give every trial the same streams
        seeds = stream_seeds(40, 3)
        cases = [(40 + t, trial_rngs(40, t, seeds)) for t in range(3)]
        cases += [(42, trial_rngs(42)), (42, trial_rngs(40, 2))]
        for seed, (nodes, adv, py_adv) in cases:
            assert nodes.bit_generator.state == \
                np.random.PCG64(split_seed(seed, "nodes")).state
            assert adv.bit_generator.state == \
                np.random.PCG64(split_seed(seed, "adversary")).state
            assert py_adv.getstate() == \
                random.Random(split_seed(seed, "adversary", "py")).getstate()


class TestReproducibility:
    def test_identical_config_identical_result(self):
        cfg = star_config(adversary={"kind": "iid_subset", "tau": 4})
        assert run_trial(cfg) == run_trial(cfg)

    def test_analytic_trial_reproducible(self):
        cfg = star_config(engine="analytic_star",
                          adversary={"kind": "iid_subset", "tau": 4})
        assert run_trial(cfg) == run_trial(cfg)

    def test_global_trial_reproducible(self):
        g = chained_gadgets(10, 24)
        cfg = TrialConfig(problem="global", gadget=g,
                          schedule=frlb_schedule(10, 4),
                          adversary={"kind": "static", "tau": 4},
                          seed=3, max_rounds=50_000)
        assert run_trial(cfg) == run_trial(cfg)

    @pytest.mark.parametrize("make", [
        lambda: star_config(engine="analytic_star", adversary={"kind": "iid_subset", "tau": 2}),
        lambda: star_config(adversary={"kind": "iid_subset", "tau": 2}),
        lambda: TrialConfig(problem="global", gadget=chained_gadgets(65, 24),
                            schedule=frlb_schedule(65, 1),
                            adversary={"kind": "chained_gap", "tau": 1},
                            seed=5, max_rounds=100_000),
    ], ids=["analytic", "materialized-local", "materialized-global-chained-gap"])
    def test_batched_trials_match_lone_trials(self, make):
        cfg = make()
        batched = list(run_trials(cfg, 5).results)
        assert batched == [run_trial(cfg, t) for t in range(5)]
        assert batched == [run_trial(replace(cfg, seed=cfg.seed + t)) for t in range(5)]
        assert [r.seed for r in batched] == [cfg.seed + t for t in range(5)]

    @pytest.mark.parametrize("make", [
        lambda: star_config(engine="analytic_star", adversary={"kind": "iid_subset", "tau": 1}),
        lambda: star_config(engine="analytic_star", adversary={"kind": "iid_subset", "tau": 3}),
        lambda: star_config(engine="analytic_star",
                            adversary={"kind": "iid_subset", "tau": None}),
        lambda: star_config(engine="analytic_star",
                            adversary={"kind": "iid_subset", "tau": 3, "edge_prob": 0.3}),
        lambda: star_config(adversary={"kind": "iid_subset", "tau": 2}),
        lambda: TrialConfig(problem="global", gadget=chained_gadgets(65, 24),
                            schedule=frlb_schedule(65, 1),
                            adversary={"kind": "chained_gap", "tau": 1},
                            seed=5, max_rounds=100_000),
    ], ids=["analytic-tau-1", "analytic-tau-3", "analytic-tau-inf", "analytic-fixed-q",
            "materialized-local", "materialized-global-chained-gap"])
    def test_trials_leave_their_point_start_unchanged(self, make):
        # trials run out of order and repeated through one shared start equal
        # lone trials, and leave the start as it was built
        cfg = make()
        start = engine.point_start(cfg, 4)

        def leaves(x):
            if isinstance(x, np.ndarray):
                return [x.dtype.str, x.tolist()]
            if isinstance(x, (tuple, list)):
                return [leaves(y) for y in x]
            return x

        built = leaves(start)
        order = (3, 0, 3, 1)
        assert [run_trial(cfg, t, start) for t in order] == [run_trial(cfg, t) for t in order]
        assert leaves(start) == built

    def test_different_seeds_differ(self):
        cfg = star_config(adversary={"kind": "iid_subset", "tau": 4})
        a = run_trial(cfg)
        b = run_trial(replace(cfg, seed=cfg.seed + 1))
        assert a != b


class TestLocalTrial:
    def test_two_node_geometric(self):
        # single reliable edge, transmit probability 1/2: geometric(1/2)
        g = DualGraph.from_parts(2, [(0, 1)], [])
        gadget = custom_gadget(g, broadcasters={0}, receivers={1}, delta=2)
        sched = decay_schedule(2)
        cfg = TrialConfig(problem="local", gadget=gadget, schedule=sched,
                          adversary={"kind": "static", "tau": 1},
                          seed=100, max_rounds=500)
        stats = run_trials(cfg, 10_000)
        assert stats.success_rate == 1.0
        sem = math.sqrt(2.0) / math.sqrt(10_000)  # geometric sd / sqrt(n)
        assert stats.mean_completion == pytest.approx(2.0, abs=4 * sem)

    def test_benign_star_matches_oracle_per_cycle(self):
        # static adversary: receiver degree 1; the first-cycle success is
        # 1 - prod(1 - p_i), checked by Monte Carlo at 3 sigma
        delta, tau = 16, 4
        cfg = star_config(delta, tau, max_rounds=tau)
        stats = run_trials(cfg, 20_000)
        probs = rlb_schedule(delta, tau).cycle
        predicted = 1.0
        for p in probs:
            predicted *= 1.0 - exact_success_prob(1, p, False)
        predicted = 1.0 - predicted
        sigma = math.sqrt(predicted * (1 - predicted) / 20_000)
        assert stats.success_rate == pytest.approx(predicted, abs=3 * sigma)

    def test_gap_adversary_median_bound(self):
        # defining trend of the construction at delta-1 = 2^12, tau = 2
        delta, tau = 2 ** 12 + 1, 2
        g = star_gadget(delta, delta + 2)
        cfg = TrialConfig(problem="local", gadget=g,
                          schedule=rlb_schedule(delta, tau),
                          adversary={"kind": "gap", "tau": tau},
                          seed=11, max_rounds=100_000,
                          engine_mode="analytic_star")
        stats = run_trials(cfg, 300)
        dot = delta - 1
        bound_phases = 0.5 * math.sqrt(dot) * tau / (32 * math.log(dot))
        assert stats.median_completion / tau >= bound_phases

    def test_max_rounds_exhaustion_is_not_error(self):
        cfg = star_config(max_rounds=1, seed=12345,
                          adversary={"kind": "static", "tau": 4})
        res = run_trial(replace(cfg, seed=2))
        if not res.completed:
            assert res.completion_round is None
            assert res.rounds_executed == 1

    def test_local_broadcast_needs_receivers(self):
        g = replace(star_gadget(8, 10), receivers=frozenset())
        for engine_mode in ("materialized", "analytic_star"):
            with pytest.raises(ValueError, match="local broadcast needs a nonempty receiver set"):
                TrialConfig(problem="local", gadget=g, schedule=rlb_schedule(8, 2),
                            adversary={"kind": "static", "tau": 2}, seed=0, max_rounds=10,
                            engine_mode=engine_mode)

    def test_receivers_default_to_designation(self):
        g = star_gadget(8, 10)
        # the broadcasters reliably reach more nodes than the receiver
        assert {v for b in g.broadcasters for v in g.graph.reliable_neighbors(b)} != g.receivers
        cfg = star_config(8, 2)
        res = run_trial(cfg)
        assert set(res.first_delivery) <= {cfg.gadget.receiver}

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
    @pytest.mark.parametrize("delta, start_degree", [(64, 20), (2 ** 60, 2 ** 55)],
                             ids=["float-degrees", "integer-degrees"])
    def test_zero_uniform_is_a_hit(self, monkeypatch, delta, start_degree):
        # a node generator may return exactly 0.0; ln 0 = -inf lies below
        # every success log-probability, whether degrees are floats or, from
        # 2^53 up, Python ints
        class Zeros:
            def random(self, size):
                return np.zeros(size)

        real = engine.trial_rngs
        monkeypatch.setattr(engine, "trial_rngs", lambda *a: (Zeros(), *real(*a)[1:]))
        cfg = TrialConfig(problem="local", gadget=build_gadget("star", delta),
                          schedule=rlb_schedule(delta, 2),
                          adversary={"kind": "degree_walk_deterministic", "tau": 2, "l": 1,
                                     "start_degree": start_degree},
                          seed=0, max_rounds=50, engine_mode="analytic_star")
        res = run_trial(cfg)
        assert res.completed and res.completion_round == 1


class TestStabilityAudit:
    @pytest.mark.parametrize("adversary", [
        {"kind": "static", "tau": 3},
        {"kind": "iid_subset", "tau": 3},
        {"kind": "argmin", "tau": 3},
        {"kind": "degree_walk_restricted", "tau": 3, "l": 2},
    ])
    def test_changes_at_least_tau_apart(self, adversary):
        cfg = star_config(64, 3, adversary=adversary, max_rounds=600)
        res = run_trial(replace(cfg, max_rounds=200))
        verify_stability(res, 3)

    def test_shift_policy_never_changes(self):
        g = double_star(16)
        cfg = TrialConfig(problem="local", gadget=g,
                          schedule=decay_schedule(16),
                          adversary={"kind": "correlated_shift"},
                          seed=5, max_rounds=300)
        res = run_trial(cfg)
        verify_stability(res, None)

    @pytest.mark.parametrize("changes,tau", [
        (((1, "a"), (2, "b")), 3),
        (((1, "a"), (4, "b")), None),
    ])
    def test_violation_raises(self, changes, tau):
        res = TrialResult(completed=False, completion_round=None, first_delivery={},
                          rounds_executed=10, seed=0, distribution_changes=changes)
        with pytest.raises(ValueError, match="tau"):
            verify_stability(res, tau)

    def test_chained_gap_audit(self):
        g = chained_gadgets(2 ** 8 + 1, 24)
        cfg = TrialConfig(problem="global", gadget=g,
                          schedule=frlb_schedule(2 ** 8 + 1, 1),
                          adversary={"kind": "chained_gap", "tau": 1},
                          seed=77, max_rounds=100_000, rgb_reps=4000)
        res = run_trial(cfg)
        assert res.completed
        verify_stability(res, 1)


    @pytest.mark.parametrize("adversary", [
        {"kind": "static", "tau": 3, "extra_degree": 5},
        {"kind": "iid_subset", "tau": 2},
        {"kind": "iid_subset", "tau": 3, "edge_prob": 0.3},
        {"kind": "iid_subset", "tau": None},
        {"kind": "gap", "tau": 2},
        {"kind": "argmin", "tau": 2},
        {"kind": "correlated_shift"},
        {"kind": "degree_walk_deterministic", "tau": 4, "l": 3, "start_degree": 20},
        {"kind": "degree_walk_restricted", "tau": 4, "l": 2, "walk_mode": "random"},
    ], ids=["static", "iid-random-q", "iid-fixed-q", "iid-tau-inf", "gap", "argmin",
            "shift", "walk-deterministic", "walk-restricted"])
    def test_analytic_result_independent_of_chunk_cap(self, adversary, monkeypatch):
        # a schedule built for a far larger degree bound keeps most trials
        # running past the first chunk, after which the growth from the
        # first chunk and the cap decide how many rounds each degrees()
        # call covers
        if adversary["kind"] == "gap":
            g = star_gadget(2 ** 12 + 1, 2 ** 12 + 3)
        elif adversary["kind"] == "correlated_shift":
            g = double_star(64)
        else:
            g = star_gadget(64, 66)
        cfg = TrialConfig(problem="local", gadget=g, schedule=rlb_schedule(2 ** 24, 2),
                          adversary=adversary, seed=0, max_rounds=2000,
                          engine_mode="analytic_star")
        default = [run_trial(cfg, s) for s in range(20)]
        for first, cap in ((1, 100), (64, 4096)):
            monkeypatch.setattr(engine, "_FIRST_CHUNK", first)
            monkeypatch.setattr(engine, "_CHUNK", cap)
            assert [run_trial(cfg, s) for s in range(20)] == default, (first, cap)


class TestAdversaryFit:
    @pytest.mark.parametrize("engine", ["materialized", "analytic_star"])
    def test_correlated_shift_needs_double_star(self, engine):
        # on a star the receiver's potential degree is delta - 1, so the
        # shift's degree-delta response cannot be realized
        with pytest.raises(ValueError, match="star gadget"):
            star_config(64, 2, engine=engine, adversary={"kind": "correlated_shift"})

    def test_virtual_star_rejected_on_materialized_engine(self):
        delta = 2 ** 30
        point = dict(problem="local", gadget=build_gadget("star", delta),
                     schedule=rlb_schedule(delta, 2),
                     adversary={"kind": "iid_subset", "tau": 2, "edge_prob": 1.0},
                     seed=0, max_rounds=2000)
        with pytest.raises(ValueError, match="virtual star .* analytic_star engine"):
            run_trial(TrialConfig(**point))
        assert run_trial(TrialConfig(**point, engine_mode="analytic_star")).completed

    @pytest.mark.parametrize("gadget, spec, message", [
        (star_gadget(64, 66), {"kind": "gap", "tau": 2}, "gap construction infeasible"),
        (star_gadget(64, 66), {"kind": "gap", "tau": None}, "adversary.tau: .* finite tau"),
        (star_gadget(64, 66), {"kind": "iid_subset", "tau": 2, "edge_prob": 1.5},
         r"adversary.edge_prob: must be a number in \[0, 1\] or null, got 1.5"),
        (star_gadget(64, 66), {"kind": "correlated_shift"}, "needs a double_star gadget"),
        (double_star(64), {"kind": "correlated_shift", "shift": 99}, r"shift must be in 1\.\."),
        (star_gadget(64, 66), {"kind": "degree_walk_restricted", "tau": 2, "l": -1},
         "step budget must be >= 0"),
        (star_gadget(64, 66),
         {"kind": "degree_walk_deterministic", "tau": 2, "l": 2, "start_degree": 0},
         r"degree out of \[1, max_degree\]"),
        (star_gadget(64, 66), {"kind": "static", "tau": 2, "edges": [99]},
         r"static edges \[99\] are not unreliable edge indices"),
    ], ids=["gap-infeasible", "gap-tau-null", "edge-prob-above-one", "shift-on-star",
            "shift-out-of-range", "walk-negative-l", "walk-start-degree-zero",
            "static-edge-outside-gadget"])
    def test_config_error_raised_when_config_is_built(self, gadget, spec, message):
        with pytest.raises(ValueError, match=message):
            TrialConfig(problem="local", gadget=gadget, schedule=decay_schedule(64),
                        adversary=spec, seed=0, max_rounds=100, engine_mode="analytic_star")

    def test_static_degree_beyond_the_double_range_rejected(self):
        # the receiver's degree 1 + extra_degree is kept as a double, so it
        # must round to a finite one
        delta, limit = 2 ** 1100, 2 ** 1024 - 2 ** 970
        point = dict(problem="local", gadget=build_gadget("star", delta),
                     schedule=rlb_schedule(delta, 2), seed=0, max_rounds=50,
                     engine_mode="analytic_star")
        run_trial(TrialConfig(**point, adversary={"kind": "static", "extra_degree": limit - 2}))
        for extra in (limit - 1, 2 ** 1050):
            with pytest.raises(ValueError, match=r"^static computes the receiver's degree "
                               r"1 \+ extra_degree as a double, so it needs "
                               r"1 \+ extra_degree < 2\^1024 - 2\^970; got"):
                TrialConfig(**point, adversary={"kind": "static", "extra_degree": extra})

    def test_phase_table_built_once_per_point(self, monkeypatch):
        # the gap table is computed over its whole period when the config
        # is built, and every trial reads it
        plans, compiles = [], []
        gap_plan, compile_adversary = adversary.gap_plan, engine.compile_adversary
        monkeypatch.setattr(adversary, "gap_plan",
                            lambda *args, **kw: plans.append(args) or gap_plan(*args, **kw))
        monkeypatch.setattr(engine, "compile_adversary",
                            lambda *args: compiles.append(args) or compile_adversary(*args))
        delta, tau = 2 ** 12 + 1, 2
        schedule = decay_schedule(delta)
        config = TrialConfig(problem="local", gadget=star_gadget(delta, delta + 2),
                             schedule=schedule, adversary={"kind": "gap", "tau": tau},
                             seed=5, max_rounds=400, engine_mode="analytic_star")
        run_trials(config, 20)
        assert schedule.cycle_length == 13  # 13 phases before the degrees repeat
        assert len(plans) == 13 and len(compiles) == 1


    @pytest.mark.parametrize("adversary, message", [
        ({"kind": "iid_subset", "tau": 2, "edge_prob": "0.3"},
         "adversary.edge_prob: must be a number in [0, 1] or null, got '0.3'"),
        ({"kind": "iid_subset", "tau": 2, "edge_probability": 0.3},
         "adversary.edge_probability: iid_subset reads only tau, edge_prob"),
    ], ids=["edge-prob-string", "unknown-key"])
    def test_bad_spec_rejected_at_construction(self, adversary, message):
        with pytest.raises(ValueError) as exc:
            star_config(adversary=adversary)
        assert str(exc.value) == message


class TestGlobalTrial:
    def test_three_node_line(self):
        g = DualGraph.from_parts(3, [(0, 1), (1, 2)], [])
        gadget = custom_gadget(g, broadcasters=set(), receivers=set(),
                               source=0, delta=2)
        sched = frlb_schedule(2, 1)
        cfg = TrialConfig(problem="global", gadget=gadget, schedule=sched,
                          adversary={"kind": "static", "tau": 1},
                          seed=40, max_rounds=500, rgb_reps=200)
        stats = run_trials(cfg, 1000)
        assert stats.success_rate >= 0.99

    def test_activations_aligned_to_double_cycles(self):
        g = chained_gadgets(10, 24)
        sched = frlb_schedule(10, 4)
        align = 2 * sched.cycle_length
        cfg = TrialConfig(problem="global", gadget=g, schedule=sched,
                          adversary={"kind": "static", "tau": 4},
                          seed=9, max_rounds=100_000)
        res = run_trial(cfg)
        assert res.completed
        # delivery rounds are arbitrary, but transmission starts at the
        # round after a multiple of 2*tau_bar
        for node, round_ in res.first_delivery.items():
            assert round_ >= 1

    @pytest.mark.parametrize("problem, engine, message", [
        ("global", "materialized", "chained gadget has no designated receiver"),
        ("local", "materialized", "chained gadget has no designated receiver"),
        ("local", "analytic_star", "analytic engine needs a star or double-star gadget"),
    ])
    @pytest.mark.parametrize("kind", ["gap", "argmin", "degree_walk_restricted"])
    def test_receiver_kinds_rejected_on_chained_gadget(self, problem, engine, message, kind):
        g = chained_gadgets(2 ** 8 + 1, 24)
        adversary = {"kind": kind, "tau": 1}
        if kind.startswith("degree_walk"):
            adversary["l"] = 2
        with pytest.raises(ValueError, match=message):
            run_trial(TrialConfig(problem=problem, gadget=g,
                                  schedule=frlb_schedule(2 ** 8 + 1, 1),
                                  adversary=adversary, seed=3, max_rounds=100,
                                  engine_mode=engine))

    def test_budget_exhaustion_halts(self):
        g = DualGraph.from_parts(3, [(0, 1)], [(1, 2)])  # node 2 unreachable
        gadget = custom_gadget(g, broadcasters=set(), receivers=set(),
                               source=0, delta=2)
        sched = frlb_schedule(2, 1)
        cfg = TrialConfig(problem="global", gadget=gadget, schedule=sched,
                          adversary={"kind": "static", "tau": 1},
                          seed=1, max_rounds=10 ** 6, rgb_reps=5)
        res = run_trial(cfg)
        assert not res.completed
        assert res.rounds_executed < 10 ** 6


def reference_trial(config: TrialConfig, trial: int = 0) -> TrialResult:
    """The materialized engine's contract stated plainly: every node in its
    transmit window draws a coin every round, and `model.deliver` on the
    round's topology decides who hears whom."""
    gadget, graph, schedule = config.gadget, config.gadget.graph, config.schedule
    n, k = graph.node_count, schedule.cycle_length
    if config.problem == "local":
        starters, targets = sorted(gadget.broadcasters), sorted(gadget.receivers)
        budget = config.max_rounds
    else:
        starters, budget = [gadget.source], config.rgb_reps * 2 * k
        targets = [v for v in range(n) if v != gadget.source]
    act = np.full(n, _NEVER, dtype=np.int64)
    act[starters] = 0
    waiting = set(targets)
    first_delivery = {}
    np_nodes, np_adv, py_adv = trial_rngs(config.seed, trial)
    policy = make_policy(config.plan, np_adv, py_adv, ObservableHistory(first_delivery, act))
    completion, r = None, 0
    for r in range(1, config.max_rounds + 1):
        policy.pre_round(r)
        extra = policy.sample_edges(r, np.arange(n))  # every edge, drawn in full
        window = [v for v in range(n) if act[v] != _NEVER and act[v] < r <= act[v] + budget]
        if not window:
            if not any(r <= a < _NEVER for a in act.tolist()):
                break
            continue
        coins = np_nodes.random(len(window))
        p = math.exp(schedule.log_probs[(r - 1) % k])
        tx = [v for v, c in zip(window, coins) if c < p]
        topology = build_round_topology(graph, [graph.unreliable_edges[i] for i in extra], r)
        newly = sorted(set(deliver(topology, tx).receivers()) & waiting)
        waiting.difference_update(newly)
        for v in newly:
            first_delivery[v] = r
            if config.problem == "global":
                act[v] = 2 * k * math.ceil(r / (2 * k))
        if newly and not waiting:
            completion = r
            break
    return TrialResult(completed=completion is not None, completion_round=completion,
                       first_delivery=first_delivery, rounds_executed=r,
                       seed=config.seed + trial,
                       distribution_changes=tuple(policy.change_log))


def random_trial_config(rng, problem, kind, seed):
    """A random small dual graph and a trial on it.  Gap needs a designated
    receiver with enough unreliable arms, so it runs on a 33-star with a
    random tail, broadcaster set and receiver set instead; chained gap runs
    on a chain of 33-stars with a random leftover path and source."""
    if kind == "gap":
        gadget = star_gadget(33, int(rng.integers(35, 39)))
        n = gadget.node_count
        schedule = decay_schedule(33)
        adversary = {"kind": "gap", "tau": 1}
    elif kind == "chained_gap":
        gadget = chained_gadgets(33, int(rng.integers(24, 27)))
        n = gadget.node_count
        schedule = decay_schedule(33)
        adversary = {"kind": "chained_gap", "tau": 1}
    else:
        n = int(rng.integers(2, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        take = rng.random(len(pairs))
        graph = DualGraph.from_parts(n, [e for e, t in zip(pairs, take) if t < 0.3],
                                     [e for e, t in zip(pairs, take) if 0.3 <= t < 0.7])
        gadget = custom_gadget(graph, (), (), delta=4)
        tau = int(rng.integers(1, 4))
        schedule = rlb_schedule(4, tau)
        m = len(graph.unreliable_edges)
        if kind == "static":
            adversary = {"kind": "static", "tau": tau,
                         "edges": np.flatnonzero(rng.random(m) < 0.5).tolist()}
        else:
            adversary = {"kind": "iid_subset", "tau": tau,
                         "edge_prob": None if rng.random() < 0.5 else float(rng.random())}

    def subset(share):
        return tuple(np.flatnonzero(rng.random(n) < share).tolist() or [int(rng.integers(n))])

    if problem == "local":
        broadcasters, max_rounds = subset(0.4), int(rng.integers(1, 300))
        gadget = replace(gadget, broadcasters=frozenset(broadcasters),
                         receivers=frozenset(subset(0.3)))
        return TrialConfig(problem="local", gadget=gadget, schedule=schedule,
                           adversary=adversary, seed=seed, max_rounds=max_rounds)
    gadget = replace(gadget, source=int(rng.integers(n)))
    return TrialConfig(problem="global", gadget=gadget, schedule=schedule,
                       adversary=adversary, seed=seed, max_rounds=int(rng.integers(1, 2000)),
                       rgb_reps=int(rng.integers(1, 4)))


class TestEngineEquivalence:
    @pytest.mark.parametrize("problem, kind", [
        (problem, kind) for kind in ("static", "iid_subset", "gap")
        for problem in ("local", "global")] + [("global", "chained_gap")])
    def test_materialized_trial_matches_reference(self, problem, kind, monkeypatch):
        # the engine draws coins only for candidates cand[lo:hi + 1] that can
        # change a delivery and advances the node stream past the rest; the
        # reference draws every coin, and every adversary edge.  Record the
        # spans it used: each case must see spans that start past the first
        # candidate, end before the last, end at the last, and hold no
        # candidate
        spans = []
        frontier = engine._frontier

        def recording(table, cand, waiting, near):
            front = frontier(table, cand, waiting, near)
            if len(cand):
                spans.append((front.lo, front.hi, len(cand)))
            return front

        monkeypatch.setattr(engine, "_frontier", recording)
        rng = np.random.default_rng([20261018, len(problem), len(kind)])
        # a chain of 8 stars runs long trials on 272 or more nodes
        for case in range(12 if kind == "chained_gap" else 60):
            cfg = random_trial_config(rng, problem, kind, seed=1000 * case)
            for trial in range(3):
                assert run_trial(cfg, trial) == reference_trial(cfg, trial), (case, trial)
        seen = {"starts later": any(lo > 0 for lo, hi, _ in spans if lo <= hi),
                "ends early": any(lo <= hi < last - 1 for lo, hi, last in spans),
                "ends at last": any(lo <= hi == last - 1 for lo, hi, last in spans),
                "empty": any(hi < lo for lo, hi, _ in spans)}
        assert all(seen.values()), seen

    def test_round_counts_match_model(self):
        # every node a candidate, all of them listening or a random subset;
        # the frontier's counts must be model.transmit_counts at every
        # waiting node, 0 at a transmitting one
        rng = np.random.default_rng(5)
        for case in range(200):
            n = int(rng.integers(2, 9))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.random(len(pairs))
            rel = [e for e, t in zip(pairs, take) if t < 0.3]
            unr = [e for e, t in zip(pairs, take) if 0.3 <= t < 0.6]
            g = DualGraph.from_parts(n, rel, unr)
            # with repeats: an edge named twice is still one active edge
            m = len(g.unreliable_edges)
            extra_idx = rng.integers(0, m, size=int(rng.integers(0, 2 * m + 1))) if m \
                else np.empty(0, dtype=np.int64)
            waiting = np.ones(n, dtype=bool) if case % 2 else rng.random(n) < 0.5
            table = engine._neighbors(g)
            cand = np.arange(n)
            front = engine._frontier(table, cand, waiting,
                                     engine._waiting_neighbors(table, waiting))
            coins = rng.random(front.hi + 1 - front.lo) < 0.4
            tx = front.span[coins]
            topo = build_round_topology(
                g, [g.unreliable_edges[i] for i in extra_idx], 1)
            expected = transmit_counts(topo, tx.tolist())
            got = dict(zip(front.listeners.tolist(),
                           round_counts(front, coins, extra_idx, m).tolist()))
            for v in np.flatnonzero(waiting).tolist():
                assert got.get(v, 0) == (0 if v in tx else expected[v]), (case, v)

    def test_kept_counts_and_frontier_match_recount(self, monkeypatch):
        # after every delivery and window event, the kept waiting-neighbor
        # counts, the span and the frontier equal a recount from scratch
        checked = []
        frontier = engine._frontier

        def recounting(table, cand, waiting, near):
            front = frontier(table, cand, waiting, near)
            heard = [table.heard[table.ptr[v]:table.ptr[v] + table.deg[v]]
                     for v in range(len(waiting))]
            assert near.tolist() == [int(waiting[h].sum()) for h in heard]
            relevant = [i for i, c in enumerate(cand.tolist())
                        if waiting[c] or waiting[heard[c]].any()]
            assert (front.lo, front.hi) == ((relevant[0], relevant[-1]) if relevant
                                            else (0, -1))
            assert front.span.tolist() == cand[front.lo:front.hi + 1].tolist()
            entries = sorted(
                (i, int(w), int(e)) for i, c in enumerate(front.span.tolist())
                for w, e in zip(heard[c], table.through[table.ptr[c]:table.ptr[c] + table.deg[c]])
                if waiting[w])
            kept = front.entries
            assert kept.ptr.tolist() == (np.cumsum(kept.deg) - kept.deg).tolist()
            owner = np.repeat(np.arange(len(front.span)), kept.deg)
            got = sorted(zip(owner.tolist(), front.listeners[kept.heard].tolist(),
                             kept.through.tolist()))
            assert got == entries
            assert front.listeners.tolist() == sorted({w for _, w, _ in entries})
            duplex = [(j, i) for j, w in enumerate(front.listeners.tolist())
                      for i, c in enumerate(front.span.tolist()) if c == w]
            assert list(zip(front.duplex.tolist(), front.duplex_at.tolist())) == duplex
            checked.append((len(entries), len(duplex)))
            return front

        monkeypatch.setattr(engine, "_frontier", recounting)
        rng = np.random.default_rng(20261019)
        for case in range(40):
            for problem in ("local", "global"):
                cfg = random_trial_config(rng, problem, ("static", "iid_subset")[case % 2],
                                          seed=case)
                run_trial(cfg)
        # frontiers with entries, without any, and with a listener that is
        # a candidate itself
        assert all(any(pred(e, d) for e, d in checked) for pred in (
            lambda e, d: e > 0, lambda e, d: e == 0, lambda e, d: d > 0))

    def test_transmitter_window_holds_until_next_event(self):
        # the window at r stays exact through next_event - 1 and changes at
        # next_event; a window that never changes reports _NEVER
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            budget = int(rng.integers(1, 6))
            act = np.where(rng.random(n) < 0.3, _NEVER, rng.integers(0, 20, size=n))
            r = int(rng.integers(1, 20))

            def window(t):
                return [v for v in range(n) if act[v] < t <= act[v] + budget]

            cand, next_event = _transmitter_window(act, r, budget)
            assert cand.tolist() == window(r)
            assert all(window(t) == window(r) for t in range(r, min(next_event, 40)))
            if next_event != _NEVER:
                assert window(next_event) != window(r)

    def test_cross_engine_success_rates_agree(self):
        # same configuration measured by both engines over one-round trials
        n = 30_000
        rates = []
        for engine in ("materialized", "analytic_star"):
            cfg = star_config(8, 3, engine=engine, max_rounds=1,
                              adversary={"kind": "iid_subset", "tau": 1,
                                         "edge_prob": 0.5}, seed=900)
            stats = run_trials(cfg, n)
            rates.append(stats.success_rate)
        p = sum(rates) / 2
        sigma = math.sqrt(2 * p * (1 - p) / n)
        assert abs(rates[0] - rates[1]) <= 3 * sigma


def _reach_configs():
    """A config for every kind on each gadget that takes it."""
    star, double, chain = star_gadget(33, 36), double_star(33), chained_gadgets(33, 24)
    walk = {"tau": 2, "l": 2, "start_degree": 5}
    on_receiver = [{"kind": "static", "tau": 1, "extra_degree": 7},
                   {"kind": "iid_subset", "tau": 2},
                   {"kind": "gap", "tau": 1}, {"kind": "argmin", "tau": 2},
                   dict(walk, kind="degree_walk_deterministic"),
                   dict(walk, kind="degree_walk_restricted", walk_mode="random")]
    edges = [0, 5, 40, 63, 100, 200, 247]  # in sections 0, 1, 2, 3, 6 and 7 of the chain
    for gadget, specs in ((star, on_receiver + [{"kind": "static", "edges": [1, 4, 30]}]),
                          (double, on_receiver + [{"kind": "correlated_shift"}])):
        for spec in specs:
            yield f"{gadget.kind}-{spec['kind']}", TrialConfig(
                problem="local", gadget=gadget, schedule=decay_schedule(33), adversary=spec,
                seed=1, max_rounds=100)
    for spec in ({"kind": "chained_gap", "tau": 1}, {"kind": "static", "edges": edges},
                 {"kind": "iid_subset", "tau": 1, "edge_prob": 0.3}):
        yield f"chained-{spec['kind']}", TrialConfig(
            problem="global", gadget=chain, schedule=decay_schedule(33), adversary=spec,
            seed=1, max_rounds=100)
    rng = np.random.default_rng(17)
    for case in range(20):
        kind, problem = ("static", "iid_subset")[case % 2], ("local", "global")[case // 2 % 2]
        yield f"random-{case}-{kind}", random_trial_config(rng, problem, kind, seed=case)


class TestAdversaryReach:
    """A plan's reach holds every edge its policies' `sample_edges` can
    return, and the materialized engine's neighbor table holds the
    reliable edges and exactly those unreliable ones."""

    @pytest.mark.parametrize("name, config", list(_reach_configs()),
                             ids=[name for name, _ in _reach_configs()])
    def test_sample_edges_stay_in_reach(self, name, config):
        graph = config.gadget.graph
        n, m = graph.node_count, len(graph.unreliable_edges)
        reach = config.plan.reach
        reach = set(range(m)) if reach is None else set(reach.tolist())
        table = engine.point_start(config).table
        assert sorted(table.through.tolist()) == sorted(
            [m] * 2 * len(graph.reliable_edges) + 2 * list(reach))
        if "edges" in config.adversary:
            assert reach == set(config.adversary["edges"])
        every = np.arange(n)
        for seed in range(3):
            act = np.full(n, _NEVER, dtype=np.int64)
            history = ObservableHistory({}, act)
            _, np_adv, py_adv = trial_rngs(seed)
            policy = make_policy(config.plan, np_adv, py_adv, history)
            rng = np.random.default_rng(seed)
            for r in range(1, 60):
                policy.pre_round(r)
                tx = every if r % 2 else np.flatnonzero(rng.random(n) < 0.3)
                assert set(policy.sample_edges(r, tx).tolist()) <= reach, (seed, r)
                # a relay's delivery now and then, as the engine makes them
                v = int(rng.integers(n))
                if v not in history.first_delivery and rng.random() < 0.3:
                    history.first_delivery[v] = r
                    act[v] = r + 1


class TestRepetitionContracts:
    def test_rlb_repetition_formula(self):
        # 2*ceil(ln(1/eps)) * ceil(4e delta^(1/tau_bar))
        assert rlb_repetitions(64, 1, 0.1) == 2 * 3 * math.ceil(4 * math.e * 64)
        assert rlb_repetitions(64, 6, 0.1) == 2 * 3 * math.ceil(4 * math.e * 2)

    @pytest.mark.parametrize("adversary", [
        {"kind": "static", "tau": 5},
        {"kind": "iid_subset", "tau": 5},
        {"kind": "argmin", "tau": 5},
    ])
    def test_rlb_contract_on_star(self, adversary):
        delta, tau, eps = 32, 5, 0.2
        reps = rlb_repetitions(delta, tau, eps)
        sched = rlb_schedule(delta, tau)
        g = star_gadget(delta, delta + 2)
        cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                          adversary=adversary, seed=41,
                          max_rounds=reps * sched.cycle_length,
                          engine_mode="analytic_star")
        stats = run_trials(cfg, 3000)
        fail = 1.0 - stats.success_rate
        sigma = math.sqrt(eps * (1 - eps) / 3000)
        assert fail <= eps + 3 * sigma

    def test_multi_receiver_union_bound(self):
        # FRLB with per-receiver error eps/n covers every node reliably
        # adjacent to a broadcaster: all n of them on the double star
        delta, tau, eps = 16, 2, 0.3
        g = double_star(delta)
        n = g.node_count
        g = replace(g, receivers=frozenset(range(n)))
        sched = frlb_schedule(delta, tau)
        reps = frlb_repetitions(delta, tau, eps / n)
        cfg = TrialConfig(problem="local", gadget=g, schedule=sched,
                          adversary={"kind": "iid_subset", "tau": tau},
                          seed=60, max_rounds=reps * sched.cycle_length)
        stats = run_trials(cfg, 1500)
        fail = 1.0 - stats.success_rate
        sigma = math.sqrt(eps * (1 - eps) / 1500)
        assert fail <= eps + 3 * sigma


class TestAggregation:
    def test_single_trial_stats(self):
        cfg = star_config(8, 2, seed=3)
        stats = run_trials(cfg, 1)
        assert stats.trial_count == 1
        assert stats.results[0] == run_trial(replace(cfg, seed=3))

    def test_order_invariant_fold(self):
        cfg = star_config(8, 2, adversary={"kind": "iid_subset", "tau": 2})
        results = [run_trial(replace(cfg, seed=cfg.seed + i)) for i in range(20)]
        assert aggregate(results) == aggregate(list(reversed(results)))

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo2, hi2 = wilson_interval(100, 100)
        assert hi2 == pytest.approx(1.0, abs=1e-12) and lo2 > 0.9

    def test_doubling_trials_shrinks_ci_by_sqrt2(self):
        # derived from Wilson arithmetic: width ratio ~ 1/sqrt(2), not 1/2
        lo1, hi1 = wilson_interval(300, 1000)
        lo2, hi2 = wilson_interval(600, 2000)
        ratio = (hi2 - lo2) / (hi1 - lo1)
        assert ratio == pytest.approx(1 / math.sqrt(2), abs=0.02)

    def test_quantiles_with_failures(self):
        cfg = star_config(8, 2, max_rounds=1,
                          adversary={"kind": "iid_subset", "tau": 2})
        stats = run_trials(cfg, 50)
        assert stats.quantiles[0.9] >= stats.quantiles[0.5]


class TestCsv:
    def test_header_is_pinned(self):
        assert csv_header() == ("trial_id,seed,problem,algo,engine,delta_log2,"
                                "tau,adversary,completed,completion_round,"
                                "rounds_executed")
        assert CSV_COLUMNS[0] == "trial_id" and CSV_COLUMNS[-1] == "rounds_executed"

    def test_row_shape(self):
        cfg = star_config(16, 4, seed=8)
        res = run_trial(cfg)
        row = trial_csv_row(0, cfg, res).split(",")
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "0" and row[1] == "8"
        assert row[2] == "local" and row[3] == "rlb"
        assert row[5] == "4"  # log2(16)
        assert row[8] in ("0", "1")


class TestDefaults:
    def test_default_max_rounds_scales(self):
        sched = rlb_schedule(64, 2)
        local = default_max_rounds("local", sched, 64, 2, 0.1, 66)
        assert local == 100 * rlb_repetitions(64, 2, 0.1) * sched.cycle_length

    def test_invalid_configs_rejected(self):
        g = star_gadget(8, 10)
        with pytest.raises(ValueError):
            TrialConfig(problem="sideways", gadget=g,
                        schedule=rlb_schedule(8, 2), adversary={},
                        seed=0, max_rounds=10)
        with pytest.raises(ValueError):
            TrialConfig(problem="local", gadget=g,
                        schedule=rlb_schedule(8, 2), adversary={},
                        seed=0, max_rounds=0)

    @pytest.mark.parametrize("epsilon", [0, 1, -0.5, 1.5, float("nan"), "0.1", None])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # a global run's default repetition budget divides by epsilon
        with pytest.raises(ValueError) as exc:
            TrialConfig(problem="global", gadget=chained_gadgets(10, 24),
                        schedule=frlb_schedule(10, 1), adversary={"kind": "static", "tau": 1},
                        seed=0, max_rounds=100, epsilon=epsilon)
        assert str(exc.value) == f"epsilon: must be in (0,1), got {epsilon!r}"
