"""Trial execution: reproducibility, oracle cross-checks, and aggregation."""

import hashlib
import itertools
import math
import struct
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from dualradio import adversary, engine
from dualradio.adversary import ObservableHistory, make_policy
from dualradio.engine import (_NEVER, CSV_COLUMNS, PROBLEMS, TrialConfig, TrialResult,
                              aggregate, csv_header,
                              default_max_rounds, frlb_repetitions, rlb_repetitions,
                              round_counts, run_analytic_star_trial, run_trial, run_trials,
                              stream_seeds, trial_csv_row, trial_rngs, verify_stability,
                              wilson_interval)
from dualradio.gadgets import (Gadget, build_gadget, chained_gadgets, double_star,
                               star_gadget)
from dualradio.model import DualGraph, build_round_topology, deliver, transmit_counts
from dualradio.oracle import exact_success_prob
from dualradio.schedules import Schedule, decay_schedule, frlb_schedule, rlb_schedule


@dataclass(frozen=True)
class GraphGadget(Gadget):
    """A gadget over a given graph and any broadcaster set, without a
    designated receiver: its edges are read from the graph, not built from
    a shape."""

    broadcasters: frozenset[int]
    given: DualGraph | None = None

    @cached_property
    def graph(self):
        return self.given

    @cached_property
    def edges(self):
        return (np.array(sorted(self.given.reliable_edges), dtype=np.int64).reshape(-1, 2),
                np.array(self.given.unreliable_edges, dtype=np.int64).reshape(-1, 2))


def custom_gadget(graph, broadcasters, receivers, source=None, delta=None, kind=None):
    return GraphGadget(kind=kind or ("star" if source is None else "chained"),
                       delta=delta or graph.max_degree, node_count=graph.node_count,
                       broadcasters=frozenset(broadcasters), receivers=frozenset(receivers),
                       source=source, unreliable_count=len(graph.unreliable_edges),
                       given=graph)


def star_config(delta=16, tau=4, adversary=None, seed=7, engine="materialized",
                max_rounds=2000, algo="rlb"):
    g = star_gadget(delta, delta + 2)
    sched = rlb_schedule(delta, tau) if algo == "rlb" else frlb_schedule(delta, tau)
    return TrialConfig(problem="local", gadget=g, schedule=sched,
                       adversary=adversary or {"kind": "static", "tau": tau},
                       seed=seed, max_rounds=max_rounds, engine_mode=engine)


def trial_results(config, trials):
    """The results `run_trials` hands its per-trial hook, in trial order."""
    results = []
    run_trials(config, trials, lambda t, res: results.append(res))
    return results


def iid_random_q_done_prob(schedule, arms, rounds, tau, nodes=400):
    """P(a star's receiver with `arms` unreliable arms is reached by round
    `rounds`) under `iid_subset` with a fresh q ~ U(0,1) per tau-block,
    integrated over q by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    q, w = (x + 1) / 2, w / 2
    probs = schedule.prob_array.tolist()
    miss = 1.0
    for first in range(1, rounds + 1, tau):
        survive = np.ones(nodes)
        for r in range(first, min(first + tau - 1, rounds) + 1):
            p = probs[(r - 1) % len(probs)]
            stay = 1 - q * p
            survive *= 1 - p * (stay ** arms + arms * q * (1 - p) * stay ** (arms - 1))
        miss *= w @ survive
    return 1 - miss


class _Words(ISeedSequence):
    """Hands a PCG64 four given 64-bit seed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def digest_pcg64(seed, label):
    """A PCG64 seeded, as the contract says, with the SHA-256 digest of
    f"{seed}:{label}" read as four little-endian 64-bit words."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return np.random.PCG64(_Words(np.array(struct.unpack("<4Q", digest), dtype=np.uint64)))


class TestSeeding:
    def test_streams_disjoint(self):
        # a trial's three streams, and those of its neighbouring trials
        streams = [rng for t in range(3) for rng in trial_rngs(5, t)]
        firsts = [rng.random() for rng in streams]
        assert len(set(firsts)) == len(streams) == 9

    def test_trial_streams_are_seeded_from_digests(self):
        # a point's batch and a lone call give every trial the same streams
        seeds = stream_seeds(40, 3)
        assert seeds.shape == (3, 3, 4) and seeds.dtype == np.uint64
        cases = [(40 + t, trial_rngs(40, t, seeds)) for t in range(3)]
        cases += [(42, trial_rngs(42)), (42, trial_rngs(40, 2)), (2 ** 64, trial_rngs(2 ** 64))]
        labels = ["nodes", "adversary", "adversary:q"]
        for seed, streams in cases:
            assert len(streams) == len(labels)
            for rng, label in zip(streams, labels):
                assert rng.bit_generator.state == digest_pcg64(seed, label).state, (seed, label)

    def test_point_seeds_come_a_block_at_a_time(self, monkeypatch):
        # a point keeps one block of seed words, whichever trial asks
        monkeypatch.setattr(engine, "_SEED_BLOCK", 4)
        seeds = engine._PointSeeds(40, 10)
        for t in (0, 9, 3, 4, 8, 1, 9):
            assert seeds[t].tolist() == stream_seeds(40 + t, 1)[0].tolist(), t
            assert len(seeds.words) == (2 if t >= 8 else 4)
        with pytest.raises(IndexError):
            seeds[10]

    def test_node_stream_of_seed_0_is_pinned(self):
        # fixes the digest's byte order and which words are state and increment
        assert trial_rngs(0)[0].bit_generator.state["state"] == {
            "state": 26013464911806258234398281563740791908,
            "inc": 219467469376138316739730055681681071455}


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
    def test_batched_trials_match_lone_trials(self, make, monkeypatch):
        # the point's seed words come in blocks of two trials here
        monkeypatch.setattr(engine, "_SEED_BLOCK", 2)
        cfg = make()
        batched = trial_results(cfg, 5)
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

    @pytest.mark.parametrize("engine_mode", ["analytic_star", "materialized"])
    @pytest.mark.parametrize("tau, rounds, apart", [(1, None, 0), (2, None, 0), (4, None, 0),
                                                   (1, 10, 40)],
                             ids=["1", "2", "4", "rlb-tau1-10-rounds"])
    def test_iid_random_q_matches_exact_law(self, engine_mode, tau, rounds, apart):
        # criterion 6's points on other seeds, against the exact law of a
        # fresh q ~ U(0,1) per tau-block: given q, a round with p succeeds
        # with s(q) = p [(1 - qp)^A + A q (1 - p)(1 - qp)^(A-1)] (degree
        # 1 + Binomial(A, q), A = 62 unreliable arms), so
        # P(done by R) = 1 - prod_blocks int_0^1 prod_{r in block} (1 - s_r(q)) dq.
        # One q per trial (one block of R rounds) has another law, within
        # 1.5 sigma of it at criterion 6's points; RLB at tau 1 over 10
        # rounds sets the two `apart`: survival 0.044 against 0.106, 43 sigma
        delta, trials = 64, 20_000
        sched = frlb_schedule(delta, tau) if rounds is None else rlb_schedule(delta, tau)
        cfg = TrialConfig(problem="local", gadget=star_gadget(delta, delta + 2),
                          schedule=sched, adversary={"kind": "iid_subset", "tau": tau},
                          seed=(620_000 if engine_mode == "materialized" else 610_000)
                          + 1000 * tau + (500 if rounds else 0),
                          max_rounds=rounds or 2 * sched.cycle_length,
                          engine_mode=engine_mode)
        predicted = iid_random_q_done_prob(sched, delta - 2, cfg.max_rounds, tau)
        sigma = math.sqrt(predicted * (1 - predicted) / trials)
        per_trial = iid_random_q_done_prob(sched, delta - 2, cfg.max_rounds, cfg.max_rounds)
        assert abs(per_trial - predicted) >= apart * sigma
        assert run_trials(cfg, trials).success_rate == pytest.approx(predicted, abs=4.5 * sigma)

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
        # 2^53 up, Python ints, in a chunk of rounds or in a round alone
        class Zeros:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        real = engine.trial_rngs
        monkeypatch.setattr(engine, "trial_rngs", lambda *a: (Zeros(), *real(*a)[1:]))
        cfg = TrialConfig(problem="local", gadget=build_gadget("star", delta),
                          schedule=rlb_schedule(delta, 2),
                          adversary={"kind": "degree_walk_deterministic", "tau": 2, "l": 1,
                                     "start_degree": start_degree},
                          seed=0, max_rounds=50, engine_mode="analytic_star")
        for stepped in (0, engine._STEPPED):  # round 1 in a chunk, then alone
            monkeypatch.setattr(engine, "_STEPPED", stepped)
            res = run_trial(cfg)
            assert res.completed and res.completion_round == 1, stepped


class TestOneRoundDraws:
    """A round stepped alone draws and computes what its lane of a chunk
    does (see `run_analytic_star_trial`)."""

    def test_scalar_uniforms_match_batched_draws(self):
        one, batched = (np.random.Generator(np.random.PCG64(21)) for _ in range(2))
        got = [one.random() for _ in range(1000)]
        assert all(type(u) is float for u in got)
        assert got == batched.random(1000).tolist()
        assert one.bit_generator.state == batched.bit_generator.state

    def test_scalar_log_matches_array_lanes(self):
        # np.log, not math.log: the two may differ in the last bit, and a
        # stepped round must compute its lane of a chunk's np.log exactly
        rng = np.random.Generator(np.random.PCG64(8))
        uniforms = rng.random(10 ** 6)
        ints = np.concatenate((np.arange(1, 2 ** 16),
                               rng.integers(1, 2 ** 53, size=10 ** 6 - 2 ** 16 + 1)))
        degrees = ints.astype(np.float64)  # 1.0 + binomial: integral floats
        log = np.log
        for values in (uniforms, degrees):
            lanes = log(values).view(np.uint64)
            # Python floats (uniforms, iid_subset degrees) and float64
            # scalars (a phase table's degrees)
            for scalar_values in (values.tolist(), values):
                scalars = np.fromiter(map(log, scalar_values), np.float64, count=len(values))
                assert np.array_equal(scalars.view(np.uint64), lanes)
        # a walk's one degree comes as a Python int below 2^53
        some = ints[:: 97]
        scalars = np.fromiter(map(log, some.tolist()), np.float64, count=len(some))
        assert np.array_equal(scalars.view(np.uint64), log(degrees[:: 97]).view(np.uint64))


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
        {"kind": "iid_subset", "tau": 1},
        {"kind": "iid_subset", "tau": 2},
        {"kind": "iid_subset", "tau": 3},
        {"kind": "iid_subset", "tau": 3, "edge_prob": 0.3},
        {"kind": "iid_subset", "tau": None},
        {"kind": "gap", "tau": 1},
        {"kind": "gap", "tau": 2},
        {"kind": "argmin", "tau": 2},
        {"kind": "correlated_shift"},
        {"kind": "degree_walk_deterministic", "tau": 4, "l": 3, "start_degree": 20},
        {"kind": "degree_walk_restricted", "tau": 4, "l": 2, "walk_mode": "random"},
        {"kind": "degree_walk_deterministic", "tau": 5, "l": 2 ** 54, "start_degree": 2 ** 68},
    ], ids=["static", "iid-random-q-tau1", "iid-random-q", "iid-random-q-tau3", "iid-fixed-q",
            "iid-tau-inf", "gap-tau1", "gap", "argmin", "shift", "walk-deterministic",
            "walk-restricted", "walk-beyond-2^53"])
    def test_analytic_result_independent_of_chunk_cap(self, adversary, monkeypatch):
        # a schedule built for a far larger degree bound keeps most trials
        # running past the rounds stepped one at a time and the first chunk,
        # after which the count of stepped rounds, the first chunk and the
        # cap decide how many rounds each degrees() call covers: none
        # stepped (chunks only), one, the default, and every round; at
        # tau = 1 every stepped round enters a new block, and at tau = 3 the
        # stepped rounds end inside a block
        schedule, max_rounds = rlb_schedule(2 ** 24, 2), 2000
        if adversary["kind"] == "gap":
            g = star_gadget(2 ** 12 + 1, 2 ** 12 + 3)
        elif adversary["kind"] == "correlated_shift":
            g = double_star(64)
        elif adversary.get("start_degree") == 2 ** 68:
            # every degree is 2^53 or more, past int64 (the arbitrary-precision
            # success test), and trials end from round 1 to about 50
            g, schedule = build_gadget("star", 2 ** 200), rlb_schedule(2 ** 200, 3)
            max_rounds = 300
        else:
            g = star_gadget(64, 66)
        cfg = TrialConfig(problem="local", gadget=g, schedule=schedule,
                          adversary=adversary, seed=0, max_rounds=max_rounds,
                          engine_mode="analytic_star")
        default = [run_trial(cfg, s) for s in range(20)]
        chunks = ((engine._FIRST_CHUNK, engine._CHUNK), (1, 100), (64, 4096))
        for stepped, (first, cap) in itertools.product(
                (0, 1, engine._STEPPED, max_rounds + 1), chunks):
            monkeypatch.setattr(engine, "_STEPPED", stepped)
            monkeypatch.setattr(engine, "_FIRST_CHUNK", first)
            monkeypatch.setattr(engine, "_CHUNK", cap)
            assert [run_trial(cfg, s) for s in range(20)] == default, (stepped, first, cap)


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
        with pytest.raises(ValueError, match=r"^the materialized engine builds every edge, "
                           r"so it needs delta < 2\^24; got a star gadget with delta = "
                           r"2\^30; run it on the analytic_star engine$"):
            run_trial(TrialConfig(**point))
        assert run_trial(TrialConfig(**point, engine_mode="analytic_star")).completed

    @pytest.mark.parametrize("problem, gadget, delta_log2, hint", [
        ("local", lambda: double_star(2 ** 30), "30", True),
        ("global", lambda: chained_gadgets(2 ** 24, 24), "24", False),
        ("local", lambda: chained_gadgets(2 ** 24, 24), "24", False),
    ], ids=["double-star", "chain-global", "chain-local"])
    def test_huge_gadget_rejected_on_materialized_engine(self, problem, gadget, delta_log2,
                                                         hint):
        # the message names the gadget kind and the bound on delta; it
        # offers the analytic engine only for a local run on a star or a
        # double star, the only runs that engine takes
        gadget = gadget()
        point = dict(problem=problem, gadget=gadget, schedule=frlb_schedule(gadget.delta, 2),
                     adversary={"kind": "iid_subset", "tau": 2}, seed=0, max_rounds=100)
        message = (f"the materialized engine builds every edge, so it needs delta < 2^24; "
                   f"got a {gadget.kind} gadget with delta = 2^{delta_log2}")
        with pytest.raises(ValueError) as raised:
            TrialConfig(**point)
        assert str(raised.value) == message + ("; run it on the analytic_star engine"
                                               if hint else "")
        if not hint:
            with pytest.raises(ValueError, match="analytic engine"):
                TrialConfig(**point, engine_mode="analytic_star")

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


def reference_trial(config: TrialConfig, trial: int = 0,
                    replay: dict[int, list[int]] | None = None) -> TrialResult:
    """The materialized engine's contract stated plainly: every node in its
    transmit window draws a coin every round, and `model.deliver` on the
    round's topology decides who hears whom.  With `replay`, round r's
    transmitters are replay.get(r, []) instead, each in the window, and no
    coin is drawn."""
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
    history = ObservableHistory(np.full(n, _NEVER, dtype=np.int64), act)
    np_nodes, np_adv, q_adv = trial_rngs(config.seed, trial)
    policy = make_policy(config.plan, np_adv, q_adv, history)
    completion, r = None, 0
    for r in range(1, config.max_rounds + 1):
        policy.pre_round(r)
        extra = policy.sample_edges(r, np.arange(n))  # every edge, drawn in full
        window = [v for v in range(n) if act[v] != _NEVER and act[v] < r <= act[v] + budget]
        if not window:
            if not any(r <= a < _NEVER for a in act.tolist()):
                break
            continue
        if replay is None:
            coins = np_nodes.random(len(window))
            p = math.exp(schedule.log_probs[(r - 1) % k])
            tx = [v for v, c in zip(window, coins) if c < p]
        else:
            tx = replay.get(r, [])
            assert set(tx) <= set(window), r
        topology = build_round_topology(graph, [graph.unreliable_edges[i] for i in extra], r)
        newly = sorted(set(deliver(topology, tx).receivers()) & waiting)
        waiting.difference_update(newly)
        history.deliver(newly, r)
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


def transmitter_window(act, r, budget):
    """(nodes that transmit in round r, in order; the next round after r in
    which that set changes, or _NEVER if it never does), from every node's
    activation round."""
    cand = np.flatnonzero((act < r) & (act >= r - budget))
    later = act[(act >= r) & (act != _NEVER)]
    starts = int(later.min()) + 1 if len(later) else _NEVER
    ends = int(act[cand].min()) + budget + 1 if len(cand) else _NEVER
    return cand, min(starts, ends)


def span_bounds(span, act, r, budget):
    """(lo, hi, m): the counted span of round r as cand[lo:hi + 1] of the
    full window cand from every node's activation round, m = len(cand);
    (0, -1, m) for an empty span."""
    cand = transmitter_window(act, r, budget)[0]
    if not len(span):
        return 0, -1, len(cand)
    lo = int(cand.searchsorted(span[0]))
    hi = lo + len(span) - 1
    assert cand[lo:hi + 1].tolist() == span.tolist(), r
    return lo, hi, len(cand)


def recounted_front(table, act, waiting):
    """The front from scratch: the nodes with an activation round that wait
    or have a waiting neighbor in the table."""
    heard = [table.heard[table.ptr[v]:table.ptr[v] + table.deg[v]] for v in range(len(act))]
    return [v for v in range(len(act))
            if act[v] != _NEVER and (waiting[v] or waiting[heard[v]].any())]


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
        # the engine draws coins only for the span cand[lo:hi + 1] of the
        # window cand whose candidates can change a delivery; the
        # reference, given the transmitters the engine drew each round,
        # decides every delivery with `model.deliver` from every adversary
        # edge.  Record the spans it used: each case must see spans that
        # start past the first candidate, end before the last, end at the
        # last, and hold no candidate
        spans, sent = [], {}
        span_of, bind = engine._span, engine.make_policy

        def recording(front, act, r, budget):
            span = span_of(front, act, r, budget)
            lo, hi, m = span_bounds(span, act, r, budget)
            if m:
                spans.append((lo, hi, m))
            return span

        def recording_policy(*args):
            policy = bind(*args)
            sample = policy.sample_edges

            def sample_edges(r, tx):
                if len(tx):
                    sent[r] = tx.tolist()
                return sample(r, tx)

            policy.sample_edges = sample_edges
            return policy

        monkeypatch.setattr(engine, "_span", recording)
        monkeypatch.setattr(engine, "make_policy", recording_policy)
        rng = np.random.default_rng([20261018, len(problem), len(kind)])
        # a chain of 8 stars runs long trials on 272 or more nodes
        for case in range(12 if kind == "chained_gap" else 60):
            cfg = random_trial_config(rng, problem, kind, seed=1000 * case)
            for trial in range(3):
                sent.clear()
                got = run_trial(cfg, trial)
                assert got == reference_trial(cfg, trial, replay=sent), (case, trial)
        seen = {"starts later": any(lo > 0 for lo, hi, _ in spans if lo <= hi),
                "ends early": any(lo <= hi < last - 1 for lo, hi, last in spans),
                "ends at last": any(lo <= hi == last - 1 for lo, hi, last in spans),
                "empty": any(hi < lo for lo, hi, _ in spans)}
        assert all(seen.values()), seen

    @pytest.mark.parametrize("problem, kind, seed", [
        ("local", "static", 1), ("global", "static", 2), ("local", "iid_subset", 3),
        ("global", "iid_subset", 4), ("local", "gap", 5), ("global", "chain", 6)])
    def test_completion_law_matches_every_coin_reference(self, problem, kind, seed):
        # the engine draws its node coins by geometric skipping; the
        # reference draws every window coin every round, so the two agree
        # only in law.  Two-sample KS test on completion rounds (a trial
        # that does not complete counts as max_rounds + 1), alpha = 0.001:
        # D <= c sqrt(2 / n) with c = sqrt(ln(2 / alpha) / 2)
        rng = np.random.default_rng([20261019, seed])
        if kind == "chain":
            cfg = TrialConfig(problem="global", gadget=chained_gadgets(10, 24),
                              schedule=frlb_schedule(10, 1),
                              adversary={"kind": "static", "tau": 1}, seed=0, max_rounds=10 ** 6)
            n = 300
        else:
            while True:  # a config whose trials do not all end alike
                cfg = random_trial_config(rng, problem, kind, seed=0)
                probe = {run_trial(cfg, t).completion_round for t in range(20)}
                if len(probe) > 3:
                    break
            n = 400

        def completion(result):
            return result.completion_round if result.completed else cfg.max_rounds + 1

        ours = np.sort([completion(run_trial(cfg, t)) for t in range(n)])
        theirs = np.sort([completion(reference_trial(cfg, n + t)) for t in range(n)])
        grid = np.union1d(ours, theirs)
        gap = np.abs(np.searchsorted(ours, grid, side="right")
                     - np.searchsorted(theirs, grid, side="right")).max() / n
        assert gap <= math.sqrt(math.log(2 / 0.001) / 2) * math.sqrt(2 / n), gap

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
            table = engine._neighbors(custom_gadget(g, (), ()))
            active = np.zeros(m + 1, dtype=bool)
            active[m] = True
            cand = np.arange(n)
            near = engine._waiting_neighbors(table, waiting)
            frontier = engine._frontier(table, cand, waiting, near, m)
            coins = rng.random(len(frontier.span)) < 0.4
            tx = frontier.span[coins]
            topo = build_round_topology(
                g, [g.unreliable_edges[i] for i in extra_idx], 1)
            expected = transmit_counts(topo, tx.tolist())
            got = dict(zip(frontier.listeners.tolist(),
                           round_counts(frontier, coins, extra_idx, active).tolist()))
            # the trial's mask is left as it was found, for the next round
            assert active.nonzero()[0].tolist() == [m]
            for v in np.flatnonzero(waiting).tolist():
                assert got.get(v, 0) == (0 if v in tx else expected[v]), (case, v)

    def test_kept_counts_and_frontier_match_recount(self, monkeypatch):
        # at every rebuild (the point's start, each window event and each
        # delivery) the front, the kept waiting-neighbor counts, the span
        # and the frontier equal a recount from scratch: the front from
        # every node's state, the span from the first to the last relevant
        # candidate of the full window
        checked = []
        span_of, frontier = engine._span, engine._frontier
        built = {}

        def recorded_span(front, act, r, budget):
            built.update(front=front.tolist(), act=act, r=r, budget=budget)
            return span_of(front, act, r, budget)

        def recounting(table, span, waiting, near, edge_count):
            made = frontier(table, span, waiting, near, edge_count)
            act, r, budget = built.pop("act"), built.pop("r"), built.pop("budget")
            heard = [table.heard[table.ptr[v]:table.ptr[v] + table.deg[v]]
                     for v in range(len(waiting))]
            assert near.tolist() == [int(waiting[h].sum()) for h in heard]
            assert built.pop("front") == recounted_front(table, act, waiting)
            cand = transmitter_window(act, r, budget)[0]
            relevant = [i for i, c in enumerate(cand.tolist())
                        if waiting[c] or waiting[heard[c]].any()]
            lo, hi = (relevant[0], relevant[-1]) if relevant else (0, -1)
            assert made.span.tolist() == cand[lo:hi + 1].tolist()
            entries = sorted(
                (i, int(w), int(e)) for i, c in enumerate(made.span.tolist())
                for w, e in zip(heard[c], table.through[table.ptr[c]:table.ptr[c] + table.deg[c]])
                if waiting[w])
            kept = made.entries
            assert kept.ptr.tolist() == (np.cumsum(kept.deg) - kept.deg).tolist()
            owner = np.repeat(np.arange(len(made.span)), kept.deg)
            got = sorted(zip(owner.tolist(), made.listeners[kept.heard].tolist(),
                             kept.through.tolist()))
            assert got == entries
            assert made.listeners.tolist() == sorted({w for _, w, _ in entries})
            duplex = [(j, i) for j, w in enumerate(made.listeners.tolist())
                      for i, c in enumerate(made.span.tolist()) if c == w]
            assert list(zip(made.duplex.tolist(), made.duplex_at.tolist())) == duplex
            checked.append((len(entries), len(duplex), len(made.span)))
            return made

        monkeypatch.setattr(engine, "_span", recorded_span)
        monkeypatch.setattr(engine, "_frontier", recounting)
        rng = np.random.default_rng(20261019)
        for case in range(40):
            for problem in ("local", "global"):
                cfg = random_trial_config(rng, problem, ("static", "iid_subset")[case % 2],
                                          seed=case)
                run_trial(cfg)
        # frontiers with entries, without any, with a listener that is a
        # candidate itself, and spans of one node and of several
        assert all(any(pred(e, d, m) for e, d, m in checked) for pred in (
            lambda e, d, m: e > 0, lambda e, d, m: e == 0, lambda e, d, m: d > 0,
            lambda e, d, m: m == 1, lambda e, d, m: m > 1))

    def test_window_event_and_span_match_recount(self):
        # the next window event found by bisection in the distinct
        # activation rounds equals a recount from every node's activation
        # round: the window holds through next_event - 1 and changes at
        # next_event, and a window that never changes reports _NEVER, which
        # only an empty one does.  The span of any front runs through the
        # window from its first to its last node in the front.  The cases
        # see next events where nodes only start, only stop, and both, and
        # spans that are empty, of one node and of several
        rng = np.random.default_rng(11)
        seen = Counter()
        for _ in range(300):
            n = int(rng.integers(1, 8))
            budget = int(rng.integers(1, 6))
            act = np.where(rng.random(n) < 0.3, _NEVER, rng.integers(0, 20, size=n))
            r = int(rng.integers(1, 20))

            def window(t):
                return [v for v in range(n) if act[v] < t <= act[v] + budget]

            starts = sorted(set(act.tolist()) - {_NEVER})
            next_event = engine._window_event(starts, r, budget)
            want, want_next = transmitter_window(act, r, budget)
            assert want.tolist() == window(r)
            assert next_event == want_next
            assert all(window(t) == window(r) for t in range(r, min(next_event, 40)))
            if next_event != _NEVER:
                assert window(next_event) != window(r)
                seen[(bool(set(window(next_event)) - set(window(r))),
                      bool(set(window(r)) - set(window(next_event))))] += 1
            else:
                assert not window(r)
            front = np.flatnonzero((act != _NEVER) & (rng.random(n) < 0.6))
            inside = [i for i, v in enumerate(window(r)) if v in front.tolist()]
            span = window(r)[inside[0]:inside[-1] + 1] if inside else []
            assert engine._span(front, act, r, budget).tolist() == span
            seen[f"span {min(len(span), 2)}"] += 1
        assert all(seen[kind] for kind in ((True, False), (False, True), (True, True),
                                           "span 0", "span 1", "span 2")), seen

    def test_rescanned_window_matches_recount(self, monkeypatch):
        # after every window event and delivery in a trial, the span is
        # taken from the window recomputed from every node's activation
        # round, and the next event is looked up at the next event of that
        # window (a later delivery's activation included), or past the
        # trial's last round; the trials see events where nodes only start,
        # only stop, and both, and a delivery followed by a window event in
        # the next round
        span_of, event, bind = engine._span, engine._window_event, engine.make_policy
        trial = {}
        seen = Counter()

        def checked_span(front, act, r, budget):
            span = span_of(front, act, r, budget)
            if "act" in trial:  # not the point's start, built before the trial's policy
                assert r == trial["round"] and act is trial["act"]
                trial["built"] = r
                span_bounds(span, act, r, budget)
                if trial.get("rescanned") != r:
                    seen["delivery"] += 1
                elif (trial["delivered"] == r - 1).any():
                    seen["delivery, then event"] += 1
            return span

        def checked_event(starts, r, budget):
            if "act" in trial:
                act = trial["act"]
                assert r == transmitter_window(act, trial["built"], budget)[1]
                assert starts == sorted(set(act.tolist()) - {_NEVER})
                before, after = (set(transmitter_window(act, t, budget)[0].tolist())
                                 for t in (r - 1, r))
                seen[{(True, False): "start", (False, True): "stop",
                      (True, True): "start and stop"}[bool(after - before),
                                                      bool(before - after)]] += 1
                trial["rescanned"] = r
            return event(starts, r, budget)

        def recording_policy(plan, np_adv, q_adv, history):
            policy = bind(plan, np_adv, q_adv, history)
            trial.update(act=history.act, delivered=history.delivery)
            pre_round = policy.pre_round

            def entering(r):
                # asked to be entered every round, so it sees every round
                trial["round"] = r
                pre_round(r)
                return r + 1

            policy.pre_round = entering
            return policy

        monkeypatch.setattr(engine, "_span", checked_span)
        monkeypatch.setattr(engine, "_window_event", checked_event)
        monkeypatch.setattr(engine, "make_policy", recording_policy)
        rng = np.random.default_rng(20261022)
        for case in range(40):
            for problem in ("local", "global"):
                cfg = random_trial_config(rng, problem, ("static", "iid_subset")[case % 2],
                                          seed=case)
                trial.clear()
                start = engine.point_start(cfg)
                assert start.front.tolist() == recounted_front(start.table, start.act,
                                                               start.waiting)
                assert start.next_event == transmitter_window(start.act, 1, start.budget)[1]
                span_bounds(start.frontier.span, start.act, 1, start.budget)
                trial.update(budget=start.budget, built=1)
                result = run_trial(cfg, 0, start)
                assert transmitter_window(trial["act"], trial["built"], start.budget)[1] \
                    > result.rounds_executed
        assert all(seen[kind] for kind in ("start", "stop", "start and stop", "delivery",
                                           "delivery, then event")), seen

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


class TestFirstDelivery:
    """A materialized trial's `first_delivery` is a read-only node -> round
    mapping over its delivery array; the analytic engine's is a dict."""

    @staticmethod
    def replayed(cfg, monkeypatch):
        """The engine's trial 0 and the reference's, given the engine's
        transmitters."""
        sent, bind = {}, engine.make_policy

        def recording(*args):
            policy = bind(*args)
            sample = policy.sample_edges

            def sample_edges(r, tx):
                if len(tx):
                    sent[r] = tx.tolist()
                return sample(r, tx)

            policy.sample_edges = sample_edges
            return policy

        monkeypatch.setattr(engine, "make_policy", recording)
        got = run_trial(cfg)
        return got, reference_trial(cfg, replay=sent)

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_equals_the_reference_dict(self, problem, monkeypatch):
        rng = np.random.default_rng([20261020, len(problem)])
        reached = 0
        for case in range(30):
            cfg = random_trial_config(rng, problem, "iid_subset", seed=case)
            got, want = self.replayed(cfg, monkeypatch)
            first, expected = got.first_delivery, want.first_delivery
            assert isinstance(expected, dict) and not isinstance(first, dict)
            assert first == expected and expected == first, case
            assert not (first != expected or expected != first)
            assert len(first) == len(expected)
            reached += len(expected)
            # yields Python ints, nodes in increasing order
            assert list(first) == sorted(expected)
            assert list(first.items()) == sorted(expected.items())
            assert all(type(x) is int for pair in first.items() for x in pair)
            for node in range(-1, cfg.gadget.node_count + 1):
                assert (node in first) == (node in expected)
                assert first.get(node) == expected.get(node)
            assert first != {**expected, cfg.gadget.node_count: 1}
            assert {**expected, cfg.gadget.node_count: 1} != first
        assert reached

    def test_read_only(self):
        cfg = TrialConfig(problem="global", gadget=chained_gadgets(10, 24),
                          schedule=frlb_schedule(10, 4), adversary={"kind": "static", "tau": 4},
                          seed=9, max_rounds=100_000)
        first = run_trial(cfg).first_delivery
        node = next(iter(first))
        with pytest.raises(TypeError):
            first[node] = 0
        with pytest.raises(KeyError):
            first[cfg.gadget.source]
        assert cfg.gadget.source not in first

    def test_chained_point_keeps_no_per_node_dict(self):
        cfg = TrialConfig(problem="global", gadget=chained_gadgets(33, 24),
                          schedule=frlb_schedule(33, 1),
                          adversary={"kind": "chained_gap", "tau": 1}, seed=4,
                          max_rounds=100_000)
        for res in trial_results(cfg, 3):
            first = res.first_delivery
            assert res.completed and len(first) == cfg.gadget.node_count - 1
            assert isinstance(first, engine.FirstDelivery) and not hasattr(first, "__dict__")
            assert not any(isinstance(getattr(first, slot), dict)
                           for slot in engine.FirstDelivery.__slots__)

    def test_analytic_engine_keeps_a_dict(self):
        cfg = star_config(16, 2, engine="analytic_star")
        res = run_trial(cfg)
        assert res.completed and type(res.first_delivery) is dict
        assert res.first_delivery == {cfg.gadget.receiver: res.completion_round}


def event_cases():
    """(id, config) for every adversary kind on the materialized engine at
    tau 1, 3 and infinity where the kind takes it: static and iid_subset
    in local trials on small random dual graphs and global ones on chains
    of 33-stars; the kinds that act on a designated receiver in local
    trials on a star (a double star for correlated_shift) with a few
    broadcasters, so that most rounds are idle; chained_gap on chains with
    a period-1 phase table (frlb at tau 1) and a longer one (decay's)."""
    rng = np.random.default_rng(20261020)
    star64 = replace(star_gadget(64, 66), broadcasters=range(40, 44))
    for tau in (1, 3, None):
        for kind in ("static", "iid_subset"):
            for case in range(6):
                cfg = random_trial_config(rng, "local", kind, seed=100 * case)
                yield f"{kind}-local-{tau}", replace(cfg, adversary={**cfg.adversary,
                                                                     "tau": tau})
            yield f"{kind}-global-{tau}", TrialConfig(
                problem="global", gadget=chained_gadgets(33, 25), schedule=decay_schedule(33),
                adversary={"kind": kind, "tau": tau}, seed=7, max_rounds=4000, rgb_reps=2)
        for kind in ("degree_walk_deterministic", "degree_walk_restricted"):
            yield f"{kind}-{tau}", TrialConfig(
                problem="local", gadget=star64, schedule=rlb_schedule(2 ** 10 + 1, 4),
                adversary={"kind": kind, "tau": tau, "l": 2, "start_degree": 20}, seed=5,
                max_rounds=600)
        yield f"correlated_shift-{tau}", TrialConfig(
            problem="local", gadget=replace(double_star(64), broadcasters=range(40, 43)),
            schedule=decay_schedule(2 ** 8 + 1),
            adversary={"kind": "correlated_shift", "tau": tau},
            seed=3, max_rounds=600)
    for tau in (1, 3):
        yield f"argmin-{tau}", TrialConfig(
            problem="local", gadget=star64, schedule=rlb_schedule(2 ** 8 + 1, 2),
            adversary={"kind": "argmin", "tau": tau}, seed=9, max_rounds=600)
        # the gap construction at tau 3 needs delta - 1 of 2^15 or more
        delta = 2 ** 10 + 1 if tau == 1 else 2 ** 15 + 1
        yield f"gap-{tau}", TrialConfig(
            problem="local", gadget=replace(star_gadget(delta, delta + 2),
                                            broadcasters=range(6)),
            schedule=rlb_schedule(delta, 3), adversary={"kind": "gap", "tau": tau}, seed=11,
            max_rounds=300)
    for schedule, reps in ((frlb_schedule(33, 1), 40), (decay_schedule(33), 3)):
        yield f"chained_gap-{schedule.label}", TrialConfig(
            problem="global", gadget=chained_gadgets(33, 24), schedule=schedule,
            adversary={"kind": "chained_gap", "tau": 1}, seed=13, max_rounds=20_000,
            rgb_reps=reps)


class TestEventDrivenEntries:
    """The engine enters the adversary (`pre_round`) only in round 1, in
    the round `pre_round` named and in the round after a delivery.  A
    policy that names the next round every time, and so is entered every
    round, gives the same trials."""

    CASES = list(event_cases())

    def test_cases_cover_every_kind(self):
        kinds = {cfg.adversary["kind"] for _, cfg in self.CASES}
        assert kinds == set(adversary.ADVERSARY_KEYS)
        periods = {cfg.plan.build.args[1].period for _, cfg in self.CASES
                   if cfg.adversary["kind"] == "chained_gap"}
        assert 1 in periods and max(periods) > 1

    @pytest.mark.parametrize("case", sorted({name for name, _ in CASES}))
    def test_entered_every_round_gives_the_same_trials(self, case, monkeypatch):
        bind = engine.make_policy
        entries = Counter()

        def every_round(*args):
            policy = bind(*args)
            enter = policy.pre_round

            def pre_round(r):
                enter(r)
                return r + 1

            policy.pre_round = pre_round
            return policy

        def counted(*args):
            policy = bind(*args)
            enter = policy.pre_round

            def pre_round(r):
                entries[r] += 1
                return enter(r)

            policy.pre_round = pre_round
            return policy

        rounds = 0
        for name, cfg in self.CASES:
            if name != case:
                continue
            for trial in range(3):
                monkeypatch.setattr(engine, "make_policy", counted)
                got = run_trial(cfg, trial)
                monkeypatch.setattr(engine, "make_policy", every_round)
                assert got == run_trial(cfg, trial), (name, trial)
                rounds += got.rounds_executed
        # a policy whose blocks outlast a round is entered in fewer rounds
        if not case.endswith("-1") and case != "chained_gap-decay":
            assert sum(entries.values()) < rounds, case


def chi2_critical(df: int) -> float:
    """The 0.999 quantile of chi-square with df degrees of freedom
    (Wilson-Hilferty), the threshold of every chi-square test here."""
    z = 3.090232  # the standard normal's 0.999 quantile
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def chi2(observed: Counter, expected: dict, n: int) -> tuple[float, int]:
    """Pearson's statistic and degrees of freedom for n draws counted in
    `observed` against the cell probabilities `expected`.  No draw may fall
    in a cell of probability 0; cells expecting fewer than 5 draws are
    pooled, and the pool joins the smallest other cell if it expects fewer."""
    support = {cell for cell, prob in expected.items() if prob > 0}
    assert set(observed) <= support, set(observed) - support
    kept, pool = [], [0, 0.0]
    for cell in support:
        o, e = observed[cell], n * expected[cell]
        if e < 5:
            pool[0] += o
            pool[1] += e
        else:
            kept.append([o, e])
    kept.sort(key=lambda oe: oe[1])
    if pool[1] >= 5:
        kept.append(pool)
    elif pool[1] > 0:
        kept[0][0] += pool[0]
        kept[0][1] += pool[1]
    return sum((o - e) ** 2 / e for o, e in kept), len(kept) - 1


def custom_schedule(*probs) -> Schedule:
    """A cycle of the given probabilities; 0 stands for one that underflows."""
    return Schedule("custom", tuple(math.log(p) if p else -800.0 for p in probs))


class _Zeros:
    """A generator whose every uniform is 0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestSkippedCoins:
    """The materialized engine's node coins: the first round in which one of
    m counted candidates transmits (`_first_firing`) and that round's coins
    given that one does (`_fired_coins`) follow the law of m independent
    coins per round.  Every chi-square test uses alpha = 0.001."""

    @pytest.mark.parametrize("probs, m, r, horizon", [
        ((0.3, 0.05, 0, 0.2), 3, 3, 12),        # p = 0; both sides of the 1/2 rule
        ((0.02, 1.0, 0.1), 2, 3, 6),            # p = 1: infinite hazard
        ((0.04, 0.01, 0.02), 1, 2, 60),         # m = 1 over many cycles
        ((0.3, 0.05, 0, 0.2), 40, 1, 8),        # large m, mostly redrawn
        ((0.0004, 0.0002, 0.001), 500, 2, 30),  # large m, zero-truncated binomial
    ])
    def test_first_firing_round_and_count_law(self, probs, m, r, horizon):
        # cells: (F, K) for F = r..r + horizon - 1, and F past them
        schedule = custom_schedule(*probs)
        hazard, p, k = engine._hazard(schedule), schedule.prob_array.tolist(), len(probs)
        rng = np.random.default_rng([20261019, m, r])
        n = 20_000
        observed = Counter()
        for _ in range(n):
            f = engine._first_firing(hazard, r, m, rng.random(), 10 ** 9)
            if f >= r + horizon:
                observed["later"] += 1
                continue
            phase = (f - 1) % k
            coins = engine._fired_coins(rng, m, p[phase], hazard.h[phase])
            observed[f, int(coins.sum())] += 1
        expected, alive = {}, 1.0
        for f in range(r, r + horizon):
            q = p[(f - 1) % k]
            for count in range(1, m + 1):
                expected[f, count] = (alive * math.comb(m, count)
                                      * q ** count * (1 - q) ** (m - count))
            alive *= (1 - q) ** m
        expected["later"] = alive
        stat, df = chi2(observed, expected, n)
        assert df == 0 or stat <= chi2_critical(df), (stat, df)

    @pytest.mark.parametrize("m, p", [(1, 0.2), (5, 0.1), (5, 0.3), (2, 0.5), (600, 0.0005)])
    def test_fired_coins_law(self, m, p):
        # given that a coin shows, pattern v has probability
        # p^|v| (1 - p)^(m - |v|) / (1 - (1 - p)^m); on a long span the
        # cells are the count beyond 2, and for 1 or 2 transmitters the
        # tenths of the span they lie in
        h = -math.log1p(-p)
        rng = np.random.default_rng([20261020, m])
        n = 20_000
        fire = 1 - (1 - p) ** m
        observed = Counter()
        if m <= 5:
            for _ in range(n):
                observed[tuple(engine._fired_coins(rng, m, p, h).tolist())] += 1
            expected = {}
            for v in itertools.product((False, True), repeat=m):
                expected[v] = p ** sum(v) * (1 - p) ** (m - sum(v)) / fire if any(v) else 0.0
        else:
            tenth = m // 10
            for _ in range(n):
                at = np.flatnonzero(engine._fired_coins(rng, m, p, h))
                observed[(len(at), *(at // tenth).tolist()) if len(at) <= 2 else "more"] += 1
            one = m * p * (1 - p) ** (m - 1) / fire
            two = math.comb(m, 2) * p ** 2 * (1 - p) ** (m - 2) / fire
            expected = {"more": 1 - one - two}
            for b in range(10):
                expected[1, b] = one / 10
                for c in range(b, 10):
                    pairs = tenth * (tenth - 1) / 2 if b == c else tenth * tenth
                    expected[2, b, c] = two * pairs / math.comb(m, 2)
        stat, df = chi2(observed, expected, n)
        assert df == 0 or stat <= chi2_critical(df), (stat, df)

    def test_whole_cycle_jumps_match_a_round_by_round_search(self):
        # the draw jumps whole cycles, then searches one; it picks the round
        # that accumulating the hazard round by round picks, over jumps of
        # no, one and several cycles
        hazard = engine._hazard(custom_schedule(0.01, 0.02, 0.005, 0.0001, 0))
        rng = np.random.default_rng(3)
        jumps = Counter()
        for _ in range(3000):
            r, m, u = int(rng.integers(1, 50)), int(rng.integers(1, 4)), float(rng.random())
            x, total, f = -math.log1p(-u), 0.0, r - 1
            while total <= x:
                f += 1
                total += m * hazard.h[(f - 1) % 5]
            assert engine._first_firing(hazard, r, m, u, 10 ** 6) == f, (r, m, u)
            jumps[min((f - r) // 5, 2)] += 1
        assert set(jumps) == {0, 1, 2}

    def test_certain_round_caps_the_draw(self):
        # p = 1 in phase 1: no draw passes the next round in that phase, and
        # a uniform near 1 lands on it
        hazard = engine._hazard(custom_schedule(0.01, 1.0, 0.02))
        assert hazard.h[1] == math.inf and hazard.sure == [1, 0, 2]
        for r in range(1, 7):
            sure = r + hazard.sure[(r - 1) % 3]
            for u in np.linspace(0, 1, 50, endpoint=False):
                assert r <= engine._first_firing(hazard, r, 2, u, 10 ** 6) <= sure
            assert engine._first_firing(hazard, r, 2, 1 - 1e-12, 10 ** 6) == sure

    def test_zero_uniform(self):
        # the first round that can fire, then one transmitter, the first
        hazard = engine._hazard(custom_schedule(0, 0.1, 0, 0.5))
        assert engine._first_firing(hazard, 1, 3, 0.0, 10 ** 6) == 2
        assert engine._first_firing(hazard, 3, 3, 0.0, 10 ** 6) == 4
        assert engine._fired_coins(_Zeros(), 4, 0.1, hazard.h[1]).tolist() == [
            True, False, False, False]

    def test_rounding_gap_moves_to_the_next_cycle(self):
        # a cycle ending in p = 0 whose `cycle` lies one ulp above its
        # running sum cum[k]: a uniform whose hazard x is exactly cum[k]
        # leaves a remainder at or past the cycle's end, and the draw must
        # land on the next cycle's first round with h > 0, not on the p = 0
        # phase, whose coins cannot show
        u, m = 0.375, 3
        x = -math.log1p(-u) / m
        hazard = engine._Hazard([x, 0.0], [0.0, x, x, 2 * x, 2 * x],
                                math.nextafter(x, math.inf), [-1, -1])
        assert x < hazard.cycle and hazard.cum[2] == x
        f = engine._first_firing(hazard, 1, m, u, 10 ** 6)
        assert f == 3 and hazard.h[(f - 1) % 2] > 0
        assert engine._first_firing(hazard, 1, m, u, 1) == _NEVER

    def test_silent_cycle_never_fires(self, monkeypatch):
        # every p underflows to 0: no round ever fires; a tiny p fires past
        # the last round.  A trial then runs every round idle, and still
        # asks the adversary once a round; it enters the static adversary,
        # one block, only in round 1
        for probs in [(0,), (0, 0, 0)]:
            hazard = engine._hazard(custom_schedule(*probs))
            assert hazard.cycle == 0.0
            for u in (0.0, 0.5, 1 - 1e-12):
                assert engine._first_firing(hazard, 2, 7, u, 10 ** 6) == _NEVER
        hazard = engine._hazard(custom_schedule(1e-300))
        assert engine._first_firing(hazard, 1, 1, 0.5, 10 ** 9) == _NEVER
        calls = Counter()
        bind = engine.make_policy

        def counted(*args):
            policy = bind(*args)
            for method in ("pre_round", "sample_edges"):
                def call(*a, _method=method, _real=getattr(policy, method)):
                    calls[_method] += 1
                    return _real(*a)
                setattr(policy, method, call)
            return policy

        monkeypatch.setattr(engine, "make_policy", counted)
        for probs in [(0, 0), (1e-300,)]:
            calls.clear()
            cfg = TrialConfig(problem="local", gadget=star_gadget(8, 10),
                              schedule=custom_schedule(*probs),
                              adversary={"kind": "static", "tau": 1}, seed=3, max_rounds=50)
            result = run_trial(cfg)
            assert not result.completed and result.rounds_executed == 50
            assert calls == {"pre_round": 1, "sample_edges": 50}

    def test_drawn_round_past_window_event_or_last_round(self, monkeypatch):
        # trials draw rounds that lie past the next window event (a node
        # starts or runs out of budget) and past the last round; each such
        # round is dropped, and the trial still matches the reference given
        # its transmitters (see TestEngineEquivalence)
        draws, windows = [], []
        first_firing, window_event = engine._first_firing, engine._window_event

        def drawing(hazard, r, m, u, last):
            draws.append((len(windows), r, first_firing(hazard, r, m, u, last), last))
            return draws[-1][2]

        def recording(starts, r, budget):
            windows.append(r)
            return window_event(starts, r, budget)

        monkeypatch.setattr(engine, "_first_firing", drawing)
        monkeypatch.setattr(engine, "_window_event", recording)
        rng = np.random.default_rng(20261021)
        seen = Counter()
        for case in range(40):
            cfg = random_trial_config(rng, PROBLEMS[case % 2], "static", seed=case)
            draws.clear()
            windows.clear()
            run_trial(cfg)
            for built, r, f, last in draws:
                event = windows[built] if built < len(windows) else _NEVER
                if event <= min(f, last):
                    seen["window event"] += 1
                elif f > last:
                    seen["last round"] += 1
        assert seen["window event"] and seen["last round"], seen


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
            history = ObservableHistory(np.full(n, _NEVER, dtype=np.int64), act)
            _, np_adv, q_adv = trial_rngs(seed)
            policy = make_policy(config.plan, np_adv, q_adv, history)
            rng = np.random.default_rng(seed)
            for r in range(1, 60):
                policy.pre_round(r)
                tx = every if r % 2 else np.flatnonzero(rng.random(n) < 0.3)
                assert set(policy.sample_edges(r, tx).tolist()) <= reach, (seed, r)
                # a relay's delivery now and then, as the engine makes them
                v = int(rng.integers(n))
                if history.delivery[v] == _NEVER and rng.random() < 0.3:
                    history.deliver([v], r)
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
        seen = []
        stats = run_trials(cfg, 1, lambda t, res: seen.append((t, res)))
        assert stats.trial_count == 1
        assert seen == [(0, run_trial(replace(cfg, seed=3)))]
        assert stats == aggregate({seen[0][1].completion_round: 1})

    def test_hook_sees_every_trial_in_seed_order(self):
        # the hook gets each trial as it finishes; the stats fold only
        # their completion rounds
        cfg = star_config(8, 2, max_rounds=3, adversary={"kind": "iid_subset", "tau": 2})
        seen = []
        stats = run_trials(cfg, 20, lambda t, res: seen.append((t, res)))
        assert seen == [(t, run_trial(cfg, t)) for t in range(20)]
        rounds = [res.completion_round for _, res in seen]
        assert None in rounds and stats == aggregate(Counter(rounds))
        assert not hasattr(stats, "results")

    def test_order_invariant_fold(self):
        # the counts per completion round, in whatever order the trials
        # met them
        rounds = [3, None, 1, 7, 3, None, 2, 12, 5]
        stats = aggregate(Counter(rounds))
        for order in (rounds[::-1], sorted(rounds, key=lambda c: (c is None, c)),
                      rounds[4:] + rounds[:4]):
            assert aggregate(dict(Counter(order))) == stats
        assert (stats.trial_count, stats.success_count) == (9, 7)
        assert stats.mean_completion == 33 / 7
        assert stats.quantiles == {0.25: 3, 0.5: 5, 0.75: 12, 0.9: math.inf}

    def test_counts_fold_as_the_rounds_they_stand_for(self):
        # quantiles by cumulative counts and the mean from an exact integer
        # sum: as sorting the rounds, one per trial, and summing them
        rng = np.random.default_rng(12)
        for _ in range(200):
            rounds = [None if rng.random() < 0.2 else int(rng.integers(1, 6)) * 2 ** 50 + 1
                      for _ in range(int(rng.integers(1, 40)))]
            stats = aggregate(Counter(rounds))
            finished = sorted(c for c in rounds if c is not None)
            n = len(rounds)
            assert stats.mean_completion == (sum(finished) / len(finished) if finished
                                             else None)
            ranked = finished + [math.inf] * (n - len(finished))
            assert stats.quantiles == {q: ranked[min(n - 1, int(q * (n - 1)))]
                                       for q in (0.25, 0.5, 0.75, 0.9)}

    def test_no_results_rejected(self):
        # as run_trials rejects zero trials; an empty fold has no quantiles
        with pytest.raises(ValueError, match="at least one trial's completion round"):
            aggregate({})

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


class TestResultInvariant:
    """A completed trial ends in its completion round; an unfinished one
    has no completion round and runs at most `max_rounds` rounds, exactly
    that many for local broadcast (a global trial stops once nothing can
    transmit again)."""

    @staticmethod
    def check(results, cfg):
        for res in results:
            if res.completed:
                assert res.completion_round == res.rounds_executed, res
            else:
                assert res.completion_round is None, res
                assert res.rounds_executed <= cfg.max_rounds, res
                if cfg.problem == "local":
                    assert res.rounds_executed == cfg.max_rounds, res

    LOCAL = [
        {"kind": "static", "tau": 2, "extra_degree": 5},
        {"kind": "iid_subset", "tau": 2},
        {"kind": "gap", "tau": 2},
        {"kind": "argmin", "tau": 2},
        {"kind": "correlated_shift"},
        {"kind": "degree_walk_deterministic", "tau": 2, "l": 3, "start_degree": 20},
        {"kind": "degree_walk_restricted", "tau": 2, "l": 2},
    ]
    GLOBAL = ["static", "iid_subset", "chained_gap"]

    def test_every_kind_is_run(self):
        kinds = {spec["kind"] for spec in self.LOCAL} | set(self.GLOBAL)
        assert kinds == set(adversary.ADVERSARY_KEYS)

    @pytest.mark.parametrize("engine", ["materialized", "analytic_star"])
    @pytest.mark.parametrize("adversary", LOCAL, ids=lambda spec: spec["kind"])
    def test_local(self, engine, adversary):
        # a schedule built for degree bound 2^12 + 1 ends some trials within
        # the stepped rounds, some in a chunk and some at the round cap
        if adversary["kind"] == "gap":
            g = star_gadget(2 ** 12 + 1, 2 ** 12 + 3)
        elif adversary["kind"] == "correlated_shift":
            g = double_star(64)
        else:
            g = star_gadget(64, 66)
        done = []
        for max_rounds in (4, 30):
            cfg = TrialConfig(problem="local", gadget=g, schedule=rlb_schedule(2 ** 12 + 1, 2),
                              adversary=adversary, seed=0, max_rounds=max_rounds,
                              engine_mode=engine)
            results = trial_results(cfg, 40)
            self.check(results, cfg)
            done += [res.completed for res in results]
        assert set(done) == {True, False}

    @pytest.mark.parametrize("kind", GLOBAL)
    def test_global(self, kind):
        cfg = TrialConfig(problem="global", gadget=chained_gadgets(65, 24),
                          schedule=frlb_schedule(65, 1), adversary={"kind": kind, "tau": 1},
                          seed=0, max_rounds=600, rgb_reps=40)
        results = trial_results(cfg, 30)
        self.check(results, cfg)
        assert any(res.completed for res in results)
        assert any(res.rounds_executed < cfg.max_rounds for res in results
                   if not res.completed)


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
