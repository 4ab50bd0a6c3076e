"""Adversary constructions and policy behavior."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualradio.adversary import (ADVERSARY_KEYS, DegreeWalkState, ObservableHistory,
                                 argmin_degree, compile_adversary, gap_plan, make_policy,
                                 phase_cycle_probs, shift_plan, uniform_subsets,
                                 walk_degrees)
from dualradio.engine import _NEVER, TrialConfig, run_trial, trial_rngs
from dualradio.gadgets import build_gadget, chained_gadgets, double_star, star_gadget
from dualradio.oracle import (exact_success_logprob, exact_success_prob, phase_success_sum,
                              success_peak_degree)
from dualradio.schedules import (decay_schedule, frlb_schedule, rlb_schedule,
                                 rlbc_schedule)


def rngs(seed=0):
    return trial_rngs(seed)[1], trial_rngs(seed)[2]


def policy_for(spec, gadget, schedule, seed=0, history=None):
    """A trial's policy for `spec`: compiled, then bound to seed's adversary streams."""
    return make_policy(compile_adversary(spec, gadget, schedule), *rngs(seed), history)


def unreached(gadget):
    """A materialized engine's history before any node is reached."""
    return ObservableHistory({}, np.full(gadget.graph.node_count, _NEVER, dtype=np.int64))


class TestGapPlan:
    def test_worked_example(self):
        plan = gap_plan([2.0 ** -8], 2 ** 16 + 1)
        assert plan.x == 10 and plan.y == 4
        assert plan.occupied == frozenset({8})
        assert (plan.run_start, plan.run_length) == (9, 15)
        assert plan.a_k == 13 and plan.degree == 8192
        # the estimate sits at least y below a_k
        assert plan.a_k >= 8 + plan.y

    def test_large_probability_example(self):
        plan = gap_plan([0.5], 2 ** 16 + 1)
        assert plan.occupied == frozenset({1})
        assert plan.a_k >= 1 + plan.y

    def test_hypothesis_flag_and_strict_mode(self):
        plan = gap_plan([2.0 ** -4], 2 ** 8 + 1)
        assert not plan.hypothesis_ok
        with pytest.raises(ValueError, match="hypothesis"):
            gap_plan([2.0 ** -4], 2 ** 8 + 1, strict=True)
        assert gap_plan([2.0 ** -8], 2 ** 16 + 1).hypothesis_ok

    def test_infeasible_configuration_rejected(self):
        # delta-1 = 2^8 with two-step phases gives x = 0
        with pytest.raises(ValueError, match="infeasible"):
            gap_plan([0.5, 0.25], 2 ** 8 + 1)

    def test_small_delta_rejected(self):
        with pytest.raises(ValueError):
            gap_plan([0.5], 9)

    def test_phase_bound_against_rlb(self):
        # the defining inequality of the construction, on real schedules
        for dot_log2, tau in ((8, 1), (12, 1), (12, 2), (16, 1), (16, 2)):
            delta = 2 ** dot_log2 + 1
            sched = rlb_schedule(delta, tau)
            probs = list(sched.cycle[:tau])
            plan = gap_plan(probs, delta)
            dot = delta - 1
            bound = 32.0 * math.log(dot) / (dot ** (1.0 / tau) * tau)
            assert phase_success_sum(probs, plan.degree) <= bound

    @given(st.integers(min_value=10, max_value=16),
           st.lists(st.floats(min_value=0.5, max_value=15.5), min_size=1, max_size=1))
    @settings(max_examples=60)
    def test_distance_invariant_random_estimates(self, dot_log2, ests):
        delta = 2 ** dot_log2 + 1
        probs = [2.0 ** -e for e in ests if e < dot_log2 - 0.5]
        if not probs:
            return
        try:
            plan = gap_plan(probs, delta)
        except ValueError:
            return  # structurally infeasible draw
        for p in probs:
            est = -math.log2(p)
            assert est <= plan.a_k - plan.y + 1e-9 or est >= plan.a_k + plan.x - 1 - 1e-9


class TestArgminDegree:
    def test_half_prob_pushes_degree_up(self):
        assert argmin_degree([0.5], 2 ** 10 + 1) == 10

    def test_inverse_delta_prob_stays_low(self):
        dot = 2 ** 10
        assert argmin_degree([1.0 / dot], dot + 1) == 0

    def test_is_exhaustive_minimum(self):
        probs = [0.3, 0.01, 0.002]
        delta = 2 ** 9 + 1
        best = argmin_degree(probs, delta)
        sums = [phase_success_sum(probs, 2 ** l) for l in range(10)]
        assert sums[best] == min(sums)

    def test_matches_fraction_arithmetic(self):
        # independent exact-rational brute force on a small instance
        probs = [Fraction(1, 2), Fraction(1, 16), Fraction(1, 64)]
        delta = 2 ** 6 + 1
        exact_sums = []
        for l in range(7):
            d = 2 ** l
            exact_sums.append(sum(p * d * (1 - p) ** (d - 1) for p in probs))
        expected = exact_sums.index(min(exact_sums))
        assert argmin_degree([float(p) for p in probs], delta) == expected

    def test_dominates_gap_plan(self):
        for dot_log2, tau in ((12, 1), (16, 1), (16, 2)):
            delta = 2 ** dot_log2 + 1
            probs = list(rlb_schedule(delta, tau).cycle[:tau])
            plan = gap_plan(probs, delta)
            l_star = argmin_degree(probs, delta)
            assert (phase_success_sum(probs, 2 ** l_star)
                    <= phase_success_sum(probs, plan.degree) + 1e-15)


class TestShiftPlan:
    def test_worked_example(self):
        np_rng, _ = rngs()
        plan = shift_plan([0.5, 1.0 / 16], 16, np_rng, forced_shift=2)
        assert plan.estimates == (2.0, 16.0)
        assert plan.responses == (16, 1)
        # s = l pairing: step 1 uses p=1/2 against degree 16, step 2 degree 1
        assert plan.degree_at(1) == 16 and plan.degree_at(2) == 1

    def test_large_estimate_gives_degree_one(self):
        np_rng, _ = rngs()
        plan = shift_plan([0.001, 0.9], 100, np_rng, forced_shift=2)
        assert plan.responses[0] == 1 and plan.responses[1] == 100

    def test_adversarial_pairing_extremes(self):
        # under s = l every step has p*d >= sqrt(delta) or <= 1/sqrt(delta)
        for delta in (256, 4096):
            for sched in (decay_schedule(delta), rlb_schedule(delta, 4),
                          frlb_schedule(delta, 3)):
                cycle = sched.cycle
                np_rng, _ = rngs()
                plan = shift_plan(cycle, delta, np_rng, forced_shift=len(cycle))
                root = math.sqrt(delta)
                for t in range(1, len(cycle) + 1):
                    alpha = cycle[(t - 1) % len(cycle)] * plan.degree_at(t)
                    assert alpha >= root - 1e-9 or alpha <= 1.0 / root + 1e-9

    def test_degree_sequence_deterministic_given_shift(self):
        np_rng, _ = rngs(3)
        plan = shift_plan([0.5, 0.25, 0.125], 64, np_rng)
        seq1 = [plan.degree_at(t) for t in range(1, 10)]
        seq2 = [plan.degree_at(t) for t in range(1, 10)]
        assert seq1 == seq2

    def test_degree_at_an_array_of_steps(self):
        # one rule for both engines: an int64 array of steps gives the same
        # degrees as float64
        plan = shift_plan([0.5, 0.25, 0.125], 64, rngs(3)[0])
        got = plan.degree_at(np.arange(1, 10))
        assert got.dtype == np.float64
        assert got.tolist() == [plan.degree_at(t) for t in range(1, 10)]

    def test_shift_uniform_over_cycle(self):
        np_rng, _ = rngs(11)
        seen = {shift_plan([0.5, 0.25], 16, np_rng).shift for _ in range(200)}
        assert seen == {1, 2}

    def test_perfect_square_recorded(self):
        np_rng, _ = rngs()
        assert shift_plan([0.5], 16, np_rng, forced_shift=1).perfect_square
        assert not shift_plan([0.5], 17, np_rng, forced_shift=1).perfect_square


class TestDegreeWalk:
    def test_moves_away_from_peak(self):
        np_rng, _ = rngs()
        state = DegreeWalkState(degree=100, step_budget=10, max_degree=10 ** 6)
        [nxt] = walk_degrees(state, [math.log(0.01)], np_rng)
        assert nxt in (90, 110)
        worse = min((90, 110), key=lambda d: exact_success_prob(d, 0.01))
        assert nxt == worse

    def test_zero_budget_is_constant(self):
        np_rng, _ = rngs()
        state = DegreeWalkState(degree=5, step_budget=0, max_degree=100)
        assert list(walk_degrees(state, [math.log(0.2)] * 3, np_rng)) == [5, 5, 5]

    def test_deterministic_budget_respected(self):
        np_rng, _ = rngs(5)
        state = DegreeWalkState(degree=50, step_budget=7, max_degree=1000)
        path = [50, *walk_degrees(state, [math.log(0.03)] * 200, np_rng)]
        assert all(abs(b - a) <= 7 for a, b in zip(path, path[1:]))

    def test_clamped_to_range(self):
        np_rng, _ = rngs()
        state = DegreeWalkState(degree=2, step_budget=10, max_degree=6,
                                mode="random", restricted=True)
        assert all(1 <= d <= 6 for d in walk_degrees(state, [math.log(0.5)] * 100, np_rng))

    def test_restricted_mean_step_budget(self):
        # sampler check: mean |change| for the unclamped random walk is ~l
        np_rng, _ = rngs(17)
        l = 5
        state = DegreeWalkState(degree=500_000, step_budget=l, max_degree=10 ** 9,
                                mode="random", restricted=True)
        path = [500_000, *walk_degrees(state, [math.log(0.001)] * 100_000, np_rng)]
        steps = [abs(b - a) for a, b in zip(path, path[1:])]
        mean = sum(steps) / len(steps)
        sigma = np.std(steps) / math.sqrt(len(steps))
        assert abs(mean - l) <= 4 * sigma


def scalar_walk(state, log_probs, rng):
    """Reference: the walk stepped one round at a time, one magnitude draw
    per round, the direction coin after it."""
    d, cap, budget = state.degree, state.max_degree, state.step_budget
    out = []
    for lp in log_probs:
        mag = int(rng.integers(0, 2 * budget + 1)) if state.restricted else budget
        if mag:
            lo, hi = max(1, d - mag), min(cap, d + mag)
            if lo == hi:
                d = lo
            elif state.mode == "random":
                d = hi if rng.random() < 0.5 else lo
            else:
                p = math.exp(lp)
                peak = success_peak_degree(p) if p > 0.0 else math.inf
                if hi < peak:
                    d = lo
                elif lo > peak:
                    d = hi
                else:
                    d = lo if exact_success_logprob(lo, lp) <= exact_success_logprob(hi, lp) \
                        else hi
        out.append(d)
    return out


SAFE_LP = -40.0   # p = 4e-18: the peak (1-p)/p is far above every degree here
NEAR_ONE = math.log(0.4)  # peak 1.5: every step with mag > 0 and lo < hi crosses it


def assert_walk_matches(state, log_probs, seed):
    fast = np.random.Generator(np.random.PCG64(seed))
    slow = np.random.Generator(np.random.PCG64(seed))
    got = walk_degrees(state, np.array(log_probs), fast)
    want = scalar_walk(state, log_probs, slow)
    assert [int(x) for x in got] == want
    # float64 exactly when every degree is below 2^53, else plain ints
    assert isinstance(got, np.ndarray) == (not want or max(want) < 2 ** 53)
    assert fast.bit_generator.state == slow.bit_generator.state


def crossing_at(n, *positions):
    return [NEAR_ONE if i in positions else SAFE_LP for i in range(n)]


class TestVectorWalk:
    """`walk_degrees` against `scalar_walk`: degrees and generator state."""

    @pytest.mark.parametrize("state, log_probs", [
        (DegreeWalkState(40, 0, 100), crossing_at(64, 3)),  # mag 0 every round
        (DegreeWalkState(1, 3, 1), crossing_at(64, 0, 10)),  # lo == hi at cap 1
        (DegreeWalkState(1, 3, 1, restricted=True), crossing_at(64, 5)),
        (DegreeWalkState(98, 4, 100, restricted=True), [SAFE_LP] * 64),  # cap binds
        (DegreeWalkState(300, 2, 10 ** 6, restricted=True), crossing_at(64, 0)),
        (DegreeWalkState(300, 2, 10 ** 6, restricted=True), crossing_at(64, 31)),
        (DegreeWalkState(300, 2, 10 ** 6, restricted=True), crossing_at(64, 63)),
        (DegreeWalkState(300, 2, 10 ** 6), crossing_at(64, 0)),  # deterministic walk
        (DegreeWalkState(300, 2, 10 ** 6), crossing_at(64, 31)),
        (DegreeWalkState(300, 2, 10 ** 6), crossing_at(64, 63)),
        (DegreeWalkState(50, 5, 2 ** 4885, restricted=True), [-800.0] * 64),  # p == 0
        (DegreeWalkState(50, 5, 2 ** 4885, restricted=True), [-744.0] * 64),  # subnormal p
        (DegreeWalkState(2 ** 53 - 9, 4, 2 ** 60, restricted=True), crossing_at(64, 40)),
        (DegreeWalkState(2 ** 53 - 8, 4, 2 ** 60, restricted=True), crossing_at(64, 40)),
        (DegreeWalkState(2 ** 53 - 3, 1, 2 ** 60), crossing_at(64, 0, 1, 2, 3, 4, 5)),
        (DegreeWalkState(20, 2, 65, restricted=True),
         [math.log(p) for p in (0.354, 1 / 8, 1 / 22.6, 1 / 64)] * 16),
        (DegreeWalkState(20, 2, 65, mode="random", restricted=True), crossing_at(64, 7)),
        # from below the peak (99) a long step up lands where success is lowest
        (DegreeWalkState(50, 600, 10 ** 6, restricted=True), crossing_at(64, 2)[:2]
         + [math.log(0.01)] * 62),
    ], ids=["mag-0", "lo-eq-hi", "lo-eq-hi-restricted", "cap-binds", "cross-first",
            "cross-middle", "cross-last", "det-cross-first", "det-cross-middle",
            "det-cross-last", "p-underflows", "p-subnormal", "just-below-2^53",
            "at-2^53", "past-2^53", "near-peak-cycle", "random-mode", "long-step-over-peak"])
    def test_cases(self, state, log_probs):
        for seed in range(5):
            assert_walk_matches(state, log_probs, seed)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scalar_walk(self, data):
        budget = data.draw(st.sampled_from([0, 1, 2, 5, 22, 2 ** 20]))
        degree = data.draw(st.one_of(st.integers(1, 400),
                                     st.integers(2 ** 53 - 2 * budget - 4, 2 ** 53 - 1)))
        cap = data.draw(st.sampled_from([degree, degree + 1, degree + 7, 2 ** 4885]))
        n = data.draw(st.integers(0, 150))
        crossings = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4))
        lp = st.one_of(st.just(SAFE_LP), st.sampled_from([-800.0, -744.0, -3000.0]),
                       st.floats(-12.0, -1e-3))
        log_probs = [data.draw(lp) if i in crossings else SAFE_LP for i in range(n)]
        if data.draw(st.booleans()):
            log_probs = data.draw(st.lists(lp, min_size=n, max_size=n))
        state = DegreeWalkState(degree, budget, cap,
                                mode=data.draw(st.sampled_from(["dodging", "random"])),
                                restricted=data.draw(st.booleans()))
        assert_walk_matches(state, log_probs, data.draw(st.integers(0, 2 ** 32)))

    @pytest.mark.parametrize("high", [3, 45, 2 ** 20 + 1, 2 ** 40])
    def test_batched_integers_match_scalar_draws(self, high):
        # the vector walk draws a call's magnitudes at once on this premise
        batched = np.random.Generator(np.random.PCG64(11))
        scalar = np.random.Generator(np.random.PCG64(11))
        got = batched.integers(0, high, size=1000).tolist()
        assert got == [int(scalar.integers(0, high)) for _ in range(1000)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_criterion_10_walk_warns_nothing(self):
        # subnormal and underflowed p at delta = 2^4885 must not warn
        sched = rlbc_schedule(2 ** 4885, 1000)
        policy = policy_for({"kind": "degree_walk_restricted", "tau": 1000, "l": 22,
                             "walk_mode": "dodging"},
                            build_gadget("star", 2 ** 4885), sched, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = 1
            for count in (64, 256, 1024, 4096, 4096, 1, 7):
                degs = policy.degrees(start, count)
                assert len(degs) == count and (degs >= 1).all()
                start += count
            walk_degrees(DegreeWalkState(2 ** 40, 22, 2 ** 4885, restricted=True),
                         sched.log_prob_array, policy.np_rng)


class TestPolicies:
    @pytest.mark.parametrize("edges, message", [
        ([3, 3], r"\[3\] are listed more than once"),
        ([-1], r"\[-1\] are not unreliable edge indices 0\.\.5"),
        ([0, 6], r"\[6\] are not unreliable edge indices 0\.\.5"),
        ([1.5], r"adversary\.edges: must be a list of integers"),
    ])
    def test_static_rejects_bad_edges(self, edges, message):
        g = star_gadget(8, 10)  # six unreliable arms
        with pytest.raises(ValueError, match=message):
            compile_adversary({"kind": "static", "tau": 3, "edges": edges}, g,
                              rlb_schedule(8, 3))

    @pytest.mark.parametrize("spec", [{"edges": list(range(10))}, {"extra_degree": 10}],
                             ids=["edges", "extra-degree"])
    def test_static_subset_is_the_same_on_both_engines(self, spec):
        g = star_gadget(16, 18)
        sched = rlb_schedule(16, 4)
        policy = policy_for(dict(spec, kind="static", tau=4), g, sched)
        assert policy.degrees(1, 9).tolist() == [11.0] * 9
        active = set(policy.sample_edges(1).tolist())
        assert len(active & set(g.graph.unreliable_incident(g.receiver))) == 10

    @pytest.mark.parametrize("gadget, spec, message", [
        (star_gadget(16, 18), {"edges": [0], "extra_degree": 1}, "either edges or extra_degree"),
        (star_gadget(16, 18), {"extra_degree": 15}, r"extra_degree 15 is not in 0\.\.14"),
        (star_gadget(16, 18), {"extra_degree": -1}, r"extra_degree -1 is not in"),
        (chained_gadgets(10, 24), {"extra_degree": 1}, r"extra_degree 1 is not in 0\.\.0"),
        (build_gadget("star", 2 ** 30), {"extra_degree": 2 ** 40},
         rf"extra_degree {2 ** 40} is not in 0\.\.{2 ** 30 - 2}"),
    ], ids=["both-keys", "above-arms", "negative", "no-receiver", "virtual-above-arms"])
    def test_static_rejects_bad_extra_degree(self, gadget, spec, message):
        with pytest.raises(ValueError, match=message):
            compile_adversary(dict(spec, kind="static", tau=4), gadget,
                              rlb_schedule(16, 4))

    def test_iid_arm_count_must_fit_a_binomial(self):
        # a virtual star's receiver has delta - 2 arms, drawn as an int64 count
        sched = rlb_schedule(16, 2)
        fits = policy_for({"kind": "iid_subset", "tau": 2}, build_gadget("star", 2 ** 63 + 1),
                          sched)
        assert (fits.degrees(1, 4) >= 1).all()
        with pytest.raises(ValueError, match=r"fewer than 2\^63"):
            compile_adversary({"kind": "iid_subset", "tau": 2},
                              build_gadget("star", 2 ** 63 + 2), sched)

    @pytest.mark.parametrize("kind, gadget", [
        ("gap", star_gadget(2 ** 8 + 1, 2 ** 8 + 3)),
        ("argmin", star_gadget(2 ** 8 + 1, 2 ** 8 + 3)),
        ("chained_gap", chained_gadgets(2 ** 8 + 1, 24)),
    ], ids=["gap", "argmin", "chained-gap"])
    def test_phase_kinds_need_finite_tau(self, kind, gadget):
        with pytest.raises(ValueError, match="finite tau"):
            compile_adversary({"kind": kind, "tau": None}, gadget,
                              frlb_schedule(2 ** 8 + 1, 1))

    @pytest.mark.parametrize("kind", ["gap", "argmin", "degree_walk_deterministic",
                                      "degree_walk_restricted"])
    def test_receiver_kinds_rejected_on_chained_gadget(self, kind):
        g = chained_gadgets(2 ** 8 + 1, 24)
        spec = {"kind": kind, "tau": 1}
        if kind.startswith("degree_walk"):
            spec["l"] = 2
        with pytest.raises(ValueError, match="chained gadget has no designated receiver"):
            compile_adversary(spec, g, frlb_schedule(2 ** 8 + 1, 1))

    @pytest.mark.parametrize("kind", sorted(ADVERSARY_KEYS))
    def test_make_policy_reads_every_key_in_the_table(self, kind):
        class ReadKeys(dict):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.read = set()

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        values = {"edges": [0], "extra_degree": 1, "edge_prob": 0.5, "strict": False,
                  "shift": 1, "l": 2, "walk_mode": "random", "start_degree": 3}
        delta = 2 ** 8 + 1
        problem, gadget = "local", star_gadget(delta, delta + 2)
        if kind == "chained_gap":
            problem, gadget = "global", chained_gadgets(delta, 24)
        elif kind == "correlated_shift":
            gadget = double_star(delta)
        keys = ADVERSARY_KEYS[kind]
        # static reads edges or extra_degree, never both
        for chosen in [(key,) for key in keys] if kind == "static" else [keys]:
            spec = ReadKeys({"kind": kind, "tau": 1}, **{key: values[key] for key in chosen})
            run_trial(TrialConfig(problem=problem, gadget=gadget,
                                  schedule=frlb_schedule(delta, 1),
                                  adversary=spec, seed=1, max_rounds=50, rgb_reps=2))
            assert set(chosen) <= spec.read

    def test_static_empty_keeps_reliable_graph(self):
        g = star_gadget(8, 10)
        sched = rlb_schedule(8, 3)
        policy = policy_for({"kind": "static", "tau": 3}, g, sched)
        policy.pre_round(1)
        assert len(policy.sample_edges(1)) == 0

    def test_iid_full_probability_gives_potential_graph(self):
        g = star_gadget(8, 10)
        sched = rlb_schedule(8, 3)
        policy = policy_for({"kind": "iid_subset", "tau": 3, "edge_prob": 1.0}, g, sched)
        policy.pre_round(1)
        got = policy.sample_edges(1)
        assert len(got) == len(g.graph.unreliable_edges)

    def test_iid_binomial_mean(self):
        # receiver with 4 unreliable arms at inclusion probability 1/2
        g = star_gadget(6, 8)
        sched = rlb_schedule(6, 2)
        policy = policy_for({"kind": "iid_subset", "tau": 2, "edge_prob": 0.5}, g, sched, 23)
        degs = policy.degrees(1, 100_000)
        extra = degs - 1.0
        assert extra.mean() == pytest.approx(2.0, abs=4 * extra.std() / math.sqrt(len(extra)))

    def test_gap_policy_samples_planned_degree(self):
        delta = 2 ** 12 + 1
        g = star_gadget(delta, delta + 2)
        sched = rlb_schedule(delta, 1)
        policy = policy_for({"kind": "gap", "tau": 1}, g, sched, 2)
        policy.pre_round(1)
        edges = policy.sample_edges(1)
        plan = gap_plan([sched.cycle[0]], delta)
        assert len(edges) == plan.degree - 1

    def test_stability_bookkeeping_every_tau(self):
        g = star_gadget(64, 66)
        sched = rlb_schedule(64, 3)
        policy = policy_for({"kind": "iid_subset", "tau": 3}, g, sched, 9)
        for r in range(1, 31):
            policy.pre_round(r)
            policy.sample_edges(r)
        rounds = [r for r, _ in policy.change_log]
        assert rounds == [1, 4, 7, 10, 13, 16, 19, 22, 25, 28]

    def test_oblivious_to_node_coins(self):
        # identical adversary streams -> identical choices, regardless of
        # node randomness (which the API never exposes)
        g = star_gadget(32, 34)
        sched = rlb_schedule(32, 2)
        import random

        outs = []
        for node_seed in (1, 999):  # node seed must be irrelevant
            _ = trial_rngs(node_seed)  # node streams exist but never reach policies
            np_adv = np.random.Generator(np.random.PCG64(1234))
            py_adv = random.Random(1234)
            policy = make_policy(compile_adversary({"kind": "iid_subset", "tau": 2}, g, sched),
                                 np_adv, py_adv)
            seq = []
            for r in range(1, 13):
                policy.pre_round(r)
                seq.append(policy.sample_edges(r).tolist())
            outs.append(seq)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("spec", [
        {"kind": "static", "tau": 3, "extra_degree": 5},
        {"kind": "iid_subset", "tau": 4},
        {"kind": "iid_subset", "tau": 3, "edge_prob": 0.3},
        {"kind": "iid_subset", "tau": None},
        {"kind": "gap", "tau": 2},
        {"kind": "argmin", "tau": 2},
        {"kind": "correlated_shift"},
        {"kind": "degree_walk_deterministic", "tau": 4, "l": 3, "start_degree": 20},
        {"kind": "degree_walk_restricted", "tau": 4, "l": 2, "walk_mode": "random"},
    ], ids=["static", "iid-random-q", "iid-fixed-q", "iid-tau-inf", "gap", "argmin",
            "shift", "walk-deterministic", "walk-restricted"])
    def test_degrees_independent_of_chunking(self, spec):
        # one call and split calls over the same rounds give the same
        # degrees and the same change log
        if spec["kind"] == "gap":
            delta = 2 ** 12 + 1
            g, sched = star_gadget(delta, delta + 2), rlb_schedule(delta, 2)
        elif spec["kind"] == "correlated_shift":
            g, sched = double_star(64), decay_schedule(64)
        else:
            g, sched = star_gadget(64, 66), rlb_schedule(64, 4)

        whole = policy_for(spec, g, sched, 7)
        degs = whole.degrees(1, 200)
        split = policy_for(spec, g, sched, 7)
        parts, start = [], 1
        for count in (7, 50, 1, 64, 78):
            parts.append(split.degrees(start, count))
            start += count
        assert np.array_equal(degs, np.concatenate(parts))
        assert whole.change_log == split.change_log


def floyd_subset(np_rng, m, k):
    """Reference: Floyd's algorithm for one subset, one uniform per step."""
    if k == m:
        return set(range(m))
    chosen = set()
    for j, u in zip(range(m - k, m), np_rng.random(k)):
        t = int(u * (j + 1))
        chosen.add(j if t in chosen else t)
    return chosen


subset_specs = st.lists(
    st.one_of(
        st.integers(1, 400).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        # k close to m: t's collide for certain
        st.integers(2, 60).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(max(0, m - 3), m))),
        st.tuples(st.integers(1, 4), st.integers(0, 1)),
    ),
    min_size=1, max_size=40)


class TestUniformSubsets:
    @settings(max_examples=300, deadline=None)
    @given(subset_specs, st.integers(0, 2 ** 32))
    def test_matches_sequential_floyd(self, specs, seed):
        sizes = [m for m, _ in specs]
        picks = [k for _, k in specs]
        batched = np.random.Generator(np.random.PCG64(seed))
        sequential = np.random.Generator(np.random.PCG64(seed))
        got = uniform_subsets(batched, sizes, picks).tolist()
        assert len(got) == len(set(got)) == sum(picks)
        offset = 0
        for m, k in specs:
            mine = {p - offset for p in got if offset <= p < offset + m}
            assert mine == floyd_subset(sequential, m, k)
            offset += m
        assert batched.bit_generator.state == sequential.bit_generator.state

    def test_more_than_the_pool_raises(self):
        np_rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError, match="cannot pick 6 of 5"):
            uniform_subsets(np_rng, (3, 5), (1, 6))


class TestChainedController:
    @staticmethod
    def setup_policy(tau=1, delta=2 ** 8 + 1):
        g = chained_gadgets(delta, 24)
        sched = frlb_schedule(delta, tau)
        hist = unreached(g)
        policy = policy_for({"kind": "chained_gap", "tau": tau}, g, sched, history=hist)
        return g, sched, policy, hist

    def test_all_sections_start_at_first_plan(self):
        g, sched, policy, hist = self.setup_policy()
        policy.pre_round(1)
        assert policy.section_phase == [1] * 8
        first = gap_plan(phase_cycle_probs(sched, 1, 0), g.delta).degree
        assert policy.section_degree == [first] * 8

    def test_frontier_advances_once_per_tau(self):
        tau = 2
        g, sched, policy, hist = self.setup_policy(tau, delta=2 ** 12 + 1)
        arms0 = g.sections[0].arms
        hist.act[arms0[0]] = 4  # transmits from round 5
        for r in range(1, 20):
            policy.pre_round(r)
            if r < 5 + tau:
                assert policy.section_phase[0] == 1
        # after tau transmission rounds the frontier moved one phase
        assert policy.section_phase[0] == 1 + (19 - 5) // tau
        assert all(ph == 1 for ph in policy.section_phase[1:])
        changes = [r for r, _ in policy.change_log]
        assert all(b - a >= tau for a, b in zip(changes[1:], changes[2:]))

    def test_delivered_section_freezes(self):
        g, sched, policy, hist = self.setup_policy()
        arms0 = g.sections[0].arms
        hist.act[arms0[0]] = 0
        for r in range(1, 6):
            policy.pre_round(r)
        frozen_phase = policy.section_phase[0]
        hist.first_delivery[g.sections[0].receiver] = 5
        for r in range(6, 30):
            policy.pre_round(r)
        assert policy.section_frozen[0]
        assert policy.section_phase[0] == frozen_phase

    def test_sections_follow_their_own_phase(self):
        # frontier sections take the degree of their phase; unreached ones
        # hold the phase-1 degree
        g = chained_gadgets(2 ** 12 + 1, 24)
        sched = frlb_schedule(2 ** 12 + 1, 3)
        hist = unreached(g)
        policy = policy_for({"kind": "chained_gap", "tau": 2}, g, sched, history=hist)
        hist.act[[g.sections[0].arms[0], g.sections[1].arms[0]]] = [0, 4]
        for r in range(1, 11):
            policy.pre_round(r)
        assert policy.section_phase[:3] == [5, 3, 1]
        for phase, degree in zip(policy.section_phase, policy.section_degree):
            assert degree == gap_plan(phase_cycle_probs(sched, 2, phase - 1), g.delta).degree
        degrees = policy.section_degree
        assert degrees[:2] == [256, 16] and set(degrees[2:]) == {4096}

    def test_unreached_sections_do_not_overflow(self):
        # an unreached head holds int64 max; its start must not wrap around
        g, sched, policy, hist = self.setup_policy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in range(1, 40):
                policy.pre_round(r)
                policy.sample_edges(r)
        assert policy.section_phase == [1] * 8
        assert len(policy.change_log) == 1
