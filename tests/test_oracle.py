"""Probability oracles, validated against independent enumeration.

The enumeration oracle below is the reference for every frozen value: it
walks all transmit patterns with plain Python floats and never touches the
closed-form or log-domain paths it is used to check.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dualradio.model import DualGraph, build_round_topology
from dualradio.oracle import (brute_force_delivery_prob, exact_success_logprob,
                              exact_success_prob, interval_min_bound, log1mexp,
                              phase_success_sum, prosing_bound,
                              success_peak_degree, weierstrass_bounds)

TWO_E = 2.0 * math.e


def enum_success(d: int, p: float, receiver_has_message: bool) -> float:
    """Reference oracle: enumerate every transmit pattern of d neighbors
    (and the receiver's own coin when it holds a message)."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=d):
        if sum(bits) != 1:
            continue
        w = 1.0
        for b in bits:
            w *= p if b else (1.0 - p)
        total += w
    if receiver_has_message:
        total *= (1.0 - p)
    return total


class TestExactSuccess:
    def test_lone_neighbor_certain(self):
        assert exact_success_prob(1, 1.0, False) == 1.0

    def test_two_neighbors_half(self):
        assert exact_success_prob(2, 0.5, False) == pytest.approx(0.5, abs=1e-15)

    def test_four_neighbors_quarter(self):
        expected = enum_success(4, 0.25, False)
        assert expected == pytest.approx(0.421875, abs=1e-15)
        assert exact_success_prob(4, 0.25, False) == pytest.approx(expected, abs=1e-13)

    def test_matches_enumeration_on_grid(self):
        for d in range(1, 13):
            for k in range(1, 16):
                p = k / 16.0
                for flag in (False, True):
                    assert exact_success_prob(d, p, flag) == pytest.approx(
                        enum_success(d, p, flag), abs=1e-12)

    def test_degree_zero_and_p_zero(self):
        assert exact_success_prob(0, 0.5) == 0.0
        assert exact_success_prob(5, 0.0) == 0.0

    def test_p_one_edge_cases(self):
        assert exact_success_prob(1, 1.0, False) == 1.0
        assert exact_success_prob(2, 1.0, False) == 0.0
        assert exact_success_prob(1, 1.0, True) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exact_success_prob(3, 1.5)
        with pytest.raises(ValueError):
            exact_success_prob(-1, 0.5)

    def test_log_path_matches_direct_path(self):
        # wherever the direct path does not underflow, agreement to 1e-9
        for d in (1, 2, 7, 50, 400, 2000, 65536):
            for k in range(1, 21):
                p = 2.0 ** -k
                direct = d * p * (1.0 - p) ** (d - 1)
                if direct < 1e-290:
                    continue
                via_log = math.exp(exact_success_logprob(d, math.log(p)))
                assert via_log == pytest.approx(direct, rel=1e-9)

    def test_extreme_scale_against_mpmath(self):
        # reference: ln(d) + ln(p) + (d-1)*log1p(-p) at 60 decimal digits
        import mpmath as mp

        mp.mp.dps = 60
        cases = ((4000, -2775.0), (4000, -2770.0), (120, -100.0),
                 (1000, -650.0), (9000, -6240.0))
        for d_log2, lp in cases:
            d = 2 ** d_log2
            got = exact_success_logprob(d, lp)
            expected = (mp.log(mp.mpf(d)) + lp
                        + (mp.mpf(d) - 1) * mp.log1p(-mp.e ** lp))
            assert got == pytest.approx(float(expected), rel=1e-9, abs=1e-6)

    def test_huge_alpha_gives_zero(self):
        # d*p astronomically large: collisions certain, log-prob is -inf
        assert exact_success_logprob(2 ** 4885, math.log(0.5)) == -math.inf
        assert exact_success_logprob(2 ** 9000, -5000.0) == -math.inf


class TestProsingBound:
    def test_alpha_one(self):
        got = prosing_bound(2, 0.5)
        assert got == pytest.approx(1.0 / TWO_E, rel=1e-12)
        assert exact_success_prob(2, 0.5, True) == pytest.approx(0.25, abs=1e-15)
        assert got <= 0.25

    def test_half_alpha(self):
        got = prosing_bound(1, 0.5)
        assert got == pytest.approx(0.5 / TWO_E ** 0.5, rel=1e-12)
        assert got <= exact_success_prob(1, 0.5, True)

    def test_lower_bounds_exact_on_grid(self):
        for d in (1, 2, 3, 5, 17, 100, 999, 2000):
            for k in range(1, 21):
                p = 2.0 ** -k
                assert prosing_bound(d, p) <= exact_success_prob(d, p, True) + 1e-15

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            prosing_bound(4, 0.6)


class TestIntervalMinBound:
    def test_degenerate_interval(self):
        for p in (0.1, 0.5, 0.9):
            assert interval_min_bound(1, 1, p) == exact_success_prob(1, p)

    def test_example_two_eight(self):
        lo = interval_min_bound(2, 8, 0.25)
        assert lo == pytest.approx(0.2669677734375, abs=1e-14)
        for d in range(2, 9):
            assert exact_success_prob(d, 0.25) >= lo - 1e-15

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            interval_min_bound(5, 2, 0.1)

    def test_unimodality(self):
        # success over degree rises then falls (ties allowed), peak near (1-p)/p
        for p in (0.5, 0.25, 0.1, 0.03, 0.007):
            vals = [exact_success_prob(d, p) for d in range(1, 2048)]
            sign_changes = 0
            prev = 1
            for a, b in zip(vals, vals[1:]):
                cur = 1 if b > a else (-1 if b < a else prev)
                if cur != prev:
                    sign_changes += 1
                prev = cur
            assert sign_changes <= 1
            peak_d = max(range(len(vals)), key=lambda i: vals[i]) + 1
            assert abs(peak_d - success_peak_degree(p)) <= 1.5

    def test_random_intervals_lower_bound_interiors(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            d1 = rng.randint(1, 255)
            d2 = rng.randint(d1, 256)
            p = rng.uniform(0.001, 0.9)
            lo = interval_min_bound(d1, d2, p)
            for d in range(d1, d2 + 1):
                assert exact_success_prob(d, p) >= lo - 1e-12


class TestWeierstrass:
    def test_two_halves(self):
        assert weierstrass_bounds([0.5, 0.5]) == (0.0, 0.25)

    def test_empty_product(self):
        assert weierstrass_bounds([]) == (1.0, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weierstrass_bounds([0.5, 1.2])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10))
    def test_sandwich(self, xs):
        lo, hi = weierstrass_bounds(xs)
        prod = 1.0
        for x in xs:
            prod *= 1.0 - x
        assert lo <= prod + 1e-12
        assert prod <= hi + 1e-12


class TestPhaseSuccessSum:
    def test_single_prob_equals_exact(self):
        assert phase_success_sum([0.25], 4) == exact_success_prob(4, 0.25)

    def test_monotone_in_steps(self):
        probs = [0.5, 0.25, 0.125]
        partial = phase_success_sum(probs[:2], 10)
        assert phase_success_sum(probs, 10) >= partial

    def test_gap_example_bound(self):
        # degree 8192 placed against the single estimate 2^-8 at delta-1 = 2^16
        dot = 2 ** 16
        s = phase_success_sum([2.0 ** -8], 8192)
        assert s <= 32.0 * math.log(dot) / (dot ** 1.0 * 1)


class TestBruteForce:
    @staticmethod
    def star(arms: int) -> DualGraph:
        return DualGraph.from_parts(arms + 1, [(0, a) for a in range(1, arms + 1)], [])

    def test_four_arm_star(self):
        g = self.star(4)
        topo = build_round_topology(g, [], 1)
        probs = {a: 0.25 for a in range(1, 5)}
        got = brute_force_delivery_prob(g, topo, probs, 0)
        assert got == pytest.approx(0.421875, abs=1e-13)

    def test_hub_transmitting_too(self):
        g = self.star(4)
        topo = build_round_topology(g, [], 1)
        probs = {a: 0.25 for a in range(5)}
        got = brute_force_delivery_prob(g, topo, probs, 0)
        assert got == pytest.approx(0.31640625, abs=1e-13)

    def test_zero_transmitters(self):
        g = self.star(3)
        topo = build_round_topology(g, [], 1)
        assert brute_force_delivery_prob(g, topo, {}, 0) == 0.0

    def test_cost_guard(self):
        g = self.star(21)
        topo = build_round_topology(g, [], 1)
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_delivery_prob(g, topo, {a: 0.5 for a in range(1, 22)}, 0)

    def test_nonneighbor_transmitters_ignored(self):
        # two disjoint components: transmitters far from the target are noise
        g = DualGraph.from_parts(4, [(0, 1), (2, 3)], [])
        topo = build_round_topology(g, [], 1)
        got = brute_force_delivery_prob(g, topo, {1: 0.5, 3: 0.75}, 0)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_respects_round_topology(self):
        g = DualGraph.from_parts(3, [(0, 1)], [(0, 2)])
        bare = build_round_topology(g, [], 1)
        full = build_round_topology(g, [(0, 2)], 1)
        probs = {1: 0.5, 2: 0.5}
        assert brute_force_delivery_prob(g, bare, probs, 0) == pytest.approx(0.5)
        assert brute_force_delivery_prob(g, full, probs, 0) == pytest.approx(0.5, abs=1e-13)
        # with the unreliable edge active, two coins must not collide
        assert brute_force_delivery_prob(g, full, probs, 0) == pytest.approx(
            2 * 0.5 * 0.5, abs=1e-13)


class TestLogHelpers:
    def test_log1mexp_values(self):
        assert log1mexp(-math.inf) == 0.0
        assert log1mexp(0.0) == -math.inf
        assert log1mexp(-1.0) == pytest.approx(math.log(1 - math.exp(-1)), rel=1e-14)

    def test_log1mexp_rejects_positive(self):
        with pytest.raises(ValueError):
            log1mexp(0.5)

    def test_exact_fraction_cross_check(self):
        # rational arithmetic agrees with the float oracle on small cases
        for d in (1, 2, 5, 9):
            for num in (1, 3, 7):
                p = Fraction(num, 16)
                expected = d * p * (1 - p) ** (d - 1)
                got = exact_success_prob(d, float(p))
                assert got == pytest.approx(float(expected), rel=1e-12)
