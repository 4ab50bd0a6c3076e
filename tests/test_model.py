"""Dual graph construction, round topologies, and delivery semantics."""

import pytest
from hypothesis import given, strategies as st

from dualradio.model import (COLLISION, RECEIVED, SILENCE, TRANSMITTED,
                             DualGraph, build_round_topology, deliver, graph_to_text,
                             transmit_counts)


def small_star():
    # hub 0 with one reliable arm (1) and two unreliable arms (2, 3)
    return DualGraph.from_parts(4, [(0, 1)], [(0, 2), (0, 3)])


class TestDualGraph:
    def test_unreliable_is_sorted_and_indexable(self):
        g = small_star()
        assert g.unreliable_edges == ((0, 2), (0, 3))
        assert g.unreliable_incident(0) == (0, 1)
        assert g.unreliable_incident(2) == (0,)

    def test_reliable_must_be_subset(self):
        with pytest.raises(ValueError):
            DualGraph(3, reliable_edges=[(0, 1)], potential_edges=[(1, 2)])

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            DualGraph.from_parts(3, [(1, 1)], [])

    def test_out_of_range_nodes_rejected(self):
        with pytest.raises(ValueError):
            DualGraph.from_parts(3, [(0, 5)], [])

    def test_edge_cannot_be_both(self):
        with pytest.raises(ValueError):
            DualGraph.from_parts(3, [(0, 1)], [(1, 0)])

    def test_max_degree(self):
        assert small_star().max_degree == 3


class TestRoundTopology:
    def test_empty_choice_gives_reliable_graph(self):
        g = small_star()
        topo = build_round_topology(g, [], 1)
        assert topo.active_edges == g.reliable_edges

    def test_full_choice_gives_potential_graph(self):
        g = small_star()
        topo = build_round_topology(g, g.unreliable_edges, 1)
        assert topo.active_edges == g.potential_edges

    def test_reliable_edge_as_extra_rejected(self):
        g = small_star()
        with pytest.raises(ValueError):
            build_round_topology(g, [(0, 1)], 1)

    def test_unknown_edge_rejected(self):
        g = small_star()
        with pytest.raises(ValueError):
            build_round_topology(g, [(1, 2)], 1)

    def test_round_index_must_be_positive(self):
        with pytest.raises(ValueError):
            build_round_topology(small_star(), [], 0)

    def test_reliable_always_contained(self):
        g = small_star()
        for extra in ([], [(0, 2)], [(0, 2), (0, 3)]):
            topo = build_round_topology(g, extra, 7)
            assert g.reliable_edges <= topo.active_edges


class TestDeliver:
    def test_single_neighbor_delivery(self):
        g = DualGraph.from_parts(2, [(0, 1)], [])
        out = deliver(build_round_topology(g, [], 1), {1})
        assert out.kind(0) == RECEIVED and out.sender(0) == 1
        assert out.kind(1) == TRANSMITTED

    def test_two_transmitters_collide(self):
        g = small_star()
        topo = build_round_topology(g, [(0, 2)], 1)
        out = deliver(topo, {1, 2})
        assert out.kind(0) == COLLISION

    def test_nonneighbors_stay_silent(self):
        # hub 0 with three reliable arms; only arm 1 transmits
        g = DualGraph.from_parts(4, [(0, 1), (0, 2), (0, 3)], [])
        out = deliver(build_round_topology(g, [], 1), {1})
        assert out.kind(0) == RECEIVED and out.sender(0) == 1
        assert out.kind(2) == SILENCE and out.kind(3) == SILENCE

    def test_transmitter_learns_nothing(self):
        g = DualGraph.from_parts(2, [(0, 1)], [])
        out = deliver(build_round_topology(g, [], 1), {0, 1})
        assert out.kind(0) == TRANSMITTED and out.kind(1) == TRANSMITTED

    def test_deliver_is_pure(self):
        g = small_star()
        topo = build_round_topology(g, [(0, 2)], 3)
        assert deliver(topo, {1, 2}) == deliver(topo, {1, 2})

    def test_receivers_helper(self):
        g = DualGraph.from_parts(3, [(0, 1), (1, 2)], [])
        out = deliver(build_round_topology(g, [], 1), {0})
        assert out.receivers() == {1: 0}


@st.composite
def random_graph_and_transmitters(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rel = draw(st.sets(st.sampled_from(pairs)))
    unr = draw(st.sets(st.sampled_from(pairs))) - rel
    g = DualGraph.from_parts(n, rel, unr)
    extra = draw(st.sets(st.sampled_from(sorted(unr)))) if unr else set()
    tx = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return g, extra, tx


@given(random_graph_and_transmitters())
def test_monotone_collision(case):
    """Adding a transmitting neighbor never turns a collision into a receipt."""
    g, extra, tx = case
    topo = build_round_topology(g, extra, 1)
    before = deliver(topo, tx)
    for w in range(g.node_count):
        if w in tx:
            continue
        after = deliver(topo, tx | {w})
        for u in range(g.node_count):
            if u == w or u in tx:
                continue
            if before.kind(u) == COLLISION and w in topo.neighbors(u):
                assert after.kind(u) == COLLISION


@given(random_graph_and_transmitters())
def test_counts_match_outcomes(case):
    g, extra, tx = case
    topo = build_round_topology(g, extra, 1)
    out = deliver(topo, tx)
    counts = transmit_counts(topo, tx)
    for u in range(g.node_count):
        if u in tx:
            assert out.kind(u) == TRANSMITTED
        elif counts[u] == 0:
            assert out.kind(u) == SILENCE
        elif counts[u] == 1:
            assert out.kind(u) == RECEIVED
        else:
            assert out.kind(u) == COLLISION


class TestSerialization:
    def test_deterministic_output(self):
        text = graph_to_text(small_star())
        assert text == "n 4\nE 0 1\nU 0 2\nU 0 3\n"
