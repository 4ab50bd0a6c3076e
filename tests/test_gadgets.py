"""Benchmark topology constructions."""

from collections import deque

import pytest

from dualradio.gadgets import chained_gadgets, double_star, star_gadget
from dualradio.model import graph_to_text


def bfs_distances(graph, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.reliable_neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def reliable_diameter(graph):
    best = 0
    for v in range(graph.node_count):
        dist = bfs_distances(graph, v)
        assert len(dist) == graph.node_count, "reliable graph must be connected"
        best = max(best, max(dist.values()))
    return best


class TestStarGadget:
    def test_delta4_counts(self):
        g = star_gadget(4, 6)
        recv = g.receiver
        assert len(g.graph.reliable_neighbors(recv)) == 1
        assert len(g.graph.unreliable_incident(recv)) == 2
        assert g.graph.max_degree == 4

    def test_receiver_reliable_degree_exactly_one(self):
        for delta, n in ((4, 6), (8, 12), (16, 40)):
            g = star_gadget(delta, n)
            assert len(g.graph.reliable_neighbors(g.receiver)) == 1

    def test_every_unreliable_edge_touches_receiver(self):
        g = star_gadget(8, 12)
        assert all(g.receiver in e for e in g.graph.unreliable_edges)

    def test_designated_sets(self):
        g = star_gadget(4, 6)
        assert g.broadcasters == frozenset({0, 1, 2, 3})
        assert g.receivers == frozenset({g.receiver})

    def test_declared_delta_is_measured(self):
        for delta, n in ((3, 5), (5, 9), (10, 30)):
            assert star_gadget(delta, n).graph.max_degree == delta

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            star_gadget(5, 6)


class TestDoubleStar:
    def test_counts(self):
        g = double_star(4)
        assert g.node_count == 6
        recv = g.receiver
        assert (len(g.graph.reliable_neighbors(recv))
                + len(g.graph.unreliable_incident(recv))) == 4

    def test_reliable_graph_connected(self):
        g = double_star(6)
        assert len(bfs_distances(g.graph, 0)) == g.node_count

    def test_delta_is_n_minus_two(self):
        for delta in (4, 7, 16):
            g = double_star(delta)
            assert g.delta == g.node_count - 2 == g.graph.max_degree

    def test_everyone_but_receiver_broadcasts(self):
        g = double_star(5)
        assert g.broadcasters == frozenset(range(g.node_count)) - {g.receiver}


class TestChained:
    def test_gadget_count_and_diameter(self):
        g = chained_gadgets(10, 24)
        assert len(g.sections) == 8
        assert g.node_count == 8 * 11
        assert 22 <= reliable_diameter(g.graph) <= 24

    def test_unreliable_edges_stay_inside_gadgets(self):
        g = chained_gadgets(10, 24)
        for section in g.sections:
            for idx in section.unreliable_indices:
                u, v = g.graph.unreliable_edges[idx]
                assert section.receiver in (u, v)
                other = u if v == section.receiver else v
                assert other in section.arms

    def test_source_degree(self):
        g = chained_gadgets(10, 24)
        assert len(g.graph.reliable_neighbors(0)) == 9

    def test_leftover_path_appended(self):
        g = chained_gadgets(10, 25)
        assert g.node_count == 8 * 11 + 1
        assert g.meta["leftover"] == 1
        assert 23 <= reliable_diameter(g.graph) <= 25

    def test_declared_delta_is_measured(self):
        assert chained_gadgets(12, 27).graph.max_degree == 12

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            chained_gadgets(10, 23)
        with pytest.raises(ValueError):
            chained_gadgets(9, 24)

    def test_deterministic_serialization(self):
        a = graph_to_text(chained_gadgets(10, 24).graph)
        b = graph_to_text(chained_gadgets(10, 24).graph)
        assert a == b
