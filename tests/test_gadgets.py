"""Benchmark topology constructions."""

import hashlib
from collections import deque

import pytest

from dualradio.gadgets import build_gadget, chained_gadgets, double_star, star_gadget
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
        assert g.broadcasters == range(4)
        assert g.receivers == frozenset({g.receiver})

    def test_declared_delta_is_measured(self):
        for delta, n in ((3, 5), (5, 9), (10, 30)):
            assert star_gadget(delta, n).graph.max_degree == delta

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            star_gadget(5, 6)
        # at every delta, however large
        with pytest.raises(ValueError, match="size mismatch"):
            build_gadget("star", 2 ** 30, n=5)


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
        assert g.broadcasters == range(g.node_count - 1) and g.receiver == g.node_count - 1


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
        assert g.source == 0 and g.broadcasters == range(1)
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


# SHA-256 of `graph_to_text` for each (kind, *values), as `dualradio gadget`
# printed them when each gadget was built as Python edge sets
TEXT_SHA256 = {
    ("star", 4, 6): "d357fad508d409af14c377346a99225ff47ec599d9d04ed55735b1380d24a718",
    ("star", 16, 40): "208ae3e00262259d759801ce2de047f79192d42b0b1a39de542941326076b566",
    ("double_star", 6): "cc26d2d759024edc1d292c1999e7e285c8e9503857bd060a740dd30a448e9966",
    ("chained", 10, 24): "a4a215720583ea1dd724e2819445d47ad26385050fb731730136813b02caaa71",
    ("chained", 12, 26): "339107ab93e8a81eeb1ec764eb99805e5a6c371f02287d239188e6ec2df074c5",
}
BUILD = {"star": star_gadget, "double_star": double_star, "chained": chained_gadgets}


class TestShape:
    @pytest.mark.parametrize("key", sorted(TEXT_SHA256), ids=str)
    def test_text_is_pinned(self, key):
        text = graph_to_text(BUILD[key[0]](*key[1:]).graph)
        assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[key]

    @pytest.mark.parametrize("key", sorted(TEXT_SHA256) + [("star", 257, 259),
                                                        ("double_star", 257),
                                                        ("chained", 257, 25)], ids=str)
    def test_closed_forms_match_graph(self, key):
        g = BUILD[key[0]](*key[1:])
        graph = g.graph
        assert g.node_count == graph.node_count
        assert g.unreliable_count == len(graph.unreliable_edges)
        assert g.graph.max_degree == g.delta
        if g.receiver is not None:
            # the receiver's arms are the unreliable edges 0..arms-1, here all of them
            assert graph.unreliable_incident(g.receiver) == tuple(range(g.arms))
            assert g.arms == g.unreliable_count
        else:
            assert g.arms == 0
        for s, section in enumerate(g.sections):
            m = g.delta - 2
            assert section.unreliable_indices == range(s * m, (s + 1) * m)
            assert graph.unreliable_incident(section.receiver) == tuple(section.unreliable_indices)
            assert [graph.unreliable_edges[i] for i in section.unreliable_indices] == \
                [(a, section.receiver) for a in section.arms[1:]]
        rel, unr = g.edges
        assert [tuple(e) for e in rel.tolist()] == sorted(graph.reliable_edges)
        assert [tuple(e) for e in unr.tolist()] == list(graph.unreliable_edges)

    @pytest.mark.parametrize("kind, delta, arms", [("star", 2 ** 4885, 2 ** 4885 - 2),
                                                   ("double_star", 2 ** 70, 2 ** 70 - 1)])
    def test_huge_shapes_in_closed_form(self, kind, delta, arms):
        g = build_gadget(kind, delta)
        assert g.arms == g.unreliable_count == arms
        assert g.receiver not in g.broadcasters and g.receiver - 1 in g.broadcasters
        assert g.node_count == delta + 2
