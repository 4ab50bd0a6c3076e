"""Benchmark topologies: the single star, the double star, and gadget chains.

All three constructions concentrate every unreliable edge on one designated
receiver per gadget, which is what makes the worst-case adversary analyses
(and the degree-only analytic engine) possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import DualGraph, Edge


@dataclass(frozen=True)
class GadgetSection:
    """One star inside a chain: hub, relay arms, and the local receiver."""

    hub: int
    arms: tuple[int, ...]
    receiver: int
    unreliable_indices: tuple[int, ...]


@dataclass(frozen=True)
class Gadget:
    """A DualGraph with its designated broadcaster/receiver structure."""

    kind: str
    graph: DualGraph
    delta: int
    broadcasters: frozenset[int]
    receivers: frozenset[int]
    source: int | None = None
    receiver: int | None = None
    sections: tuple[GadgetSection, ...] = ()
    meta: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return self.graph.node_count


def star_gadget(delta: int, n: int) -> Gadget:
    """Star with one reliable arm at the receiver and a padding tail.

    Hub (node 0) reliably reaches arms 1..delta-1; the receiver (node delta)
    reliably reaches arm 1 only, and arms 2..delta-1 only unreliably.  The
    tail hangs off the hub, padding the node count to n and raising the
    hub's degree to exactly delta.  B is the hub plus arms, R = {receiver}.
    """
    if delta < 3:
        raise ValueError("star gadget needs delta >= 3")
    if n < delta + 2:
        raise ValueError(f"size mismatch: star with delta={delta} needs n >= {delta + 2}")
    hub = 0
    arms = tuple(range(1, delta))
    recv = delta
    rel: list[Edge] = [(hub, a) for a in arms]
    rel.append((1, recv))
    tail = list(range(delta + 1, n))
    prev = hub
    for t in tail:
        rel.append((prev, t))
        prev = t
    unr: list[Edge] = [(a, recv) for a in arms[1:]]
    graph = DualGraph.from_parts(n, rel, unr)
    assert graph.max_degree == delta
    return Gadget(
        kind="star",
        graph=graph,
        delta=delta,
        broadcasters=frozenset({hub, *arms}),
        receivers=frozenset({recv}),
        receiver=recv,
        meta={"hub": hub, "tail": tuple(tail)},
    )


def double_star(delta: int) -> Gadget:
    """Two stars sharing their arms; every node except the second center
    holds a message.

    Center u (node 0) reliably reaches arms 1..delta.  Center v (node
    delta+1) reliably reaches arm 1 and unreliably reaches arms 2..delta,
    so delta = n - 2 and the reliable graph is connected.
    """
    if delta < 4:
        raise ValueError("double star needs delta >= 4")
    u = 0
    arms = tuple(range(1, delta + 1))
    v = delta + 1
    rel: list[Edge] = [(u, a) for a in arms]
    rel.append((1, v))
    unr: list[Edge] = [(a, v) for a in arms[1:]]
    graph = DualGraph.from_parts(delta + 2, rel, unr)
    assert graph.max_degree == delta
    return Gadget(
        kind="double_star",
        graph=graph,
        delta=delta,
        broadcasters=frozenset(range(delta + 1)),
        receivers=frozenset({v}),
        receiver=v,
        meta={"hub": u},
    )


def chained_gadgets(delta: int, diameter: int) -> Gadget:
    """D/3 star gadgets linked receiver-to-hub, message sourced at hub 0.

    When the requested diameter is not divisible by 3 the chain is built at
    3*floor(D/3) and the remaining one or two nodes are appended as a path
    off the last receiver.  Every unreliable edge stays inside one gadget.
    Gadget i holds the consecutive nodes i*(delta+1), its hub, to
    i*(delta+1) + delta, its receiver.
    """
    if diameter < 24:
        raise ValueError("chained construction needs diameter >= 24")
    if delta < 10:
        raise ValueError("chained construction needs delta >= 10")
    count = diameter // 3
    leftover = diameter - 3 * count
    rel: list[Edge] = []
    unr: list[Edge] = []
    sections: list[tuple[int, tuple[int, ...], int]] = []  # (hub, arms, receiver)
    for i in range(count):
        base = i * (delta + 1)
        hub = base
        arms = tuple(range(base + 1, base + delta))
        recv = base + delta
        rel.extend((hub, a) for a in arms)
        rel.append((arms[0], recv))
        unr.extend((a, recv) for a in arms[1:])
        sections.append((hub, arms, recv))
        if i + 1 < count:
            rel.append((recv, (i + 1) * (delta + 1)))
    n = count * (delta + 1)
    prev = n - 1  # last receiver
    for _ in range(leftover):
        rel.append((prev, n))
        prev = n
        n += 1
    graph = DualGraph.from_parts(n, rel, unr)
    assert graph.max_degree == delta

    # unreliable_edges is sorted, so recover each section's dense indices
    index_of = {e: i for i, e in enumerate(graph.unreliable_edges)}
    built_sections = [
        GadgetSection(hub, arms, recv,
                      tuple(sorted(index_of[(min(a, recv), max(a, recv))] for a in arms[1:])))
        for hub, arms, recv in sections]

    return Gadget(
        kind="chained",
        graph=graph,
        delta=delta,
        broadcasters=frozenset({0}),
        receivers=frozenset(s.receiver for s in built_sections),
        source=0,
        sections=tuple(built_sections),
        meta={"diameter": diameter, "gadget_count": count, "leftover": leftover},
    )


_VIRTUAL_THRESHOLD = 2 ** 24


def virtual_star(delta: int) -> Gadget:
    """Star spec for the analytic engine at degree bounds too large to
    materialize (delta given as a log2 value); only the designated-receiver
    structure exists, and the receiver's potential degree is delta - 1."""
    if delta < 3:
        raise ValueError("star needs delta >= 3")
    graph = DualGraph.from_parts(2, [(0, 1)], [])
    return Gadget(
        kind="star",
        graph=graph,
        delta=delta,
        broadcasters=frozenset({0}),
        receivers=frozenset({1}),
        receiver=1,
        meta={"virtual": True},
    )


def build_gadget(kind: str, delta: int, n: int | None = None,
                 diameter: int | None = None) -> Gadget:
    if kind == "star":
        if delta >= _VIRTUAL_THRESHOLD:
            return virtual_star(delta)
        return star_gadget(delta, n if n is not None else delta + 2)
    if kind == "double_star":
        return double_star(delta)
    if kind == "chained":
        if diameter is None:
            raise ValueError("chained gadget needs a diameter")
        return chained_gadgets(delta, diameter)
    raise ValueError(f"unknown gadget kind {kind!r}")
