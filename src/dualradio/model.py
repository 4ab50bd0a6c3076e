"""Dual-graph radio topologies and the round-level delivery semantics.

A network is described by two graphs on the same nodes: a reliable edge set E
that is present in every round, and a potential edge set E' >= E whose extra
edges (E' \\ E) an adversary may activate round by round.  Delivery follows the
collision rule of synchronous radio networks: a listening node receives a
message iff exactly one of its active-topology neighbors transmits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

Edge = tuple[int, int]

TRANSMITTED = "transmitted"
RECEIVED = "received"
SILENCE = "silence"
COLLISION = "collision"


def normalize_edge(u: int, v: int) -> Edge:
    """Canonical unordered edge as (min, max); self-loops rejected."""
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


class DualGraph:
    """Reliable edges E inside potential edges E', with node ids 0..n-1.

    Adjacency is precomputed as sorted lists, and the unreliable portion
    E' \\ E is kept in a sorted tuple so adversaries can address unreliable
    edges by dense index.  Instances are immutable after construction and
    safe to share across concurrently running trials.
    """

    def __init__(self, node_count: int,
                 reliable_edges: Iterable[Edge],
                 potential_edges: Iterable[Edge]):
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        self.node_count = node_count
        rel = frozenset(normalize_edge(u, v) for u, v in reliable_edges)
        pot = frozenset(normalize_edge(u, v) for u, v in potential_edges)
        if not rel <= pot:
            raise ValueError("reliable edges must be a subset of potential edges")
        for u, v in pot:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) out of node range 0..{node_count - 1}")
        self.reliable_edges = rel
        self.potential_edges = pot
        self.unreliable_edges: tuple[Edge, ...] = tuple(sorted(pot - rel))

        adj_rel: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in rel:
            adj_rel[u].append(v)
            adj_rel[v].append(u)
        self._adj_rel = tuple(tuple(sorted(a)) for a in adj_rel)

        incident: list[list[int]] = [[] for _ in range(node_count)]
        for idx, (u, v) in enumerate(self.unreliable_edges):
            incident[u].append(idx)
            incident[v].append(idx)
        self._unreliable_incident = tuple(tuple(a) for a in incident)

        self.max_degree = max(Counter(v for e in pot for v in e).values(), default=0)

    @classmethod
    def from_parts(cls, node_count: int,
                   reliable_edges: Iterable[Edge],
                   unreliable_edges: Iterable[Edge]) -> "DualGraph":
        rel = [normalize_edge(u, v) for u, v in reliable_edges]
        unr = [normalize_edge(u, v) for u, v in unreliable_edges]
        overlap = set(rel) & set(unr)
        if overlap:
            raise ValueError(f"edges declared both reliable and unreliable: {sorted(overlap)}")
        return cls(node_count, rel, list(rel) + unr)

    def reliable_neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj_rel[v]

    def unreliable_incident(self, v: int) -> tuple[int, ...]:
        """Dense indices into unreliable_edges of the edges touching v."""
        return self._unreliable_incident[v]

    def __eq__(self, other):
        return (isinstance(other, DualGraph)
                and self.node_count == other.node_count
                and self.reliable_edges == other.reliable_edges
                and self.potential_edges == other.potential_edges)

    def __hash__(self):
        return hash((self.node_count, self.reliable_edges, self.potential_edges))

    def __repr__(self):
        return (f"DualGraph(n={self.node_count}, |E|={len(self.reliable_edges)}, "
                f"|E'\\E|={len(self.unreliable_edges)}, max_degree={self.max_degree})")


@dataclass(frozen=True)
class RoundTopology:
    """The edge set actually active in one round: E plus an adversary choice."""

    graph: DualGraph
    round_index: int
    active_edges: frozenset[Edge]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        cached = self.__dict__.get("_adj_cache")
        if cached is None:
            adj: list[list[int]] = [[] for _ in range(self.graph.node_count)]
            for u, v in self.active_edges:
                adj[u].append(v)
                adj[v].append(u)
            cached = tuple(tuple(sorted(a)) for a in adj)
            object.__setattr__(self, "_adj_cache", cached)
        return cached


def build_round_topology(graph: DualGraph, extra_edges: Iterable[Edge],
                         round_index: int) -> RoundTopology:
    """Activate E plus a subset of E' \\ E for one round.

    Rejects extra edges outside E' \\ E (in particular, naming a reliable
    edge as "extra" is an error) and round indices < 1.
    """
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    extras = frozenset(normalize_edge(u, v) for u, v in extra_edges)
    allowed = graph.potential_edges - graph.reliable_edges
    bad = extras - allowed
    if bad:
        raise ValueError(f"edges not in E'\\E: {sorted(bad)}")
    return RoundTopology(graph, round_index, graph.reliable_edges | extras)


@dataclass(frozen=True)
class DeliveryOutcome:
    """Per-node result of one round: transmitted / received(v) / silence / collision.

    Silence and collision are both "received nothing" to the node itself;
    they are distinguished here only for harness bookkeeping (no collision
    detection is exposed to algorithms).
    """

    kinds: tuple[str, ...]
    senders: tuple[int | None, ...]

    def kind(self, v: int) -> str:
        return self.kinds[v]

    def sender(self, v: int) -> int | None:
        return self.senders[v]

    def receivers(self) -> dict[int, int]:
        """Nodes that received this round, mapped to the sender they heard."""
        return {v: s for v, (k, s) in enumerate(zip(self.kinds, self.senders))
                if k == RECEIVED and s is not None}


def deliver(topology: RoundTopology, transmitters: Iterable[int]) -> DeliveryOutcome:
    """Apply the radio collision rule to one round.

    Pure function: a non-transmitting node receives from v iff v is its
    unique transmitting neighbor in the active topology; two or more
    transmitting neighbors collide; zero is silence.  Transmitters learn
    nothing (half-duplex), so they are marked "transmitted" regardless of
    their neighborhood.
    """
    tx = set(transmitters)
    n = topology.graph.node_count
    for v in tx:
        if not (0 <= v < n):
            raise ValueError(f"transmitter {v} out of range")
    kinds: list[str] = []
    senders: list[int | None] = []
    for u in range(n):
        if u in tx:
            kinds.append(TRANSMITTED)
            senders.append(None)
            continue
        heard = [w for w in topology.neighbors(u) if w in tx]
        if len(heard) == 1:
            kinds.append(RECEIVED)
            senders.append(heard[0])
        elif heard:
            kinds.append(COLLISION)
            senders.append(None)
        else:
            kinds.append(SILENCE)
            senders.append(None)
    return DeliveryOutcome(tuple(kinds), tuple(senders))


def graph_to_text(graph: DualGraph) -> str:
    """Line-oriented serialization: header `n <count>`, then E/U edge lines."""
    lines = [f"n {graph.node_count}"]
    for u, v in sorted(graph.reliable_edges):
        lines.append(f"E {u} {v}")
    for u, v in graph.unreliable_edges:
        lines.append(f"U {u} {v}")
    return "\n".join(lines) + "\n"


def transmit_counts(topology: RoundTopology, transmitters: Iterable[int]) -> list[int]:
    """Number of transmitting active-topology neighbors per node (test helper)."""
    tx = set(transmitters)
    return [sum(1 for w in topology.neighbors(u) if w in tx)
            for u in range(topology.graph.node_count)]
