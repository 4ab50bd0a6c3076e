"""Benchmark topologies: the single star, the double star, and gadget chains.

All three constructions concentrate every unreliable edge on one designated
receiver per gadget, which is what makes the worst-case adversary analyses
(and the degree-only analytic engine) possible.  So a gadget is described by
its shape alone: delta, the node count and a few indices, all in closed
form.  Its edges are built only when first asked for, as sorted int64
arrays (`Gadget.edges`, which the materialized engine reads) and as the
reference model's `DualGraph` (`Gadget.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .model import DualGraph

# the materialized engine simulates no gadget at this delta or above, so
# nothing builds the edges of one
EDGE_LIMIT = 2 ** 24


class GadgetSection(NamedTuple):
    """One star inside a chain: hub, relay arms, the local receiver, and the
    indices of its unreliable edges, those from arms[1:] to the receiver."""

    hub: int
    arms: range
    receiver: int
    unreliable_indices: range


@dataclass(frozen=True)
class Gadget:
    """A dual graph by its shape, with its designated broadcaster/receiver
    structure.

    A gadget with a designated receiver has `arms` unreliable arms at it, and
    they are its unreliable edges 0..arms-1; `unreliable_count` counts every
    unreliable edge.  A chain's section s holds the unreliable edges
    s(delta-2)..(s+1)(delta-2)-1.
    """

    kind: str
    delta: int
    node_count: int
    broadcasters: range
    receivers: frozenset[int]
    source: int | None = None
    receiver: int | None = None
    arms: int = 0
    unreliable_count: int = 0
    sections: tuple[GadgetSection, ...] = ()
    meta: dict = field(default_factory=dict)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(reliable, unreliable) edges, each an (m, 2) int64 array of pairs
        (u, v), u < v, in sorted order.  Every gadget is a run of stars: hub
        h reliably reaches its arms h+1..h+a, and the receiver h+a+1 reaches
        arm h+1 reliably and the others unreliably; a reliable path adds the
        rest (a star's tail off its hub, a chain's links and leftover)."""
        d, n = self.delta, self.node_count
        if self.kind == "chained":
            hubs, a = np.array([s.hub for s in self.sections], dtype=np.int64), d - 1
            # receiver to next hub, then the leftover path off the last receiver
            tails = np.concatenate((hubs[1:] - 1, np.arange(hubs[-1] + d, n - 1)))
            path = (tails, tails + 1)
        else:
            hubs = np.zeros(1, dtype=np.int64)
            a = d - 1 if self.kind == "star" else d
            tail = np.arange(a + 2, n)  # a double star has none
            path = (np.concatenate(([0], tail))[:-1], tail)
        arm = (hubs[:, None] + np.arange(1, a + 1)).ravel()
        hub = np.repeat(hubs, a)
        recv = np.repeat(hubs + a + 1, a)
        first = arm == hub + 1
        reliable = _sorted(np.concatenate((hub, arm[first], path[0])),
                           np.concatenate((arm, recv[first], path[1])))
        return reliable, _sorted(arm[~first], recv[~first])

    @cached_property
    def graph(self) -> DualGraph:
        """The reference model's graph of these edges."""
        from .model import DualGraph

        reliable, unreliable = self.edges
        return DualGraph.from_parts(self.node_count, reliable.tolist(), unreliable.tolist())


def _sorted(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairs (u[i], v[i]) as an (m, 2) int64 array in sorted order."""
    order = np.lexsort((v, u))
    return np.stack((u[order], v[order]), axis=1).astype(np.int64)


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
    return Gadget(kind="star", delta=delta, node_count=n, broadcasters=range(delta),
                  receivers=frozenset({delta}), receiver=delta, arms=delta - 2,
                  unreliable_count=delta - 2)


def double_star(delta: int) -> Gadget:
    """Two stars sharing their arms; every node except the second center
    holds a message.

    Center u (node 0) reliably reaches arms 1..delta.  Center v (node
    delta+1) reliably reaches arm 1 and unreliably reaches arms 2..delta,
    so delta = n - 2 and the reliable graph is connected.
    """
    if delta < 4:
        raise ValueError("double star needs delta >= 4")
    v = delta + 1
    return Gadget(kind="double_star", delta=delta, node_count=delta + 2,
                  broadcasters=range(delta + 1), receivers=frozenset({v}), receiver=v,
                  arms=delta - 1, unreliable_count=delta - 1)


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
    m = delta - 2  # unreliable arms per section
    sections = tuple(
        GadgetSection(hub, range(hub + 1, hub + delta), hub + delta, range(i * m, (i + 1) * m))
        for i, hub in enumerate(range(0, count * (delta + 1), delta + 1)))
    return Gadget(
        kind="chained",
        delta=delta,
        node_count=count * (delta + 1) + leftover,
        broadcasters=range(1),
        receivers=frozenset(s.receiver for s in sections),
        source=0,
        unreliable_count=count * m,
        sections=sections,
        meta={"diameter": diameter, "gadget_count": count, "leftover": leftover},
    )


def build_gadget(kind: str, delta: int, n: int | None = None,
                 diameter: int | None = None) -> Gadget:
    if kind == "star":
        return star_gadget(delta, n if n is not None else delta + 2)
    if kind == "double_star":
        return double_star(delta)
    if kind == "chained":
        if diameter is None:
            raise ValueError("chained gadget needs a diameter")
        return chained_gadgets(delta, diameter)
    raise ValueError(f"unknown gadget kind {kind!r}")
