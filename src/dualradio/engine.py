"""Trial execution: round loops tying schedules, adversaries, and delivery.

Two engines share one contract.  The materialized engine simulates every
node and edge of the dual graph in one round loop for both problems: local
and global broadcast differ only in who starts transmitting, for how long,
who must be reached, and whether a reached node relays.  It counts
collisions from a neighbor table in CSR form, built once per point over
the reliable edges and the unreliable edges the point's adversary can
activate (its plan's reach): each node's slice lists those neighbors with
the unreliable edge each goes through, in node order.  Only waiting nodes
can receive, so it counts only at them.  Each node's count of waiting
neighbors in that table is built once per point and lowered by the
delivered nodes' slices at each delivery.  The relevant transmitters are
those that wait themselves or have a waiting neighbor through an edge the
adversary can activate or a reliable edge: the others cannot change a
delivery.  The front, the sorted nodes that have an activation round and
wait or have a waiting neighbor, holds every relevant transmitter; it is
built once per point and changes only at a delivery, which adds the
reached relays and drops the nodes left with neither.  The transmitter
window, the nodes that transmit now, changes only at a window event (some
node starts or exhausts its budget), which is found by bisection in the
sorted distinct activation rounds, as is the end of the trial (no event
left).  Only the span, the window's nodes from its first to its last node
in the front, draws coins and is counted: a rebuild reads the front and
the span, never every node.  The span's frontier, the table entries from
the span to waiting nodes in CSR form, is rebuilt once at the top of a
round with a window event or after a delivery.  A round gathers the
transmitters' frontier slices with a fixed number of numpy calls, however
many transmit, and its counts are one `bincount` over them, keeping an
unreliable entry only when the adversary activated that edge this round
(a frontier without one skips that test).
The analytic engine exploits the star gadgets' structure and tracks only
the designated receiver's effective degree, sampling its per-round success
from the closed-form probability (in log space, so degree bounds given as
log2 values keep working).  A trial steps its first 16 rounds one at a
time, with one degree (`AdversaryPolicy.degrees(r, 1)`) and one success
test in Python floats each, since most short trials end within them;
their 16 uniforms are drawn in one call, the same doubles as one call per
round, and their logs taken in one `np.log` call.  Only a trial that
outlives them draws degree chunks, 16 rounds and then 4x more each up to
4096.  Every stream is consumed in round order and a round alone makes the
float64 operations of its lane of a chunk (`np.log`, never `math.log`,
which may differ in the last bit), so where chunks begin does not change a
result.

Randomness: each trial t uses seed s = `config.seed + t`.  Inside a
trial, streams are seeded by SHA-256 over f"{s}:{label}", with disjoint
labels for node coins ("nodes"), adversary draws ("adversary") and the
adversary's per-block q ("adversary:q"), so adversary outputs cannot
depend on node coins even accidentally.  A point's adversary is
compiled once, when its `TrialConfig` is built (`compile_adversary`,
which makes every config check); each trial's `make_policy` builds its
policy from that plan and binds it to the trial's adversary streams.
All three streams are PCG64 generators whose four 64-bit seed words (the
initial state and increment) are that 32-byte digest read as
little-endian words (RNG layout 4); `stream_seeds` derives them for a
range of trials in one batch, and a lone trial for its own.
`run_trials` builds once per point what each of its trials starts from
(`point_start`) and hands it to every `run_trial`: the trials' seed words,
derived a block of trials at a time, and the engine's start state: on the
analytic engine the receiver, whether it broadcasts, the cycle length and
the cycle's ln p and ln(1 - p) values as floats, on the materialized
engine the node state before round 1, its front and round 1's frontier.
Trials only read it, and copy the arrays they change.  A lone
`run_trial` builds its own.  `run_trials` runs a point's trials in
seed order, hands each result to its caller's hook as it finishes and
keeps only a count of trials per completion round, so a point's memory
grows with its distinct completion rounds, not with its trial count.
The materialized node stream (RNG layout 2) is drawn per counted span,
not per coin: only the span's m candidates can change a delivery, each
transmitting with the round's p.  When those m coins show a transmitter
with probability 1/2 or more, the round's m doubles are drawn directly.
Otherwise one double draws the first round in which a coin shows, by
inverting the survival prod (1 - p_t)^m (geometric skipping), and that
round's coins are drawn conditioned on one showing: m doubles again and
again until one shows when that is likely, or else one double for the
transmitter count K (a zero-truncated binomial, by inversion) and K for a
uniform K-subset (`adversary.uniform_subset`).  The rounds before it
draw nothing.  This is the law of one independent coin per candidate per
round; a new frontier (a window event or a delivery) drops a drawn round
and draws again from the new span.
The adversary's edge draws are narrowed without changing its stream: each
round the policy is given the counted transmitters, and `chained_gap`
draws only the uniforms of a run of sections that holds every edge at one
of them, and skips the others' by advancing the adversary stream (see
`adversary.AdversaryPolicy.sample_edges`).  Its bookkeeping is asked for
only at events: `pre_round` in round 1, in the round it named last and in
the round after a delivery; idle stretches stop at that round.
Each node's first delivery round is kept in an int64 array, _NEVER while
unreached, as `act` is; the result's `first_delivery` reads it as a
node -> round mapping (`FirstDelivery`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .adversary import (_NEVER, AdversaryPlan, ObservableHistory, compile_adversary,
                        make_policy, uniform_subset)
from .gadgets import EDGE_LIMIT, Gadget
from .oracle import LN2, exact_success_logprob
from .schedules import Schedule, ceil_log2, log2e_of

# an analytic trial steps its first _STEPPED rounds one at a time, with one
# degree each and their uniforms drawn in one call, which most trials do not
# outlive; the rest then draw degree chunks, the first of _FIRST_CHUNK
# rounds, each next one 4x more up to _CHUNK
_STEPPED = 16
_FIRST_CHUNK = 16
_CHUNK = 4096


# a trial's node, adversary and adversary q stream labels
_STREAM_LABELS = ("nodes", "adversary", "adversary:q")
# each label as it follows the seed in a digested text
_LABEL_SUFFIXES = tuple(f":{label}".encode() for label in _STREAM_LABELS)


def stream_seeds(first_seed: int, count: int) -> np.ndarray:
    """The PCG64 seed words of the trials seeded first_seed, ...,
    first_seed + count - 1, shape (count, 3, 4): `[t, i]` holds trial t's
    stream i of `_STREAM_LABELS`, the SHA-256 digest of
    f"{first_seed + t}:{label}" read as four little-endian 64-bit words, in
    native byte order (PCG64 reads the words' memory)."""
    sha = hashlib.sha256
    # a seed's decimal digits are formatted once for its three streams
    digests = b"".join(sha(seed + suffix).digest()
                       for seed in map(b"%d".__mod__, range(first_seed, first_seed + count))
                       for suffix in _LABEL_SUFFIXES)
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64).reshape(count, 3, 4)


class _SeedWords(ISeedSequence):
    """Seeds a PCG64 with four given 64-bit words, its initial state and
    increment, in place of the SeedSequence that PCG64(seed) would build."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds 4 uint64 PCG64 seed words, asked for {n_words} {dtype}")
        return self.words


# a point derives its trials' stream seeds this many trials at a time
_SEED_BLOCK = 1024


class _PointSeeds:
    """The stream seeds of a point's trials 0..count-1, whose first seed
    is `first_seed`: `seeds[t]` is `stream_seeds(first_seed + t, 1)[0]`.
    They are derived `_SEED_BLOCK` trials at a time, as trials ask for
    them, and only the block asked for last is kept, so a point holds the
    same whatever its trial count."""

    __slots__ = ("first_seed", "count", "lo", "words")

    def __init__(self, first_seed: int, count: int):
        self.first_seed, self.count = first_seed, count
        self.lo, self.words = 0, stream_seeds(first_seed, min(count, _SEED_BLOCK))

    def __getitem__(self, trial: int) -> np.ndarray:
        if not 0 <= trial < self.count:
            raise IndexError(f"trial {trial} outside the point's {self.count}")
        lo = trial - trial % _SEED_BLOCK
        if lo != self.lo:
            self.words = None  # the old block goes before the next is derived
            self.lo, self.words = lo, stream_seeds(self.first_seed + lo,
                                                   min(self.count - lo, _SEED_BLOCK))
        return self.words[trial - lo]


def trial_rngs(seed: int, trial: int = 0, seeds: _PointSeeds | None = None):
    """(node-coin, adversary, adversary q) generators of trial `trial` of a
    point whose first seed is `seed`.  `seeds` is the point's
    `_PointSeeds`; a lone call derives its own, which gives the same
    generators."""
    words = stream_seeds(seed + trial, 1)[0] if seeds is None else seeds[trial]
    gen, pcg = np.random.Generator, np.random.PCG64
    # three index reads, not an unpacking, which iterates the (3, 4) array
    return (gen(pcg(_SeedWords(words[0]))), gen(pcg(_SeedWords(words[1]))),
            gen(pcg(_SeedWords(words[2]))))


# ---------------------------------------------------------------------------
# configuration and results

PROBLEMS = ("local", "global")
ENGINES = ("materialized", "analytic_star")


@dataclass(frozen=True)
class TrialConfig:
    problem: str                 # "local" | "global"
    gadget: Gadget
    schedule: Schedule
    adversary: dict
    seed: int
    max_rounds: int
    engine_mode: str = "materialized"   # | "analytic_star"
    epsilon: float = 0.1
    # global: per-node repetition budget in double cycles; by default
    # `rgb_repetitions` at the schedule's `algorithm_tau`
    rgb_reps: int | None = None
    # the point's adversary plan, compiled once from `adversary`
    plan: AdversaryPlan = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.engine_mode not in ENGINES:
            raise ValueError(f"unknown engine {self.engine_mode!r}")
        if not (isinstance(self.epsilon, (int, float)) and 0 < self.epsilon < 1):
            raise ValueError(f"epsilon: must be in (0,1), got {self.epsilon!r}")
        gadget = self.gadget
        if self.engine_mode == "materialized" and gadget.delta >= EDGE_LIMIT:
            hint = ("; run it on the analytic_star engine"
                    if self.problem == "local" and gadget.kind in ("star", "double_star")
                    else "")
            raise ValueError(
                f"the materialized engine builds every edge, so it needs delta < "
                f"2^{EDGE_LIMIT.bit_length() - 1}; got a {gadget.kind} gadget with delta = "
                f"2^{math.log2(gadget.delta):.6g}{hint}")
        if self.engine_mode == "analytic_star":
            if self.problem != "local":
                raise ValueError("analytic engine only runs local broadcast")
            if gadget.kind not in ("star", "double_star") or gadget.receiver is None:
                raise ValueError("analytic engine needs a star or double-star gadget")
            if not np.isfinite(self.schedule.log1m_prob_array).all():
                raise ValueError("analytic engine requires every cycle entry < 1")
        if self.problem == "global" and gadget.source is None:
            raise ValueError("global broadcast needs a gadget with a source")
        if self.problem == "local" and not gadget.broadcasters:
            raise ValueError("local broadcast needs a nonempty broadcaster set")
        if self.problem == "local" and not gadget.receivers:
            raise ValueError("local broadcast needs a nonempty receiver set")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.problem == "global" and self.rgb_reps is None:
            object.__setattr__(self, "rgb_reps", rgb_repetitions(
                gadget.delta, algorithm_tau(self.schedule), self.epsilon,
                gadget.node_count))
        object.__setattr__(self, "plan",
                           compile_adversary(self.adversary, gadget, self.schedule))

    @cached_property
    def csv_point(self) -> str:
        """The CSV columns problem..adversary, the same in every row of the
        point, formatted once."""
        tau = self.adversary.get("tau")
        return ",".join((self.problem, self.schedule.label, self.engine_mode,
                         f"{math.log2(self.gadget.delta):.17g}",
                         "inf" if tau is None else str(tau),
                         self.adversary.get("kind", "static")))


class FirstDelivery(Mapping):
    """Read-only node -> first delivery round over a materialized trial's
    int64 array of delivery rounds (_NEVER: not reached) and the count of
    nodes reached.  It yields Python ints, nodes in increasing order, and
    compares equal to the dict of the same pairs."""

    __slots__ = ("_rounds", "_count")

    def __init__(self, rounds: np.ndarray, count: int):
        self._rounds, self._count = rounds, count

    def __getitem__(self, node) -> int:
        if isinstance(node, (int, np.integer)) and 0 <= node < len(self._rounds):
            round_ = int(self._rounds[node])
            if round_ != _NEVER:
                return round_
        raise KeyError(node)

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._rounds != _NEVER).tolist())

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"FirstDelivery({dict(self)!r})"


@dataclass(slots=True)
class TrialResult:
    """One trial's result: built once by its engine, never changed after
    (slotted, not frozen, as a frozen dataclass costs more to build)."""

    completed: bool
    completion_round: int | None
    first_delivery: Mapping[int, int]
    rounds_executed: int
    seed: int
    distribution_changes: tuple[tuple[int, object], ...]

    def __post_init__(self):
        if self.completed and self.completion_round is not None:
            assert self.completion_round <= self.rounds_executed


def verify_stability(result: TrialResult, tau: int | None) -> None:
    """Raise ValueError unless consecutive distribution changes are >= tau
    rounds apart (at most one change when tau is None)."""
    if tau is None:
        if len(result.distribution_changes) > 1:
            raise ValueError(f"distribution changed {len(result.distribution_changes)} "
                             "times with tau = infinity")
        return
    rounds = [r for r, _ in result.distribution_changes]
    for a, b in zip(rounds, rounds[1:]):
        if b - a < tau:
            raise ValueError(f"distribution changed after {b - a} < tau={tau} rounds")


# ---------------------------------------------------------------------------
# repetition-count formulas


def algorithm_tau(schedule: Schedule) -> int:
    """The tau the algorithm was built for, which sizes a global run's
    budget and the default round cap, never the adversary's: the tau the
    schedule names, or its cycle length if it names none (decay)."""
    return schedule.params.get("tau") or schedule.cycle_length


def rlb_repetitions(delta: int, tau: int, epsilon: float) -> int:
    """Cycles guaranteeing single-receiver delivery w.p. >= 1-epsilon."""
    tau_bar = min(tau, ceil_log2(delta))
    d_pow = math.exp(math.log(delta) / tau_bar)
    return 2 * math.ceil(math.log(1.0 / epsilon)) * math.ceil(4.0 * math.e * d_pow)


def frlb_repetitions(delta: int, tau: int, epsilon: float) -> int:
    tau_bar = min(tau, math.ceil(log2e_of(delta)))
    d_pow = math.exp(math.log(delta) / tau_bar)
    return (2 * math.ceil(math.log(1.0 / epsilon))
            * math.ceil(4.0 * d_pow * tau_bar / log2e_of(delta)))


def rgb_repetitions(delta: int, tau: int, epsilon: float, n: int) -> int:
    """Per-node double-cycle budget for the global strategy (log base 2e)."""
    tau_bar = min(tau, math.ceil(log2e_of(delta)))
    d_pow = math.exp(math.log(delta) / tau_bar)
    return (math.ceil(math.log(2.0 * n / epsilon))
            * math.ceil(4.0 * d_pow * tau_bar / log2e_of(delta)))


def rlbc_repetitions(delta: int, tau: int, epsilon: float) -> int:
    d_pow = math.exp(math.log(delta) / tau)
    return math.ceil(16.0 * math.e * math.ceil(math.log(1.0 / epsilon) * d_pow))


def default_max_rounds(problem: str, schedule: Schedule, delta: int, tau: int,
                       epsilon: float, n: int, diameter: int = 1) -> int:
    """100x the relevant upper-bound round count, so lower-bound runs can
    observe non-completion without looping forever."""
    k = schedule.cycle_length
    if problem == "global":
        reps = rgb_repetitions(delta, tau, epsilon, n)
        base = (diameter // 3 + 2) * reps * 2 * k
    elif schedule.label == "rlb":
        base = rlb_repetitions(delta, tau, epsilon) * k
    elif schedule.label == "rlbc":
        base = 2 * rlbc_repetitions(delta, tau, epsilon) * k
    else:
        base = frlb_repetitions(delta, tau, epsilon) * k
    return 100 * base


# ---------------------------------------------------------------------------
# materialized engine


class _Neighbors(NamedTuple):
    """Adjacency over some of a gadget's edges in CSR form: node v's deg[v]
    neighbors are heard[ptr[v]:ptr[v] + deg[v]] (in node order in a
    gadget's table, `_neighbors`), and through[i] is the unreliable edge
    that heard[i] is reached by, or the extra slot `unreliable_count` for a
    reliable neighbor."""

    ptr: np.ndarray
    deg: np.ndarray
    heard: np.ndarray
    through: np.ndarray


def _neighbors(gadget: Gadget, reach: np.ndarray | None = None) -> _Neighbors:
    """The neighbor table over the gadget's reliable edges and the
    unreliable edges `reach` (sorted indices; None: every one)."""
    rel, unr = gadget.edges
    m = len(unr)
    if reach is None:
        reach = np.arange(m, dtype=np.int64)
    unr = unr[reach]
    ends = np.concatenate((rel, rel[:, ::-1], unr, unr[:, ::-1]))
    through = np.concatenate((np.full(2 * len(rel), m, dtype=np.int64), reach, reach))
    n = gadget.node_count
    # by node, each slice by neighbor; every sort here is stable, as numpy's
    # default quicksort would map about 0.6 MiB more code into the process
    order = np.argsort(ends[:, 0] * n + ends[:, 1], kind="stable")
    deg = np.bincount(ends[:, 0], minlength=n)
    return _Neighbors(np.cumsum(deg) - deg, deg, ends[order, 1], through[order])


def _slice_positions(table: _Neighbors, nodes: np.ndarray) -> np.ndarray:
    """Table positions of the nodes' slices, concatenated in order.  A round
    passes only a few nodes, so this avoids numpy's Python-level wrappers
    (np.cumsum, np.repeat), whose dispatch costs more than that work."""
    if len(nodes) == 1:  # most often: one slice, a plain range
        first = table.ptr[nodes[0]]
        return np.arange(first, first + table.deg[nodes[0]])
    lens = table.deg[nodes]
    ends = np.add.accumulate(lens)
    # slice i starts at ptr[nodes[i]] and sits at ends[i] - lens[i] in `pos`
    shift = table.ptr[nodes] - ends
    shift += lens
    pos = shift.repeat(lens)
    pos += np.arange(len(pos))
    return pos


def _waiting_neighbors(table: _Neighbors, waiting: np.ndarray) -> np.ndarray:
    """Each node's count of waiting neighbors in the table: the table is
    symmetric, so the count of entries naming it in waiting nodes' slices."""
    heard = table.heard[_slice_positions(table, np.flatnonzero(waiting))]
    return np.bincount(heard, minlength=len(waiting))


class _Frontier(NamedTuple):
    """The counted candidates `span` and the only table entries a delivery
    can come through, those from them to waiting nodes: `entries` is a
    neighbor table over span positions whose `heard` indexes `listeners`,
    the waiting nodes in node order.  A listener that is itself a
    candidate, listener duplex[j] at span position duplex_at[j], hears
    nothing when it transmits.  `unreliable` tells whether some entry goes
    through an unreliable edge."""

    span: np.ndarray
    entries: _Neighbors
    listeners: np.ndarray
    duplex: np.ndarray
    duplex_at: np.ndarray
    unreliable: bool


def _span(front: np.ndarray, act: np.ndarray, r: int, budget: int) -> np.ndarray:
    """The counted candidates of round r: the nodes that transmit in round
    r (act[v] < r <= act[v] + budget), from the first to the last of them
    in the front, the sorted nodes that have an activation round and wait
    or have a waiting neighbor in the table.  The other transmitters cannot
    change a delivery, whether they transmit or not.  It reads the front
    and the nodes between its first and last transmitter, no others."""
    a = act[front]
    inside = front[(a < r) & (a >= r - budget)]
    if len(inside) < 2:
        return inside
    first = inside[0]
    block = act[first:inside[-1] + 1]
    span = ((block < r) & (block >= r - budget)).nonzero()[0]
    span += first
    return span


def _frontier(table: _Neighbors, span: np.ndarray, waiting: np.ndarray, near: np.ndarray,
              edge_count: int) -> _Frontier:
    """The frontier of the counted candidates `span` (see `_span`) given who
    waits and each node's count of waiting neighbors in the table `near`.
    `edge_count` is the table's reliable slot."""
    if not len(span):
        return _Frontier(span, _Neighbors(span, span, span, span), span, span, span, False)
    fan = near[span]
    if len(span) == 1:  # one slice: its listeners in node order already
        first = table.ptr[span[0]]
        last = first + table.deg[span[0]]
        heard = table.heard[first:last]
        keep = waiting[heard]
        heard, through = heard[keep], table.through[first:last][keep]
        listeners, index = heard, np.arange(len(heard))
    else:  # the listeners in node order, each once
        pos = _slice_positions(table, span[fan.nonzero()[0]])
        pos = pos[waiting[table.heard[pos]]]
        heard = table.heard[pos]
        through = table.through[pos]
        listeners = np.sort(heard, kind="stable")
        distinct = listeners[1:] != listeners[:-1]
        listeners = np.concatenate((listeners[:1], listeners[1:][distinct]))
        index = listeners.searchsorted(heard)
    duplex = at = span[:0]
    waits = waiting[span].nonzero()[0]
    if len(waits):
        _, duplex, at = np.intersect1d(listeners, span[waits], assume_unique=True,
                                       return_indices=True)
    # the entries come grouped by span position, fan[i] of them for span[i]
    entries = _Neighbors(np.add.accumulate(fan) - fan, fan, index, through)
    # the reliable slot is the largest `through`
    unreliable = bool(len(through)) and np.minimum.reduce(through) < edge_count
    return _Frontier(span, entries, listeners, duplex, waits[at], unreliable)


def round_counts(frontier: _Frontier, coins: np.ndarray, extra_edge_indices: np.ndarray,
                 active: np.ndarray) -> np.ndarray:
    """Transmitting active-topology neighbors of each frontier listener, the
    span's transmitters being those whose coin is True (reliable edges plus
    the chosen unreliable ones, each counted once however often it is
    named), and 0 at a transmitting listener (half duplex).  `active` is
    the trial's edge mask, True only at its last entry, the reliable slot;
    the chosen edges are set in it for the count and cleared after it.
    Mirrors model.deliver's counting rule at every waiting node."""
    entries = frontier.entries
    pos = _slice_positions(entries, coins.nonzero()[0])
    if frontier.unreliable:
        active[extra_edge_indices] = True
        pos = pos[active[entries.through[pos]]]
        active[extra_edge_indices] = False
    counts = np.bincount(entries.heard[pos], minlength=len(frontier.listeners))
    if len(frontier.duplex):
        counts[frontier.duplex[coins[frontier.duplex_at]]] = 0
    return counts


def _window_event(starts: list[int], r: int, budget: int) -> int:
    """The next round after r in which the set of transmitting nodes
    changes, or _NEVER if it never does.  `starts` is the sorted list of
    the distinct activation rounds: the next node starts the round after
    the first of them >= r, and the next node stops `budget` rounds after
    the first of them >= r - budget.  _NEVER also means that no node
    transmits in round r: none started in the `budget` rounds before it."""
    i = bisect.bisect_left(starts, r)
    j = bisect.bisect_left(starts, r - budget, 0, i)
    return min(starts[i] + 1 if i < len(starts) else _NEVER,
               starts[j] + budget + 1 if j < i else _NEVER)


class _Hazard(NamedTuple):
    """A schedule's per-node hazards h = -ln(1 - p), from which the round
    in which one of m counted candidates first transmits is drawn (see
    `_first_firing`): `h` per cycle phase (inf where p = 1); `cum`, the
    running sum of the finite ones over two cycles (cum[i] sums phases
    0..i-1 mod k, a p = 1 phase adding 0); `cycle` = cum[k], one cycle's
    finite hazard; `sure[s]`, the rounds from a phase-s round to the next
    p = 1 phase, or -1 when the cycle has none.  They are taken from
    `prob_array`, against which the coins are drawn, so h = 0 exactly where
    p = 0 and h = inf exactly where p = 1."""

    h: list[float]
    cum: list[float]
    cycle: float
    sure: list[int]


def _hazard(schedule: Schedule) -> _Hazard:
    with np.errstate(divide="ignore"):  # p = 1 has infinite hazard
        h = -np.log1p(-schedule.prob_array)
    k = len(h)
    certain = np.isinf(h)
    finite = np.where(certain, 0.0, h)
    cum = np.concatenate(([0.0], np.cumsum(np.tile(finite, 2))))
    ones = np.flatnonzero(certain)
    sure = np.full(k, -1, dtype=np.int64)
    if len(ones):
        ones = np.concatenate((ones, ones + k))
        sure = ones[np.searchsorted(ones, np.arange(k))] - np.arange(k)
    return _Hazard(h.tolist(), cum.tolist(), float(cum[k]), sure.tolist())


def _first_firing(hazard: _Hazard, r: int, m: int, u: float, last: int) -> int:
    """The first round f >= r in which one of m counted candidates
    transmits, each independently with its round's p, drawn by inverting
    the survival prod_{t=r..f} (1 - p_t)^m with the uniform u in [0, 1);
    _NEVER when no round qualifies, and it may stand for any round past
    `last`."""
    # f is the first round whose cumulative hazard from r exceeds
    # -ln(1 - u) / m: whole cycles first, then a search within one
    x = -math.log1p(-u) / m
    k = len(hazard.h)
    s = (r - 1) % k
    cum = hazard.cum
    sure = hazard.sure[s]
    if sure >= 0 and x >= cum[s + sure] - cum[s]:
        return r + sure
    whole, x = divmod(x, hazard.cycle) if hazard.cycle else (math.inf, x)
    i = bisect.bisect_right(cum, cum[s] + x, s + 1, s + k + 1)
    if i > s + k:
        # x fell in the rounding gap between `cycle` and this phase's
        # cycle cum[s + k] - cum[s]: the next cycle's first round with h > 0
        whole += 1
        i = bisect.bisect_right(cum, cum[s], s + 1, s + k + 1)
    if whole * k > last:
        return _NEVER
    return r + int(whole) * k + i - s - 1


def _fired_coins(np_nodes, m: int, p: float, h: float) -> np.ndarray:
    """m coins that are each True with probability p (h = -ln(1 - p) > 0),
    conditioned on at least one being True."""
    if m * h >= LN2:  # P(some coin) >= 1/2: draw until one is True
        while True:
            coins = np_nodes.random(m) < p
            if coins.any():
                return coins
    # K ~ Bin(m, p) given K >= 1, by inversion, then a uniform K-subset
    fire = -math.expm1(-m * h)
    u = np_nodes.random()
    count, pmf = 1, m * p * math.exp(-(m - 1) * h) / fire
    cdf, odds = pmf, p / (1.0 - p)
    while cdf <= u and count < m:
        pmf *= (m - count) / (count + 1) * odds
        count += 1
        cdf += pmf
    coins = np.zeros(m, dtype=bool)
    coins[uniform_subset(np_nodes, m, count)] = True
    return coins


class _MaterializedStart(NamedTuple):
    """What every materialized trial of a point starts from (see
    `point_start`): the neighbor table over the edges its adversary can
    activate, the per-node budget, whether a reached node relays, `act`,
    `waiting` and `near` before round 1 (each trial copies them), the
    count of waiting nodes, `starts`, the sorted distinct activation rounds
    (each trial copies it, as a relay appends to it), the `front` (see
    `_span`; a trial replaces it at each delivery, never changes it), the
    next window event after round 1, round 1's frontier, and the
    schedule's hazards."""

    seeds: _PointSeeds | None
    table: _Neighbors
    budget: int
    relay: bool
    act: np.ndarray
    waiting: np.ndarray
    near: np.ndarray
    left: int
    starts: list[int]
    front: np.ndarray
    next_event: int
    frontier: _Frontier
    hazard: _Hazard


def _materialized_start(config: TrialConfig, seeds: _PointSeeds | None) -> _MaterializedStart:
    """The problems differ only in this data.  Local broadcast starts every
    broadcaster with no budget and must reach the gadget's receivers;
    global broadcast starts the source with `rgb_reps` double cycles and
    must reach every node, and a reached node relays from the next
    double-cycle boundary with the same budget."""
    gadget = config.gadget
    n = gadget.node_count
    if config.problem == "local":
        starters, targets = sorted(gadget.broadcasters), sorted(gadget.receivers)
        budget, relay = config.max_rounds, False
    else:
        starters = [gadget.source]
        targets = [v for v in range(n) if v != gadget.source]
        budget, relay = config.rgb_reps * 2 * config.schedule.cycle_length, True
    # node v transmits in rounds act[v] < r <= act[v] + budget
    act = np.full(n, _NEVER, dtype=np.int64)
    act[starters] = 0
    waiting = np.zeros(n, dtype=bool)
    waiting[targets] = True
    table = _neighbors(gadget, config.plan.reach)
    near = _waiting_neighbors(table, waiting)
    front = ((act != _NEVER) & (waiting | (near > 0))).nonzero()[0]
    starts = [0]  # the starters' activation round
    frontier = _frontier(table, _span(front, act, 1, budget), waiting, near,
                         gadget.unreliable_count)
    return _MaterializedStart(seeds, table, budget, relay, act, waiting, near, len(targets),
                              starts, front, _window_event(starts, 1, budget), frontier,
                              _hazard(config.schedule))


def run_materialized_trial(config: TrialConfig, trial: int = 0,
                           start: _MaterializedStart | None = None) -> TrialResult:
    """Simulate every node and edge round by round, for either problem
    (trial and start as in `run_trial`; see `_materialized_start`)."""
    schedule = config.schedule
    k = schedule.cycle_length
    align = 2 * k
    if start is None:
        start = _materialized_start(config, None)
    budget, relay, left = start.budget, start.relay, start.left
    act, waiting, near = start.act.copy(), start.waiting.copy(), start.near.copy()
    starts = start.starts.copy()
    history = ObservableHistory(np.full(len(act), _NEVER, dtype=np.int64), act)

    np_nodes, np_adv, q_adv = trial_rngs(config.seed, trial, start.seeds)
    policy = make_policy(config.plan, np_adv, q_adv, history)
    pre_round, sample_edges = policy.pre_round, policy.sample_edges
    probs, hazard = schedule.prob_array.tolist(), start.hazard

    # The set of transmitting nodes changes only in a round where some
    # node starts (act[v] + 1) or runs out of budget (act[v] + budget + 1);
    # `next_event` is the next such round, found by bisection in `starts`,
    # to which a relay's delivery appends its activation round.  Only the
    # span, the transmitters from the first to the last in the `front`,
    # draws coins and is counted (see `_span`); the front changes only at a
    # delivery.  The frontier is rebuilt once at the top of `rebuild`, the
    # next window event or the round after a delivery, from `near`, each
    # node's count of waiting neighbors in `table`, which is kept for the
    # whole trial.
    # `fire` is the round drawn for the span's next transmission (below r:
    # none drawn).  With none drawn, a round in which the span's m coins
    # show a transmitter with probability 1/2 or more draws them directly;
    # otherwise the first round in which one shows is drawn
    # (`_first_firing`), the rounds before it are idle, and its coins are
    # drawn conditioned on one showing (`_fired_coins`).  A new frontier
    # drops a drawn round: no coin showed before it, and later rounds'
    # coins are independent of that.  The adversary is asked every round,
    # after the coins, for the active edges at the counted transmitters
    # `tx` alone; it is entered (`pre_round`) at the top of round `enter`,
    # the round it named or the round after a delivery, at which idle
    # stretches stop.
    table = start.table
    edge_count = config.gadget.unreliable_count
    # `round_counts`' edge mask: every unreliable edge, then the reliable slot
    active = np.zeros(edge_count + 1, dtype=bool)
    active[edge_count] = True
    last = config.max_rounds
    completion = None
    empty = np.empty(0, dtype=np.int64)
    front, next_event, frontier = start.front, start.next_event, start.frontier
    rebuild = next_event
    enter = 1
    fire = 0
    r = 0
    while r < last:
        r += 1
        if r >= enter:
            enter = pre_round(r)
        if r >= rebuild:
            if r >= next_event:
                next_event = _window_event(starts, r, budget)
            frontier = _frontier(table, _span(front, act, r, budget), waiting, near,
                                 edge_count)
            rebuild = next_event
            fire = 0
        m = len(frontier.span)
        phase = (r - 1) % k
        if fire < r and m and m * hazard.h[phase] >= LN2:
            coins = np_nodes.random(m) < probs[phase]
            tx = frontier.span[coins]
            fire = r if len(tx) else 0
        else:
            if fire < r:
                fire = _first_firing(hazard, r, m, np_nodes.random(), last) if m else _NEVER
            if fire == r:
                coins = _fired_coins(np_nodes, m, probs[phase], hazard.h[phase])
                tx = frontier.span[coins]
        if fire != r:
            # no counted candidate transmits: idle up to the drawn round,
            # the next window event, the adversary's next round or the last
            # round, whichever is first; stop when no window event is left:
            # no node transmits now and no activation is pending (every node
            # is unreached forever or past its budget)
            sample_edges(r, empty)
            if rebuild == _NEVER:
                break
            for r in range(r + 1, min(fire, rebuild, enter, last + 1)):
                sample_edges(r, empty)
            continue
        fire = 0
        extra = sample_edges(r, tx)
        counts = round_counts(frontier, coins, extra, active)
        newly = frontier.listeners[counts == 1]
        if len(newly):
            waiting[newly] = False
            left -= len(newly)
            history.deliver(newly, r)
            if relay:
                activation = align * math.ceil(r / align)
                act[newly] = activation
                if starts[-1] != activation:
                    starts.append(activation)
                next_event = min(next_event, activation + 1)
            if left == 0:
                completion = r
                break
            # a delivered node no longer waits next to its table neighbors;
            # a relay joins the front, and a node that neither waits nor has
            # a waiting neighbor leaves it
            np.subtract.at(near, table.heard[_slice_positions(table, newly)], 1)
            if relay:
                front = np.concatenate((front, newly))
                front.sort(kind="stable")
            front = front[waiting[front] | (near[front] > 0)]
            rebuild = enter = r + 1

    history.delivery.flags.writeable = False
    return TrialResult(
        completed=completion is not None,
        completion_round=completion,
        first_delivery=FirstDelivery(history.delivery, history.count),
        rounds_executed=r,
        seed=config.seed + trial,
        distribution_changes=tuple(policy.change_log),
    )


# ---------------------------------------------------------------------------
# analytic engine


class _AnalyticStart(NamedTuple):
    """What every analytic trial of a point starts from (see `point_start`):
    the receiver, whether it is a broadcaster (`flag`), the offset of its
    degree in the success exponent (0 if so, else 1), the cycle length and
    the ln p and ln(1 - p) of each cycle entry, as floats."""

    seeds: _PointSeeds | None
    receiver: int
    flag: bool
    exp_off: float
    k: int
    log_probs: list[float]
    log1m_p: list[float]


def _analytic_start(config: TrialConfig, seeds: _PointSeeds | None) -> _AnalyticStart:
    gadget, schedule = config.gadget, config.schedule
    flag = gadget.receiver in gadget.broadcasters
    return _AnalyticStart(seeds, gadget.receiver, flag, 0.0 if flag else 1.0,
                          schedule.cycle_length, schedule.log_probs,
                          schedule.log1m_prob_array.tolist())


def _exact_hit(d: int, log_p: float, flag: bool, u: float) -> bool:
    """Whether a round of arbitrary-precision degree d succeeds against the
    uniform u; a zero uniform is a hit, as np.log(0) = -inf is on the float
    path."""
    return u == 0.0 or math.log(u) < exact_success_logprob(d, log_p, flag)


def run_analytic_star_trial(config: TrialConfig, trial: int = 0,
                            start: _AnalyticStart | None = None) -> TrialResult:
    """Degree-only fast path for a single-receiver star or double star
    (trial and start as in `run_trial`).

    The adversary supplies the receiver's effective degree per round; the
    round succeeds with the exact closed-form probability, sampled by
    comparing log-probability against the log of a uniform draw.  The
    first `_STEPPED` rounds ask for one degree at a time, their uniforms
    drawn and their logs taken in one call each, and test each hit in
    Python floats; the later ones ask for a chunk of each.  Every stream is
    consumed in round order either way, and a round alone makes the same
    float64 operations as its lane of a chunk, so the result does not
    depend on the split.
    """
    schedule = config.schedule
    if start is None:
        start = _analytic_start(config, None)
    np_nodes, np_adv, q_adv = trial_rngs(config.seed, trial, start.seeds)
    policy = make_policy(config.plan, np_adv, q_adv)

    _, recv, flag, exp_off, k, log_probs, log1m_p = start
    degrees, log = policy.degrees, np.log
    last = config.max_rounds

    completion = None
    r = 0  # rounds run
    # the stepped rounds' uniforms in one draw, the same doubles as one
    # random() per round, and their logs in one call, each its lane of a
    # chunk's; a chunk then draws the next ones
    uniforms = np_nodes.random(_STEPPED if last > _STEPPED else last)
    for log_u in log(uniforms).tolist():
        degs = degrees(r + 1, 1)
        j = r % k
        if isinstance(degs, int):  # 2^53 or more: as in a chunk of such degrees
            hit = _exact_hit(degs, log_probs[j], flag, uniforms[r])
        else:  # in Python floats, the float64 operations of a chunk's lane
            hit = log_u < float(log(degs)) + log_probs[j] + (degs - exp_off) * log1m_p[j]
        r += 1
        if hit:
            completion = r
            break
    chunk = _FIRST_CHUNK
    while r < last and completion is None:
        cnt = min(chunk, last - r)
        chunk = min(chunk * 4, _CHUNK)
        degs = degrees(r + 1, cnt)
        if cnt == 1:  # degrees()' one-round form, as a chunk of one
            degs = [degs] if isinstance(degs, int) else np.array([degs])
        u = np_nodes.random(cnt)
        if isinstance(degs, np.ndarray):
            idx = np.arange(r, r + cnt) % k
            log_s = (np.log(degs) + schedule.log_prob_array[idx]
                     + (degs - exp_off) * schedule.log1m_prob_array[idx])
            hits = np.log(u) < log_s
            first = int(hits.argmax())
            if hits[first]:
                completion = r + 1 + first
        else:  # arbitrary-precision degrees
            for j, d in enumerate(degs):
                if _exact_hit(d, log_probs[(r + j) % k], flag, u[j]):
                    completion = r + 1 + j
                    break
        r += cnt

    rounds_executed = r if completion is None else completion
    changes = policy.change_log
    if changes and changes[-1][0] > rounds_executed:
        # a chunk entered blocks past the last round run: not part of the trial
        changes = [c for c in changes if c[0] <= rounds_executed]
    # by position: a keyword call costs about twice as much
    return TrialResult(completion is not None, completion,
                       {} if completion is None else {recv: completion},
                       rounds_executed, config.seed + trial, tuple(changes))


def point_start(config: TrialConfig, trial_count: int = 0):
    """What every trial of `config`'s point starts from, built once per
    point: the stream seeds of its first `trial_count` trials (none for 0:
    a trial then derives its own; see `_PointSeeds`, which derives the
    block a trial asks for) and its engine's start state.  Trials only
    read it."""
    seeds = _PointSeeds(config.seed, trial_count) if trial_count else None
    if config.engine_mode == "analytic_star":
        return _analytic_start(config, seeds)
    return _materialized_start(config, seeds)


def run_trial(config: TrialConfig, trial: int = 0, start=None) -> TrialResult:
    """Trial `trial` of `config`'s point, seeded config.seed + trial.
    `start` is the point's `point_start`; a lone trial builds its own."""
    if config.engine_mode == "analytic_star":
        return run_analytic_star_trial(config, trial, start)
    return run_materialized_trial(config, trial, start)


# ---------------------------------------------------------------------------
# aggregation


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


_QUANTS = (0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class Stats:
    trial_count: int
    success_count: int
    success_rate: float
    wilson_low: float
    wilson_high: float
    mean_completion: float | None
    quantiles: dict[float, float]

    @property
    def median_completion(self) -> float:
        return self.quantiles[0.5]


def aggregate(counts: Mapping[int | None, int]) -> Stats:
    """Fold a point's completion rounds, given as the number of trials that
    completed in each round (None: the trials that did not complete)."""
    n = sum(counts.values())
    if n == 0:
        raise ValueError("aggregate needs at least one trial's completion round")
    finished = sorted(c for c in counts if c is not None)
    succ = n - counts.get(None, 0)
    lo, hi = wilson_interval(succ, n)
    mean = sum(c * counts[c] for c in finished) / succ if succ else None
    # the i-th trial in completion order: the first round whose cumulative
    # count passes i; the unfinished trials rank last, at round inf
    ranks = list(itertools.accumulate(counts[c] for c in finished))
    quants = {}
    for q in _QUANTS:
        i = min(n - 1, int(q * (n - 1)))
        quants[q] = finished[bisect.bisect_right(ranks, i)] if i < succ else math.inf
    return Stats(
        trial_count=n,
        success_count=succ,
        success_rate=succ / n,
        wilson_low=lo,
        wilson_high=hi,
        mean_completion=mean,
        quantiles=quants,
    )


def run_trials(config: TrialConfig, trial_count: int,
               on_trial: Callable[[int, TrialResult], object] | None = None) -> Stats:
    """Run trials 0, 1, ... under seeds seed, seed+1, ..., in that order,
    hand each result to `on_trial(trial, result)` as it finishes, and fold
    their completion rounds, the only thing kept of a trial, as a count of
    trials per round."""
    if trial_count < 1:
        raise ValueError("trial_count must be >= 1")
    start = point_start(config, trial_count)
    counts: dict[int | None, int] = {}
    for t in range(trial_count):
        result = run_trial(config, t, start)
        if on_trial is not None:
            on_trial(t, result)
        c = result.completion_round
        counts[c] = counts.get(c, 0) + 1
    return aggregate(counts)


# ---------------------------------------------------------------------------
# CSV schema (bit-exact column order)

CSV_COLUMNS = ("trial_id", "seed", "problem", "algo", "engine", "delta_log2",
               "tau", "adversary", "completed", "completion_round",
               "rounds_executed")


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def trial_csv_row(trial_id: int, config: TrialConfig, result: TrialResult) -> str:
    completion = result.completion_round
    return (f"{trial_id},{result.seed},{config.csv_point},{1 if result.completed else 0},"
            f"{'' if completion is None else completion},{result.rounds_executed}")
