"""Trial execution: round loops tying schedules, adversaries, and delivery.

Two engines share one contract.  The materialized engine simulates every
node and edge of the dual graph in one round loop for both problems: local
and global broadcast differ only in who starts transmitting, for how long,
who must be reached, and whether a reached node relays.  It counts
collisions from a neighbor table in CSR form cached on the graph: each
node's slice lists its reliable and unreliable neighbors with the
unreliable edge each goes through.  A round gathers the transmitters'
slices with a fixed number of numpy calls, however many transmit, and
its counts are one `bincount` over them, keeping an unreliable neighbor
only when the adversary activated that edge this round.  It counts only
the relevant transmitters, those that wait themselves or have a waiting
potential neighbor: the others cannot change a delivery.  The set of
nodes that may transmit is recomputed only in rounds where some node
starts or exhausts its budget.
The analytic engine exploits the star gadgets' structure and tracks only
the designated receiver's effective degree, sampling its per-round success
from the closed-form probability (in log space, so degree bounds given as
log2 values keep working).

Randomness: each trial t uses seed `config.seed + t`.  Inside a trial,
streams are derived by `split_seed` (SHA-256 over the labeled seed), with
disjoint labels for node coins ("nodes") and adversary draws ("adversary"),
so adversary outputs cannot depend on node coins even accidentally.  A
point's adversary is compiled once, when its `TrialConfig` is built
(`compile_adversary`, which makes every config check); each trial's
`make_policy` builds its policy from that plan and binds it to the
trial's adversary streams.  The node and adversary generators are
`PCG64(split_seed(...))`; `run_trials` turns a point's stream seeds into
PCG64 seed words in one batch (`seed_words`), which gives the same
generators as seeding each alone.
Every node that may transmit owns one node-stream double per round, in
node order.  The materialized engine draws only the relevant ones (see
above) and skips the coins of the others by advancing the stream one
64-bit output per coin, which is what a PCG64 `random()` double consumes,
so the stream and every result are the same as when all coins are drawn.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .adversary import ObservableHistory, compile_adversary, make_policy
from .gadgets import Gadget
from .model import DualGraph
from .oracle import exact_success_logprob
from .schedules import Schedule, ceil_log2, log2e_of

# analytic degree chunks: the first covers _FIRST_CHUNK rounds, each next
# one 4x more up to _CHUNK; a short first chunk spares the many trials that
# end within a few rounds from drawing degrees for rounds they never run
_FIRST_CHUNK = 16
_CHUNK = 4096
_NEVER = np.iinfo(np.int64).max  # activation round of a node never reached


def split_seed(root: int, *labels) -> int:
    """Derive a 64-bit stream seed from a root seed and labels (documented
    split function: SHA-256 over the colon-joined decimal/string parts)."""
    text = ":".join([str(root), *map(str, labels)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(value: int, mult: int, count: int) -> np.ndarray:
    """A SeedSequence hash constant's first count + 1 values, mod 2^32."""
    out = [value]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# SeedSequence hashes its 4 pool words, then each word s into the other 3
# words d (12 calls, s-major), each call with the next constant
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
# lane d of row s: the call that mixes word s into word d; lane s keeps its
# word and reads call 0
_CROSS_CALL = np.array([[0 if d == s else 4 + 3 * s + d - (d > s) for d in range(4)]
                        for s in range(4)])
_CROSS_XOR, _CROSS_MUL = _HASH_A[_CROSS_CALL], _HASH_A[_CROSS_CALL + 1]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)  # one per 32-bit output word


def _hashed(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def pcg64_seed_words(seeds) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every 64-bit seed
    s in `seeds`, in one vectorized pass; shape `seeds.shape + (4,)`.

    A seed's entropy is its 32-bit words (lo, hi).  SeedSequence pads
    entropy shorter than its 4-word pool with hashed zeros, so a seed below
    2^32 (entropy (lo,)) takes the same path as (lo, 0, 0, 0).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros(seeds.shape + (4,), dtype=np.uint32)
    entropy[..., 0] = seeds & 0xFFFFFFFF
    entropy[..., 1] = seeds >> 32
    pool = _hashed(entropy, _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        mixed = _MIX_MULT_L * pool
        hashed = _hashed(pool[..., src:src + 1], _CROSS_XOR[src], _CROSS_MUL[src])
        mixed -= _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        mixed[..., src] = pool[..., src]
        pool = mixed
    # 32-bit output word i hashes pool word i % 4; 64-bit word j is 32-bit
    # words 2j (low half) and 2j + 1
    out = _hashed(np.concatenate((pool, pool), axis=-1), _HASH_B[:8], _HASH_B[1:])
    out = out.astype(np.uint64)
    return out[..., 0::2] | out[..., 1::2] << 32


def seed_words(first_seed: int, count: int) -> np.ndarray:
    """PCG64 seed words of the node and adversary streams of the trials
    seeded first_seed, ..., first_seed + count - 1: shape (count, 2, 4)."""
    stream_seeds = [split_seed(first_seed + t, label)
                    for t in range(count) for label in ("nodes", "adversary")]
    return pcg64_seed_words(np.array(stream_seeds, dtype=np.uint64).reshape(count, 2))


class _SeedWords(ISeedSequence):
    """Seeds a PCG64 with four precomputed SeedSequence words, skipping the
    SeedSequence that PCG64(seed) would build, most of its seeding cost."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds 4 uint64 PCG64 seed words, asked for {n_words} {dtype}")
        return self.words


def trial_rngs(seed: int, trial: int = 0, words: np.ndarray | None = None):
    """(node-coin generator, adversary generator, adversary python Random)
    of trial `trial` of a point whose first seed is `seed`.  `words` is the
    point's `seed_words`; a lone call derives its trial's row alone."""
    seed += trial
    row = seed_words(seed, 1)[0] if words is None else words[trial]
    np_nodes = np.random.Generator(np.random.PCG64(_SeedWords(row[0])))
    np_adv = np.random.Generator(np.random.PCG64(_SeedWords(row[1])))
    py_adv = random.Random(split_seed(seed, "adversary", "py"))
    return np_nodes, np_adv, py_adv


# ---------------------------------------------------------------------------
# configuration and results


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
    rgb_reps: int | None = None  # global: per-node repetition budget in double cycles
    receivers: tuple[int, ...] | None = None
    # the point's adversary plan, compiled once from `adversary`
    plan: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.problem not in ("local", "global"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.engine_mode not in ("materialized", "analytic_star"):
            raise ValueError(f"unknown engine {self.engine_mode!r}")
        gadget = self.gadget
        if self.engine_mode == "materialized" and gadget.meta.get("virtual"):
            raise ValueError("a virtual star (delta >= 2^24) has no edges to simulate; "
                             "run it on the analytic_star engine")
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
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        object.__setattr__(self, "plan",
                           compile_adversary(self.adversary, gadget, self.schedule))


@dataclass(frozen=True)
class TrialResult:
    completed: bool
    completion_round: int | None
    first_delivery: dict[int, int]
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
    """Potential-graph adjacency in CSR form: node v's deg[v] neighbors are
    heard[ptr[v]:ptr[v] + deg[v]], and through[i] is the unreliable edge
    that heard[i] is reached by, or the extra slot len(graph.unreliable_edges)
    for a reliable neighbor."""

    ptr: np.ndarray
    deg: np.ndarray
    heard: np.ndarray
    through: np.ndarray


def _neighbors(graph: DualGraph) -> _Neighbors:
    table = graph.__dict__.get("_neighbors_cache")
    if table is None:
        m = len(graph.unreliable_edges)
        rel = np.array(sorted(graph.reliable_edges), dtype=np.int64).reshape(-1, 2)
        unr = np.array(graph.unreliable_edges, dtype=np.int64).reshape(-1, 2)
        ends = np.concatenate((rel, rel[:, ::-1], unr, unr[:, ::-1]))
        through = np.concatenate((np.full(2 * len(rel), m, dtype=np.int64),
                                  np.arange(m, dtype=np.int64),
                                  np.arange(m, dtype=np.int64)))
        order = np.argsort(ends[:, 0], kind="stable")
        deg = np.bincount(ends[:, 0], minlength=graph.node_count)
        table = _Neighbors(np.cumsum(deg) - deg, deg, ends[order, 1], through[order])
        graph.__dict__["_neighbors_cache"] = table
    return table


def _slice_positions(table: _Neighbors, nodes: np.ndarray):
    """(table positions of the nodes' slices, concatenated in order; the end
    of each node's slice in that concatenation)."""
    lens = table.deg[nodes]
    ends = np.cumsum(lens)
    # slice i starts at ptr[nodes[i]] and sits at ends[i] - lens[i] in `pos`
    shift = table.ptr[nodes] - ends
    shift += lens
    pos = np.repeat(shift, lens)
    pos += np.arange(len(pos))
    return pos, ends


def round_counts(graph: DualGraph, extra_edge_indices: np.ndarray,
                 transmitters: np.ndarray) -> np.ndarray:
    """Transmitting active-topology neighbors per node (reliable edges plus
    the chosen unreliable ones, each counted once however often it is
    named).  Mirrors model.deliver's counting rule.

    The round loop passes only the transmitters that wait or have a waiting
    potential neighbor, so its counts are exact at every waiting node, the
    only nodes it reads them at."""
    table = _neighbors(graph)
    pos, _ = _slice_positions(table, transmitters)
    active = np.zeros(len(graph.unreliable_edges) + 1, dtype=bool)
    active[-1] = True
    active[extra_edge_indices] = True
    return np.bincount(table.heard[pos[active[table.through[pos]]]],
                       minlength=graph.node_count)


def derived_receivers(gadget: Gadget) -> tuple[int, ...]:
    """Nodes reliably adjacent to some broadcaster (the problem's R)."""
    graph = gadget.graph
    out = set()
    for b in gadget.broadcasters:
        out.update(graph.reliable_neighbors(b))
    return tuple(sorted(out))


def _transmitter_window(act: np.ndarray, r: int, budget: int):
    """(nodes that transmit in round r, in order; the next round after r in
    which that set changes, or _NEVER if it never does)."""
    cand = np.flatnonzero((act < r) & (act >= r - budget))
    later = act[(act >= r) & (act != _NEVER)]
    starts = int(later.min()) + 1 if len(later) else _NEVER
    ends = int(act[cand].min()) + budget + 1 if len(cand) else _NEVER
    return cand, min(starts, ends)


def _relevant_span(table: _Neighbors, cand: np.ndarray, waiting: np.ndarray):
    """(lo, hi): the first and last positions in `cand` of a candidate that
    waits or has a waiting potential neighbor; lo > hi when none does.  The
    other candidates cannot change a delivery, whether they transmit or not."""
    pos, ends = _slice_positions(table, cand)
    seen = np.concatenate(([0], np.cumsum(waiting[table.heard[pos]])))[ends]
    relevant = np.flatnonzero(waiting[cand] | (np.diff(seen, prepend=0) > 0))
    return (int(relevant[0]), int(relevant[-1])) if len(relevant) else (0, -1)


def run_materialized_trial(config: TrialConfig, trial: int = 0,
                           words: np.ndarray | None = None) -> TrialResult:
    """Simulate every node and edge round by round, for either problem
    (trial and words as in `run_trial`).

    The problems differ only in data.  Local broadcast starts every
    broadcaster with no budget and must reach the receivers; global
    broadcast starts the source with `rgb_reps` double cycles and must reach
    every node, and a reached node relays from the next double-cycle
    boundary with the same budget.
    """
    gadget = config.gadget
    graph = gadget.graph
    schedule = config.schedule
    n = graph.node_count
    k = schedule.cycle_length
    align = 2 * k
    if config.problem == "local":
        starters = sorted(gadget.broadcasters)
        if config.receivers is not None:
            targets = tuple(config.receivers)
        elif gadget.receivers:
            targets = tuple(sorted(gadget.receivers))
        else:
            targets = derived_receivers(gadget)
        budget = config.max_rounds
        relay = False
    else:
        starters = [gadget.source]
        targets = tuple(v for v in range(n) if v != gadget.source)
        reps = config.rgb_reps
        if reps is None:
            reps = rgb_repetitions(gadget.delta, config.adversary.get("tau") or k,
                                   config.epsilon, n)
        budget = reps * align
        relay = True
    # node v transmits in rounds act[v] < r <= act[v] + budget
    act = np.full(n, _NEVER, dtype=np.int64)
    act[starters] = 0
    waiting = np.zeros(n, dtype=bool)
    waiting[list(targets)] = True
    left = int(waiting.sum())
    first_delivery: dict[int, int] = {}

    np_nodes, np_adv, py_adv = trial_rngs(config.seed, trial, words)
    policy = make_policy(config.plan, np_adv, py_adv, ObservableHistory(first_delivery, act))
    cycle = schedule.prob_array

    # The transmitter window `cand` changes only in a round where some
    # node starts (act[v] + 1) or runs out of budget (act[v] + budget + 1),
    # so it is recomputed only then; `next_event` is the next such round.
    # Only candidates cand[lo:hi + 1] draw coins and are counted (see
    # `_relevant_span`), recomputed when the window or `waiting` changes;
    # `skip` is the coins owed to the others, one 64-bit output each, taken
    # by advancing the stream before the next draw.
    table = _neighbors(graph)
    completion = None
    cand = np.empty(0, dtype=np.int64)
    lo, hi, skip = 0, -1, 0
    next_event = 1
    r = 0
    for r in range(1, config.max_rounds + 1):
        policy.pre_round(r)
        extra = policy.sample_edges(r)
        if r >= next_event:
            cand, next_event = _transmitter_window(act, r, budget)
            lo, hi = _relevant_span(table, cand, waiting)
        if len(cand) == 0:
            # no transmitter now; stop when no activation is pending either
            # (every node is unreached forever or past its budget)
            if next_event == _NEVER:
                break
            continue
        if hi < lo:
            skip += len(cand)
            continue
        np_nodes.bit_generator.advance(skip + lo)
        skip = len(cand) - 1 - hi
        p = cycle[(r - 1) % k]
        tx = cand[lo:hi + 1][np_nodes.random(hi + 1 - lo) < p]
        if len(tx) == 0:
            continue
        counts = round_counts(graph, extra, tx)
        counts[tx] = 0  # half duplex: a transmitter hears nothing
        newly = np.flatnonzero((counts == 1) & waiting)
        if len(newly):
            waiting[newly] = False
            left -= len(newly)
            for v in newly.tolist():
                first_delivery[v] = r
            if relay:
                activation = align * math.ceil(r / align)
                act[newly] = activation
                next_event = min(next_event, activation + 1)
            if left == 0:
                completion = r
                break
            lo, hi = _relevant_span(table, cand, waiting)

    return TrialResult(
        completed=completion is not None,
        completion_round=completion,
        first_delivery=dict(first_delivery),
        rounds_executed=r,
        seed=config.seed + trial,
        distribution_changes=tuple(policy.change_log),
    )


# ---------------------------------------------------------------------------
# analytic engine


def run_analytic_star_trial(config: TrialConfig, trial: int = 0,
                            words: np.ndarray | None = None) -> TrialResult:
    """Degree-only fast path for a single-receiver star or double star
    (trial and words as in `run_trial`).

    The adversary supplies the receiver's effective degree per round; the
    round succeeds with the exact closed-form probability, sampled by
    comparing log-probability against the log of a uniform draw.
    """
    gadget = config.gadget
    schedule = config.schedule
    np_nodes, np_adv, py_adv = trial_rngs(config.seed, trial, words)
    policy = make_policy(config.plan, np_adv, py_adv)

    recv = gadget.receiver
    flag = recv in gadget.broadcasters

    k = schedule.cycle_length
    log_p, l1mp = schedule.log_prob_array, schedule.log1m_prob_array
    exp_off = 0.0 if flag else 1.0

    completion = None
    rounds_executed = 0
    r = 1
    chunk = _FIRST_CHUNK
    while r <= config.max_rounds and completion is None:
        cnt = min(chunk, config.max_rounds - r + 1)
        chunk = min(chunk * 4, _CHUNK)
        degs = policy.degrees(r, cnt)
        u = np_nodes.random(cnt)
        if isinstance(degs, np.ndarray):
            idx = (np.arange(r - 1, r - 1 + cnt)) % k
            log_s = np.log(degs) + log_p[idx] + (degs - exp_off) * l1mp[idx]
            hits = np.log(u) < log_s
            if hits.any():
                completion = r + int(np.argmax(hits))
        else:  # arbitrary-precision degrees
            for j, d in enumerate(degs):
                lp = schedule.log_probs[(r - 1 + j) % k]
                log_s = exact_success_logprob(d, lp, flag)
                # a zero uniform is a hit, as np.log(0) = -inf is on the float path
                if u[j] == 0.0 or math.log(u[j]) < log_s:
                    completion = r + j
                    break
        rounds_executed = completion if completion is not None else r + cnt - 1
        r += cnt

    # degrees() covers whole chunks; changes past the last round run are not
    # part of the trial
    return TrialResult(
        completed=completion is not None,
        completion_round=completion,
        first_delivery={} if completion is None else {recv: completion},
        rounds_executed=rounds_executed,
        seed=config.seed + trial,
        distribution_changes=tuple(c for c in policy.change_log if c[0] <= rounds_executed),
    )


def run_trial(config: TrialConfig, trial: int = 0,
              words: np.ndarray | None = None) -> TrialResult:
    """Trial `trial` of `config`'s point, seeded config.seed + trial.
    `words` is the point's `seed_words`; a lone trial derives its own."""
    if config.engine_mode == "analytic_star":
        return run_analytic_star_trial(config, trial, words)
    return run_materialized_trial(config, trial, words)


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
    results: tuple[TrialResult, ...] = field(repr=False, default=())

    @property
    def median_completion(self) -> float:
        return self.quantiles[0.5]


def aggregate(results: Sequence[TrialResult]) -> Stats:
    """Deterministic fold over trials sorted by seed (execution-order free)."""
    ordered = sorted(results, key=lambda t: t.seed)
    n = len(ordered)
    succ = sum(1 for t in ordered if t.completed)
    lo, hi = wilson_interval(succ, n)
    finished = [t.completion_round for t in ordered if t.completed]
    mean = (sum(finished) / len(finished)) if finished else None
    effective = sorted((t.completion_round if t.completed else math.inf)
                       for t in ordered)
    quants = {q: effective[min(n - 1, int(q * (n - 1)))] for q in _QUANTS}
    return Stats(
        trial_count=n,
        success_count=succ,
        success_rate=succ / n if n else 0.0,
        wilson_low=lo,
        wilson_high=hi,
        mean_completion=mean,
        quantiles=quants,
        results=tuple(ordered),
    )


def run_trials(config: TrialConfig, trial_count: int) -> Stats:
    """Run trials under seeds seed, seed+1, ... and fold deterministically."""
    if trial_count < 1:
        raise ValueError("trial_count must be >= 1")
    words = seed_words(config.seed, trial_count)
    results = [run_trial(config, t, words) for t in range(trial_count)]
    return aggregate(results)


# ---------------------------------------------------------------------------
# CSV schema (bit-exact column order)

CSV_COLUMNS = ("trial_id", "seed", "problem", "algo", "engine", "delta_log2",
               "tau", "adversary", "completed", "completion_round",
               "rounds_executed")


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def trial_csv_row(trial_id: int, config: TrialConfig, result: TrialResult) -> str:
    tau = config.adversary.get("tau")
    return ",".join([
        str(trial_id),
        str(result.seed),
        config.problem,
        config.schedule.label,
        config.engine_mode,
        f"{math.log2(config.gadget.delta):.17g}",
        "inf" if tau is None else str(tau),
        config.adversary.get("kind", "static"),
        "1" if result.completed else "0",
        "" if result.completion_round is None else str(result.completion_round),
        str(result.rounds_executed),
    ])
