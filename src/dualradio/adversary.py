"""Fading-adversary policies and the worst-case constructions.

In the star gadgets an adversary acts only through the designated
receiver's effective degree: 1 plus the unreliable arms it activates.
Each receiver-degree policy states that degree in `_degrees`, for a chunk
of rounds; `_degree`, for one round, takes it from there, and only the
policies whose single rounds are hot paths state it again.  The analytic
engine reads it through `AdversaryPolicy.degrees`; the materialized engine
calls `AdversaryPolicy.sample_edges`, the one way of turning a degree d
into edges: a uniform (d-1)-subset of the receiver's unreliable arms.
Only `static`, `iid_subset` and `chained_gap`, which name edges beyond one
receiver's arms, pick their edges themselves.

`sample_edges` is given the round's counted transmitters and returns
every active edge that touches one of them; it may leave out the others,
which cannot change a delivery.  Only `chained_gap` leaves edges out: the
uniforms of the sections it leaves out are skipped, not drawn, by
advancing the adversary stream past them before its next draw, so the
stream and every result are the same as when every edge is drawn.

Policies may change the distribution they draw from at most once every
`tau` rounds: the rule lives in `AdversaryPolicy.pre_round`, which both
engines' calls go through, and every distribution change is appended to
`change_log` so the engine can audit it.  `pre_round` returns the next
round it must see, so the materialized engine calls it only at events: in
that round and in the round after a delivery.  The degree walk has one step
rule, `walk_degrees`, and every uniform edge subset comes from one draw,
`uniform_subset` (Floyd's algorithm), one generator call per pool.

`compile_adversary` turns a spec into a sweep point's plan once, when
the point's `TrialConfig` is built: it makes every config check, builds
what the point's trials share, and states the plan's reach, the only
unreliable edges its policies' `sample_edges` can ever return, so the
materialized engine never looks at an edge that cannot be active.
`make_policy` builds a trial's
policy from the plan and binds it to the trial's adversary streams, so
node coins cannot reach it.  Every kind but the adaptive `chained_gap` is
oblivious; that one also reads the engine's public `ObservableHistory`.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gadgets import EDGE_LIMIT, Gadget
from .oracle import exact_success_logprob, log_phase_success_sum, success_peak_degree
from .schedules import Schedule


_NEVER = int(np.iinfo(np.int64).max)  # a round that never comes


class ObservableHistory:
    """The materialized engine's public state, held by reference:
    `delivery`, each node's first delivery round, `count`, the number of
    nodes reached, and `act`, the round after which each node transmits
    (both arrays int64, _NEVER while unreached).  `act` changes only
    together with a delivery: the engine sets a node's entry when the node
    is first reached, in the round `deliver` records it.  Contains no
    private coins."""

    __slots__ = ("delivery", "act", "count")

    def __init__(self, delivery: np.ndarray, act: np.ndarray, count: int = 0):
        self.delivery, self.act, self.count = delivery, act, count

    def deliver(self, nodes, round_index: int) -> None:
        """Record `nodes`, none of them reached before, as first reached in
        round_index."""
        self.delivery[nodes] = round_index
        self.count += len(nodes)


# ---------------------------------------------------------------------------
# lower-bound constructions


class GapPhasePlan(NamedTuple):
    """Receiver degree placed in the largest gap of one phase's log-estimates.

    Built by the ball/bin procedure: for each phase probability p, balls
    floor(log2(1/p)) and ceil(log2(1/p)) occupy the matching bins among
    floor(log2(delta-1)) circular bins; a_k is the (y+1)-st bin of the
    longest empty run, and the phase degree is 2^a_k.
    """

    phase_probs: tuple[float, ...]
    delta: int
    bins: int
    x: int
    y: int
    a_k: int
    degree: int
    occupied: frozenset[int]
    run_start: int
    run_length: int
    hypothesis_ok: bool


_NO_EDGES = np.empty(0, dtype=np.int64)


def uniform_subset(np_rng, m: int, k: int) -> np.ndarray:
    """A uniform k-subset of range(m), without replacement, as positions
    whose order carries no meaning.

    Floyd's algorithm picks k of m with one uniform u_j per j = m-k..m-1:
    it takes t_j = floor(u_j (j+1)), or j itself when t_j is already taken.
    The k uniforms come from one `random(k)` call.  When the t's are
    distinct it took them all; only when some collide is the insertion loop
    replayed on the same uniforms.  k == m is the whole pool and draws
    nothing.
    """
    if not 0 <= k <= m:
        raise ValueError(f"cannot pick {k} of {m}")
    if k == m:
        return np.arange(m, dtype=np.int64)
    if not k:
        return _NO_EDGES
    u = np_rng.random(k)
    keys = (u * np.arange(m - k + 1, m + 1, dtype=np.float64)).astype(np.int64)
    return keys if len(set(keys.tolist())) == k else _floyd(u, m)


def _floyd(u: np.ndarray, m: int) -> np.ndarray:
    """Floyd's insertion loop picking len(u) of m with the uniforms u."""
    chosen: set[int] = set()
    for j, x in zip(range(m - len(u), m), u.tolist()):
        t = int(x * (j + 1))
        chosen.add(j if t in chosen else t)
    return np.fromiter(chosen, dtype=np.int64, count=len(u))


def _circular_runs(occupied: set[int], n_bins: int) -> list[tuple[int, int]]:
    """(start, length) of maximal empty runs in circular bins 1..n_bins."""
    if not occupied:
        return [(1, n_bins)]
    occ = sorted(occupied)
    runs = []
    for i, o in enumerate(occ):
        nxt = occ[(i + 1) % len(occ)]
        length = (nxt - o - 1) % n_bins
        if length > 0:
            start = o % n_bins + 1
            runs.append((start, length))
    return runs


def gap_plan(phase_probs: Sequence[float], delta: int, strict: bool = False) -> GapPhasePlan:
    """Build the empty-bin degree plan for one phase.

    With `strict=True` the theorem hypothesis tau <= log2(delta-1)/16 is
    enforced; by default any structurally feasible configuration is
    accepted (the plan records whether the hypothesis held).  Infeasible
    configurations (offsets x,y not positive, or no empty run long enough)
    are rejected.
    """
    tau = len(phase_probs)
    if tau < 1:
        raise ValueError("phase must contain at least one probability")
    if delta < 10:
        raise ValueError("gap construction needs delta >= 10")
    dot_delta = delta - 1
    n_bins = dot_delta.bit_length() - 1  # floor(log2(delta-1))
    log2_dd = math.log2(dot_delta)
    hypothesis_ok = tau <= log2_dd / 16.0
    if strict and not hypothesis_ok:
        raise ValueError(
            f"stability {tau} violates hypothesis tau <= log2(delta-1)/16 = {log2_dd / 16:.3f}")
    inner = math.floor(math.log(dot_delta) / tau)
    if inner < 1:
        raise ValueError(f"phase of {tau} rounds too long for delta-1 = {dot_delta}")
    y = math.floor(math.log2(inner)) + 1
    x = math.floor(log2_dd / tau) - 3 - math.floor(math.log2(inner))
    if x < 1:
        raise ValueError(
            f"gap construction infeasible: x = {x} < 1 for delta={delta}, tau={tau}")

    occupied: set[int] = set()
    estimates = []
    for p in phase_probs:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"phase probability out of (0,1]: {p}")
        est = -math.log2(p)
        estimates.append(est)
        for ball in (math.floor(est), math.ceil(est)):
            if 1 <= ball <= n_bins:
                occupied.add(ball)

    runs = _circular_runs(occupied, n_bins)
    run_start, run_length = min(runs, key=lambda r: (-r[1], r[0]))
    if run_length < x + y:
        raise ValueError(
            f"longest empty run has {run_length} bins, need x+y = {x + y} "
            f"(delta={delta}, tau={tau})")
    a_k = (run_start - 1 + y) % n_bins + 1

    slop = 1e-9
    for est in estimates:
        if not (est <= a_k - y + slop or est >= a_k + x - 1 - slop):
            raise ValueError(
                f"distance invariant violated: estimate {est:.6g} within "
                f"({a_k - y}, {a_k + x - 1}) around a_k={a_k}")

    return GapPhasePlan(
        phase_probs=tuple(phase_probs),
        delta=delta,
        bins=n_bins,
        x=x,
        y=y,
        a_k=a_k,
        degree=1 << a_k,
        occupied=frozenset(occupied),
        run_start=run_start,
        run_length=run_length,
        hypothesis_ok=hypothesis_ok,
    )


def argmin_degree(phase_probs: Sequence[float], delta: int) -> int:
    """Exponent l* in 0..floor(log2(delta-1)) minimizing the phase success sum.

    Brute force over all exponents; the candidate degree is 2^l* and the
    success sum is sum_i p_i * 2^l* * (1-p_i)^(2^l* - 1), compared in log
    space so that underflowing sums still order correctly.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    dot_delta = delta - 1
    top = dot_delta.bit_length() - 1 if dot_delta >= 1 else 0
    log_probs = [math.log(p) for p in phase_probs]
    best_l, best_val = 0, math.inf
    for l in range(top + 1):
        val = log_phase_success_sum(log_probs, 1 << l)
        if val < best_val:
            best_l, best_val = l, val
    return best_l


class ShiftPlan(NamedTuple):
    """Correlated double-star plan: a random cyclic shift pairs each cycle
    probability with a pre-computed extreme degree response (1 or delta)."""

    cycle_probs: tuple[float, ...]
    delta: int
    sqrt_delta: int
    perfect_square: bool
    estimates: tuple[float, ...]
    responses: tuple[int, ...]
    shift: int

    @property
    def cycle_length(self) -> int:
        return len(self.cycle_probs)

    def redrawn(self, rng) -> ShiftPlan:
        """This plan with its shift drawn uniformly from 1..l."""
        return self._replace(shift=int(rng.integers(1, self.cycle_length + 1)))

    def degree_at(self, t: np.ndarray) -> np.ndarray:
        """Receiver degrees, as float64, in the (1-based) steps of the int64
        array t; s = cycle_length pairs p_i with its own response."""
        step = (t - 1 + self.shift) % self.cycle_length
        return np.array(self.responses, dtype=np.float64)[step]


def shift_plan(cycle_probs: Sequence[float], delta: int, shift: int = 1) -> ShiftPlan:
    """Build the correlated-shift plan for a probability cycle, with the
    given shift in 1..l (`ShiftPlan.redrawn` draws one).

    Estimates are e_i = min(1/p_i, delta); the response is degree 1 when
    e_i >= sqrt(delta) (the guess is already small enough) and the full
    degree delta otherwise (drowning the guess in collisions).
    """
    l = len(cycle_probs)
    if l < 1:
        raise ValueError("cycle must be nonempty")
    sqrt_delta = math.isqrt(delta)
    perfect = sqrt_delta * sqrt_delta == delta
    estimates = []
    responses = []
    for p in cycle_probs:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"cycle probability out of (0,1]: {p}")
        inv = 1.0 / p
        e = min(inv, float(delta)) if math.isfinite(inv) else float(delta)
        estimates.append(e)
        responses.append(1 if e >= sqrt_delta else delta)
    if not 1 <= shift <= l:
        raise ValueError(f"shift must be in 1..{l}")
    return ShiftPlan(
        cycle_probs=tuple(cycle_probs),
        delta=delta,
        sqrt_delta=sqrt_delta,
        perfect_square=perfect,
        estimates=tuple(estimates),
        responses=tuple(responses),
        shift=shift,
    )


class DegreeWalkState:
    """Receiver degree moved a bounded amount per round.

    deterministic variant: |change| <= step_budget every round;
    restricted variant: expected |change| <= step_budget (magnitude drawn
    uniformly from 0..2*step_budget).  `degree` is the start degree;
    `walk_degrees` is given the current one.  `mode` is "dodging" or
    "random".
    """

    __slots__ = ("degree", "step_budget", "max_degree", "mode", "restricted")

    def __init__(self, degree: int, step_budget: int, max_degree: int,
                 mode: str = "dodging", restricted: bool = False):
        if not 1 <= degree <= max_degree:
            raise ValueError("degree out of [1, max_degree]")
        if step_budget < 0:
            raise ValueError("step budget must be >= 0")
        if mode not in ("dodging", "random"):
            raise ValueError(f"unknown walk mode {mode!r}")
        self.degree, self.step_budget, self.max_degree = degree, step_budget, max_degree
        self.mode, self.restricted = mode, restricted


_EXACT = 2 ** 53      # integers below this are exact as float64
_NEAR_PEAK = 1e-6     # relative margin that sends a round near the peak to the scalar rule
_VECTOR_MIN = 16      # shorter calls step by the scalar rule, drawing round by round


def walk_degrees(state: DegreeWalkState, degree: int, log_probs: Sequence[float], rng):
    """Advance the walk one round per entry of `log_probs` (ln of the
    probability the nodes use in that round) from `degree`, by the rules
    of `state`; the degree after each step, as a float64 array, or as
    a list of ints when some degree is 2^53 or more.

    Dodging picks whichever reachable extreme has the lower exact success
    (success is unimodal in the degree, so the interval minimum sits at an
    endpoint); random picks a direction by coin.

    A dodging walk draws nothing but its magnitudes (all of them in one
    `integers` call, which consumes the generator exactly as one call per
    round does), so the rounds where it must go down, at the lower end d -
    mag clipped at 1, are found for the whole call at once: mag 0, lo ==
    hi, or hi clearly below the peak (1-p)/p.  Up to the first other round
    the path is max(1, d - cumsum(mags)); from there the scalar rule steps
    each round.
    """
    budget, cap = state.step_budget, state.max_degree
    restricted, dodging = state.restricted, state.mode == "dodging"
    randint, coin = rng.integers, rng.random
    d = degree
    n = len(log_probs)
    head = ()
    if dodging and n >= _VECTOR_MIN and d + 2 * budget < _EXACT:
        mags = rng.integers(0, 2 * budget + 1, size=n) if restricted else np.full(n, budget)
        lps = np.asarray(log_probs, dtype=np.float64)
        path = np.maximum(1.0, d - np.cumsum(mags, dtype=np.float64))
        prev = np.concatenate(([float(d)], path[:-1]))
        hi = np.minimum(prev + mags, float(min(cap, _EXACT)))
        p = np.exp(lps)
        # hi * p < 1 - p is hi < (1-p)/p without the overflow at subnormal p
        down = (mags == 0) | (path == hi) | (hi * p < (1.0 - p) * (1.0 - _NEAR_PEAK))
        stop = n if down.all() else int(np.argmin(down))
        if stop == n:
            return path
        head, d = path[:stop], int(prev[stop])
        mags, log_probs = mags[stop:].tolist(), lps[stop:]
    elif restricted:  # drawn round by round: random mode draws its coins in between
        mags = (int(randint(0, 2 * budget + 1)) for _ in range(n))
    else:
        mags = itertools.repeat(budget, n)
    if isinstance(log_probs, np.ndarray):
        log_probs = log_probs.tolist()
    out = []
    for lp, mag in zip(log_probs, mags):
        if mag:
            lo = d - mag
            if lo < 1:
                lo = 1
            hi = d + mag
            if hi > cap:
                hi = cap
            if lo == hi:
                d = lo
            elif not dodging:
                d = hi if coin() < 0.5 else lo
            else:
                p = math.exp(lp)
                # underflowed p: the peak (1-p)/p is beyond any degree
                peak = success_peak_degree(p) if p > 0.0 else math.inf
                if hi < peak:
                    d = lo
                elif lo > peak:
                    d = hi
                else:
                    s_lo = exact_success_logprob(lo, lp)
                    s_hi = exact_success_logprob(hi, lp)
                    d = lo if s_lo <= s_hi else hi
        out.append(d)
    if out and max(out) >= _EXACT:
        return [int(x) for x in head] + out
    return np.concatenate((head, out)) if len(head) else np.array(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# policies


_WHOLE_RUN = 2 ** 62  # block length standing for tau = infinity


class AdversaryPolicy:
    """Per-trial mutable policy instance, built from its point's plan by
    `make_policy`, which binds the only streams it draws from: `np_rng` and
    `q_rng`.

    The distribution may change only where a tau-round block starts (tau
    None: the whole run is one block).  `pre_round` enters the blocks of a
    range of rounds, in order, through the hook `_blocks`; a single round
    whose block is new, from round `_next` on, is entered by `_enter`,
    through the hook `_enter_block`.  Given the new blocks' indices the
    hooks draw their distributions and return their fingerprints, which
    `change_log` records wherever they differ from the last.  `pre_round`
    returns the next round it must see, `_next`, the first of the next
    block.  `_degrees` maps a chunk of rounds to the receiver's degrees and
    `_degree` one round to its degree, by default through `_degrees`.  The
    analytic engine calls `degrees`, which enters every block of a chunk of
    rounds at once, or for a single round calls `_enter` itself when the
    round's block is new.
    The materialized engine calls `sample_edges` once every round, and
    before it `pre_round` in round 1, in the round `pre_round` last
    returned and in each round after a delivery; a call in any other round
    changes nothing.  Rounds are asked for in order.
    """

    def __init__(self, tau: int | None, arms: int = 0):
        self.tau = tau
        self.arms = arms  # the receiver's unreliable arms, unreliable edges 0..arms-1
        self.change_log: list[tuple[int, object]] = []
        self._fingerprint: object = None
        self._span = tau or _WHOLE_RUN
        self._block = -1  # the last block entered
        self._next = 1  # the first round of the block after it

    # -- stability bookkeeping

    def _record(self, round_index: int, fingerprint: object) -> None:
        if fingerprint != self._fingerprint:
            self.change_log.append((round_index, fingerprint))
            self._fingerprint = fingerprint

    def _enter(self, round_index: int) -> None:
        """Enter the block of round_index, a round from `_next` on, the one
        block a single round can enter (`pre_round`'s and `degrees`' one
        round)."""
        span = self._span
        block = self._block = (round_index - 1) // span
        self._next = (block + 1) * span + 1 if self.tau else _NEVER
        fingerprint = self._enter_block(block)
        # `_record` inline: at tau = 1 every stepped round enters a block
        if fingerprint != self._fingerprint:
            self.change_log.append((round_index, fingerprint))
            self._fingerprint = fingerprint

    def pre_round(self, round_index: int, through: int | None = None) -> int:
        """Enter the blocks of rounds round_index..through (by default
        round_index alone) that were not entered yet; the next round that
        must be entered, the first of the next block (_NEVER for tau None)."""
        if through is None:  # one round: only its own block can be new
            if round_index >= self._next:
                self._enter(round_index)
            return self._next
        if through >= self._next:
            span = self._span
            first = max((round_index - 1) // span, self._block + 1)
            last = self._block = (through - 1) // span
            self._next = (last + 1) * span + 1 if self.tau else _NEVER
            begin = first * span + 1
            changes = self._blocks(range(first, last + 1))
            log = self.change_log
            _, fp = changes[0]
            if fp != self._fingerprint:
                # block `first` may have begun before round_index
                log.append((max(round_index, begin), fp))
            for i, fp in changes[1:]:
                log.append((begin + i * span, fp))
            self._fingerprint = fp
        return self._next

    def degrees(self, start_round: int, count: int):
        """Receiver effective degrees for rounds start..start+count-1; for
        one round, the one degree of `_degree`, its block entered without
        a call to `pre_round`."""
        if count == 1:
            if start_round >= self._next:
                self._enter(start_round)
            return self._degree(start_round)
        self.pre_round(start_round, through=start_round + count - 1)
        return self._degrees(np.arange(start_round, start_round + count))

    def sample_edges(self, round_index: int, tx: np.ndarray) -> np.ndarray:
        """Indices of the gadget's unreliable edges active this round, all in the
        plan's reach: every one that touches a node of `tx`, the round's
        counted transmitters in increasing order; any other may be left out.
        The stream moves as if every edge were drawn.  `pre_round` has
        entered the round's block.

        By default the active edges are a uniform (d-1)-subset of the
        receiver's unreliable arms for the round's degree d, drawn in full."""
        d = int(self._degree(round_index))
        return uniform_subset(self.np_rng, self.arms, d - 1)

    # -- hooks

    def _blocks(self, blocks: range) -> list[tuple[int, object]]:
        """Enter `blocks`, in order: (i, fingerprint) for block blocks[i]
        for i = 0 and wherever the fingerprint differs from the block
        before; `pre_round` compares only the first with the last recorded."""
        raise NotImplementedError

    def _enter_block(self, block: int) -> object:
        """Enter the one block `block`, all that a single round can enter:
        its fingerprint.  By default through `_blocks`; a policy whose
        `_blocks` does more work than one block needs overrides it."""
        return self._blocks(range(block, block + 1))[0][1]

    def _degrees(self, rounds):
        """Degrees for an int64 array of consecutive rounds, within the
        blocks entered."""
        raise NotImplementedError

    def _degree(self, round_index: int):
        """The degree of one round, in the last block entered: a float, or
        an int of 2^53 or more, which a float would round.  By default the
        last entry of `_degrees` over that one round."""
        return self._degrees(np.arange(round_index, round_index + 1))[-1]


class StaticPolicy(AdversaryPolicy):
    """Point distribution on one fixed subset of unreliable edges (sorted
    int64 indices), under which the receiver has effective degree
    `degree`.  A fixed distribution is one block whatever tau is; `named`
    is the subset as configured, its change-log fingerprint."""

    def __init__(self, edge_indices: np.ndarray, degree: float, named: object):
        super().__init__(None)
        self.edge_indices, self.degree, self.named = edge_indices, degree, named

    def _blocks(self, blocks):
        return [(0, self.named)]

    def _degrees(self, rounds):
        return np.full(len(rounds), self.degree)

    def sample_edges(self, round_index, tx):
        return self.edge_indices


class IidSubsetPolicy(AdversaryPolicy):
    """Each unreliable edge independently present with probability q.

    With `edge_prob=None` a fresh q ~ U(0,1) is drawn at every block
    boundary, which is the strongest re-randomizing member of the family;
    q comes from the adversary's q stream `q_rng`, one double per block in
    block order, so it does not depend on how the blocks are batched or on
    the degree and edge draws.  A fixed q is one block whatever tau is.
    `_q` is the q of the last block entered.  `_qs` holds the q of each
    block from `_qs_from` to the last that `_blocks` entered: the blocks it
    entered, after the block before them, in which a chunk may begin.

    One round draws its arm count with one scalar-q `binomial` call, a chunk
    of rounds in one block all of them with one scalar-q call, and a chunk
    that spans several blocks with one call given each round's q.  All
    three forms take the same draws from the stream.
    """

    def __init__(self, tau, edge_prob: float | None, n_unreliable: int, arms: int):
        super().__init__(tau if edge_prob is None else None, arms)
        self.edge_prob = edge_prob
        self.n_unreliable = n_unreliable
        self._q = math.nan  # no block before the first
        self._qs: list[float] = []
        self._qs_from = 0

    def _blocks(self, blocks):
        if self.edge_prob is not None:
            qs = [self.edge_prob]
        else:
            qs = self.q_rng.random(len(blocks)).tolist()
        self._qs = [self._q, *qs]
        self._qs_from = blocks.start - 1
        self._q = qs[-1]
        return [(i, ("iid", q)) for i, q in enumerate(qs) if not i or q != qs[i - 1]]

    def _enter_block(self, block):
        q = self._q = self.edge_prob if self.edge_prob is not None else self.q_rng.random()
        return ("iid", q)

    def sample_edges(self, round_index, tx):
        mask = self.np_rng.random(self.n_unreliable) < self._q
        return np.flatnonzero(mask)

    def _degree(self, round_index):
        return 1.0 + self.np_rng.binomial(self.arms, self._q)

    def _degrees(self, rounds):
        # a chunk in one block lies in the last block entered; one that
        # spans more lies in the blocks `_blocks` entered for it, and the
        # block before them
        span = self._span
        start, count = int(rounds[0]) - 1, len(rounds)
        if start // span == (start + count - 1) // span:
            return 1.0 + self.np_rng.binomial(self.arms, self._q, count)
        q = np.array(self._qs)[(rounds - 1) // span - self._qs_from]
        return 1.0 + self.np_rng.binomial(self.arms, q)


def phase_cycle_probs(schedule: Schedule, tau: int, phase: int) -> list[float]:
    """The tau cycle probabilities the nodes use in (0-based) phase `phase`."""
    k = schedule.cycle_length
    return [math.exp(schedule.log_probs[(phase * tau + j) % k]) for j in range(tau)]


class PhaseDegrees:
    """The receiver degree that `kind`'s construction places in each 0-based
    phase, given its probabilities `phase_cycle_probs(schedule, tau,
    phase)`: 2^argmin_degree for argmin, the `gap_plan` degree (`strict` as
    there) for gap and chained_gap.

    A phase's degree depends only on where it starts in the probability
    cycle, phase * tau mod k, so the degrees repeat every k / gcd(tau, k)
    phases: phase p has degree `ints[p % period]`, `floats` holds the
    same as float64 and `fingerprints` as change-log fingerprints.  Each is
    computed once per sweep point, in phase order, when first asked for.
    """

    def __init__(self, schedule: Schedule, tau: int, kind: str, delta: int, strict: bool):
        k = schedule.cycle_length
        self.period = k // math.gcd(tau, k)
        self.schedule, self.tau, self.kind, self.delta, self.strict = \
            schedule, tau, kind, delta, strict
        self.ints: list[int] = []
        self.floats = np.empty(0)
        self.fingerprints: list[tuple[str, int]] = []

    def __call__(self, phase: int) -> int:
        if len(self.ints) < min(phase + 1, self.period):
            for ph in range(len(self.ints), min(phase + 1, self.period)):
                probs = phase_cycle_probs(self.schedule, self.tau, ph)
                self.ints.append(1 << argmin_degree(probs, self.delta) if self.kind == "argmin"
                                 else gap_plan(probs, self.delta, strict=self.strict).degree)
            self.floats = np.array(self.ints, dtype=np.float64)
            self.fingerprints = [("fixed-degree", d) for d in self.ints]
        return self.ints[phase % self.period]


class PhaseDegreePolicy(AdversaryPolicy):
    """One receiver degree per tau-round phase, looked up in the point's
    table (the gap or the argmin construction)."""

    def __init__(self, tau: int, table: PhaseDegrees, arms: int):
        super().__init__(tau, arms)
        self._phase_degree = table

    def _blocks(self, blocks):
        table = self._phase_degree
        table(blocks[-1])
        values = table.floats[np.arange(blocks.start, blocks.stop) % table.period]
        changed = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()]
        return [(i, table.fingerprints[blocks[i] % table.period]) for i in changed]

    def _enter_block(self, block):
        table = self._phase_degree
        table(block)
        return table.fingerprints[block % table.period]

    def _degrees(self, rounds):
        table = self._phase_degree
        return table.floats[(rounds - 1) // self.tau % table.period]

    def _degree(self, round_index):
        table = self._phase_degree
        return float(table.ints[(round_index - 1) // self.tau % table.period])


class CorrelatedShiftPolicy(AdversaryPolicy):
    """One distribution for the whole run (tau = infinity) whose per-round
    degrees become deterministic once the shift is drawn: the point's
    `plan`, its shift drawn in the trial unless `draw_shift` is false."""

    def __init__(self, plan: ShiftPlan, draw_shift: bool, arms: int):
        super().__init__(None, arms)
        self.plan, self.draw_shift = plan, draw_shift

    def _blocks(self, blocks):
        if self.draw_shift:
            self.plan = self.plan.redrawn(self.np_rng)
        return [(0, ("shift", self.plan.shift))]

    def _degrees(self, rounds):
        return self.plan.degree_at(rounds)


class DegreeWalkPolicy(AdversaryPolicy):
    """Correlated walk on the receiver degree with a per-round change budget:
    `walk` as checked at compile time, its current degree in `degree`."""

    def __init__(self, tau, schedule: Schedule, walk: DegreeWalkState, arms: int):
        super().__init__(tau, arms)
        self.schedule, self.walk = schedule, walk
        self.degree = walk.degree
        self._round = 1  # the round whose degree `degree` holds

    def _blocks(self, blocks):
        # the walk's blocks draw nothing
        return [(i, ("walk-block", b)) for i, b in enumerate(blocks)]

    def _degree(self, round_index):
        # round r's degree is the walk after r - 1 steps; rounds come in order
        k = self.schedule.cycle_length
        log_p = [self.schedule.log_probs[r % k] for r in range(self._round, round_index)]
        steps = walk_degrees(self.walk, self.degree, log_p, self.np_rng)
        if len(steps):
            self.degree = int(steps[-1])
            self._round = round_index
        return self.degree if self.degree >= _EXACT else float(self.degree)

    def _degrees(self, rounds):
        last = int(rounds[-1])
        before = self.degree
        k = self.schedule.cycle_length
        steps = walk_degrees(self.walk, before,
                             self.schedule.log_prob_array[np.arange(self._round, last) % k],
                             self.np_rng)
        if len(steps):
            self.degree = int(steps[-1])
            self._round = last
        if len(rounds) == len(steps):
            return steps
        # the first call also asks for round 1, which no step reaches
        if isinstance(steps, list) or before >= _EXACT:
            return [before, *map(int, steps)]
        return np.concatenate(([float(before)], steps))


class ChainSections(NamedTuple):
    """What every `chained_gap` trial of a chain shares, built once per point."""

    sizes: list[int]       # each section's unreliable arm count
    offsets: list[int]     # section s's arms are the edges offsets[s]..offsets[s + 1] - 1
    heads: np.ndarray      # each section's first arm, whose activation starts its phases
    receivers: np.ndarray  # each section's local receiver
    section_of: list[int]  # each node's section (past the last section: the last)


def chain_sections(gadget: Gadget) -> ChainSections:
    """The sections of a chain, whose section s holds the nodes from its hub
    up to the next section's hub."""
    sections = gadget.sections
    sizes = [len(s.unreliable_indices) for s in sections]
    hubs = [s.hub for s in sections]
    nodes = np.arange(gadget.node_count)
    return ChainSections(
        sizes=sizes,
        offsets=[0, *itertools.accumulate(sizes)],
        heads=np.array([s.arms[0] for s in sections], dtype=np.int64),
        receivers=np.array([s.receiver for s in sections], dtype=np.int64),
        section_of=(np.searchsorted(hubs, nodes, side="right") - 1).tolist())


class ChainedGapPolicy(AdversaryPolicy):
    """Per-gadget phase degrees for the chained graph.

    Gadgets the message has not reached hold their first-phase degree; the
    frontier gadget advances to the next phase's degree only after its
    relay arms have transmitted a full phase of probabilities; a gadget
    whose local receiver has the message keeps its final degree forever.
    Advancement is therefore never faster than once per tau rounds.

    Section s's phase j begins in round act + 1 + (j - 1) tau, act being
    its first arm's activation round (see `ObservableHistory`).

    When every phase has one degree (a period-1 table), a section's degree
    changes only when it freezes, and `pre_round` looks for newly frozen
    sections only in the first round and in a round after a delivery (it
    returns at once in any other) and returns _NEVER.  With a longer period
    it rescans every section's phase every round and returns the next.

    A rescan that finds newly reached receivers freezes their sections and
    drops them from the live heads and receivers with one boolean mask; a
    freeze keeps a section's degree, so the uniform counts of a full draw
    (`_first`) are recounted only when a degree changes.

    Each round every gadget's unreliable arms get a fresh uniform subset,
    one `uniform_subset` per section, in section order from one stream, but
    only the sections from the first to the last that a counted transmitter
    lies in are drawn (most often one): an unreliable edge joins two nodes
    of one section.  The other sections' uniforms are owed and skipped with
    one `advance` of `np_rng` (a PCG64 double is one 64-bit output) before
    the next draw.
    """

    def __init__(self, tau: int, table: PhaseDegrees, chain: ChainSections):
        super().__init__(tau)
        # table: a section's degree per phase
        self._phase_degree, self.chain = table, chain
        count = len(chain.sizes)
        self.section_degree = [table(0)] * count
        self.section_frozen = [False] * count
        self._live = list(range(count))  # the sections not frozen
        self._live_heads, self._live_receivers = chain.heads, chain.receivers
        self._first: list[int] = []  # uniforms a full draw takes before section s
        self._owed = 0  # uniforms skipped but not yet advanced past
        self._seen = -1  # the deliveries made before the last rescan

    def _phase_at(self, round_index: int, act: int) -> int:
        # Python ints: an unreached head's int64 max + 1 must not wrap
        return 1 + max(0, round_index - act - 1) // self.tau

    def pre_round(self, round_index):
        history, table = self.history, self._phase_degree
        if history.count == self._seen and table.period == 1:
            return _NEVER
        changed = moved = self._fingerprint is None
        received = history.delivery[self._live_receivers] != _NEVER
        if received.any():
            for j in received.nonzero()[0].tolist():
                self.section_frozen[self._live[j]] = changed = True
            self._live = [i for i in self._live if not self.section_frozen[i]]
            kept = ~received
            self._live_heads = self._live_heads[kept]
            self._live_receivers = self._live_receivers[kept]
        if table.period > 1:  # under period 1 every phase has the first phase's degree
            acts = history.act[self._live_heads].tolist()
            for i, act in zip(self._live, acts):
                degree = table(self._phase_at(round_index, act) - 1)
                if degree != self.section_degree[i]:
                    self.section_degree[i] = degree
                    changed = moved = True
        self._seen = history.count
        if moved:
            self._enter_degrees()
        if changed:
            self._record(round_index, ("chained", tuple(zip(self.section_degree,
                                                            self.section_frozen))))
        return _NEVER if table.period == 1 else round_index + 1

    def _enter_degrees(self) -> None:
        """Count, for `section_degree`, the uniforms a full draw takes before
        each section (a section picking none or all of its arms takes none)."""
        self._first = [0, *itertools.accumulate(
            d - 1 if 1 < d <= m else 0 for d, m in zip(self.section_degree, self.chain.sizes))]

    def sample_edges(self, round_index, tx):
        first = self._first
        if not len(tx):
            self._owed += first[-1]
            return _NO_EDGES
        chain = self.chain
        lo, hi = chain.section_of[tx[0]], chain.section_of[tx[-1]]
        skip = self._owed + first[lo]
        if skip:
            self.np_rng.bit_generator.advance(skip)
        if lo == hi:
            positions = uniform_subset(self.np_rng, chain.sizes[lo], self.section_degree[lo] - 1)
            if lo:
                positions += chain.offsets[lo]  # a fresh array, or an empty one
        else:
            positions = np.concatenate([
                uniform_subset(self.np_rng, chain.sizes[s], self.section_degree[s] - 1)
                + chain.offsets[s] for s in range(lo, hi + 1)])
        self._owed = first[-1] - first[hi + 1]
        return positions


# ---------------------------------------------------------------------------
# construction from config


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# what each adversary key must hold: (test, description for messages)
_KEY_TYPES = {
    "tau": (lambda v: v is None or is_int(v) and v >= 1, "a positive integer or null"),
    "edges": (lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers"),
    "extra_degree": (is_int, "an integer"),
    "edge_prob": (lambda v: v is None or (is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
                  "a number in [0, 1] or null"),  # NaN fails the range
    "strict": (lambda v: isinstance(v, bool), "true or false"),
    "shift": (is_int, "an integer"),
    "l": (is_int, "an integer"),
    "walk_mode": (lambda v: v in ("dodging", "random"), "dodging or random"),
    "start_degree": (is_int, "an integer"),
}
_WALK_KEYS = ("l", "walk_mode", "start_degree")
# the keys each kind reads besides `kind` and `tau`
ADVERSARY_KEYS = {
    "static": ("edges", "extra_degree"),
    "iid_subset": ("edge_prob",),
    "gap": ("strict",),
    "chained_gap": ("strict",),
    "argmin": (),
    "correlated_shift": ("shift",),
    "degree_walk_deterministic": _WALK_KEYS,
    "degree_walk_restricted": _WALK_KEYS,
}


def check_spec(spec: dict) -> None:
    """Raise ValueError naming the key unless `spec` has a known kind
    (default static), only keys that kind reads, each holding its type, a
    positive integer or None as `tau` (finite for the phase kinds), and `l`
    for a walk.  Checks that depend on the gadget are left to
    `compile_adversary`."""
    kind = spec.get("kind", "static")
    if not isinstance(kind, str) or kind not in ADVERSARY_KEYS:
        raise ValueError(f"adversary.kind: unknown kind {kind!r}")
    reads = ADVERSARY_KEYS[kind]
    for key, value in spec.items():
        if key == "kind":
            continue
        if key != "tau" and key not in reads:
            raise ValueError(f"adversary.{key}: {kind} reads only "
                             f"{', '.join(('tau',) + reads)}")
        test, what = _KEY_TYPES[key]
        if not test(value):
            raise ValueError(f"adversary.{key}: must be {what}, got {value!r}")
    if "l" in reads and "l" not in spec:
        raise ValueError("adversary.l: required for degree walks")
    if kind in ("gap", "argmin", "chained_gap") and spec.get("tau") is None:
        raise ValueError(f"adversary.tau: {kind} needs a finite tau")


class AdversaryPlan(NamedTuple):
    """A sweep point's compiled adversary: `build()` makes a trial a fresh,
    unbound policy from what the trials share, and `reach` holds, sorted,
    every unreliable edge index that policy's `sample_edges` can return
    (None: any edge)."""

    build: Callable[[], AdversaryPolicy]
    reach: np.ndarray | None


def compile_adversary(spec: dict, gadget: Gadget, schedule: Schedule) -> AdversaryPlan:
    """A sweep point's plan.  Every config check is made here, once per
    point: `check_spec`'s, then those that need the gadget, down to the gap
    construction's feasibility in every phase.  A `static` policy reaches
    its subset and every other kind every edge: on a star or double star
    every unreliable edge is one of the receiver's arms, 0..arms-1."""
    check_spec(spec)
    kind = spec.get("kind", "static")
    tau = spec.get("tau")
    recv, arms = gadget.receiver, gadget.arms

    if kind in ("gap", "argmin", "degree_walk_deterministic", "degree_walk_restricted") \
            and recv is None:
        raise ValueError(f"{kind} acts on a designated receiver's unreliable arms; "
                         f"a {gadget.kind} gadget has no designated receiver")
    if kind == "chained_gap" and gadget.kind != "chained":
        raise ValueError(f"chained_gap needs a chained gadget; got a {gadget.kind} gadget")
    if kind in ("gap", "argmin", "chained_gap"):
        # degrees up to 2^floor(log2(delta - 1)) and the phase probabilities
        # are doubles; argmin's table is filled mid-run, so decide it here
        least = min(schedule.log_probs) / math.log(2)  # log2 of the smallest probability
        if gadget.delta - 1 >= 2 ** 1024 or least < -1074:
            raise ValueError(
                f"{kind} computes its phase degrees and probabilities as doubles, so it "
                f"needs delta - 1 < 2^1024 and every schedule probability at least "
                f"2^-1074; got delta - 1 = 2^{math.log2(gadget.delta - 1):.6g} and a "
                f"smallest probability of 2^{least:.6g}")
        table = PhaseDegrees(schedule, tau, kind, gadget.delta, spec.get("strict", False))
        if kind != "argmin":
            table(table.period - 1)  # an infeasible phase raises here
        if kind != "chained_gap":
            return AdversaryPlan(partial(PhaseDegreePolicy, tau, table, arms), None)
        return AdversaryPlan(partial(ChainedGapPolicy, tau, table, chain_sections(gadget)), None)
    if kind == "static":
        # one subset for both engines: the listed `edges`, or the receiver's
        # first `extra_degree` unreliable arms
        if "edges" in spec and "extra_degree" in spec:
            raise ValueError("static takes either edges or extra_degree, not both")
        edges = list(spec.get("edges", ()))
        n_unreliable = gadget.unreliable_count
        bad = [e for e in edges if not 0 <= e < n_unreliable]
        if bad:
            raise ValueError(f"static edges {bad} are not unreliable edge indices "
                             f"0..{n_unreliable - 1} of the {gadget.kind} gadget")
        wide = [e for e in edges if e >= 2 ** 63]
        if wide:
            raise ValueError(f"static keeps its edges as 64-bit indices, so it needs every "
                             f"index < 2^63; got {wide}")
        repeated = sorted({e for e in edges if edges.count(e) > 1})
        if repeated:
            raise ValueError(f"static edges {repeated} are listed more than once")
        extra = spec.get("extra_degree", 0)
        if "extra_degree" in spec:
            if not 0 <= extra <= arms:
                raise ValueError(f"static extra_degree {extra!r} is not in 0..{arms}, the "
                                 f"receiver's unreliable arm count on the {gadget.kind} gadget")
            if 1 + extra >= 2 ** 1024 - 2 ** 970:  # would round past the largest double
                raise ValueError(
                    f"static computes the receiver's degree 1 + extra_degree as a double, so "
                    f"it needs 1 + extra_degree < 2^1024 - 2^970; got 1 + extra_degree = "
                    f"2^{math.log2(1 + extra):.6g}")
            # the receiver's first `extra` arms, never read on a gadget too
            # large to simulate
            subset = np.arange(extra if gadget.delta < EDGE_LIMIT else 0)
            degree = 1 + extra
        else:
            subset, degree = edges, 1 + sum(e < arms for e in edges)
        subset = np.sort(np.asarray(subset, dtype=np.int64))
        return AdversaryPlan(partial(StaticPolicy, subset, float(degree),
                                     ("static", tuple(sorted(edges)), extra)), subset)
    if kind == "iid_subset":
        if arms >= 2 ** 63:
            raise ValueError(f"iid_subset draws the receiver's active arm count as a 64-bit "
                             f"binomial, so its {arms} unreliable arms (delta - 2 on a "
                             f"star, delta - 1 on a double star) must be fewer than 2^63")
        return AdversaryPlan(partial(IidSubsetPolicy, tau, spec.get("edge_prob"),
                                     gadget.unreliable_count, arms), None)
    if kind == "correlated_shift":
        if gadget.kind != "double_star":
            raise ValueError(
                f"correlated_shift needs a double_star gadget, where the receiver can "
                f"reach degree delta; got a {gadget.kind} gadget")
        if gadget.delta >= _EXACT:
            raise ValueError(
                f"correlated_shift computes the receiver's degrees 1 and delta as doubles, so "
                f"it needs delta < 2^53; got delta = 2^{math.log2(gadget.delta):.6g}")
        plan = shift_plan(schedule.cycle, gadget.delta, spec.get("shift", 1))
        return AdversaryPlan(partial(CorrelatedShiftPolicy, plan, "shift" not in spec, arms),
                             None)
    # a degree walk
    start = DegreeWalkState(degree=spec.get("start_degree", 1), step_budget=spec["l"],
                            max_degree=arms + 1, mode=spec.get("walk_mode", "dodging"),
                            restricted=kind == "degree_walk_restricted")
    return AdversaryPlan(partial(DegreeWalkPolicy, tau, schedule, start, arms), None)


def make_policy(plan: AdversaryPlan, np_rng, q_rng,
                history: ObservableHistory | None = None) -> AdversaryPolicy:
    """A trial's fresh policy from its point's plan, bound to the trial's
    adversary streams and, for `chained_gap`, to the engine's `history`."""
    policy = plan.build()
    policy.np_rng, policy.q_rng, policy.history = np_rng, q_rng, history
    return policy
