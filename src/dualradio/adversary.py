"""Fading-adversary policies and the worst-case constructions.

In the star gadgets an adversary acts only through the designated
receiver's effective degree: 1 plus the unreliable arms it activates.
Each receiver-degree policy states that degree once, in `_degrees`.  The
analytic engine reads it through `AdversaryPolicy.degrees`; the
materialized engine calls `AdversaryPolicy.sample_edges`, the one way of
turning a degree d into edges: a uniform (d-1)-subset of the receiver's
unreliable arms.  Only `static`, `iid_subset` and `chained_gap`, which
name edges beyond one receiver's arms, pick their edges themselves.

Policies may change the distribution they draw from at most once every
`tau` rounds: the rule lives in `AdversaryPolicy.pre_round`, which both
engines' calls go through, and every distribution change is appended to
`change_log` so the engine can audit it.  The degree walk has one step
rule, `walk_degrees`, and every random edge subset comes from
`draw_subsets`, one generator call per round.

`make_policy` binds a policy to its trial's adversary streams, so node
coins cannot reach it.  Every kind but the adaptive `chained_gap` is
oblivious; that one also keeps the engine's public `ObservableHistory`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gadgets import Gadget
from .oracle import exact_success_logprob, log_phase_success_sum, success_peak_degree
from .schedules import Schedule


@dataclass
class ObservableHistory:
    """The materialized engine's public state, held by reference: each
    node's first delivery round, and `act`, the round after which each node
    transmits (int64 max while unreached).  Contains no private coins."""

    first_delivery: dict[int, int]
    act: np.ndarray


# ---------------------------------------------------------------------------
# lower-bound constructions


@dataclass(frozen=True)
class GapPhasePlan:
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


class SubsetLayout(NamedTuple):
    """Where each subset of a `draw_subsets` call sits in its draw."""

    total: int            # uniforms drawn
    span: np.ndarray      # j + 1 for each uniform, as a float
    base: np.ndarray      # offset of each uniform's pool among the concatenated pools
    offsets: np.ndarray   # pool offset of each subset that draws
    drawn: tuple[tuple[int, int, int, int], ...]  # (first uniform, pool offset, m, k)
    whole: np.ndarray     # positions of the pools taken whole


def subset_layout(sizes: Sequence[int], picks: Sequence[int]) -> SubsetLayout:
    """The layout of drawing a uniform picks[i]-subset of range(sizes[i])
    for every i; pool i starts at sum(sizes[:i])."""
    span, base, drawn, whole = [], [], [], []
    offset = first = 0
    for m, k in zip(sizes, picks):
        if not 0 <= k <= m:
            raise ValueError(f"cannot pick {k} of {m}")
        if k == m:
            whole.append(np.arange(offset, offset + m, dtype=np.int64))
        elif k:
            span.append(np.arange(m - k + 1, m + 1, dtype=np.float64))
            base.append(np.full(k, offset, dtype=np.int64))
            drawn.append((first, offset, m, k))
            first += k
        offset += m

    def joined(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return SubsetLayout(first, joined(span, np.float64), joined(base, np.int64),
                        np.array([d[1] for d in drawn], dtype=np.int64), tuple(drawn),
                        joined(whole, np.int64))


def draw_subsets(np_rng, layout: SubsetLayout) -> np.ndarray:
    """One uniform subset per pool of `layout`, as positions into the
    concatenated pools.  The order of the positions carries no meaning.

    Floyd's algorithm picks k of m with one uniform u_j per j = m-k..m-1:
    it takes t_j = floor(u_j (j+1)), or j itself when t_j is already taken.
    Every subset's uniforms come from one `random(total)` call, which
    consumes the stream exactly as one `random(k)` call per subset, in
    order, would.  A subset whose t's are distinct took them all; only a
    subset whose t's collide replays the insertion loop on its own
    uniforms.  A subset with k == m is its whole pool and draws nothing.
    """
    if not layout.total:
        return layout.whole
    u = np_rng.random(layout.total)
    keys = (u * layout.span).astype(np.int64)
    keys += layout.base
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(repeated):
        # pools are disjoint ranges, so a repeated key names its subset
        owners = np.searchsorted(layout.offsets, repeated, side="right") - 1
        for s in set(owners.tolist()):
            first, offset, m, k = layout.drawn[s]
            chosen: set[int] = set()
            for j, x in zip(range(m - k, m), u[first:first + k].tolist()):
                t = int(x * (j + 1))
                chosen.add(j if t in chosen else t)
            keys[first:first + k] = np.fromiter(chosen, dtype=np.int64, count=k) + offset
    if len(layout.whole):
        return np.concatenate((keys, layout.whole))
    return keys


def uniform_subsets(np_rng, sizes: Sequence[int], picks: Sequence[int]) -> np.ndarray:
    """Uniform picks[i]-subsets of range(sizes[i]) without replacement, for
    every i, from one generator call (see `draw_subsets`)."""
    return draw_subsets(np_rng, subset_layout(sizes, picks))


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


@dataclass(frozen=True)
class ShiftPlan:
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

    def degree_at(self, t):
        """Receiver degree in (1-based) step t, or a float64 array of them
        for an int64 array of steps; s = cycle_length pairs p_i with its own
        response."""
        step = (t - 1 + self.shift) % self.cycle_length
        if isinstance(step, np.ndarray):
            return np.array(self.responses, dtype=np.float64)[step]
        return self.responses[step]


def shift_plan(cycle_probs: Sequence[float], delta: int, rng,
               forced_shift: int | None = None) -> ShiftPlan:
    """Build the correlated-shift plan for a probability cycle.

    Estimates are e_i = min(1/p_i, delta); the response is degree 1 when
    e_i >= sqrt(delta) (the guess is already small enough) and the full
    degree delta otherwise (drowning the guess in collisions).  The shift
    is drawn uniformly from 1..l once per execution unless forced.
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
    if forced_shift is not None:
        if not 1 <= forced_shift <= l:
            raise ValueError(f"shift must be in 1..{l}")
        s = forced_shift
    else:
        s = int(rng.integers(1, l + 1))
    return ShiftPlan(
        cycle_probs=tuple(cycle_probs),
        delta=delta,
        sqrt_delta=sqrt_delta,
        perfect_square=perfect,
        estimates=tuple(estimates),
        responses=tuple(responses),
        shift=s,
    )


@dataclass(frozen=True)
class DegreeWalkState:
    """Receiver degree moved a bounded amount per round.

    deterministic variant: |change| <= step_budget every round;
    restricted variant: expected |change| <= step_budget (magnitude drawn
    uniformly from 0..2*step_budget).
    """

    degree: int
    step_budget: int
    max_degree: int
    mode: str = "dodging"  # or "random"
    restricted: bool = False

    def __post_init__(self):
        if not 1 <= self.degree <= self.max_degree:
            raise ValueError("degree out of [1, max_degree]")
        if self.step_budget < 0:
            raise ValueError("step budget must be >= 0")
        if self.mode not in ("dodging", "random"):
            raise ValueError(f"unknown walk mode {self.mode!r}")


_EXACT = 2 ** 53      # integers below this are exact as float64
_NEAR_PEAK = 1e-6     # relative margin that sends a round near the peak to the scalar rule
_VECTOR_MIN = 16      # shorter calls step by the scalar rule, drawing round by round


def walk_degrees(state: DegreeWalkState, log_probs: Sequence[float], rng):
    """Advance the walk one round per entry of `log_probs` (ln of the
    probability the nodes use in that round); the degree after each step,
    as a float64 array, or as a list of ints when some degree is 2^53 or
    more.

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
    d = state.degree
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
    """Per-trial mutable policy instance; it draws only from the adversary
    streams `np_rng` and `py_rng` that `make_policy` binds.

    The distribution may change only where a tau-round block starts (tau
    None: the whole run is one block).  `pre_round` enters the blocks of a
    range of rounds, in order, through one hook, `_blocks`: given the new
    blocks' indices it draws their distributions and returns their values
    (kept in `block_values`) and their fingerprints, which `change_log`
    records wherever they differ from the last.  `_degrees` maps rounds to
    the receiver's degrees.  The analytic engine calls `degrees`, which
    enters every block of a chunk of rounds at once; the materialized
    engine calls `pre_round` and then `sample_edges` every round.  Rounds
    are asked for in order.
    """

    def __init__(self, tau: int | None, receiver_edges: Sequence[int] = ()):
        if tau is not None and tau < 1:
            raise ValueError("tau must be >= 1 (or None for infinity)")
        self.tau = tau
        self.receiver_edges = receiver_edges  # an array from the first sample_edges on
        self.change_log: list[tuple[int, object]] = []
        self.block_values: np.ndarray | None = None  # of blocks _values_from.._block
        self._values_from = 0
        self._fingerprint: object = None
        self._block = -1  # the last block entered

    # -- stability bookkeeping

    def _record(self, round_index: int, fingerprint: object) -> None:
        if fingerprint != self._fingerprint:
            self.change_log.append((round_index, fingerprint))
            self._fingerprint = fingerprint

    def pre_round(self, round_index: int, through: int | None = None) -> None:
        """Enter the blocks of rounds round_index..through (by default
        round_index alone) that were not entered yet."""
        span = self.tau or _WHOLE_RUN
        last = ((through or round_index) - 1) // span
        if last <= self._block:
            return
        start = (round_index - 1) // span
        first = max(start, self._block + 1)
        values, changes = self._blocks(range(first, last + 1))
        begin = first * span + 1  # block `first` may have begun before round_index
        for i, fp in changes:
            self._record(begin + i * span if i else max(round_index, begin), fp)
        if values is not None and start < first:  # round_index's block was entered before
            values = np.concatenate((self.block_values[-1:], values))
            first -= 1
        self.block_values, self._values_from, self._block = values, first, last

    def degrees(self, start_round: int, count: int):
        """Receiver effective degrees for rounds start..start+count-1."""
        self.pre_round(start_round, through=start_round + count - 1)
        return self._degrees(np.arange(start_round, start_round + count))

    def sample_edges(self, round_index: int) -> np.ndarray:
        """Indices into graph.unreliable_edges active this round: a uniform
        (d-1)-subset of the receiver's unreliable arms for the round's
        degree d.  `pre_round` has entered the round's block."""
        d = int(self._degrees(round_index))
        arms = self.receiver_edges = np.asarray(self.receiver_edges, dtype=np.int64)
        return arms[uniform_subsets(self.np_rng, (len(arms),), (d - 1,))]

    # -- hooks

    def _blocks(self, blocks: range) -> tuple[np.ndarray | None, list]:
        """Enter `blocks`, in order: their values (None if the degrees do
        not need them), and (i, fingerprint) for block blocks[i] wherever
        the fingerprint may differ from the block before (always for i = 0)."""
        raise NotImplementedError

    def _block_value(self, rounds):
        return self.block_values[(rounds - 1) // (self.tau or _WHOLE_RUN) - self._values_from]

    def _degrees(self, rounds):
        """Degrees for an int64 array of rounds, or for one int round (then
        one degree); by default a round's block value is its degree."""
        return self._block_value(rounds)


class StaticPolicy(AdversaryPolicy):
    """Point distribution on one fixed subset of unreliable edges, under
    which the receiver has effective degree `degree`.  A fixed distribution
    is one block whatever tau is; `named` is the subset as configured, its
    change-log fingerprint."""

    def __init__(self, edge_indices: Sequence[int], degree: int, named: object,
                 tau: int | None = None):
        super().__init__(tau)
        self.tau = None
        self.edge_indices = np.asarray(sorted(edge_indices), dtype=np.int64)
        self.degree = float(degree)
        self.named = named

    def _blocks(self, blocks):
        return np.array([self.degree]), [(0, self.named)]

    def sample_edges(self, round_index):
        return self.edge_indices


class IidSubsetPolicy(AdversaryPolicy):
    """Each unreliable edge independently present with probability q.

    With `edge_prob=None` a fresh q ~ U(0,1) is drawn at every block
    boundary, which is the strongest re-randomizing member of the family;
    q comes from the scalar adversary stream, one draw per block in block
    order, so it does not depend on how the numpy draws are batched.  A
    fixed q is one block whatever tau is.
    """

    def __init__(self, tau, edge_prob: float | None, n_unreliable: int,
                 receiver_unreliable: int):
        super().__init__(tau)
        if edge_prob is not None and not 0.0 <= edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in [0,1]")
        if edge_prob is not None:
            self.tau = None
        self.edge_prob = edge_prob
        self.n_unreliable = n_unreliable
        self.receiver_unreliable = receiver_unreliable

    def _blocks(self, blocks):
        if self.edge_prob is not None:
            qs = [self.edge_prob]
        else:
            qs = [self.py_rng.random() for _ in range(len(blocks))]
        return np.array(qs, dtype=np.float64), [(i, ("iid", q)) for i, q in enumerate(qs)]

    def sample_edges(self, round_index):
        mask = self.np_rng.random(self.n_unreliable) < self.block_values[-1]
        return np.flatnonzero(mask)

    def _degrees(self, rounds):
        return 1.0 + self.np_rng.binomial(self.receiver_unreliable, self._block_value(rounds))


def phase_cycle_probs(schedule: Schedule, tau: int, phase: int) -> list[float]:
    """The tau cycle probabilities the nodes use in (0-based) phase `phase`."""
    k = schedule.cycle_length
    return [math.exp(schedule.log_probs[(phase * tau + j) % k]) for j in range(tau)]


class PhaseDegrees:
    """rule(phase_cycle_probs(schedule, tau, phase)) for 0-based phases.

    A phase's degree depends only on where it starts in the probability
    cycle, phase * tau mod k, so the degrees repeat every k / gcd(tau, k)
    phases: phase p has degree `ints[p % period]`, and `floats` holds the
    same as float64.  Each is computed once, in phase order, when first
    asked for.
    """

    def __init__(self, schedule: Schedule, tau: int, rule: Callable[[list[float]], int]):
        if tau is None:
            raise ValueError("phase degrees need a finite tau")
        k = schedule.cycle_length
        self.period = k // math.gcd(tau, k)
        self._probs = lambda phase: phase_cycle_probs(schedule, tau, phase)
        self._rule = rule
        self.ints: list[int] = []
        self.floats = np.empty(0)

    def __call__(self, phase: int) -> int:
        if len(self.ints) < min(phase + 1, self.period):
            for ph in range(len(self.ints), min(phase + 1, self.period)):
                self.ints.append(self._rule(self._probs(ph)))
            self.floats = np.array(self.ints, dtype=np.float64)
        return self.ints[phase % self.period]


class PhaseDegreePolicy(AdversaryPolicy):
    """One receiver degree per tau-round phase: `rule` of the phase's
    probabilities (the gap or the argmin construction).  The degrees are a
    function of the round, so the blocks keep no values."""

    def __init__(self, tau: int, schedule: Schedule, rule: Callable[[list[float]], int],
                 receiver_edges: Sequence[int]):
        super().__init__(tau, receiver_edges)
        self._phase_degree = PhaseDegrees(schedule, tau, rule)

    def _blocks(self, blocks):
        table = self._phase_degree
        table(blocks[-1])
        changed = [0]
        if len(blocks) > 1:
            values = table.floats[np.arange(blocks.start, blocks.stop) % table.period]
            changed += (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
        return None, [(i, ("fixed-degree", table.ints[blocks[i] % table.period]))
                      for i in changed]

    def _degrees(self, rounds):
        table = self._phase_degree
        return table.floats[(rounds - 1) // self.tau % table.period]


class CorrelatedShiftPolicy(AdversaryPolicy):
    """One distribution for the whole run (tau = infinity) whose per-round
    degrees become deterministic once the shift is drawn."""

    def __init__(self, schedule: Schedule, delta: int, receiver_edges: Sequence[int],
                 forced_shift: int | None = None):
        super().__init__(None, receiver_edges)
        self.schedule = schedule
        self.delta = delta
        self.forced_shift = forced_shift
        self.plan: ShiftPlan | None = None

    def _blocks(self, blocks):
        self.plan = shift_plan(self.schedule.cycle, self.delta, self.np_rng,
                               forced_shift=self.forced_shift)
        return None, [(0, ("shift", self.plan.shift))]

    def _degrees(self, rounds):
        return self.plan.degree_at(rounds)


class DegreeWalkPolicy(AdversaryPolicy):
    """Correlated walk on the receiver degree with a per-round change budget."""

    def __init__(self, tau, schedule: Schedule, step_budget: int, max_degree: int,
                 receiver_edges: Sequence[int] = (),
                 mode: str = "dodging", restricted: bool = True,
                 start_degree: int = 1):
        super().__init__(tau, receiver_edges)
        self.schedule = schedule
        self.state = DegreeWalkState(
            degree=start_degree, step_budget=step_budget, max_degree=max_degree,
            mode=mode, restricted=restricted)
        self._round = 1  # the round whose degree `state` holds

    def _blocks(self, blocks):
        # the walk's blocks draw nothing
        return None, [(i, ("walk-block", b)) for i, b in enumerate(blocks)]

    def _degrees(self, rounds):
        # round r's degree is the walk after r - 1 steps; rounds come in order
        one = not isinstance(rounds, np.ndarray)
        last = int(rounds) if one else int(rounds[-1])
        before = self.state.degree
        k = self.schedule.cycle_length
        if one:  # the materialized engine steps one round per call
            log_p = [self.schedule.log_probs[r % k] for r in range(self._round, last)]
        else:
            log_p = self.schedule.log_prob_array[np.arange(self._round, last) % k]
        steps = walk_degrees(self.state, log_p, self.np_rng)
        if len(steps):
            self.state = replace(self.state, degree=int(steps[-1]))
            self._round = last
        if one:
            return self.state.degree
        if len(rounds) == len(steps):
            return steps
        # the first call also asks for round 1, which no step reaches
        if isinstance(steps, list) or before >= _EXACT:
            return [before, *map(int, steps)]
        return np.concatenate(([float(before)], steps))


class ChainedGapPolicy(AdversaryPolicy):
    """Per-gadget phase degrees for the chained graph.

    Gadgets the message has not reached hold their first-phase degree; the
    frontier gadget advances to the next phase's degree only after its
    relay arms have transmitted a full phase of probabilities; a gadget
    whose local receiver has the message keeps its final degree forever.
    Advancement is therefore never faster than once per tau rounds.  Each
    round draws a fresh uniform subset of every gadget's unreliable arms,
    all from one generator call.
    """

    def __init__(self, tau: int, schedule: Schedule, gadget: Gadget,
                 rule: Callable[[list[float]], int], history: ObservableHistory | None):
        super().__init__(tau)
        if gadget.kind != "chained" or history is None:
            raise ValueError("chained_gap needs a chained gadget and the engine's history")
        self.gadget = gadget
        self.history = history
        # one section's degree per phase is the single-receiver rule
        self._phase_degree = PhaseDegrees(schedule, tau, rule)
        count = len(gadget.sections)
        self.section_phase = [1] * count
        self.section_degree = [self._phase_degree(0)] * count
        self.section_frozen = [False] * count
        self._edges = np.array([e for s in gadget.sections for e in s.unreliable_indices],
                               dtype=np.int64)
        self._sizes = [len(s.unreliable_indices) for s in gadget.sections]
        self._layout: SubsetLayout | None = None

    def pre_round(self, round_index):
        changed = self._fingerprint is None
        for i, section in enumerate(self.gadget.sections):
            if self.section_frozen[i]:
                continue
            if section.receiver in self.history.first_delivery:
                self.section_frozen[i] = changed = True
                continue
            # a Python int: an unreached head's int64 max + 1 must not wrap
            start = self.history.act.item(section.arms[0]) + 1
            if round_index <= start:
                continue
            phase = 1 + (round_index - start) // self.tau
            if phase != self.section_phase[i]:
                self.section_phase[i] = phase
                self.section_degree[i] = self._phase_degree(phase - 1)
                changed = True
        if changed:
            self._layout = subset_layout(self._sizes, [d - 1 for d in self.section_degree])
            self._record(round_index, ("chained", tuple(zip(self.section_degree,
                                                            self.section_frozen))))

    def sample_edges(self, round_index):
        return self._edges[draw_subsets(self.np_rng, self._layout)]


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
    "edge_prob": (lambda v: v is None or is_int(v) or isinstance(v, float),
                  "a number or null"),
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
    positive integer or None as `tau`, and `l` for a walk.  Checks that
    depend on the gadget are left to `make_policy`."""
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


def make_policy(spec: dict, gadget: Gadget, schedule: Schedule, np_rng, py_rng,
                history: ObservableHistory | None = None) -> AdversaryPolicy:
    """Fresh per-trial policy from a config mapping (`kind` plus parameters),
    bound to the trial's adversary streams; only `chained_gap` reads `history`."""
    kind = spec.get("kind", "static")
    tau = spec.get("tau")
    graph = gadget.graph
    recv = gadget.receiver
    recv_edges = () if recv is None else graph.unreliable_incident(recv)
    # a virtual star keeps no edges; its receiver has delta - 2 unreliable arms
    arms = gadget.delta - 2 if gadget.meta.get("virtual") else len(recv_edges)

    def gap_rule(probs):
        return gap_plan(probs, gadget.delta, strict=spec.get("strict", False)).degree

    if kind in ("gap", "argmin", "degree_walk_deterministic", "degree_walk_restricted") \
            and recv is None:
        raise ValueError(f"{kind} acts on a designated receiver's unreliable arms; "
                         f"a {gadget.kind} gadget has no designated receiver")
    if kind == "static":
        # one subset for both engines: the listed `edges`, or the receiver's
        # first `extra_degree` unreliable arms
        if "edges" in spec and "extra_degree" in spec:
            raise ValueError("static takes either edges or extra_degree, not both")
        edges = list(spec.get("edges", ()))
        n_unreliable = len(graph.unreliable_edges)
        bad = [e for e in edges
               if not isinstance(e, (int, np.integer)) or not 0 <= e < n_unreliable]
        if bad:
            raise ValueError(f"static edges {bad} are not unreliable edge indices "
                             f"0..{n_unreliable - 1} of the {gadget.kind} gadget")
        repeated = sorted({e for e in edges if edges.count(e) > 1})
        if repeated:
            raise ValueError(f"static edges {repeated} are listed more than once")
        extra = spec.get("extra_degree", 0)
        if "extra_degree" in spec:
            if not isinstance(extra, int) or not 0 <= extra <= arms:
                raise ValueError(f"static extra_degree {extra!r} is not in 0..{arms}, the "
                                 f"receiver's unreliable arm count on the {gadget.kind} gadget")
            subset, degree = recv_edges[:extra], 1 + extra
        else:
            subset, degree = edges, 1 + len(set(edges).intersection(recv_edges))
        policy = StaticPolicy(subset, degree, ("static", tuple(sorted(edges)), extra), tau=tau)
    elif kind == "iid_subset":
        if arms >= 2 ** 63:
            raise ValueError(f"iid_subset draws the receiver's active arm count as a 64-bit "
                             f"binomial, so its {arms} unreliable arms (delta - 2 on a "
                             f"virtual star) must be fewer than 2^63")
        policy = IidSubsetPolicy(tau=tau, edge_prob=spec.get("edge_prob"),
                                 n_unreliable=len(graph.unreliable_edges),
                                 receiver_unreliable=arms)
    elif kind == "gap":
        policy = PhaseDegreePolicy(tau, schedule, gap_rule, recv_edges)
    elif kind == "argmin":
        policy = PhaseDegreePolicy(tau, schedule,
                                   lambda probs: 1 << argmin_degree(probs, gadget.delta),
                                   recv_edges)
    elif kind == "correlated_shift":
        if gadget.kind != "double_star":
            raise ValueError(
                f"correlated_shift needs a double_star gadget, where the receiver can "
                f"reach degree delta; got a {gadget.kind} gadget")
        policy = CorrelatedShiftPolicy(schedule=schedule, delta=gadget.delta,
                                       receiver_edges=recv_edges,
                                       forced_shift=spec.get("shift"))
    elif kind in ("degree_walk_deterministic", "degree_walk_restricted"):
        policy = DegreeWalkPolicy(
            tau=tau, schedule=schedule,
            step_budget=spec["l"], max_degree=arms + 1,
            receiver_edges=recv_edges,
            mode=spec.get("walk_mode", "dodging"),
            restricted=(kind == "degree_walk_restricted"),
            start_degree=spec.get("start_degree", 1))
    elif kind == "chained_gap":
        policy = ChainedGapPolicy(tau, schedule, gadget, gap_rule, history)
    else:
        raise ValueError(f"unknown adversary kind {kind!r}")
    policy.np_rng, policy.py_rng = np_rng, py_rng
    return policy
