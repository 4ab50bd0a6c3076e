"""Closed-form and brute-force probabilities for single-round radio delivery.

The central quantity is the chance that a listening node with effective
degree d (message-holding neighbors in the round topology) receives a
message when every holder transmits independently with probability p:

    d * p * (1-p)^(d-1)          receiver has no message
    d * p * (1-p)^d              receiver holds a message too (must stay silent)

Everything here is pure and reentrant.  Probabilities below the double
range are carried as natural-log values end to end; `exact_success_prob`
switches to the log path automatically, and simulation code samples
success events by comparing log-probabilities against log(uniform).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import DualGraph, RoundTopology

LN2 = math.log(2.0)
LOG_2E = math.log(2.0 * math.e)
# below this, exp() underflows double precision
_EXP_UNDERFLOW = -745.0
_EXP_OVERFLOW = 709.0


def log1mexp(x: float) -> float:
    """ln(1 - e^x) for x <= 0, stable near both ends; x == 0 gives -inf."""
    if x > 0.0:
        raise ValueError(f"log1mexp needs x <= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x > -LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_one_minus_p(log_p: float) -> float:
    """ln(1-p) from ln(p); underflowed p maps to -p in first order (-0.0)."""
    if log_p == -math.inf:
        return 0.0
    if log_p < _EXP_UNDERFLOW:
        return -0.0
    return log1mexp(log_p)


def _silence_exponent_term(m, log_p: float) -> float:
    """m * ln(1-p) for integer m >= 0, without bigint->float overflow."""
    if m == 0 or log_p == -math.inf:
        return 0.0
    if log_p == 0.0:
        return -math.inf
    l1mp = log1mexp(log_p) if log_p >= _EXP_UNDERFLOW else 0.0
    if l1mp == -math.inf:
        return -math.inf
    if l1mp == 0.0 or (l1mp > -1e-300 and log_p < _EXP_UNDERFLOW):
        # 1-p rounded to 1: fall back to -m*p computed in log space
        lmp = math.log(m) + log_p
        if lmp < _EXP_UNDERFLOW:
            return 0.0
        if lmp > _EXP_OVERFLOW:
            return -math.inf
        return -math.exp(lmp)
    if m < 2 ** 53:
        return m * l1mp  # may round to -inf; that is the right answer
    mag = math.log(m) + math.log(-l1mp)
    if mag > _EXP_OVERFLOW:
        return -math.inf
    return -math.exp(mag)


def exact_success_logprob(d, log_p: float, receiver_has_message: bool = False) -> float:
    """Natural log of the exact single-round success probability.

    `d` may be an arbitrary-precision integer; `log_p` is ln of the transmit
    probability (0 for p=1, -inf for p=0).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if log_p > 0.0:
        raise ValueError("log_p must be <= 0")
    if d == 0 or log_p == -math.inf:
        return -math.inf
    m = d if receiver_has_message else d - 1
    return math.log(d) + log_p + _silence_exponent_term(m, log_p)


def _exact_success_direct(d: int, p: float, receiver_has_message: bool) -> float:
    """Plain-arithmetic path; may underflow for large d or tiny p."""
    m = d if receiver_has_message else d - 1
    return d * p * (1.0 - p) ** m


def exact_success_prob(d, p: float, receiver_has_message: bool = False) -> float:
    """Exact success probability, choosing direct or log-domain evaluation.

    Returns d*p*(1-p)^(d-1), or d*p*(1-p)^d when the receiver itself holds a
    message and transmits with the same probability (the extra (1-p) is the
    receiver staying silent).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0 or p == 0.0:
        return 0.0
    if d < 2 ** 30 and p > 1e-300:
        direct = _exact_success_direct(d, p, receiver_has_message)
        if direct > 1e-280:
            return direct
    return math.exp(exact_success_logprob(d, math.log(p), receiver_has_message))


def success_peak_degree(p: float) -> float:
    """Degree (as a real) where d*p*(1-p)^(d+c) peaks: ratio test gives (1-p)/p.

    Valid for both receiver flags (the extra (1-p) factor is constant in d).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0,1]")
    return (1.0 - p) / p


def prosing_bound(d, p: float) -> float:
    """Guaranteed lower bound a*(2e)^-a on success, a = p*d, for p <= 1/2.

    This bounds the receiver-transmitting form d*p*(1-p)^d from below.
    """
    if p > 0.5:
        raise ValueError("bound requires p <= 1/2")
    if p <= 0.0 or d < 1:
        raise ValueError("requires p > 0 and d >= 1")
    log_a = math.log(d) + math.log(p)
    if log_a > _EXP_OVERFLOW:
        return 0.0
    a = math.exp(log_a)
    return math.exp(log_a - a * LOG_2E)


def interval_min_bound(d1: int, d2: int, p: float,
                       receiver_has_message: bool = False) -> float:
    """min of the exact success at the interval endpoints.

    Success as a function of degree is unimodal, so this lower-bounds the
    exact value at every degree in [d1, d2].
    """
    if not 1 <= d1 <= d2:
        raise ValueError(f"need 1 <= d1 <= d2, got ({d1}, {d2})")
    return min(exact_success_prob(d1, p, receiver_has_message),
               exact_success_prob(d2, p, receiver_has_message))


def weierstrass_bounds(xs: Sequence[float]) -> tuple[float, float]:
    """(1 - sum x_i, 1 - sum x_i + sum_{i<j} x_i x_j) sandwiching prod(1-x_i)."""
    for x in xs:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"entry out of [0,1]: {x}")
    s = math.fsum(xs)
    sq = math.fsum(x * x for x in xs)
    pairwise = (s * s - sq) / 2.0
    return 1.0 - s, 1.0 - s + pairwise


def phase_success_sum(phase_probs: Sequence[float], degree,
                      receiver_has_message: bool = False) -> float:
    """Sum over a phase of per-step exact success at a fixed degree."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return math.fsum(exact_success_prob(degree, p, receiver_has_message)
                     for p in phase_probs)


def log_phase_success_sum(log_probs: Sequence[float], degree,
                          receiver_has_message: bool = False) -> float:
    """ln of the phase success sum, usable when every term underflows."""
    terms = [exact_success_logprob(degree, lp, receiver_has_message)
             for lp in log_probs]
    return logsumexp(terms)


def logsumexp(values: Iterable[float]) -> float:
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


_BRUTE_FORCE_LIMIT = 20


def brute_force_delivery_prob(graph: DualGraph, topology: RoundTopology,
                              transmit_probs: Mapping[int, float],
                              target: int) -> float:
    """Exact delivery probability at `target` by enumerating transmit patterns.

    Every node with a positive transmit probability is a potential
    transmitter; all 2^m on/off patterns are enumerated and weighted.  The
    target receives under a pattern iff it is silent and exactly one of its
    active-topology neighbors transmits.  Capped at m <= 20 patterns cost.
    """
    if topology.graph is not graph and topology.graph != graph:
        raise ValueError("topology does not belong to graph")
    potentials = sorted(v for v, pr in transmit_probs.items() if pr > 0.0)
    for v, pr in transmit_probs.items():
        if not 0.0 <= pr <= 1.0:
            raise ValueError(f"probability out of range for node {v}: {pr}")
    m = len(potentials)
    if m > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"{m} potential transmitters exceeds limit {_BRUTE_FORCE_LIMIT}")
    if m == 0:
        return 0.0

    probs = np.array([transmit_probs[v] for v in potentials], dtype=np.float64)
    nbrs = set(topology.neighbors(target))
    nbr_mask = np.array([v in nbrs for v in potentials])
    target_idx = potentials.index(target) if target in potentials else None

    total = 0.0
    chunk = 1 << 16
    for start in range(0, 1 << m, chunk):
        patterns = np.arange(start, min(start + chunk, 1 << m), dtype=np.uint32)
        bits = ((patterns[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
        weights = np.prod(np.where(bits, probs, 1.0 - probs), axis=1)
        heard = bits[:, nbr_mask].sum(axis=1)
        ok = heard == 1
        if target_idx is not None:
            ok &= ~bits[:, target_idx]
        total += float(weights[ok].sum())
    return total
