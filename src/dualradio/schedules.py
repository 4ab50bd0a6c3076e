"""Repeating transmit-probability cycles for the uniform back-off algorithms.

Every algorithm here is "uniform": active nodes walk through a fixed cycle
(p_1, ..., p_k) in global synchrony, transmitting with the probability at
their current cycle position.  Probabilities are stored as natural logs so
that cycles remain exact for degree bounds given only as log2 values (up to
2^10000); the linear view underflows gracefully to 0.0 in that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .oracle import LOG_2E, log_one_minus_p


def ceil_log2(delta: int) -> int:
    """Exact ceil(log2(delta)) for arbitrary-size integers."""
    if delta < 2:
        raise ValueError("delta must be >= 2")
    return (delta - 1).bit_length()


def log2e_of(value) -> float:
    """log base 2e; accepts arbitrary-size integers."""
    return math.log(value) / LOG_2E


@dataclass(frozen=True)
class Schedule:
    """A repeating probability cycle plus the parameters that built it.

    `log_probs` is canonical; `cycle` is the linear view (entries that
    underflow double precision appear as 0.0 there but stay exact in logs).
    Constructions whose probabilities are exactly representable may pass
    `linear` so the cycle view carries no exp/log round trip.
    """

    label: str
    log_probs: tuple[float, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    linear: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.log_probs) < 1:
            raise ValueError("cycle must have at least one entry")
        for lp in self.log_probs:
            if not (lp <= 0.0) or lp == -math.inf:
                raise ValueError(f"log-probability out of (0,1] range: {lp}")
        if self.linear is not None and len(self.linear) != len(self.log_probs):
            raise ValueError("linear view must match the cycle length")

    @property
    def cycle(self) -> tuple[float, ...]:
        if self.linear is not None:
            return self.linear
        return tuple(math.exp(lp) for lp in self.log_probs)

    @property
    def cycle_length(self) -> int:
        return len(self.log_probs)

    @cached_property
    def log_prob_array(self) -> np.ndarray:
        """`log_probs` as a float64 array, built once per schedule."""
        return np.array(self.log_probs, dtype=np.float64)

    @cached_property
    def prob_array(self) -> np.ndarray:
        """The cycle as float64: exp of `log_prob_array`, never `linear`,
        since exp(ln 2^-i) is not always 2^-i and the materialized engine's
        coins are drawn against these values."""
        return np.exp(self.log_prob_array)

    @cached_property
    def log1m_prob_array(self) -> np.ndarray:
        """ln(1 - p) of each cycle entry; -inf where p = 1."""
        return np.array([log_one_minus_p(lp) for lp in self.log_probs])


def decay_schedule(delta: int) -> Schedule:
    """Classical halving back-off: p_i = 2^-i for i = 1..ceil(log2 delta)."""
    k = ceil_log2(delta)
    linear = tuple(2.0 ** -i for i in range(1, k + 1))
    return Schedule(
        label="decay",
        log_probs=tuple(math.log(p) for p in linear),
        params={"delta_log2": math.log2(delta), "cycle_length": k},
        linear=linear,
    )


def rlb_schedule(delta: int, tau: int) -> Schedule:
    """Equi-spaced guesses: p_i = delta^(-i/tb), tb = min(tau, ceil(log2 delta))."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    tau_bar = min(tau, ceil_log2(delta))
    ln_delta = math.log(delta)
    return Schedule(
        label="rlb",
        log_probs=tuple(-(i / tau_bar) * ln_delta for i in range(1, tau_bar + 1)),
        params={"delta_log2": math.log2(delta), "tau": tau, "tau_bar": tau_bar},
    )


def frlb_schedule(delta: int, tau: int) -> Schedule:
    """Boosted guesses: p_i = delta^(-i/tb) * log_2e(delta)/tb.

    tb clamps at ceil(log_2e delta) rather than ceil(log2 delta); below that
    threshold the boost factor log_2e(delta)/tb is >= 1 and every entry still
    lands at or below 1/(2e).
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if delta < 2:
        raise ValueError("delta must be >= 2")
    big_l = log2e_of(delta)
    tau_bar = min(tau, math.ceil(big_l))
    ln_delta = math.log(delta)
    log_boost = math.log(big_l) - math.log(tau_bar)
    log_probs = tuple(-(i / tau_bar) * ln_delta + log_boost
                      for i in range(1, tau_bar + 1))
    if log_probs[0] > 0.0:
        raise ValueError(
            f"frlb parameters produce p_1 = {math.exp(log_probs[0])} > 1 "
            f"(delta={delta}, tau={tau})")
    return Schedule(
        label="frlb",
        log_probs=log_probs,
        params={"delta_log2": math.log2(delta), "tau": tau, "tau_bar": tau_bar},
    )


def rlbc_schedule(delta: int, tau: int) -> Schedule:
    """Correlation-resistant cycle: a geometric ramp plus paired safety probes.

    The first tb-2a entries are k^-i; the remaining 2a entries alternate
    1/e1 and 1/e2, catching receivers whose degree an adversary nudges a
    little each round.  Parameters follow the construction exactly:

        tb = min(ceil(log_2e(delta)/2), tau)
        a  = ceil(tb / log_2e(tb))            (a = 1 when tb = 1)
        k  = ceil(delta^(1/(tb-2a)))
        e1 = k*a,  e2 = k^2*tau*a
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    tau_bar = min(math.ceil(log2e_of(delta) / 2.0), tau)
    a = 1 if tau_bar < 2 else math.ceil(tau_bar / log2e_of(tau_bar))
    span = tau_bar - 2 * a
    if span < 1:
        raise ValueError(
            f"rlbc needs tau_bar - 2a >= 1; got tau_bar={tau_bar}, a={a} "
            f"(delta_log2={math.log2(delta):.6g}, tau={tau}); "
            "increase delta or tau")
    exponent = math.log2(delta) / span
    if exponent > 500.0:
        raise ValueError(f"rlbc base 2^{exponent:.1f} too large to represent")
    k_base = math.ceil(2.0 ** exponent)
    e1 = k_base * a
    e2 = k_base * k_base * tau * a
    ln_k = math.log(k_base)
    ramp = [-i * ln_k for i in range(1, span + 1)]
    pairs = [-math.log(e1), -math.log(e2)] * a
    return Schedule(
        label="rlbc",
        log_probs=tuple(ramp + pairs),
        params={
            "delta_log2": math.log2(delta),
            "tau": tau,
            "tau_bar": tau_bar,
            "a": a,
            "k_base": k_base,
            "e1": e1,
            "e2": e2,
            "span": span,
        },
    )


_BUILDERS = {
    "decay": lambda delta, tau: decay_schedule(delta),
    "rlb": rlb_schedule,
    "frlb": frlb_schedule,
    "rlbc": rlbc_schedule,
}
ALGOS = tuple(_BUILDERS)


def build_schedule(name: str, delta: int, tau: int) -> Schedule:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(_BUILDERS)}")
    return builder(delta, tau)


def format_probability(log_p: float) -> str:
    """17-significant-digit decimal, exact in log space below the double range."""
    if log_p == -math.inf:
        return "0"
    if log_p > -700.0:
        return f"{math.exp(log_p):.17g}"
    l10 = log_p / math.log(10.0)
    exp10 = math.floor(l10)
    mant = 10.0 ** (l10 - exp10)
    if mant >= 10.0:
        mant /= 10.0
        exp10 += 1
    return f"{mant:.16f}e{exp10:+d}"


def schedule_csv(schedule: Schedule) -> str:
    """Cycle as `index,probability` CSV rows with 17 significant digits."""
    lines = ["index,probability"]
    for i, lp in enumerate(schedule.log_probs, start=1):
        lines.append(f"{i},{format_probability(lp)}")
    return "\n".join(lines) + "\n"
