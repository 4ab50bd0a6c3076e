"""Broadcast on dual-graph radio networks under fading adversaries."""

from .model import (DualGraph, RoundTopology, DeliveryOutcome,
                    build_round_topology, deliver, graph_to_text)
from .schedules import (Schedule, decay_schedule, rlb_schedule, frlb_schedule,
                        rlbc_schedule, build_schedule)
from .oracle import (exact_success_prob, exact_success_logprob, prosing_bound,
                     interval_min_bound, weierstrass_bounds, phase_success_sum,
                     brute_force_delivery_prob)
from .adversary import (AdversaryPolicy, ObservableHistory, GapPhasePlan,
                        ShiftPlan, DegreeWalkState, gap_plan, argmin_degree,
                        shift_plan, walk_degrees, compile_adversary,
                        make_policy)
from .gadgets import Gadget, star_gadget, double_star, chained_gadgets, build_gadget
from .engine import (TrialConfig, TrialResult, Stats, run_trial, run_trials,
                     run_materialized_trial, run_analytic_star_trial,
                     split_seed, aggregate, wilson_interval)

__version__ = "0.1.0"
