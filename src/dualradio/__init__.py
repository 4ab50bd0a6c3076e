"""Broadcast on dual-graph radio networks under fading adversaries.

The package exports the run API; the reference model, which no run
imports, is imported from `dualradio.model`.
"""

import gc

# the import creates many objects and frees almost none, so the cyclic
# collector's passes during it would find next to nothing: pause it, then
# restore the caller's setting
_collecting = gc.isenabled()
gc.disable()
try:
    from .schedules import (Schedule, decay_schedule, rlb_schedule, frlb_schedule,
                            rlbc_schedule, build_schedule)
    from .oracle import (exact_success_prob, exact_success_logprob, prosing_bound,
                         interval_min_bound, weierstrass_bounds, phase_success_sum)
    from .adversary import (AdversaryPolicy, ObservableHistory, GapPhasePlan,
                            ShiftPlan, DegreeWalkState, gap_plan, argmin_degree,
                            shift_plan, walk_degrees, compile_adversary,
                            make_policy)
    from .gadgets import Gadget, star_gadget, double_star, chained_gadgets, build_gadget
    from .engine import (TrialConfig, TrialResult, Stats, run_trial, run_trials,
                         run_materialized_trial, run_analytic_star_trial,
                         aggregate, wilson_interval)
finally:
    if _collecting:
        gc.enable()

__version__ = "0.1.0"
