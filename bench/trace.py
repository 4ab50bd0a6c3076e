"""Traced in-process `dualradio run`: per-layer time split from outside.

    python3 bench/trace.py <config.yaml> <seed> <out.csv> <summary.json> <spans.csv>

Wraps, in place, the module-level names each layer is called through
(where the caller looks them up, not where they are defined), then calls
`cli.main(["run", ...])`.  Every wrapped call records a span: name, start,
end and parent.  Spans stay in memory; at exit they are written to
<spans.csv> and folded into per-layer metrics in <summary.json>.  Nothing
under `src/` changes.  Run it with PYTHONPATH pointing at the checkout's
`src`.  Exits 3 if a wrapped name no longer exists.
"""

import json
import sys
import time

from dualradio import adversary, cli, engine, gadgets, schedules

_now = time.perf_counter_ns

# (module, attribute looked up by the caller, span name)
PATCHES = (
    (cli, "cmd_run", "cli.cmd_run"),
    (cli, "build_trial_config", "cli.build_trial_config"),
    (cli, "trial_csv_row", "engine.trial_csv_row"),
    (gadgets, "build_gadget", "gadgets.build_gadget"),
    (schedules, "build_schedule", "schedules.build_schedule"),
    (engine, "run_trials", "engine.run_trials"),
    (engine, "run_trial", "engine.run_trial"),
    (engine, "trial_rngs", "engine.trial_rngs"),
    (engine, "round_counts", "engine.round_counts"),
    (engine, "aggregate", "engine.aggregate"),
    (engine, "make_policy", "adversary.make_policy"),
    (engine, "exact_success_logprob", "oracle.exact_success_logprob"),
    (adversary, "exact_success_logprob", "oracle.exact_success_logprob"),
)
POLICY_METHODS = ("pre_round", "sample_edges", "degrees")
ADVERSARY_DRAW = tuple(f"adversary.{m}" for m in POLICY_METHODS)
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in PATCHES] + list(ADVERSARY_DRAW)))
LAYER_OF = {name: name.split(".")[0] for name in SPAN_NAMES}
LAYERS = ("cli", "engine", "adversary", "oracle", "schedules", "gadgets")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Span recorder: spans[i] = (parent index or -1, name index, start_ns, end_ns)."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.name_index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.counts = {"degrees_rounds": 0, "sample_edges_edges": 0,
                       "rounds_executed": 0, "change_log_entries": 0}

    def wrap(self, name, fn, after=None):
        spans, stack, idx = self.spans, self.stack, self.name_index[name]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[sid] = (parent, idx, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- per-call counters, kept outside the timed interval

    def _count_degrees(self, args, result):
        self.counts["degrees_rounds"] += args[1]

    def _count_edges(self, args, result):
        self.counts["sample_edges_edges"] += len(result)

    def _count_trial(self, args, result):
        self.counts["rounds_executed"] += result.rounds_executed
        self.counts["change_log_entries"] += len(result.distribution_changes)

    def _wrap_policy(self, args, policy):
        after = {"degrees": self._count_degrees, "sample_edges": self._count_edges}
        for method in POLICY_METHODS:
            setattr(policy, method,
                    self.wrap(f"adversary.{method}", getattr(policy, method),
                              after.get(method)))

    def install(self):
        after = {"adversary.make_policy": self._wrap_policy,
                 "engine.run_trial": self._count_trial}
        for module, attr, name in PATCHES:
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LookupError(f"{module.__name__}.{attr} is gone; "
                                  f"the {name} span cannot be recorded")
            setattr(module, attr, self.wrap(name, fn, after.get(name)))

    # -- folding spans into metrics

    def summary(self) -> dict:
        n_names = len(SPAN_NAMES)
        calls = [0] * n_names
        total = [0] * n_names
        child = [0] * len(self.spans)
        draw_top = 0
        draw = {self.name_index[n] for n in ADVERSARY_DRAW}
        trial_idx = self.name_index["engine.run_trial"]
        trial_ns = []
        for parent, idx, start, end in self.spans:
            dur = end - start
            calls[idx] += 1
            total[idx] += dur
            if parent >= 0:
                child[parent] += dur
            if idx in draw and (parent < 0 or self.spans[parent][1] not in draw):
                draw_top += dur
            if idx == trial_idx:
                trial_ns.append(dur)
        self_ns = [0] * n_names
        for sid, (_, idx, start, end) in enumerate(self.spans):
            self_ns[idx] += end - start - child[sid]

        by = {name: (calls[i], total[i], self_ns[i]) for i, name in enumerate(SPAN_NAMES)}
        c = self.counts

        def n_calls(name):
            return by[name][0]

        def mean_us(name):
            k, t, _ = by[name]
            return t / k / 1e3 if k else 0.0

        def total_ms(name):
            return by[name][1] / 1e6

        trials = n_calls("engine.run_trial")
        rounds = c["rounds_executed"]
        requested = c["degrees_rounds"] + n_calls("adversary.sample_edges")
        trial_ns.sort()
        # highest percentile with >= 10 trials beyond it; the median when
        # fewer than 20 trials ran
        tail_pct = next((p for p in TAIL_LADDER if len(trial_ns) * (1 - p / 100) >= 10),
                        TAIL_LADDER[-1])

        def pct(p):
            return trial_ns[min(len(trial_ns) - 1, int(p / 100 * len(trial_ns)))] / 1e3

        layer_self = dict.fromkeys(LAYERS, 0)
        for name in SPAN_NAMES:
            layer_self[LAYER_OF[name]] += by[name][2]

        timings = {
            "engine.trial_rngs.us": mean_us("engine.trial_rngs"),
            "adversary.make_policy.us": mean_us("adversary.make_policy"),
            "adversary.draw.us_per_round": draw_top / requested / 1e3,
            "adversary.degrees.us_per_round":
                total_ms("adversary.degrees") * 1e3 / c["degrees_rounds"]
                if c["degrees_rounds"] else 0.0,
            "adversary.sample_edges.us": mean_us("adversary.sample_edges"),
            "adversary.pre_round.us": mean_us("adversary.pre_round"),
            "engine.round_counts.us": mean_us("engine.round_counts"),
            "engine.loop.self_us_per_round": by["engine.run_trial"][2] / rounds / 1e3,
            "engine.run_trial.us_p50": pct(50.0),
            "engine.run_trial.us_tail": pct(tail_pct),
            "oracle.exact_success_logprob.us": mean_us("oracle.exact_success_logprob"),
            "gadgets.build_gadget.ms": total_ms("gadgets.build_gadget"),
            "schedules.build_schedule.ms": total_ms("schedules.build_schedule"),
            "cli.build_trial_config.ms": total_ms("cli.build_trial_config"),
            "engine.aggregate.ms": total_ms("engine.aggregate"),
            "engine.trial_csv_row.us": mean_us("engine.trial_csv_row"),
            "cli.cmd_run.self_ms": by["cli.cmd_run"][2] / 1e6,
        }
        timings.update({f"layer.{layer}.self_ms": ns / 1e6
                        for layer, ns in layer_self.items()})
        counts = {f"{name}.calls": n_calls(name) for name in SPAN_NAMES}
        counts.update({
            "engine.trials": trials,
            "engine.rounds_executed": rounds,
            "engine.rounds_used_share": rounds / requested,
            "adversary.change_log.entries_per_trial": c["change_log_entries"] / trials,
            "adversary.degrees.rounds": c["degrees_rounds"],
            "adversary.sample_edges.edges_per_call":
                c["sample_edges_edges"] / n_calls("adversary.sample_edges")
                if n_calls("adversary.sample_edges") else 0.0,
            "engine.run_trial.tail_pct": tail_pct,
            "engine.run_trial.samples": len(trial_ns),
        })
        return {"timings": timings, "counts": counts}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (parent, idx, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{SPAN_NAMES[idx]},{start},{end}\n")


def main(config: str, seed: str, out_csv: str, summary_path: str, spans_path: str) -> int:
    tracer = Tracer()
    try:
        tracer.install()
    except LookupError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    code = cli.main(["run", config, "--seed", seed, "--jobs", "1", "--out", out_csv])
    if code != 0:
        return code
    start = time.perf_counter()
    tracer.write_spans(spans_path)
    summary = tracer.summary()
    # the caller subtracts this from the traced wall time
    summary["write_s"] = time.perf_counter() - start
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:6]))
