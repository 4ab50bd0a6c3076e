"""Command-line entry point: experiment runner, oracle calculator, gadget
printer, schedule dump, and scaling-law fitting.

    dualradio run <config.yaml> [--out csv] [--seed S] [--jobs N] [--print-config]
    dualradio fit <trials.csv> --predictor <name> [--param D=24]
    dualradio oracle <exact|prosing|interval|wpi|phase-sum> ...
    dualradio gadget <star|double_star|chained> ...
    dualradio schedule <decay|rlb|frlb|rlbc> --delta D --tau T

Configs are YAML documents; every sweep point must expand to a valid trial
configuration, and validation errors name the offending key.  Experiment
CSVs are written atomically (a `.partial` file is renamed only once the
sweep finished), so rerunning a config with the same seed reproduces the
output byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import yaml

from . import engine, gadgets, oracle, schedules
from .adversary import check_spec, is_int
from .engine import TrialConfig, csv_header, trial_csv_row

ALGOS = ("decay", "rlb", "frlb", "rlbc")
_DEFAULTS = {"problem": "local", "engine": "materialized", "algo": "frlb", "tau": 1,
             "epsilon": 0.1, "trials": 100, "seed": 0, "max_rounds": "auto",
             "adversary": {"kind": "static"}, "sweep": {}, "out": "trials.csv"}
# the integer keys each gadget kind takes besides kind and delta
_GADGET_KEYS = {"star": ("n",), "double_star": (), "chained": ("diameter",)}


class ConfigError(ValueError):
    pass


def parse_delta(value, key: str = "delta") -> int:
    """Delta as a plain integer or a `log2:<exponent>` string."""
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected integer or log2:<e>, got {value!r}")
    if isinstance(value, int):
        if value < 2:
            raise ConfigError(f"{key}: must be >= 2, got {value}")
        return value
    if isinstance(value, str):
        if value.startswith("log2:"):
            try:
                exp = int(value[5:])
            except ValueError:
                raise ConfigError(f"{key}: malformed {value!r}") from None
            if exp < 1:
                raise ConfigError(f"{key}: log2 exponent must be >= 1")
            return 2 ** exp
        if value.isdigit():
            return parse_delta(int(value), key)
    raise ConfigError(f"{key}: expected integer or log2:<e>, got {value!r}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def normalize_config(doc: dict) -> dict:
    """Fill defaults and validate everything that does not need expansion."""
    for key in doc:
        if key != "gadget" and key not in _DEFAULTS:
            raise ConfigError(f"{key}: unknown config key")
    cfg = {**_DEFAULTS, **doc}
    if cfg["problem"] not in ("local", "global"):
        raise ConfigError(f"problem: must be local or global, got {cfg['problem']!r}")
    if cfg["engine"] not in ("materialized", "analytic_star"):
        raise ConfigError(f"engine: unknown engine {cfg['engine']!r}")
    gadget = cfg.get("gadget")
    if not isinstance(gadget, dict) or "kind" not in gadget:
        raise ConfigError("gadget.kind: required")
    kind = gadget["kind"]
    if not isinstance(kind, str) or kind not in _GADGET_KEYS:
        raise ConfigError(f"gadget.kind: unknown kind {kind!r}")
    for key, value in gadget.items():
        if key not in ("kind", "delta") + _GADGET_KEYS[kind]:
            raise ConfigError(f"gadget.{key}: not a key of {kind} gadgets")
        if key not in ("kind", "delta") and not is_int(value):
            raise ConfigError(f"gadget.{key}: must be an integer, got {value!r}")
    if kind == "chained" and "diameter" not in gadget:
        raise ConfigError("gadget.diameter: required for chained gadgets")
    if "delta" not in gadget and "delta" not in cfg["sweep"]:
        raise ConfigError("gadget.delta: required (directly or as a sweep axis)")
    if not is_int(cfg["trials"]) or cfg["trials"] < 1:
        raise ConfigError(f"trials: must be a positive integer, got {cfg['trials']!r}")
    if not is_int(cfg["seed"]):
        raise ConfigError(f"seed: must be an integer, got {cfg['seed']!r}")
    if not (isinstance(cfg["epsilon"], (int, float)) and 0 < cfg["epsilon"] < 1):
        raise ConfigError(f"epsilon: must be in (0,1), got {cfg['epsilon']!r}")
    if not isinstance(cfg["adversary"], dict):
        raise ConfigError(f"adversary: must be a mapping, got {cfg['adversary']!r}")
    sweep = cfg["sweep"]
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: must be a mapping of axis lists")
    for axis in sweep:
        if axis not in ("delta", "tau", "algo", "adversary"):
            raise ConfigError(f"sweep.{axis}: unknown sweep axis")
        if not isinstance(sweep[axis], list) or not sweep[axis]:
            raise ConfigError(f"sweep.{axis}: must be a nonempty list")
    for i, adv in enumerate(sweep.get("adversary", ())):
        if not isinstance(adv, dict):
            raise ConfigError(f"sweep.adversary[{i}]: must be a mapping, got {adv!r}")
    return cfg


def expand_sweep(cfg: dict) -> list[dict]:
    """Cartesian expansion over delta x tau x algo x adversary, in order."""
    sweep = cfg["sweep"]
    deltas = sweep.get("delta", [cfg["gadget"].get("delta")])
    taus = sweep.get("tau", [cfg["tau"]])
    algos = sweep.get("algo", [cfg["algo"]])
    adversaries = sweep.get("adversary", [cfg["adversary"]])
    points = []
    for d in deltas:
        for t in taus:
            for alg in algos:
                for adv in adversaries:
                    p = {
                        "problem": cfg["problem"],
                        "engine": cfg["engine"],
                        "gadget": dict(cfg["gadget"], delta=d),
                        "algo": alg,
                        "tau": t,
                        "adversary": dict(adv),
                        "epsilon": cfg["epsilon"],
                        "trials": cfg["trials"],
                        "seed": cfg["seed"],
                        "max_rounds": cfg["max_rounds"],
                    }
                    validate_point(p)
                    points.append(p)
    return points


def validate_point(point: dict) -> None:
    parse_delta(point["gadget"]["delta"], key="gadget.delta")
    if point["algo"] not in ALGOS:
        raise ConfigError(f"algo: unknown algorithm {point['algo']!r}")
    tau = point["tau"]
    if tau is not None and (not is_int(tau) or tau < 1):
        raise ConfigError(f"tau: must be a positive integer or null, got {tau!r}")
    try:
        check_spec(point_adversary(point))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    mr = point["max_rounds"]
    if mr != "auto" and (not is_int(mr) or mr < 1):
        raise ConfigError(f"max_rounds: must be 'auto' or a positive integer, got {mr!r}")


def point_adversary(point: dict) -> dict:
    """A point's adversary spec: kind defaults to static, tau to the point's tau."""
    return {"kind": "static", "tau": point["tau"], **point["adversary"]}


def build_trial_config(point: dict) -> tuple[TrialConfig, int]:
    delta = parse_delta(point["gadget"]["delta"], key="gadget.delta")
    gspec = point["gadget"]
    gadget = gadgets.build_gadget(
        gspec["kind"], delta,
        n=gspec.get("n"),
        diameter=gspec.get("diameter"))
    tau = point["tau"]
    schedule = schedules.build_schedule(point["algo"], delta, tau if tau else 1)
    max_rounds = point["max_rounds"]
    if max_rounds == "auto":
        max_rounds = engine.default_max_rounds(
            point["problem"], schedule, delta, tau or schedule.cycle_length,
            point["epsilon"], gadget.node_count,
            diameter=gadget.meta.get("diameter", 1))
    config = TrialConfig(
        problem=point["problem"],
        gadget=gadget,
        schedule=schedule,
        adversary=point_adversary(point),
        seed=point["seed"],
        max_rounds=max_rounds,
        engine_mode=point["engine"],
        epsilon=point["epsilon"],
    )
    return config, point["trials"]


def _run_point(point: dict, first_id: int):
    """CSV rows (trial ids from `first_id` on) and summary of one sweep point."""
    config, trials = build_trial_config(point)
    stats = engine.run_trials(config, trials)
    rows = [trial_csv_row(first_id + i, config, res) for i, res in enumerate(stats.results)]
    summary = {
        "algo": point["algo"],
        "delta_log2": f"{math.log2(parse_delta(point['gadget']['delta'])):.6g}",
        "tau": "inf" if point["tau"] is None else str(point["tau"]),
        "adversary": point["adversary"].get("kind", "static"),
        "trials": stats.trial_count,
        "success_rate": stats.success_rate,
        "wilson_low": stats.wilson_low,
        "wilson_high": stats.wilson_high,
        "median": stats.quantiles[0.5],
        "p90": stats.quantiles[0.9],
        "mean": stats.mean_completion,
    }
    return rows, summary


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    cfg = normalize_config(load_config(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    points = expand_sweep(cfg)
    if args.print_config:
        print(yaml.safe_dump(cfg, sort_keys=True), end="")
        return 0

    first_ids = list(accumulate((p["trials"] for p in points[:-1]), initial=0))
    if args.jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_run_point, points, first_ids))
    else:
        outputs = list(map(_run_point, points, first_ids))

    out_path = cfg["out"]
    partial = out_path + ".partial"
    with open(partial, "w") as fh:
        fh.write(csv_header() + "\n")
        for rows, _ in outputs:
            fh.writelines(row + "\n" for row in rows)
    os.replace(partial, out_path)

    print(f"wrote {out_path}")
    hdr = f"{'algo':>6} {'dlog2':>8} {'tau':>4} {'adversary':>22} {'ok':>6} " \
          f"{'rate':>7} {'median':>10} {'p90':>10} {'mean':>10}"
    print(hdr)
    for _, s in outputs:
        med = s["median"] if s["median"] != math.inf else "inf"
        p90 = s["p90"] if s["p90"] != math.inf else "inf"
        mean = f"{s['mean']:.1f}" if s["mean"] is not None else "-"
        print(f"{s['algo']:>6} {s['delta_log2']:>8} {s['tau']:>4} "
              f"{s['adversary']:>22} {s['trials']:>6} {s['success_rate']:>7.3f} "
              f"{med!s:>10} {p90!s:>10} {mean:>10}")
    return 0


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    predictor: str
    exponent: float
    intercept: float
    residual: float
    points: tuple[tuple[float, float], ...]


PREDICTORS = ("local-tau2", "local-tau", "shift", "global-tau2")


def predictor_value(name: str, delta_log2: float, tau: float, algo: str,
                    params: dict) -> float:
    def d_pow_tau():
        if not math.isfinite(tau):
            raise ConfigError(f"predictor {name} undefined for tau = inf rows")
        return 2.0 ** (delta_log2 / tau)

    if name == "local-tau2":
        return d_pow_tau() * tau * tau / delta_log2
    if name == "local-tau":
        return d_pow_tau() * tau / delta_log2
    if name == "shift":
        if "l" in params:
            l = float(params["l"])
        else:
            delta = 2 ** round(delta_log2) if delta_log2 == round(delta_log2) else None
            if delta is None:
                raise ConfigError("shift predictor needs --param l=... for non power-of-two delta")
            build_tau = int(tau) if math.isfinite(tau) else 2 ** 30
            l = schedules.build_schedule(algo, delta, build_tau).cycle_length
        return math.sqrt(2.0 ** delta_log2) / l
    if name == "global-tau2":
        if "D" not in params:
            raise ConfigError("global-tau2 predictor needs --param D=<diameter>")
        return float(params["D"]) * d_pow_tau() * tau * tau / delta_log2
    raise ConfigError(f"unknown predictor {name!r}; choose from {PREDICTORS}")


def read_trials_csv(path: str) -> list[dict]:
    try:
        with open(path) as fh:
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    if not lines or lines[0][1] != csv_header():
        raise ConfigError(f"{path}: not a dualradio trials CSV")
    rows = []
    for i, ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(engine.CSV_COLUMNS):
            raise ConfigError(f"{path}: line {i} has {len(vals)} fields, "
                              f"expected {len(engine.CSV_COLUMNS)}")
        row = dict(zip(engine.CSV_COLUMNS, vals))
        if row["completed"] not in ("0", "1"):
            raise ConfigError(f"{path}: line {i}: completed must be 0 or 1, "
                              f"got {row['completed']!r}")
        if row["completed"] == "1" and not row["completion_round"].isdecimal():
            raise ConfigError(f"{path}: line {i}: completion_round of a completed trial "
                              f"must be an integer, got {row['completion_round']!r}")
        rows.append(row)
    return rows


def fit_scaling(rows: list[dict], predictor: str, params: dict) -> ScalingFit:
    import numpy as np

    groups: dict[tuple, list[float]] = {}
    meta: dict[tuple, tuple] = {}
    for row in rows:
        key = (row["problem"], row["algo"], row["engine"], row["delta_log2"],
               row["tau"], row["adversary"])
        comp = float(row["completion_round"]) if row["completed"] == "1" else math.inf
        groups.setdefault(key, []).append(comp)
        meta[key] = (float(row["delta_log2"]),
                     math.inf if row["tau"] == "inf" else float(row["tau"]),
                     row["algo"])
    if len(groups) < 4:
        raise ConfigError(f"need >= 4 sweep points for a fit, got {len(groups)}")
    pts = []
    for key, comps in sorted(groups.items()):
        comps.sort()
        median = comps[min(len(comps) - 1, int(0.5 * (len(comps) - 1)))]
        if not math.isfinite(median):
            raise ConfigError(f"sweep point {key} completed in fewer than half its trials")
        dl2, tau, algo = meta[key]
        pred = predictor_value(predictor, dl2, tau, algo, params)
        pts.append((pred, median))
    xs = np.log([p for p, _ in pts])
    ys = np.log([m for _, m in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return ScalingFit(predictor, float(slope), float(intercept), resid, tuple(pts))


def cmd_fit(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConfigError(f"--param expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = v
    fit = fit_scaling(read_trials_csv(args.csv), args.predictor, params)
    print(f"predictor {fit.predictor}")
    print(f"exponent {fit.exponent:.17g}")
    print(f"intercept {fit.intercept:.17g}")
    print(f"residual {fit.residual:.17g}")
    for pred, med in fit.points:
        print(f"point {pred:.17g} {med:.17g}")
    return 0


# ---------------------------------------------------------------------------
# oracle / gadget / schedule subcommands


def _parse_flag(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


# subcommand -> (fewest values, most values or None, usage)
ORACLE_VALUES = {
    "exact": (2, 3, "<d> <p> [flag]"),
    "prosing": (2, 2, "<d> <p>"),
    "interval": (3, 4, "<d1> <d2> <p> [flag]"),
    "wpi": (1, None, "<x>..."),
    "phase-sum": (3, None, "<degree> <flag> <p>..."),
}
GADGET_VALUES = {
    "star": (2, 2, "<delta> <n>"),
    "double_star": (1, 1, "<delta>"),
    "chained": (2, 2, "<delta> <diameter>"),
}


def _check_values(command: str, values: list[str], spec: tuple) -> None:
    least, most, usage = spec
    if len(values) < least or (most is not None and len(values) > most):
        raise ConfigError(f"{command} takes {usage}, got {len(values)} value(s)")


def cmd_oracle(args) -> int:
    sub = args.subcommand
    vals = args.values
    _check_values(f"oracle {sub}", vals, ORACLE_VALUES[sub])
    if sub == "exact":
        d, p = int(vals[0]), float(vals[1])
        flag = _parse_flag(vals[2]) if len(vals) > 2 else False
        v = oracle.exact_success_prob(d, p, flag)
        provenance = "d*p*(1-p)^d" if flag else "d*p*(1-p)^(d-1)"
    elif sub == "prosing":
        d, p = int(vals[0]), float(vals[1])
        v = oracle.prosing_bound(d, p)
        provenance = "(p*d)/(2e)^(p*d), valid for p <= 1/2"
    elif sub == "interval":
        d1, d2, p = int(vals[0]), int(vals[1]), float(vals[2])
        flag = _parse_flag(vals[3]) if len(vals) > 3 else False
        v = oracle.interval_min_bound(d1, d2, p, flag)
        provenance = "min of exact success at the interval endpoints"
    elif sub == "wpi":
        xs = [float(x) for x in vals]
        lo, hi = oracle.weierstrass_bounds(xs)
        print(f"{lo:.17g} {hi:.17g}")
        print("provenance: 1-sum(x) <= prod(1-x) <= 1-sum(x)+sum_{i<j}(x_i*x_j)",
              file=sys.stderr)
        return 0
    elif sub == "phase-sum":
        degree = int(vals[0])
        flag = _parse_flag(vals[1])
        probs = [float(x) for x in vals[2:]]
        v = oracle.phase_success_sum(probs, degree, flag)
        provenance = "sum_i exact_success(degree, p_i)"
    else:
        raise ConfigError(f"unknown oracle subcommand {sub!r}")
    print(f"{v:.17g}")
    print(f"provenance: {provenance}", file=sys.stderr)
    return 0


def cmd_gadget(args) -> int:
    from .model import graph_to_text

    kind = args.kind
    _check_values(f"gadget {kind}", args.values, GADGET_VALUES[kind])
    if kind == "star":
        g = gadgets.star_gadget(int(args.values[0]), int(args.values[1]))
    elif kind == "double_star":
        g = gadgets.double_star(int(args.values[0]))
    elif kind == "chained":
        g = gadgets.chained_gadgets(int(args.values[0]), int(args.values[1]))
    else:
        raise ConfigError(f"unknown gadget kind {kind!r}")
    sys.stdout.write(graph_to_text(g.graph))
    return 0


def cmd_schedule(args) -> int:
    delta = parse_delta(args.delta)
    sched = schedules.build_schedule(args.algo, delta, args.tau)
    sys.stdout.write(schedules.schedule_csv(sched))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualradio",
        description="Broadcast experiments on dual-graph radio networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--print-config", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit log(median) against a predictor")
    p_fit.add_argument("csv")
    p_fit.add_argument("--predictor", required=True, choices=PREDICTORS)
    p_fit.add_argument("--param", action="append")
    p_fit.set_defaults(func=cmd_fit)

    p_or = sub.add_parser("oracle", help="closed-form probability calculators")
    p_or.add_argument("subcommand", choices=tuple(ORACLE_VALUES))
    p_or.add_argument("values", nargs="+")
    p_or.set_defaults(func=cmd_oracle)

    p_g = sub.add_parser("gadget", help="print a benchmark topology")
    p_g.add_argument("kind", choices=tuple(GADGET_VALUES))
    p_g.add_argument("values", nargs="+")
    p_g.set_defaults(func=cmd_gadget)

    p_s = sub.add_parser("schedule", help="dump a probability cycle as CSV")
    p_s.add_argument("algo", choices=ALGOS)
    p_s.add_argument("--delta", required=True)
    p_s.add_argument("--tau", type=int, default=1)
    p_s.set_defaults(func=cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
