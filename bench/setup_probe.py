"""Time the set-up of one `dualradio run` config in a fresh process.

    python3 bench/setup_probe.py <config.yaml> <seed>

Set-up is `import dualradio`, `normalize_config`, `expand_sweep`, then
`build_trial_config` for every sweep point.  Prints one JSON object with
the set-up time, the interpreter and numpy versions, the file the package
was imported from, and each point's expected CSV columns.  Run it with
PYTHONPATH pointing at the checkout's `src`.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from dualradio import cli  # noqa: E402


def main(path: str, seed: int) -> None:
    cfg = cli.normalize_config(cli.load_config(path))
    cfg["seed"] = seed
    points = cli.expand_sweep(cfg)
    configs = [cli.build_trial_config(p) for p in points]
    setup_s = time.perf_counter() - _t0

    import numpy

    described = []
    for config, trials in configs:
        tau = config.adversary.get("tau")
        described.append({
            "problem": config.problem,
            "algo": config.schedule.label,
            "engine": config.engine_mode,
            "tau": "inf" if tau is None else str(tau),
            "adversary": config.adversary.get("kind", "static"),
            "trials": trials,
            "max_rounds": config.max_rounds,
        })
    print(json.dumps({
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "module": cli.__file__,
        "points": described,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
