"""Host-speed probe: time a fixed piece of work that does not use dualradio.

    python3 bench/calibrate.py

Prints the seconds the work took.  The work mixes what the package's hot
paths do: building and walking a large dict of tuples (per-trial Python
state) and many small numpy draws and vector tests (per-round engine work).
The benchmark runs it next to every timed run to track how fast the shared
machine is at that moment; it never changes, so a change to the package
cannot move it.
"""

import time

import numpy as np


def work() -> int:
    table = {i: (i, 2 * i) for i in range(300_000)}
    acc = sum(b - a for a, b in table.values())
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(12000):
        u = rng.random(64)
        acc += int((np.log(u) < -1.0).sum())
    return acc


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
