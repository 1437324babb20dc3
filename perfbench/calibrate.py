"""The calibration kernel, run in a helper process of its own.

The helper reads one line per sample from its standard input, runs a fixed
NumPy kernel once and writes the kernel's wall seconds as one line.  It
exits at the end of its input.  It imports nothing of the library, and the
library's state (heap, threads, imports) cannot reach it, so its speed
tracks only the machine's.

The kernel mixes what the library spends its time on: a permutation gather,
a stable sort, a scan and a scatter-add over 2^18 elements, and a JSON
encode; it allocates no arrays after start-up.  It takes about 0.035 s on
a 2-core Xeon VM.

Run alone for a look at the machine's speed (five samples)::

    yes | head -5 | python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

N = 1 << 18


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.perm = rng.permutation(N)
        self.values = rng.random(N)
        self.keys = rng.integers(0, 1 << 40, N)
        self.sorted = np.empty_like(self.keys)
        self.gathered = np.empty_like(self.values)
        self.counts = np.zeros(N)
        self.items = list(range(5000))

    def run(self) -> float:
        start = time.perf_counter()
        np.take(self.values, self.perm, out=self.gathered)
        np.cumsum(self.gathered, out=self.gathered)
        self.sorted[:] = self.keys
        self.sorted.sort(kind="stable")
        self.counts[:] = 0.0
        np.add.at(self.counts, self.perm[: N // 4], 1.0)
        json.dumps(self.items)
        return time.perf_counter() - start


def main() -> int:
    kernel = Kernel()
    kernel.run()  # warm-up
    for _ in sys.stdin:
        print(repr(kernel.run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
