"""Host-speed sampler: a small fixed kernel, timed every 50 ms on the workers' CPU.

The host's CPU speed drifts by up to 30% over seconds with the load of
other machines on it, and every time the benchmark measures drifts with
it.  ``run.py`` starts this sampler once per run, pinned to the CPU the
workers (and the CLI processes they start) are pinned to::

    python perfbench/kernel.py CPU

Every ``INTERVAL_S`` it runs its kernel (a 48x48 complex SVD, a small JSON
round trip and an interpreter loop; numpy and the standard library only)
and keeps ``(start, end, cpu_seconds)``, start and end on the system-wide
monotonic clock that ``time.perf_counter`` reads.  A ``dump`` line on stdin
makes it print the samples kept since the last dump as one JSON line; end
of input ends it.  Because it shares the CPU with the work, its samples
fall inside every document and set-up phase: the work's speed is the
reference kernel time over their mean, and their wall time is taken off the
work's wall time (see ``run.scaled``).

The kernel runs in this process, with the garbage collector off, so the
program's heap and allocator state do not reach it.  Its time is CPU time:
a slower host raises it, but a thread the program leaves running on the
shared CPU only delays it, so such work is not mistaken for a slow host.
"""

from __future__ import annotations

import gc
import json
import os
import select
import sys
import time

INTERVAL_S = 0.05


class Sampler:
    """Client side: the sampler process behind two pipes."""

    def __init__(self, to_sampler, from_sampler):
        self.to_sampler, self.from_sampler = to_sampler, from_sampler

    def dump(self) -> list[list[float]]:
        self.to_sampler.write("dump\n")
        self.to_sampler.flush()
        return json.loads(self.from_sampler.readline())


def main(cpu: int) -> int:
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    gc.disable()
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    text = json.dumps(rng.standard_normal((8, 8)).tolist())
    svd = np.linalg.svd
    fd, samples = sys.stdin.fileno(), []
    while True:
        if select.select([fd], [], [], INTERVAL_S)[0]:
            # requests are single short lines, answered before the next one
            if not os.read(fd, 64):
                return 0
            print(json.dumps(samples), flush=True)
            samples = []
            continue
        start, cpu_start = time.perf_counter(), time.process_time()
        svd(matrix)
        json.dumps(json.loads(text))
        sum(i * i for i in range(5000))
        samples.append((start, time.perf_counter(), time.process_time() - cpu_start))


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
