"""A fixed reference loop that measures how fast the CPU runs right now.

Usage: python3 perfbench/calibrate.py

Prints ``ready`` once set up, then runs chunks of the loop until its
standard input is closed, and finally prints one JSON list of
``[start, end, cpu_s]`` per chunk: the chunk's ``time.monotonic()`` start
and end and the CPU seconds it took. The benchmark runs it on the same CPU
as a simulation, so the two share that CPU's speed from moment to moment.

The loop mixes what the simulator spends its time on: heap pushes and pops
of event tuples, dict and attribute traffic in the interpreter, and numpy
operations on 513-long vectors and a 513 x 513 matrix. It imports nothing
from the simulator, so no change to the simulator can change its time.
"""

import heapq
import json
import select
import sys
import time

import numpy as np

N = 513
STEPS_PER_CHUNK = 100


class _Node:
    __slots__ = ("energy", "hops")

    def __init__(self, i: int) -> None:
        self.energy = float(i)
        self.hops = i % 7


def main() -> None:
    rng = np.random.default_rng(12345)
    pos = rng.uniform(0.0, 7500.0, size=(N, 2))
    table = np.full((N, N), np.inf)
    nodes = [_Node(i) for i in range(N)]
    counts: dict[int, int] = {}
    heap = [(i, i % 11, -1 - i, None) for i in range(N)]
    acc = 0.0
    step = 0
    chunks = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        start, c0 = time.monotonic(), time.process_time()
        for step in range(step, step + STEPS_PER_CHUNK):  # heap size stays N
            heapq.heappush(heap, ((step * 104729) % 100003, step % 11, step, None))
            t, kind, seq, _ = heapq.heappop(heap)
            counts[kind] = counts.get(kind, 0) + 1
            node = nodes[seq % N]
            node.energy -= 1e-3 * node.hops
            i = seq % N
            d = np.hypot(pos[:, 0] - pos[i, 0], pos[:, 1] - pos[i, 1])
            near = np.flatnonzero(d < 1500.0)
            row = table[near]
            better = d[near, None] + 1.0 < row
            table[near] = np.where(better, d[near, None] + 1.0, row)
            acc += float(d[near].sum()) + t
        step += 1
        chunks.append([start, time.monotonic(), time.process_time() - c0])
    assert acc > 0.0 and sum(counts.values()) == step
    print(json.dumps(chunks))


if __name__ == "__main__":
    main()
