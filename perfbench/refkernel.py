"""Reference kernel: a fixed piece of pure-Python work that imports nothing
from votesim, timed in its own process between the timed votesim runs.

    python3 perfbench/refkernel.py [--reps N]

Its mix follows what votesim spends time on: 3-argument `pow` on big
integers (numth, minitls), per-voter dicts and f-strings (engine, election,
netsim trace) and a heap (the netsim event queue). It prints one JSON object
with the median seconds of `--reps` repetitions; run.py divides every timed
run by the reference time measured next to it, so that drifts in the speed
of a shared host cancel out while changes to votesim do not.
"""

import argparse
import hashlib
import heapq
import json
import random
import statistics
import time

MODULUS = (1 << 1279) - 1  # a Mersenne prime
VOTERS = 170
EVENTS = 4000
DIGEST = "1f96f0259bcb0991"  # first 16 hex digits of kernel()'s result


def kernel() -> str:
    rng = random.Random(5)
    voters, heap, lines = {}, [], []
    for i in range(VOTERS):
        x = pow(rng.getrandbits(512) | 1, rng.getrandbits(64) | 1, MODULUS)
        voters[f"voter{i:06d}"] = {"x": x & 0xFFFFFFFF, "n": i}
        heapq.heappush(heap, (x & 0xFFFF, i))
        lines.append(f"{i}:{x & 0xFFFFFFFF:08x}")
    for j in range(EVENTS):
        voters[f"voter{j % VOTERS:06d}"]["n"] += j
        heapq.heappush(heap, (j, j))
        heapq.heappop(heap)
    blob = json.dumps(voters, sort_keys=True) + "|".join(lines)
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    times = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        digest = kernel()
        times.append(time.perf_counter() - t0)
        if not digest.startswith(DIGEST):
            print(f"reference kernel digest {digest[:16]} != {DIGEST}")
            return 1
    print(json.dumps({"ref_s": statistics.median(times)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
