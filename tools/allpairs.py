"""CPU time of ``find_isomorphisms`` over all pairs of fresh systems.

    python3 tools/allpairs.py SRC [--cpu N]

It imports ``normsys`` from the directory SRC (a checkout's ``src``).
For each shape (m, n) in ``SHAPES`` it draws ``K`` vector lists from the
fixed ``SEED``: the even ones random integer systems in general position,
each odd one a copy of the one before it, relabelled and with some vectors
negated, so that K / 2 of the C(K, 2) pairs are isomorphic.  Each of
``ROUNDS`` rounds builds the K ``NormalSystem`` objects afresh from those vectors, so no object carries
anything over from an earlier round, then times ``find_isomorphisms`` on
every pair i < j in process CPU time.  The construction is not timed.
Per shape it prints the median and the range over the rounds, in ms, and
the number of witnesses found, which is the same on every tree.

``--cpu N`` pins this process to CPU N first.  Standard library only; it
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from itertools import combinations

SHAPES = ((3, 10), (4, 8), (5, 8), (4, 10), (6, 12))
K = 8
ROUNDS = 5
SEED = 2201


def vector_lists(m: int, n: int, normsys) -> list:
    """K lists of n integer vectors in Z^m, every m of them independent."""
    rng = random.Random(SEED * 1000 + 10 * m + n)
    out = []
    while len(out) < K:
        if len(out) % 2:
            order = rng.sample(out[-1], n)
            out.append([[-x for x in v] if rng.random() < 0.5 else v for v in order])
            continue
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        try:
            normsys.NormalSystem(m, rows)
        except ValueError:
            continue
        out.append(rows)
    return out


def time_shape(normsys, m: int, n: int) -> tuple[list[float], int]:
    """CPU ms of each round's pair sweep, and the witnesses one sweep finds."""
    lists = vector_lists(m, n, normsys)
    times, found = [], None
    for _ in range(ROUNDS):
        systems = [normsys.NormalSystem(m, rows) for rows in lists]
        start = time.process_time()
        counts = [len(normsys.find_isomorphisms(a, b)) for a, b in combinations(systems, 2)]
        times.append(1000 * (time.process_time() - start))
        found = sum(counts)
    return times, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the normsys package")
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, os.path.abspath(args.src))
    import normsys

    for m, n in SHAPES:
        times, found = time_shape(normsys, m, n)
        print(
            f"({m},{n}) {K * (K - 1) // 2} pairs: median {statistics.median(times):.1f} ms "
            f"[{min(times):.1f}, {max(times):.1f}], {found} witnesses"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
