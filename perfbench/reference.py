"""A fixed pure-Python loop that measures how fast its CPU runs.

    python3 reference.py --out FILE

The benchmark starts this process on the one CPU its children run on.  The
loop runs chunks of identical work and records, per chunk, the
``time.monotonic()`` at its start and the CPU time it took.  The children and
the loop take turns on that CPU in slices of a few milliseconds, so the
chunks that ran while a child was alive saw the same mix of fast and slow
CPU states as the child did.

On SIGTERM (or when its parent is gone, or after ``MAX_LIFETIME_S``) the loop
stops and writes the records to ``FILE`` as native doubles: every start time,
then every CPU time.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from array import array
from fractions import Fraction

MAX_LIFETIME_S = 200.0


def chunk() -> int:
    """Fixed work of about 0.6 ms: rational sums kept in a dict, then integer arithmetic.

    A slow CPU state slows object-heavy code such as ``Fraction`` arithmetic
    more than plain integer loops; the program does both, and so does the chunk.
    """
    total, seen = Fraction(0), {}
    for i in range(1, 150):
        total += Fraction(i % 97, i % 89 + 1)
        seen[total.denominator % 101] = total
    x = 0
    for i in range(2500):
        x += i * i % 7
    return x + len(seen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    parent = os.getppid()
    starts, cpus = array("d"), array("d")
    monotonic, thread_time = time.monotonic, time.thread_time
    give_up = monotonic() + MAX_LIFETIME_S
    while not stop:
        start, cpu = monotonic(), thread_time()
        chunk()
        cpus.append(thread_time() - cpu)
        starts.append(start)
        if len(starts) % 1000 == 0 and (os.getppid() != parent or start > give_up):
            break
    with open(args.out, "wb") as handle:
        starts.tofile(handle)
        cpus.tofile(handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
