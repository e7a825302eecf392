"""Host speed: a fixed piece of pure-Python work, timed between operations.

On a shared host the same code can run up to 60 % slower for stretches of
seconds to minutes, in CPU time as in wall time and with next to no steal
time, because other tenants load the same cores and caches.  A run of tens
of seconds cannot average that away, and a run that falls in a slow stretch
reads as a regression.  So the worker times REFERENCE_WORK, which calls
nothing in lqt, before the first operation and then between operations at
least every CALIBRATE_EVERY_NS.  Each operation is scaled by the host's speed
around it: REFERENCE_NS over the mean of the reference times taken just
before and just after its window.  The reported times are those the
operations would take on a host that does the reference work in
REFERENCE_NS, and a change to lqt moves them as it moves the raw times.

The reference work mixes what lqt's own code does: products of sparse
polynomials held as dicts from exponent tuples to Fractions, integer
arithmetic in a loop, and building and sorting small tuples and strings.
Each of these alone followed the workloads' slow-downs less closely than
their sum: Fraction arithmetic alone over-corrected, the integer loop alone
under-corrected.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The reference work's time on the reference host (2 cores, Python 3.11) in
# its fast stretches, so that scaled times read close to raw ones there.
REFERENCE_NS = 1_000_000
CALIBRATE_EVERY_NS = 100_000_000
REPEATS = 3  # the reference time is the fastest of REPEATS back to back
WARMUP = 20

_P = {(i, j, (i * j) % 3): Fraction(i - 3, j + 1)
      for i in range(4) for j in range(3)}
_Q = {(j, i, 1): Fraction(j + 1, 2 - i) for i in range(2) for j in range(3)}


def _poly_product() -> dict:
    out: dict = {}
    for a, ca in _P.items():
        for b, cb in _Q.items():
            e = tuple(x + y for x, y in zip(a, b))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _int_loop() -> int:
    s = 0
    for i in range(6000):
        s += i * i % 7
    return s


def _sort_tuples() -> list:
    return sorted([(i % 13, str(i)) for i in range(1000)])


def reference_work() -> None:
    _poly_product()
    _int_loop()
    _sort_tuples()


def time_reference() -> int:
    clock = time.perf_counter_ns
    best = None
    for _ in range(REPEATS):
        t0 = clock()
        reference_work()
        t = clock() - t0
        if best is None or t < best:
            best = t
    return best


class HostSpeed:
    """Reference times taken between operations, and the scale of each
    window between two of them.

    ``window`` is the number of the window the next operation falls in.
    ``due`` says whether a new reference time should be taken before it;
    ``sample`` takes one and opens the next window.  After a last ``sample``,
    ``scales()[w]`` turns a raw time in window w into a scaled one."""

    def __init__(self):
        for _ in range(WARMUP):
            reference_work()
        self.refs = [time_reference()]
        self.sampled_at = time.perf_counter_ns()

    @property
    def window(self) -> int:
        return len(self.refs) - 1

    def due(self) -> bool:
        return (time.perf_counter_ns() - self.sampled_at
                >= CALIBRATE_EVERY_NS)

    def sample(self) -> None:
        self.refs.append(time_reference())
        self.sampled_at = time.perf_counter_ns()

    def scales(self) -> list[float]:
        refs = self.refs
        return [2 * REFERENCE_NS / (refs[w] + refs[w + 1])
                for w in range(len(refs) - 1)]
