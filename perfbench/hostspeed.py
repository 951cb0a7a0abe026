"""Host-speed index: three fixed pure-Python loops that never touch the library.

On a shared 2-vCPU x86_64 VM (Xeon, 2.1 GHz) the host's speed drifts by up
to 1.7x over a few minutes, and raw times carry that drift into every
figure.  The runner samples this index between items all through a run and
divides each time metric by the run's median index.

Each loop stresses a different part of the interpreter: float arithmetic,
small objects built through generators (the shape of the library's dual
numbers), and dict and str work.  The index is the geometric mean of each
loop's time over its nominal time, so 1.0 is the nominal host and 1.2 one
that is 20% slower.  On a seven-minute recording of one orbit-ensemble seed
on that VM, cut into 25 s windows, the IQR/median of wall_s, item_p50_ms and
item_p90_ms was 0.26/0.26/0.22 raw, 0.09/0.11/0.10 divided by the float
loop alone and 0.07/0.06/0.05 divided by this index; on simulate-cli it was
0.14/0.13/0.14, 0.06/0.05/0.08 and 0.04/0.05/0.04.
"""

from __future__ import annotations

import math
import time


def _floats():
    s = 0.0
    for i in range(50_000):
        s += (i * 1.0001) / (i + 1.5)
    return s


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        return _Dual(self.v + o.v, tuple(x + y for x, y in zip(self.d, o.d)))

    def __mul__(self, o):
        u, w = self.v, o.v
        return _Dual(u * w, tuple(w * x + u * y for x, y in zip(self.d, o.d)))

    def sin(self):
        c = math.cos(self.v)
        return _Dual(math.sin(self.v), tuple(c * x for x in self.d))


_BASIS = [_Dual(0.1 * (i + 1), tuple(float(j == i) for j in range(6))) for i in range(6)]


def _duals():
    acc = _BASIS[0]
    for k in range(800):
        acc = acc * _BASIS[k % 6] + _BASIS[(k + 1) % 6].sin()
        if acc.v > 1e6:
            acc = _BASIS[0]
    return acc


def _dicts():
    d = {}
    for i in range(6000):
        k = i % 97
        d[k] = d.get(k, 0) + len(str(i))
    return sorted(d.items())


# (loop, typical median time in seconds on the VM described above)
_LOOPS = ((_floats, 6.0e-3), (_duals, 4.4e-3), (_dicts, 1.5e-3))


def sample():
    """One index sample; returns (index, seconds spent taking it)."""
    log_sum = 0.0
    t0 = time.perf_counter()
    for loop, nominal in _LOOPS:
        a = time.perf_counter()
        loop()
        log_sum += math.log((time.perf_counter() - a) / nominal)
    return math.exp(log_sum / len(_LOOPS)), time.perf_counter() - t0
