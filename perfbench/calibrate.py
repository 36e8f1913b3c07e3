"""A fixed reference computation that tracks the machine's current speed.

The shared machine this benchmark runs on changes speed by 20-45% in
phases of seconds to minutes, because other tenants load the cores and
caches it shares.  Those phases are longer than a pass and often longer
than a run, so medians over a run cannot remove them.  The benchmark
therefore interleaves ``reference()``, pure-Python work in the same style
as the library's (dicts keyed by tuples, small ints, lists, sorting) that
uses no code of the library, with the requests.  Each timing is scaled by
``NOMINAL_S / t_ref``, where ``t_ref`` is the median time of the
reference calls around it.  A timing is thus reported in seconds of a
machine that runs the reference in ``NOMINAL_S``: a change to the library
moves it as it moves the raw time, while a change of machine speed moves
the timing and the reference together and cancels.
"""

from __future__ import annotations

import statistics
import time

# Median time of reference() on the 2-core machine the bounds were set on.
NOMINAL_S = 0.013

_CROSSINGS = 9
# A fixed planar-looking pairing of 4 * _CROSSINGS arc ends into edges.
_EDGES = [(i, (5 * i + 3) % (4 * _CROSSINGS)) for i in range(0, 4 * _CROSSINGS, 2)]


def reference() -> int:
    """A miniature state sum: loop counts over all 2^9 smoothings, summed
    into a dict polynomial that is then squared."""
    n = 4 * _CROSSINGS
    poly: dict = {}
    for state in range(1 << _CROSSINGS):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in _EDGES:
            parent[find(a)] = find(b)
        for c in range(_CROSSINGS):
            base = 4 * c
            if (state >> c) & 1:
                pairs = ((base, base + 1), (base + 2, base + 3))
            else:
                pairs = ((base, base + 3), (base + 1, base + 2))
            for a, b in pairs:
                parent[find(a)] = find(b)
        loops = len({find(x) for x in range(n)})
        key = (bin(state).count("1"), loops)
        poly[key] = poly.get(key, 0) + 1
    square: dict = {}
    for (a1, l1), c1 in sorted(poly.items()):
        for (a2, l2), c2 in poly.items():
            k = (a1 - a2, l1 + l2)
            square[k] = square.get(k, 0) + c1 * c2
    return len(square)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(ref_times) -> float:
    """The factor that turns raw seconds into nominal seconds."""
    return NOMINAL_S / statistics.median(ref_times)
