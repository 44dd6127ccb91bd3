"""A fixed pure-Python task that gauges how fast the host runs right now.

The benchmark's host is a shared virtual machine that switches between a
fast and a slow state several times a second, in which this task takes
about 14 and 24 ms, and the share of time it spends in each drifts over
minutes as other tenants load it; CPU time moves as much as wall time. The
workloads spend most of their time in interpreted code (the F_2 Gray walk,
row reduction through table look-ups, list arithmetic on polynomials), so
this task does the same kinds of work, on fixed inputs and without the
package. Interleaved with the package's own Gray walk and row reduction in
chunks of milliseconds, its time correlates with theirs at 0.8. Timing it
just before and just after a pass gives the host's speed around the pass,
and run.py rescales the pass's times to a host on which the task takes
REF_S seconds.
"""

from time import perf_counter

# Typical mean time of one task on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM
# guest with Python 3.11.7: the speed the rescaled timings refer to.
REF_S = 0.020
# A pass's time moves with the task's time to this power. The workloads move
# more memory per step than the task, so the fast state speeds them up less.
# Over two sets of ten runs of each workload, the spread of the run medians
# was lowest near 0.6 for three workloads and near 1 for sweep-binary; 0.7
# kept it at or below 0.075 for all four, where raw medians reached 0.179.
ELASTICITY = 0.7

_Q = 16
_ROWS = [(0x9E3779B97F4A7C15 * (j + 1)) & ((1 << 40) - 1) for j in range(15)]


class _Tables:
    """Addition and multiplication by table look-up, as a field context does."""

    def __init__(self, q):
        self.q = q
        self._add = [a ^ b for a in range(q) for b in range(q)]
        self._mul = [(a * b + a + b) % q for a in range(q) for b in range(q)]

    def add(self, a, b):
        return self._add[a * self.q + b]

    def mul(self, a, b):
        return self._mul[a * self.q + b]


def task():
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    counts = [0] * 41
    cw = 0
    for i in range(1, 1 << len(_ROWS)):
        cw ^= _ROWS[(i & -i).bit_length() - 1]
        counts[cw.bit_count()] += 1
    ctx = _Tables(_Q)
    rows = [[(i * 7 + j * 3 + i * j) % _Q for j in range(48)] for i in range(32)]
    for col in range(len(rows)):
        piv = rows[col]
        for i, other in enumerate(rows):
            if i != col:
                f = other[col]
                rows[i] = [ctx.add(oc, ctx.mul(f, pc)) for oc, pc in zip(other, piv)]
    a = [(i * 5 + 1) % 251 for i in range(60)]
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            prod[i + j] = (prod[i + j] + x * y) % 251
    return sum(counts) + sum(map(sum, rows)) + sum(prod)


def sample(times):
    """Wall times of `times` runs of the task."""
    out = []
    for _ in range(times):
        t0 = perf_counter()
        task()
        out.append(perf_counter() - t0)
    return out
