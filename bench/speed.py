"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the same task can take up to 1.6 times as long while other
tenants are busy, for seconds or for minutes. `SpeedProbe` times a fixed
computation that does not use `hyperwit`, right before the program's
invocations, in the same process. The end-to-end timings are scaled by
the probe's calm time over its time around them, which states each of them in
seconds at the speed the machine had when it was calm.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

# Median time of reference_work() on the machine the baseline was recorded on
# (2 vCPU x86-64 VM, Python 3.11, numpy 2.4) while no other tenant slowed it:
# in the runner between warm invocations, and in a child forked between
# cold-cli's invocations, where it runs after a large child with cold caches.
REFERENCE_S = 3.8e-3
REFERENCE_FORKED_S = 6.8e-3
EVERY_S = 0.2  # wall time between two probes
WINDOW = 5  # probes whose median scales one timing


def _timed() -> float:
    # No garbage collection inside the probe: its time must not depend on
    # how many objects the program keeps alive.
    gc.disable()
    try:
        return reference_work()
    finally:
        gc.enable()


def reference_work() -> float:
    """The program's kinds of work in miniature: big-integer bit masks,
    interpreter-bound tuple, dict, string and fraction handling, small dense
    SVDs, Kronecker products and gathers over arrays. Returns seconds."""
    from fractions import Fraction

    import numpy as np

    matrix = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) ** 3
    pauli = np.array([[0, -1j], [1j, 0]])
    signs = np.where(np.arange(1 << 12) % 7 < 3, -1, 1)
    t0 = time.perf_counter()
    bits = (1 << (1 << 14)) - 12345
    third = ((1 << (1 << 14)) - 1) // 3
    for pos in range(14):
        bits ^= (bits & third) << (1 << pos)
    parity: dict[tuple[int, ...], int] = {}
    for i in range(1500):
        e = tuple(sorted((i * 7 % 13, i % 11, i * 3 % 17)))
        parity[e] = parity.get(e, 0) ^ 1
    for _ in range(20):
        np.linalg.svd(matrix, compute_uv=False)
    strings = {"".join("IXYZ"[(i >> (2 * k)) & 3] for k in range(6)) for i in range(400)}
    sum(Fraction(len(x) + i, 64) for i, x in enumerate(sorted(strings)[:200]))
    dense = pauli
    for _ in range(5):
        dense = np.kron(dense, pauli)
    xs = np.arange(1 << 12)
    for a in range(1, 24):
        np.nonzero(signs * signs[xs ^ a] + 1)
    return time.perf_counter() - t0


class SpeedProbe:
    """reference_work() timed between the program's invocations.

    With `forked`, each probe runs in a child forked for it, as the forked
    workload's invocations do, so it meets the same fresh-process costs.
    """

    def __init__(self, forked: bool = False) -> None:
        self.forked = forked
        self.reference = REFERENCE_FORKED_S if forked else REFERENCE_S
        self.samples: list[tuple[int, float]] = []  # (timings taken before it, seconds)
        self._last = float("-inf")

    def measure(self) -> float:
        if not self.forked:
            return _timed()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                os.write(w, repr(_timed()).encode())
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r) as fh:
            text = fh.read()
        os.waitpid(pid, 0)
        return float(text)

    def sample(self, position: int) -> None:
        """Record a probe before timing `position` if EVERY_S has passed since the last."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append((position, self.measure()))
            self._last = time.perf_counter()

    def scales(self, count: int) -> list[float]:
        """For timings 0..count-1: the reference time over the median of the WINDOW probes
        centred on the last probe taken before that timing."""
        values = [s for _, s in self.samples]
        half = WINDOW // 2
        smooth = [statistics.median(values[max(0, j - half): j + half + 1]) for j in range(len(values))]
        out, j = [], 0
        for i in range(count):
            while j + 1 < len(self.samples) and self.samples[j + 1][0] <= i:
                j += 1
            out.append(self.reference / smooth[j])
        return out
