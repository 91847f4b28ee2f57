"""Machine-speed probe: converts measured seconds into reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds and over minutes, for interpreter work and for
array work alike, and CPU time drifts with wall time.  The fastest of
several executions does not remove that drift: a slow phase can last a
whole run.  So a run times a fixed reference job next to the ops and
reports every interval in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / probe seconds

where probe seconds is the reference job's time around the interval.
The job never calls ommap.  A change to ommap moves reference seconds as
it moves wall time, while a slow phase of the machine slows the op and
the probe alike and cancels out.  Measured seconds stay in the run record.
"""

import functools
import time

import numpy as np

#: the probe's usual time on the 2-core shared x86-64 sandbox the benchmark
#: was written on, without and with the array part; it only sets the scale
#: of the results
REFERENCE_S = {False: 0.012, True: 0.021}

_SMALL = np.linspace(0.5, 2.0, 16)
_MATRIX = np.eye(8) + 0.1


@functools.cache
def _large() -> np.ndarray:
    """16 MiB: four times the per-core L2, so the array part streams from
    the shared cache or memory as the Monte Carlo draws do."""
    return np.linspace(0.0, 1.0, 2 << 20)


class SpeedProbe:
    """The reference job: interpreter work with small numpy calls, as in
    the scalar functionals and the CLI, and with ``array`` also passes
    over a 16 MiB array, as in the Monte Carlo masses.

    Memory traffic on a shared machine drifts apart from interpreter
    speed, so a workload is probed with the array part only when its ops
    stream large arrays.  With it, the reference times of the Gamma-probe
    and CLI ops spread 2.7 to 7 times as widely; without it, those of the
    Monte Carlo ops spread two to three times as widely."""

    def __init__(self, array: bool):
        self.array = array
        self.reference_s = REFERENCE_S[array]

    def __call__(self) -> float:
        """Seconds the reference job takes now."""
        big = _large() if self.array else None
        t = time.perf_counter()
        acc = 0.0
        for i in range(1000):
            v = _SMALL * (1.0 + i * 1e-4)
            acc += float(np.sqrt(v @ v)) + float(np.max(_MATRIX @ v[:8]))
            acc += sum(x * 0.5 for x in range(8))
        if big is not None:
            for _ in range(4):
                acc += float(big.sum()) + float(np.abs(big[::3]).max())
        return time.perf_counter() - t

    def to_reference(self, seconds: float, probe_s: float) -> float:
        return seconds * self.reference_s / probe_s
