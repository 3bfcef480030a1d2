"""A fixed piece of work that gauges how fast this host runs at the moment.

On a shared host the speed of a core drifts: on a 2-vCPU Xeon VM a fixed
pure-Python loop took 23 ms in fast phases and 35 ms in slow ones, with the
CPU time equal to the wall time, and the mean speed of 25 s windows differed
by up to 1.7x.  The child process times ``reference()`` between its jobs;
the benchmark scales its times by REFERENCE_S over the run's mean
reference time, so that they read as seconds at one fixed speed.

The work mixes what selfsim spends its time on, in four parts of about equal
time: a pure-Python word loop (list and dict operations, like word
reduction), permutation composition by numpy fancy indexing, many small
symmetric eigensolves (like the spectral step) and a few larger ones.  Over
15 s windows of that VM the log-time of each part correlated 0.91-0.95 with
that of verify and of small decompose jobs, and scaling by their sum cut
the window-to-window spread of those jobs about threefold.  The work must
not change: a different reference would rescale every time metric.
"""

import time

import numpy as np

REFERENCE_S = 0.050  # about its median time on the VM it was tuned on

_rng = np.random.default_rng(12345)
_PERM = _rng.permutation(4096)
_SMALL = [m + m.T for m in _rng.standard_normal((40, 12, 12))]
_LARGE = _rng.standard_normal((96, 96))
_LARGE = _LARGE + _LARGE.T


def _python_work() -> dict:
    counts: dict[int, int] = {}
    word: list[int] = []
    for i in range(30000):
        letter = (i * 7 + len(word)) % 5
        if word and word[-1] == letter:
            word.pop()
        else:
            word.append(letter)
        counts[letter] = counts.get(letter, 0) + 1
    return counts


def _numpy_work() -> None:
    p = np.arange(_PERM.size)
    for _ in range(1500):
        p = _PERM[p]
    for _ in range(8):
        for m in _SMALL:
            np.linalg.eigh(m)
    for _ in range(8):
        np.linalg.eigh(_LARGE)


def reference() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - start
