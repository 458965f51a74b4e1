"""Machine-speed calibration: a fixed unit of work that does not use kcca.

The speed of the shared 2-core box the benchmark was written on drifts by
10-50 % over seconds to minutes, and interpreter loops, small numpy calls,
file I/O and BLAS all follow the drift together.  The worker times
`calibrate()` between commands, in proportion to the time the commands take,
and run.py scales every median timing of a run by REFERENCE_S over the mean
calibration time of that run.  The scaled timings are seconds on a machine
whose calibration takes REFERENCE_S.  Nothing here calls kcca, so a change
to the program moves a scaled timing by the same share as its wall time.

The run's speed is taken as the mean calibration time, not the median: part
of the slowdown comes as stalls of a few milliseconds, which a 50 ms round
nearly always contains and a 3 ms calibration mostly misses, so a median
calibration would leave them out of the scale.

The work mixes what the benchmarked commands do: interpreter arithmetic,
per-row numpy calls with float formatting (as in the kernel and CSV code),
a small CSV and JSON round trip, and a small dense SVD.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Within the 2-4 ms one calibration took on the box the benchmark was written
# on, so that scaled timings read close to its wall times.
REFERENCE_S = 0.003

_RNG = np.random.default_rng(0)
_POINTS = _RNG.standard_normal((60, 2))
_SQUARE = _RNG.standard_normal((40, 40))


def _work(path):
    total = 0
    for i in range(3000):
        total += i * i % 7
    lines = []
    for row in _POINTS:
        k = np.exp(-((_POINTS - row) ** 2).sum(axis=1) / 2.0)
        lines.append(",".join(repr(float(v)) for v in k[:4]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path) as fh:
        table = [[float(v) for v in line.split(",")] for line in fh]
    doc = json.loads(json.dumps({"points": _POINTS.tolist(), "table": table}))
    np.corrcoef(np.asarray(doc["table"]).T)
    np.linalg.svd(_SQUARE)
    return total


def calibrate(path="calibration.csv"):
    """Seconds taken by one unit of calibration work; writes and reads `path`."""
    t = time.perf_counter()
    _work(path)
    return time.perf_counter() - t
