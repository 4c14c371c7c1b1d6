"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same command runs up to about 1.4 times slower for
stretches of seconds to tens of minutes, depending on what other tenants
run.  The benchmark times this kernel between the repeats of a workload and
reports the workload's times as multiples of the kernel's median time in
the same run.  A slowdown of the host stretches both and cancels out; a
faster calibwalk shortens only the numerator, because the kernel is the
benchmark's own code and calls nothing in the package.

The kernel mixes the two kinds of work the workloads do: numpy passes over
a 32 MB float64 block (the Monte Carlo engine's block size) and interpreter
work parsing and formatting floats (CSV ingest, SVG render).
"""

import time

import numpy as np

_ROWS, _COLUMNS = 40, 100_000
_BLOCKS = 3
_rng = np.random.default_rng(0)
_P = _rng.random(_COLUMNS)
_TEXT = [repr(value) for value in _rng.random(90_000).tolist()]


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(_BLOCKS):
        walk = np.cumsum((rng.random((_ROWS, _COLUMNS)) < _P) - _P, axis=1)
        np.abs(walk).max(axis=1)
    values = [float(text) for text in _TEXT]
    ",".join(f"{value:.6f}" for value in values)
    return time.perf_counter() - start
