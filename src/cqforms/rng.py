"""Reproducible randomness built on the Philox counter-based generator.

All randomized routines in the package draw from streams keyed by
``(seed, stream_index)``.  Philox is a pure counter-based generator, so a
stream is a deterministic function of its key on every platform, and Monte
Carlo totals are independent of how sample chunks are assigned to workers:
chunk ``c`` of a run always uses the stream keyed ``(seed, c)``.
"""

from __future__ import annotations

import numpy as np

MC_CHUNK = 1 << 14  # fixed Monte Carlo chunk size; part of the stream contract


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, index), stable across platforms.

    Both are taken mod 2^64.  The key is built as uint64: numpy would route
    a tuple entry of 2^63 or more through float64.
    """
    key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def integer_points(seed: int, count: int, dim: int, index: int = 0) -> np.ndarray:
    """``count`` integer points with entries uniform in [-9, 9], drawn from
    ``stream(seed, index)`` as one (count, dim) block and returned as the
    columns of a contiguous (dim, count) int64 array."""
    return np.ascontiguousarray(stream(seed, index).integers(-9, 10, size=(count, dim)).T)


def complex_s_samples(seed: int, count: int):
    """Complex test arguments staying away from half-integer lattice lines.

    Real parts are drawn in [0.05, 0.45] and nudged off rational points;
    imaginary parts, in [-1, 1], are nonzero except possibly by chance.
    """
    gen = stream(seed, 1)
    out = []
    while len(out) < count:
        re = gen.uniform(0.05, 0.45) + 0.012345
        im = gen.uniform(-1.0, 1.0)
        s = complex(re, im)
        if min(abs(2 * re - round(2 * re)), 1.0) > 1e-3:
            out.append(s)
    return out
