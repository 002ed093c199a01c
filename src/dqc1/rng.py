"""Seeded random-number streams.

All randomness in the package flows through Philox, a counter-based bit
generator, keyed by (seed, stream).  Distinct streams under one seed are
independent, which lets per-run and per-sample work be generated in any order
(or in parallel) while staying bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair, each taken mod 2**64 exactly:
    a uint64 key, since a plain list would hold values >= 2**63 as float64."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
