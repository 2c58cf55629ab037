"""Deterministic random streams.

All stochastic code in the package draws from numpy Generators backed by
the Philox bit generator, a counter-based PRNG.  Independent streams are
derived from a root seed plus an integer key path (for example the trial
index), so re-running a scenario with the same seed reproduces every draw
without any stream depending on how many draws earlier trials consumed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for ``seed`` at sub-key ``key``.

    ``stream(s)`` is the root stream; ``stream(s, i)`` is the stream for
    trial ``i``; further integers open nested sub-streams.  A negative
    seed or key is a ConfigError.
    """
    if seed < 0 or any(k < 0 for k in key):
        raise ConfigError(f"seed and stream keys must be nonnegative, got {(seed, *key)}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))
