"""Deterministic random-number plumbing.

All stochastic components of the library (the synthetic Adult generator, the
D1/D2 partition builder, randomized selection heuristics, crypto key generation in
tests) accept either an integer seed or an existing ``random.Random`` /
``numpy.random.Generator``. These helpers normalize that input so every
experiment is reproducible from a single seed.
"""

from __future__ import annotations

import random

import numpy as np

DEFAULT_SEED = 20080407  # ICDE 2008, April 7 — first day of the conference.


def make_random(seed: int | random.Random | None = None) -> random.Random:
    """Return a ``random.Random`` for *seed*.

    ``None`` uses :data:`DEFAULT_SEED` so that, by default, runs are
    reproducible; pass an existing ``random.Random`` to share state.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return random.Random(seed)


def make_generator(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a numpy ``Generator`` for *seed* (see :func:`make_random`)."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None, count: int) -> list[int]:
    """Derive *count* independent child seeds from *seed*.

    Used when one experiment seed must drive several independent stochastic
    components (e.g. data generation and partitioning) without correlation.
    """
    rng = make_random(seed)
    return [rng.randrange(2**63) for _ in range(count)]
