"""Deterministic derivation of RNG streams from a single master seed.

Every random subtask (a restart chain, a grid cell, a simulated data set, a
subsample draw) gets its own generator keyed by the master seed plus a short
integer path.  Results therefore never depend on execution order, and any
subtask can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np

from .errors import _whole

__all__ = ["derive_rng", "derive_seed"]


def _entropy(seed, key):
    return [_whole(seed, "seed", least=0), *(_whole(k, "stream key", least=0) for k in key)]


def derive_rng(seed, *key):
    """Generator for the subtask identified by ``key`` under ``seed``, whole
    numbers >= 0 (a whole float or numpy integer counts as its int)."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, key)))


def derive_seed(seed, *key):
    """Child integer seed for the subtask identified by ``key``.

    Children are independent of the parent stream and of each other, so the
    result can be handed to any API taking a seed without coordination.
    """
    return int(np.random.SeedSequence(_entropy(seed, key)).generate_state(1, np.uint64)[0])
