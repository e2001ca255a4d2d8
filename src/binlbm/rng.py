"""Deterministic derivation of RNG streams from a single master seed.

Every random subtask (a restart chain, a grid cell, a simulated data set, a
subsample draw) gets its own generator keyed by the master seed plus a short
integer path.  Results therefore never depend on execution order, and any
subtask can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["derive_rng", "derive_seed"]


def _entropy(seed, key):
    parts = [int(seed), *(int(k) for k in key)]
    if any(p < 0 for p in parts):
        raise ValidationError(f"seeds and stream keys must be non-negative, got {parts}")
    return parts


def derive_rng(seed, *key):
    """Generator for the subtask identified by ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, key)))


def derive_seed(seed, *key):
    """Child integer seed for the subtask identified by ``key``.

    Children are independent of the parent stream and of each other, so the
    result can be handed to any API taking a seed without coordination.
    """
    return int(np.random.SeedSequence(_entropy(seed, key)).generate_state(1, np.uint64)[0])
