"""Order-preserving execution of independent tasks, optionally threaded.

Tasks must be pure functions of their item (all randomness flowing through
derived seeds), which makes the threaded path produce exactly the same output
as the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import ValidationError

__all__ = ["ordered_map"]


def ordered_map(fn, items, threads=1):
    """Apply ``fn`` to every item on ``threads`` (at least 1) workers,
    returning results in item order."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
