"""Order-preserving execution of independent tasks: each study driver maps its
units once, and a unit's result depends only on its item, never on the order."""

__all__ = ["ordered_map"]


def ordered_map(fn, items):
    """Apply ``fn`` to every item, returning the results in item order."""
    return [fn(item) for item in items]
