"""Core types, the generative model, block counting and the exact ICL score.

The latent block model: each row carries a hidden group label drawn from
mixing proportions ``pi`` (g groups), each column one drawn from ``rho``
(m groups), and a cell whose row sits in group k and column in group l is
Bernoulli with success probability ``alpha[k, l]``.

Group labels are 0-based everywhere in memory; the I/O layer converts to the
1-based convention used in result files.  All functions here are pure and all
containers immutable, also after ``pickle`` or ``copy``, which rebuild them
through the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import lgamma

import numpy as np

from .errors import ValidationError, _whole
from .rng import derive_rng

__all__ = [
    "BinaryDataMatrix",
    "LBMParameters",
    "CoPartition",
    "BlockCounts",
    "PriorHyperparams",
    "staircase_parameters",
    "simulate_dataset",
    "block_counts",
    "icl",
]

PROB_TOL = 1e-12


def _check_prob_vector(p, name):
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{name} must contain finite values")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{name} must sum to 1 within {PROB_TOL}, got {total!r}")


def _check_labels(labels, bound, name):
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a non-empty 1-d vector")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must be integer-valued")
    if int(arr.min()) < 0 or int(arr.max()) >= bound:
        raise ValidationError(f"{name} labels must lie in [0, {bound - 1}]")
    return arr.astype(np.int64, copy=False)


def _freeze(obj, name, arr):
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _whole_groups(obj):
    for name in ("g", "m"):
        object.__setattr__(obj, name, _whole(getattr(obj, name), name))


class _Frozen:
    """A container that ``pickle`` and ``copy`` rebuild through its constructor."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class BinaryDataMatrix(_Frozen):
    """An n x q matrix of 0/1 responses (rows: students, columns: items)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError("data matrix must be 2-d with at least one row and one column")
        if not ((values == 0) | (values == 1)).all():
            raise ValidationError("data matrix cells must all be 0 or 1")
        _freeze(self, "values", values.astype(np.int8, copy=True))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LBMParameters(_Frozen):
    """Mixing proportions and the g x m matrix of block success rates."""

    g: int
    m: int
    pi: np.ndarray
    rho: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        _whole_groups(self)
        pi = np.asarray(self.pi, dtype=float).copy()
        rho = np.asarray(self.rho, dtype=float).copy()
        alpha = np.asarray(self.alpha, dtype=float).copy()
        if pi.shape != (self.g,):
            raise ValidationError(f"pi must have shape ({self.g},), got {pi.shape}")
        if rho.shape != (self.m,):
            raise ValidationError(f"rho must have shape ({self.m},), got {rho.shape}")
        if alpha.shape != (self.g, self.m):
            raise ValidationError(f"alpha must have shape ({self.g}, {self.m}), got {alpha.shape}")
        _check_prob_vector(pi, "pi")
        _check_prob_vector(rho, "rho")
        if not np.all(np.isfinite(alpha)) or np.any(alpha < 0.0) or np.any(alpha > 1.0):
            raise ValidationError("alpha entries must lie in [0, 1]")
        _freeze(self, "pi", pi)
        _freeze(self, "rho", rho)
        _freeze(self, "alpha", alpha)


@dataclass(frozen=True)
class CoPartition(_Frozen):
    """Row labels ``z`` (length n, values 0..g-1) and column labels ``w``
    (length q, values 0..m-1).  A group index in range may be unused: empty
    groups are legal.
    """

    z: np.ndarray
    w: np.ndarray
    g: int
    m: int

    def __post_init__(self):
        _whole_groups(self)
        for name, labels, bound in (("z", self.z, self.g), ("w", self.w, self.m)):
            _freeze(self, name, _check_labels(labels, bound, name).copy())

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def q(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class BlockCounts(_Frozen):
    """Per-block tallies of ones and zeros plus the group sizes."""

    n1: np.ndarray
    n0: np.ndarray
    row_sizes: np.ndarray
    col_sizes: np.ndarray

    def __post_init__(self):
        n1 = np.asarray(self.n1, dtype=np.int64)
        n0 = np.asarray(self.n0, dtype=np.int64)
        rows = np.asarray(self.row_sizes, dtype=np.int64)
        cols = np.asarray(self.col_sizes, dtype=np.int64)
        if n1.shape != (rows.size, cols.size) or n0.shape != n1.shape:
            raise ValidationError("block count shapes are inconsistent")
        if np.any(n1 < 0) or np.any(n0 < 0):
            raise ValidationError("block counts must be non-negative")
        if not np.array_equal(n1 + n0, np.outer(rows, cols)):
            raise ValidationError("n1 + n0 must equal the block cell counts")
        for name, arr in (("n1", n1), ("n0", n0), ("row_sizes", rows), ("col_sizes", cols)):
            _freeze(self, name, arr.copy())


@dataclass(frozen=True)
class PriorHyperparams:
    """Dirichlet concentration ``a`` for pi and rho, Beta concentration ``b``
    for every block rate.  Defaults a=4, b=1 are the estimation setup used
    throughout; a=4 is what keeps groups from emptying during fitting.
    """

    a: float = 4.0
    b: float = 1.0

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not np.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be a positive finite number, got {value!r}")


def staircase_parameters(g, m, epsilon):
    """Uniform mixing proportions with ``alpha[k, l] = epsilon`` on and below
    the block diagonal (k >= l) and ``1 - epsilon`` above it.

    ``epsilon`` is a difficulty dial: small values give sharply contrasted
    blocks, values near 1/2 nearly erase the structure.
    """
    g, m = _whole(g, "g"), _whole(m, "m")
    eps = float(epsilon)
    if not np.isfinite(eps) or not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon must lie strictly between 0 and 1, got {epsilon!r}")
    rows = np.arange(g)[:, None]
    cols = np.arange(m)[None, :]
    alpha = np.where(rows >= cols, eps, 1.0 - eps)
    return LBMParameters(g, m, np.full(g, 1.0 / g), np.full(m, 1.0 / m), alpha)


def simulate_dataset(params, n, q, seed):
    """Draw row and column labels from the mixing proportions, then every
    cell from its block's Bernoulli rate.

    The same seed reproduces the matrix and partition bit for bit.
    """
    n, q = _whole(n, "n"), _whole(q, "q")
    rng = derive_rng(seed)
    z = rng.choice(params.g, size=n, p=params.pi)
    w = rng.choice(params.m, size=q, p=params.rho)
    cells = (rng.random((n, q)) < params.alpha[z][:, w]).astype(np.int8)
    return BinaryDataMatrix(cells), CoPartition(z, w, params.g, params.m)


def _one_hot(labels, width):
    return np.eye(width).take(labels, axis=0)


def _expected_counts(y, tau, nu):
    """Row and column group masses, the expected ones per block ``s1`` and
    the expected cells per block ``s_tot``.  On one-hot labels these are the
    exact block counts: every partial sum is an integer far below 2**53."""
    row_mass = tau.sum(axis=0)
    col_mass = nu.sum(axis=0)
    return row_mass, col_mass, tau.T @ y @ nu, np.outer(row_mass, col_mass)


def block_counts(data, part):
    """Count the ones and zeros falling in every (row group, column group)
    block of the partition."""
    if part.n != data.n or part.q != data.q:
        raise ValidationError(
            f"partition sized ({part.n}, {part.q}) does not match data ({data.n}, {data.q})")
    row_sizes, col_sizes, n1, cells = _expected_counts(
        data.values, _one_hot(part.z, part.g), _one_hot(part.w, part.m))
    return BlockCounts(n1, cells - n1, row_sizes, col_sizes)


def icl(data, part, g, m, prior):
    """Exact integrated completed likelihood of a co-partition.

    Conjugate Dirichlet(a) priors on the mixing proportions and Beta(b, b)
    priors on the block rates integrate in closed form; the result is the log
    of the completed-data marginal likelihood.  Finite for every valid input,
    including partitions with empty groups.
    """
    if part.g != g or part.m != m:
        raise ValidationError(
            f"partition declares ({part.g}, {part.m}) groups, expected ({g}, {m})")
    counts = block_counts(data, part)
    a, b = prior.a, prior.b
    n, q = data.n, data.q
    zk = counts.row_sizes.astype(float)
    wl = counts.col_sizes.astype(float)
    value = (
        lgamma(g * a) + lgamma(m * a) - (g + m) * lgamma(a)
        + g * m * (lgamma(2.0 * b) - 2.0 * lgamma(b))
        - lgamma(n + g * a) - lgamma(q + m * a)
        + _lgamma_array(zk + a).sum() + _lgamma_array(wl + a).sum()
        + (_lgamma_array(counts.n1 + b) + _lgamma_array(counts.n0 + b)
           - _lgamma_array(np.outer(zk, wl) + 2.0 * b)).sum()
    )
    return float(value)


def _lgamma_array(x):
    """Elementwise ``math.lgamma`` over a float array, keeping its shape."""
    return np.fromiter(map(lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)
