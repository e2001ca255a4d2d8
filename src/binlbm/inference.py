"""V-Bayes estimation seeded by a Gibbs sampler, with multi-restart fitting.

One estimation chain for a (g, m) cell: a short Gibbs run over labels and
parameters supplies the starting point, then deterministic variational
updates raise the free energy (expected complete log-likelihood plus
responsibility entropies plus log prior densities) until the relative change
falls under tolerance.  Parameter updates move to conjugate-posterior modes,
so the Dirichlet pseudo-counts keep every group's proportion strictly
positive and the chain cannot paint itself into empty groups.  Several
restarts are run from independent streams and the best free energy wins.
"""

from __future__ import annotations

import logging
import numbers
import time
from dataclasses import dataclass
from math import inf, lgamma
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, _whole
from .model import (
    CoPartition,
    LBMParameters,
    PriorHyperparams,
    _check_prior,
    _check_probabilities,
    _expected_counts,
    _Frozen,
    _freeze,
    _one_hot,
    icl,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "VariationalState",
    "FitResult",
    "gibbs_init",
    "vbayes_step",
    "free_energy",
    "fit",
]

_log = logging.getLogger("binlbm")

_CLAMP = 1e-12
_TINY = np.finfo(float).tiny
# 50 sweeps leave visibly too many single-restart chains in poor optima at
# n ~ 100; 100 sweeps restore near-certain selection on easy regimes
DEFAULT_GIBBS_SWEEPS = 100
DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6
# a Gibbs side whose labels moved updates its counts from the moved items alone
# while fewer than one item in this many moved, and recounts in full otherwise.
# At 5000x200 a row delta at one row in five costs 0.26 ms against 0.76 ms for
# a full recount; the moved columns, gathered across strided rows, match a full
# recount near one column in three
_DELTA_MAX_SHARE = 4
# below this many cells a full recount of a side costs no more than the update
# for one moved item: 7-8 against 12-14 us at 137x33, 13-14 against 14-20 us
# at 300x60, and 28-39 against 20-25 us at 500x100
_DELTA_MIN_CELLS = 32768


@dataclass(frozen=True)
class VariationalState(_Frozen):
    """Row responsibilities ``tau`` (n x g) and column responsibilities
    ``nu`` (q x m); every row of each is a probability vector."""

    tau: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name, arr in (("tau", self.tau), ("nu", self.nu)):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise ValidationError(f"{name} must be a non-empty 2-d matrix")
            _check_probabilities(arr, name, 1e-10)
            _freeze(self, name, arr.copy())


@dataclass(frozen=True)
class FitResult:
    """Winning chain of a multi-restart fit.

    ``chain_free_energies`` holds the final free energy of every restart in
    order (None where a chain failed numerically); the winner is its maximum.
    """

    params: LBMParameters
    state: VariationalState
    map_part: CoPartition
    free_energy: float
    icl_value: float
    iterations: int
    restart_index: int
    chain_free_energies: tuple

    def __post_init__(self):
        if not np.isfinite(self.free_energy):
            raise ValidationError("free_energy must be finite")
        if self.map_part.g != self.params.g or self.map_part.m != self.params.m:
            raise ValidationError("map_part group counts must match the parameters")


def _log_rate_tables(alpha):
    # clamp only inside the logs; stored rates may legitimately sit at 0 or 1
    clipped = np.minimum(np.maximum(alpha, _CLAMP), 1.0 - _CLAMP)
    return np.log(clipped), np.log1p(-clipped)


def _log_tables(pi, rho, alpha):
    # the logs one Gibbs sweep or V-Bayes iteration reads, computed once from
    # the previous one's parameters; pi and rho are clamped inside the logs too
    return tuple(np.log(np.maximum(p, _CLAMP)) for p in (pi, rho)) + _log_rate_tables(alpha)


def _softmax(logits):
    """The softmax over axis 0 of the (groups, items) ``logits``, read and
    never written.  Each item's groups are summed in order, a group at a time."""
    probs = logits - np.maximum.reduce(logits, axis=0)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    return probs


def _sample_labels(rng, logits):
    """One categorical draw per column of the (groups, items) ``logits``, via
    inverse CDF.  The label counts the running sums of the first g - 1 groups
    below the uniform; the sums never decrease, so no clamp is needed.
    ``logits`` is read, never written."""
    # a uniform above every sum, even one that rounding leaves above the full
    # sum, takes the last group, so only the g - 1 head rows are summed; at
    # g = 1 the slice is empty and every label is 0
    head = _softmax(logits)[:-1]
    # a running sum over whole group rows adds the terms in np.add.accumulate's
    # order, without its inner loop over the short group axis
    for k in range(1, head.shape[0]):
        np.add(head[k - 1], head[k], out=head[k])
    return np.add.reduce(head < rng.random(logits.shape[1]), axis=0)


def _sample_parameters(rng, n1, row_sizes, col_sizes, prior):
    n0 = np.outer(row_sizes, col_sizes) - n1
    pi = rng.dirichlet(row_sizes + prior.a)
    rho = rng.dirichlet(col_sizes + prior.a)
    alpha = rng.beta(n1 + prior.b, n0 + prior.b)
    return pi, rho, alpha


class _Side(NamedTuple):
    """One side of a Gibbs sweep: its labels, their item-major one-hot, the
    group sizes, and the group-major counts of ones and of zeros over the
    other side's items."""

    labels: np.ndarray
    hot: np.ndarray
    sizes: np.ndarray
    ones: np.ndarray
    zeros: np.ndarray


def _count_side(labels, width, y_items):
    # y_items holds the data one row per item of this side: y for the rows,
    # y.T for the columns
    hot = _one_hot(labels, width)
    ones = hot.T @ y_items
    sizes = np.bincount(labels, minlength=width)
    return _Side(labels, hot, sizes, ones, sizes[:, None] - ones)


def _follow_moves(side, labels, y_items):
    """The side after its labels move to ``labels``.  A side that did not move
    is returned as it is.  On a large matrix, few moved items update the
    counts from their own rows of ``y_items``, and ``side.hot`` in place;
    every partial sum is an exact integer, so the counts equal a full recount
    bit for bit.  Many moved items, or a small matrix, recount in full."""
    if labels.tobytes() == side.labels.tobytes():
        return side
    width = side.hot.shape[1]
    if y_items.size < _DELTA_MIN_CELLS:
        return _count_side(labels, width, y_items)
    moved = np.flatnonzero(labels != side.labels)
    if moved.size * _DELTA_MAX_SHARE >= labels.size:
        return _count_side(labels, width, y_items)
    moved_hot = _one_hot(labels[moved], width)
    ones = side.ones + (moved_hot - side.hot[moved]).T @ y_items[moved]
    side.hot[moved] = moved_hot
    sizes = np.bincount(labels, minlength=width)
    return _Side(labels, side.hot, sizes, ones, sizes[:, None] - ones)


def gibbs_init(data, g, m, prior=PriorHyperparams(), sweeps=DEFAULT_GIBBS_SWEEPS, seed=0):
    """Sample a starting point for the variational loop.

    Starts from a uniform-random co-partition (parameters drawn from their
    posteriors given it), then each sweep resamples all row labels from their
    full conditionals given the column labels and parameters, all column
    labels given the fresh row labels, and finally the parameters from their
    conjugate posteriors: Dirichlet for pi and rho, Beta(N1 + b, N0 + b) per
    block.  Returns the parameters and partition after the last sweep;
    deterministic given the seed.
    """
    sweeps, g, m = _whole(sweeps, "sweeps"), _whole(g, "g"), _whole(m, "m")
    _check_prior(prior)
    rng = derive_rng(seed)
    y = data.values.astype(float)
    # item-major one-hot labels, as in V-Bayes and the ICL, whose transposed
    # products give group-major counts: every label likelihood and block tally
    # is a product with exact integer counts.  Each side keeps its one-hot,
    # sizes and counts of ones and zeros until its labels move; then it reads
    # only the moved items' cells of y, or all of y when many moved or y is
    # small.  A sweep in which neither side moved reads no cell of y
    rows = _count_side(rng.integers(0, g, size=data.n), g, y)
    cols = _count_side(rng.integers(0, m, size=data.q), m, y.T)
    pi, rho, alpha = _sample_parameters(rng, rows.ones @ cols.hot, rows.sizes, cols.sizes,
                                        prior)
    for _ in range(sweeps):
        log_pi, log_rho, log1, log0 = _log_tables(pi, rho, alpha)
        # each side's logits summed in place into its first product; addition
        # commutes, so they round as log p + (log1 @ ones + log0 @ zeros) does
        logits = log1 @ cols.ones
        logits += log0 @ cols.zeros
        logits += log_pi[:, None]
        rows = _follow_moves(rows, _sample_labels(rng, logits), y)
        logits = log1.T @ rows.ones
        logits += log0.T @ rows.zeros
        logits += log_rho[:, None]
        cols = _follow_moves(cols, _sample_labels(rng, logits), y.T)
        pi, rho, alpha = _sample_parameters(rng, rows.ones @ cols.hot, rows.sizes, cols.sizes,
                                            prior)
    return LBMParameters(g, m, pi, rho, alpha), CoPartition(rows.labels, cols.labels, g, m)


def _dirichlet_mode(mass, a):
    # mode of Dirichlet(mass + a); the a-1 shift clips at the boundary when a < 1.
    # When no shifted mass is positive, every weight of the objective
    # sum (mass + a - 1) log pi over the clamped logs is <= 0, so its maximum
    # is the vertex at the largest mass (the first on ties), as in _beta_mode
    num = np.maximum(mass + (a - 1.0), 0.0)
    total = num.sum()
    if total <= 0.0:
        return _one_hot(np.argmax(mass), mass.size)
    return num / total


def _beta_mode(s1, s_tot, b):
    den = s_tot + 2.0 * (b - 1.0)
    num = s1 + (b - 1.0)
    alpha = np.zeros_like(s1)
    interior = den > 0.0
    np.divide(num, den, out=alpha, where=interior)
    np.clip(alpha, 0.0, 1.0, out=alpha)
    # a degenerate posterior (an empty block, or for b < 1 a nearly empty one)
    # has weights summing to den <= 0 in the objective
    # (s1 + b - 1) log alpha + (s0 + b - 1) log(1 - alpha), whose maximum over
    # the clamped logs lies at a boundary: 1 where moving there from 0 gains,
    # 0 where it loses, and 1/2 where both score the same (an empty block at
    # b = 1)
    if not interior.all():
        edge = ~interior
        log1, log0 = _log_rate_tables(np.array([0.0, 1.0]))
        # the weight of log(1 - alpha) is den - num = s0 + b - 1
        gain = num[edge] * (log1[1] - log1[0]) + (den - num)[edge] * (log0[1] - log0[0])
        alpha[edge] = (np.sign(gain) + 1.0) / 2.0
    return alpha


def _vbayes_update(y, nu, logs, prior):
    """One variational iteration on plain arrays.

    ``y`` is the float data and ``logs`` the tables of :func:`_log_tables`
    for the incoming parameters.  Returns the updated tau, nu, pi, rho and
    alpha, followed by the :func:`_expected_counts` of the new tau and nu,
    which the free energy of the new state reads.  It reads y twice: once
    for the tau update, and once for the product ``tau.T @ y`` that both the
    nu update and the block tallies take.  Both logits are built group-major
    for :func:`_softmax`, and tau and nu come back item-major and C-ordered.
    """
    log_pi, log_rho, log1, log0 = logs
    # the BLAS returns the same bits for a product and its transpose, so the
    # group-major logits are the item-major ones transposed.  tau and nu are
    # copied back item-major because the masses, the tallies and the
    # entropies are reductions that round in memory order
    ones_by_colgroup = y @ nu
    zeros_by_colgroup = nu.sum(axis=0)[None, :] - ones_by_colgroup
    tau = np.ascontiguousarray(_softmax(
        log_pi[:, None] + log1 @ ones_by_colgroup.T + log0 @ zeros_by_colgroup.T).T)

    # the expected ones of every row group in every column: the nu update
    # reads it as it is, and the tallies take s1 = (tau.T @ y) @ nu, as
    # _expected_counts does
    rows_by_item = tau.T @ y
    row_mass = tau.sum(axis=0)
    zeros_by_rowgroup = row_mass[:, None] - rows_by_item
    nu = np.ascontiguousarray(_softmax(
        log_rho[:, None] + log1.T @ rows_by_item + log0.T @ zeros_by_rowgroup).T)

    col_mass = nu.sum(axis=0)
    s1, s_tot = rows_by_item @ nu, np.outer(row_mass, col_mass)
    pi = _dirichlet_mode(row_mass, prior.a)
    rho = _dirichlet_mode(col_mass, prior.a)
    alpha = _beta_mode(s1, s_tot, prior.b)
    # no finiteness check here: no output can become infinite (softmax rows
    # and the modes stay within [0, 1]), and a NaN in any output passes every
    # clamp and product on to the free energy, which refuses it
    return tau, nu, pi, rho, alpha, row_mass, col_mass, s1, s_tot


def _check_state_shapes(data, state, params):
    if state.tau.shape != (data.n, params.g) or state.nu.shape != (data.q, params.m):
        raise ValidationError("variational state shapes do not match the data and parameters")


def vbayes_step(data, state, params, prior):
    """One full variational iteration.

    Updates tau row-wise from the incoming nu and parameters, then nu from
    the fresh tau, then moves pi, rho, alpha to their conjugate-posterior
    modes under the updated responsibilities.  Each sub-step is an exact
    coordinate maximization of the free energy, so the free energy never
    decreases across a step, at every prior: at a < 1 a side with too few
    items for its groups takes the vertex at its largest mass.
    Responsibilities are computed in log space with per-item max subtraction.
    """
    _check_prior(prior)
    _check_state_shapes(data, state, params)
    tau, nu, pi, rho, alpha = _vbayes_update(
        data.values.astype(float), state.nu,
        _log_tables(params.pi, params.rho, params.alpha), prior)[:5]
    for name, arr in (("tau", tau), ("nu", nu), ("pi", pi), ("rho", rho), ("alpha", alpha)):
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite values in updated {name}")
    return VariationalState(tau, nu), LBMParameters(params.g, params.m, pi, rho, alpha)


def _dirichlet_logpdf(log_p, a):
    return float(lgamma(log_p.size * a) - log_p.size * lgamma(a) + (a - 1.0) * log_p.sum())


def _beta_logpdf_total(log1, log0, b):
    return float(log1.size * (lgamma(2.0 * b) - 2.0 * lgamma(b))
                 + (b - 1.0) * (log1 + log0).sum())


def _free_energy_value(tau, nu, counts, logs, prior):
    """The free energy of :func:`free_energy` from the state's
    :func:`_expected_counts` and the parameters' :func:`_log_tables`."""
    row_mass, col_mass, s1, s_tot = counts
    log_pi, log_rho, log1, log0 = logs
    value = (
        float(row_mass @ log_pi)
        + float(col_mass @ log_rho)
        + float((s1 * log1 + (s_tot - s1) * log0).sum())
        # the entropies keep 0 * log 0 = 0: a zero is floored to the smallest
        # normal float, whose finite log times zero is zero
        - float((tau * np.log(np.maximum(tau, _TINY))).sum())
        - float((nu * np.log(np.maximum(nu, _TINY))).sum())
        + _dirichlet_logpdf(log_pi, prior.a)
        + _dirichlet_logpdf(log_rho, prior.a)
        + _beta_logpdf_total(log1, log0, prior.b)
    )
    if not np.isfinite(value):
        raise NumericalError("free energy evaluated to a non-finite value")
    return value


def free_energy(data, state, params, prior):
    """Variational objective maximized by the fitting loop.

    Expected complete log-likelihood under the responsibilities, plus the
    responsibility entropies, plus the log prior densities of pi, rho and
    every block rate.  Logs of probabilities are clamped at 1e-12 so boundary
    rates never produce non-finite output, and 0*log(0) terms are 0.
    """
    _check_prior(prior)
    _check_state_shapes(data, state, params)
    counts = _expected_counts(data.values.astype(float), state.tau, state.nu)
    return _free_energy_value(state.tau, state.nu, counts,
                              _log_tables(params.pi, params.rho, params.alpha), prior)


def _run_chain(data, g, m, prior, gibbs_sweeps, max_iter, tol, chain_seed):
    # plain arrays inside the loop and out: fit builds and checks the result
    # types once, for the winning chain.  The free energy is the loop's one
    # finiteness check (see _vbayes_update).  The float data is made after
    # the Gibbs start, which makes its own: one copy alive at a time.  The
    # two timings, Gibbs then V-Bayes, go only to fit's chain record
    start = time.perf_counter()
    params, part = gibbs_init(data, g, m, prior, sweeps=gibbs_sweeps, seed=chain_seed)
    gibbs_done = time.perf_counter()
    y = data.values.astype(float)
    nu = _one_hot(part.w, m)
    logs = _log_tables(params.pi, params.rho, params.alpha)
    previous = None
    converged = False
    for iterations in range(1, max_iter + 1):
        try:
            tau, nu, pi, rho, alpha, *counts = _vbayes_update(y, nu, logs, prior)
            logs = _log_tables(pi, rho, alpha)
            current = _free_energy_value(tau, nu, counts, logs, prior)
        except NumericalError as exc:
            raise NumericalError(f"iteration {iterations}: {exc}") from exc
        converged = previous is not None and abs(current - previous) < tol * abs(current)
        previous = current
        if converged:
            break
    return ((tau, nu, pi, rho, alpha), previous, iterations, converged,
            gibbs_done - start, time.perf_counter() - gibbs_done)


def _check_chain_settings(restarts=1, gibbs_sweeps=DEFAULT_GIBBS_SWEEPS,
                          max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL, prior=PriorHyperparams()):
    """Refuse what fit refuses, binding a driver's keywords for fit as fit would.
    Returns ``restarts``, ``gibbs_sweeps`` and ``max_iter`` as ints."""
    counts = (_whole(restarts, "restarts"), _whole(gibbs_sweeps, "gibbs_sweeps"),
              _whole(max_iter, "max_iter"))
    # a real number only: None or "1e-6" would fail later, inside a chain,
    # and at inf every chain would stop after its second iteration
    if not (isinstance(tol, numbers.Real) and 0 < tol < inf):
        raise ValidationError(f"tol must be a positive finite number, got {tol!r}")
    _check_prior(prior)
    return counts


def fit(data, g, m, prior=PriorHyperparams(), restarts=1,
        gibbs_sweeps=DEFAULT_GIBBS_SWEEPS, max_iter=DEFAULT_MAX_ITER,
        tol=DEFAULT_TOL, seed=0):
    """Best-of-``restarts`` V-Bayes fit for one (g, m) cell.

    Each restart chain draws its Gibbs starting point from a stream derived
    from (seed, restart index), runs variational steps until the relative
    free-energy change drops below ``tol`` (or ``max_iter`` is reached), and
    the chain with the highest final free energy wins, the first one on ties.
    The reported partition applies the MAP rule (per-row arg-max of tau, of
    nu) and ``icl_value`` scores it with the exact criterion.

    Every chain is reported on the ``binlbm`` logger: a DEBUG record with its
    iterations, whether it converged and its final free energy, and a WARNING
    when it stops at ``max_iter`` without meeting ``tol``.  The DEBUG record
    also holds its fields, with the Gibbs and V-Bayes seconds, or a failed
    chain's message, as a dict in its ``chain`` attribute (see the README).
    """
    restarts, gibbs_sweeps, max_iter = _check_chain_settings(
        restarts, gibbs_sweeps, max_iter, tol, prior)
    best = None
    best_index = -1
    chain_free_energies = []
    failures = []
    for index in range(restarts):
        try:
            chain = _run_chain(data, g, m, prior, gibbs_sweeps, max_iter, tol,
                               derive_seed(seed, index))
        except NumericalError as exc:
            _log.debug("chain (g=%d, m=%d) restart %d failed: %s", g, m, index, exc,
                       extra={"chain": dict(g=g, m=m, restart=index, failure=str(exc))})
            failures.append(f"restart {index}: {exc}")
            chain_free_energies.append(None)
            continue
        _, chain_fe, iterations, converged, gibbs_s, vbayes_s = chain
        _log.debug("chain (g=%d, m=%d) restart %d: %d iterations, converged %s, "
                   "free energy %r", g, m, index, iterations, converged, chain_fe,
                   extra={"chain": dict(g=g, m=m, restart=index, iterations=iterations,
                                        converged=converged, free_energy=chain_fe,
                                        gibbs_s=gibbs_s, vbayes_s=vbayes_s)})
        if not converged:
            _log.warning("chain (g=%d, m=%d) restart %d stopped at max_iter=%d without "
                         "meeting tol=%g", g, m, index, max_iter, tol)
        chain_free_energies.append(chain_fe)
        if best is None or chain_fe > best[1]:
            best = chain
            best_index = index
    if best is None:
        raise NumericalError("all restart chains failed numerically: " + "; ".join(failures))
    (tau, nu, pi, rho, alpha), best_fe, iterations = best[:3]
    map_part = CoPartition(np.argmax(tau, axis=1), np.argmax(nu, axis=1), g, m)
    return FitResult(
        params=LBMParameters(g, m, pi, rho, alpha),
        state=VariationalState(tau, nu),
        map_part=map_part,
        free_energy=best_fe,
        icl_value=icl(data, map_part, prior),
        iterations=iterations,
        restart_index=best_index,
        chain_free_energies=tuple(chain_free_energies),
    )
