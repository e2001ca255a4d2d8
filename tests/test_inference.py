import itertools
import logging
import math
from statistics import NormalDist

import numpy as np
import pytest

import binlbm.inference as inference
from binlbm import (
    BinaryDataMatrix,
    LBMParameters,
    NumericalError,
    PriorHyperparams,
    ValidationError,
    VariationalState,
    best_match,
    fit,
    free_energy,
    gibbs_init,
    simulate_dataset,
    staircase_parameters,
    vbayes_step,
)
from binlbm.inference import (
    _DELTA_MAX_SHARE,
    _DELTA_MIN_CELLS,
    DEFAULT_GIBBS_SWEEPS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _beta_mode,
    _count_side,
    _dirichlet_mode,
    _follow_moves,
    _log_rate_tables,
    _log_tables,
    _one_hot,
    _run_chain,
    _sample_labels,
    _softmax,
)
from binlbm.model import CoPartition, _expected_counts
from binlbm.rng import derive_rng, derive_seed
from oracles import (
    free_energy_bruteforce,
    icl_conjugate_oracle,
    log_evidence_oracle,
    log_prior_oracle,
    tau_update_oracle,
)

PRIOR = PriorHyperparams()


def one_hot_state(part):
    return VariationalState(_one_hot(part.z, part.g), _one_hot(part.w, part.m))


class TestGibbsInit:
    def test_single_group_forces_partition(self):
        rng = np.random.default_rng(0)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(6, 5)))
        params, part = gibbs_init(data, 1, 1, PRIOR, sweeps=3, seed=4)
        assert not part.z.any() and not part.w.any()
        assert params.pi.tolist() == [1.0] and params.rho.tolist() == [1.0]
        assert 0.0 < params.alpha[0, 0] < 1.0

    def test_single_group_alpha_posterior_mean(self):
        # alpha ~ Beta(sum(y)+1, nq-sum(y)+1); all-ones 4x3 gives Beta(13, 1)
        data = BinaryDataMatrix(np.ones((4, 3), dtype=int))
        draws = [gibbs_init(data, 1, 1, PRIOR, sweeps=2, seed=s)[0].alpha[0, 0]
                 for s in range(300)]
        assert abs(np.mean(draws) - 13.0 / 14.0) < 0.02

    def test_all_ones_two_groups_concentrates(self):
        data = BinaryDataMatrix(np.ones((30, 8), dtype=int))
        draws = []
        for s in range(100):
            params, _ = gibbs_init(data, 2, 1, PRIOR, sweeps=60, seed=s)
            draws.extend(params.alpha[:, 0].tolist())
        assert np.mean(draws) > 0.8

    def test_determinism(self):
        params0 = staircase_parameters(3, 4, 0.05)
        data, _ = simulate_dataset(params0, 40, 20, seed=9)
        first = gibbs_init(data, 3, 4, PRIOR, sweeps=50, seed=77)
        second = gibbs_init(data, 3, 4, PRIOR, sweeps=50, seed=77)
        assert np.array_equal(first[1].z, second[1].z)
        assert np.array_equal(first[1].w, second[1].w)
        assert np.array_equal(first[0].alpha, second[0].alpha)
        assert np.array_equal(first[0].pi, second[0].pi)

    def test_sweeps_validated(self):
        data = BinaryDataMatrix(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValidationError):
            gibbs_init(data, 1, 1, PRIOR, sweeps=0, seed=0)


class TestGibbsLaw:
    """The Gibbs sampler draws (z, w, theta) from the joint posterior, so the
    labels of a chain that has mixed follow p(z, w | y), which is
    proportional to exp(icl(z, w)): the exact ICL is log p(y, z, w) under the
    conjugate priors.  On a 4x3 matrix at g = m = 2 the 128 labellings can be
    enumerated, and the law comes from the long-hand ICL oracle, so the check
    trusts no package code but ``gibbs_init`` (a joint distribution test in
    the spirit of Geweke, "Getting it right", JASA 99, 2004)."""

    CELLS = [[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]]

    @staticmethod
    def chi_square_quantile(p, dof):
        # Wilson-Hilferty: the cube root of a chi-square over its degrees of
        # freedom is close to normal, with mean 1 - h and variance h
        h = 2.0 / (9.0 * dof)
        return dof * (1.0 - h + NormalDist().inv_cdf(p) * math.sqrt(h)) ** 3

    @pytest.mark.parametrize("a, b, chains", [(4.0, 1.0, 3000), (1.0, 0.5, 4000)])
    def test_final_labels_follow_the_posterior(self, a, b, chains):
        labellings = [(z, w) for z in itertools.product((0, 1), repeat=4)
                      for w in itertools.product((0, 1), repeat=3)]
        log_joint = [icl_conjugate_oracle(self.CELLS, z, w, 2, 2, a, b) for z, w in labellings]
        top = max(log_joint)
        weights = [math.exp(value - top) for value in log_joint]
        expected = np.array(weights) * (chains / math.fsum(weights))

        index = {labels: k for k, labels in enumerate(labellings)}
        observed = np.zeros(len(labellings))
        data = BinaryDataMatrix(self.CELLS)
        prior = PriorHyperparams(a=a, b=b)
        # 10 sweeps: at 2 sweeps and b = 0.5 the chains have not yet mixed
        for seed in range(chains):
            part = gibbs_init(data, 2, 2, prior, sweeps=10, seed=seed)[1]
            observed[index[tuple(part.z.tolist()), tuple(part.w.tolist())]] += 1

        # the labellings expected fewer than 5 times are pooled into one bin
        rare = expected < 5.0
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        statistic = float(((observed - expected) ** 2 / expected).sum())
        # the threshold comes from the chi-square law alone, never from the
        # observed value
        threshold = self.chi_square_quantile(0.999, expected.size - 1)
        assert statistic < threshold, (statistic, expected.size - 1, threshold)


class TestCountSweep:
    """The group-major sweep on block counts against the row-major sweep it
    replaced, which gathered per-cell log rates.

    The match is empirical: the two sweeps order the float operations inside
    the label probabilities differently, so a uniform falling within rounding
    of a CDF boundary could draw a different label.  No draw does on these
    cells and seeds; every count, and so every Dirichlet and Beta argument,
    is an exact integer either way.
    """

    @staticmethod
    def row_major_gibbs(data, g, m, sweeps, seed):
        rng = derive_rng(seed)
        y = data.values.astype(float)
        y_not = 1.0 - y

        def draw_labels(log_weights, loglik):
            logits = log_weights[None, :] + loglik
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            u = rng.random((probs.shape[0], 1))
            return np.minimum((probs.cumsum(axis=1) < u).sum(axis=1), probs.shape[1] - 1)

        def draw_parameters(z, w):
            n1 = np.zeros((g, m))
            np.add.at(n1, (z[:, None], w[None, :]), y)
            rows, cols = np.bincount(z, minlength=g), np.bincount(w, minlength=m)
            n0 = np.outer(rows, cols) - n1
            return (rng.dirichlet(rows + PRIOR.a), rng.dirichlet(cols + PRIOR.a),
                    rng.beta(n1 + PRIOR.b, n0 + PRIOR.b))

        z = rng.integers(0, g, size=data.n)
        w = rng.integers(0, m, size=data.q)
        pi, rho, alpha = draw_parameters(z, w)
        for _ in range(sweeps):
            clipped = np.clip(alpha, 1e-12, 1.0 - 1e-12)
            log1, log0 = np.log(clipped), np.log1p(-clipped)
            z = draw_labels(np.log(np.maximum(pi, 1e-12)),
                            y @ log1[:, w].T + y_not @ log0[:, w].T)
            w = draw_labels(np.log(np.maximum(rho, 1e-12)),
                            y.T @ log1[z, :] + y_not.T @ log0[z, :])
            pi, rho, alpha = draw_parameters(z, w)
        return z, w, pi, rho, alpha

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_row_major_sweep_on_every_cell(self, seed):
        data, _ = simulate_dataset(staircase_parameters(3, 4, 0.28), 137, 33, seed=21)
        for g in range(1, 8):
            for m in range(1, 8):
                chain_seed = derive_seed(seed, g, m)
                params, part = gibbs_init(data, g, m, PRIOR, sweeps=DEFAULT_GIBBS_SWEEPS,
                                          seed=chain_seed)
                z, w, pi, rho, alpha = self.row_major_gibbs(data, g, m, DEFAULT_GIBBS_SWEEPS,
                                                            chain_seed)
                assert np.array_equal(part.z, z), (g, m)
                assert np.array_equal(part.w, w), (g, m)
                assert np.array_equal(params.pi, pi), (g, m)
                assert np.array_equal(params.rho, rho), (g, m)
                assert np.array_equal(params.alpha, alpha), (g, m)


def accumulate_sample_labels(rng, logits):
    """The label draw before the row-by-row CDF, kept as the oracle: one
    ``np.add.accumulate`` over the groups at every width."""
    probs = np.exp(logits - np.maximum.reduce(logits, axis=0))
    probs /= np.add.reduce(probs, axis=0)
    u = rng.random(logits.shape[1])
    idx = np.add.reduce(np.add.accumulate(probs, axis=0) < u, axis=0)
    return np.minimum(idx, logits.shape[0] - 1)


def recount_every_sweep_gibbs(data, g, m, prior=PRIOR, sweeps=DEFAULT_GIBBS_SWEEPS, seed=0):
    """``gibbs_init`` before the recount skip, kept as the oracle: both count
    products are recomputed in every sweep, moved labels or not.  It draws
    the parameters with its own numpy calls, so a fault in the library's
    parameter draw shows here too."""
    rng = derive_rng(seed)
    y = data.values.astype(float)
    row_eye, col_eye = np.eye(g), np.eye(m)

    def draw_parameters(n1, row_sizes, col_sizes):
        n0 = np.outer(row_sizes, col_sizes) - n1
        return (rng.dirichlet(row_sizes + prior.a), rng.dirichlet(col_sizes + prior.a),
                rng.beta(n1 + prior.b, n0 + prior.b))

    z = rng.integers(0, g, size=data.n)
    w = rng.integers(0, m, size=data.q)
    z_hot, w_hot = row_eye.take(z, axis=1), col_eye.take(w, axis=1)
    row_sizes, col_sizes = np.bincount(z, minlength=g), np.bincount(w, minlength=m)
    ones_by_rowgroup = z_hot @ y
    pi, rho, alpha = draw_parameters(ones_by_rowgroup @ w_hot.T, row_sizes, col_sizes)
    for _ in range(sweeps):
        log1, log0 = _log_rate_tables(alpha)
        ones_by_colgroup = w_hot @ y.T
        z = accumulate_sample_labels(rng, np.log(np.maximum(pi, 1e-12))[:, None] + (
            log1 @ ones_by_colgroup + log0 @ (col_sizes[:, None] - ones_by_colgroup)))
        z_hot = row_eye.take(z, axis=1)
        row_sizes = np.bincount(z, minlength=g)
        ones_by_rowgroup = z_hot @ y
        w = accumulate_sample_labels(rng, np.log(np.maximum(rho, 1e-12))[:, None] + (
            log1.T @ ones_by_rowgroup + log0.T @ (row_sizes[:, None] - ones_by_rowgroup)))
        w_hot = col_eye.take(w, axis=1)
        col_sizes = np.bincount(w, minlength=m)
        pi, rho, alpha = draw_parameters(ones_by_rowgroup @ w_hot.T, row_sizes, col_sizes)
    return LBMParameters(g, m, pi, rho, alpha), CoPartition(z, w, g, m)


class TestRecountSkip:
    """A side whose labels did not move keeps its block counts, and every
    draw sums its CDF one group row at a time; neither may change a single
    draw, so the chain must equal the oracle bit for bit."""

    # (n, q, simulated g, simulated m, epsilon, fitted g, fitted m, prior b).
    # 280 rows and 140 columns give one wide and one narrow draw per sweep;
    # b = 0.5 with 7x7 groups on 137x33 leaves empty blocks,
    # whose Beta(b, b) draws take numpy's Johnk branch; the clean 300x260
    # staircase settles, so both sides skip their recount in most sweeps
    CASES = [
        (280, 140, 3, 4, 0.2, 3, 4, 0.5),
        (280, 140, 3, 4, 0.2, 3, 4, 1.0),
        (280, 140, 3, 4, 0.2, 3, 4, 2.0),
        (137, 33, 3, 4, 0.28, 7, 7, 0.5),
        (137, 33, 3, 4, 0.28, 1, 1, 1.0),
        (137, 33, 3, 4, 0.28, 1, 5, 1.0),
        (280, 140, 3, 4, 0.2, 4, 1, 1.0),
        (300, 260, 3, 4, 0.05, 3, 4, 1.0),
    ]

    @staticmethod
    def staircase(n, q, g0, m0, epsilon):
        return simulate_dataset(staircase_parameters(g0, m0, epsilon), n, q, seed=17)[0]

    @staticmethod
    def count_products(monkeypatch):
        """Record (width, items) for every one-hot the chain builds: a full
        count of a side has as many items as the side, a count of moved
        items fewer."""
        calls = []
        original = inference._one_hot

        def counting(labels, width):
            calls.append((width, labels.size))
            return original(labels, width)

        monkeypatch.setattr(inference, "_one_hot", counting)
        return calls

    @pytest.mark.parametrize("n, q, g0, m0, epsilon, g, m, b", CASES)
    def test_matches_recount_every_sweep(self, n, q, g0, m0, epsilon, g, m, b):
        data = self.staircase(n, q, g0, m0, epsilon)
        prior = PriorHyperparams(a=4.0, b=b)
        for seed in (3, 4):
            params, part = gibbs_init(data, g, m, prior, seed=seed)
            ref_params, ref_part = recount_every_sweep_gibbs(data, g, m, prior, seed=seed)
            for name in ("pi", "rho", "alpha"):
                assert np.array_equal(getattr(params, name), getattr(ref_params, name)), name
            assert np.array_equal(part.z, ref_part.z)
            assert np.array_equal(part.w, ref_part.w)

    def test_single_groups_count_only_once(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        gibbs_init(self.staircase(137, 33, 3, 4, 0.28), 1, 1, PRIOR, sweeps=50, seed=3)
        assert calls == [(1, 137), (1, 33)]

    def test_settled_staircase_skips_most_recounts(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        sweeps = 100
        gibbs_init(self.staircase(300, 260, 3, 4, 0.05), 3, 4, PRIOR, sweeps=sweeps, seed=3)
        # the two initial products, then one per sweep in which a side moved
        assert calls[:2] == [(3, 300), (4, 260)]
        assert len(calls) <= 2 * sweeps // 10


def halfway_rows_staircase(n, q, epsilon, halfway):
    """A (3, 4) staircase, labels in turn, whose last ``halfway`` rows sit
    exactly between row groups 1 and 2: ones on column group 3 and on every
    other column of group 2, with no noise.  Such a row keeps changing group
    long after the others settle."""
    z, w = np.arange(n) % 3, np.arange(q) % 4
    cells = (z[:, None] < w[None, :]).astype(np.int8)
    cells ^= np.random.default_rng(17).random((n, q)) < epsilon
    cells[n - halfway:] = (w > 2) | ((w == 2) & (np.arange(q) // 4 % 2 == 0))
    return cells


class TestDeltaRecount:
    """On a matrix of _DELTA_MIN_CELLS cells or more, a side whose labels
    moved by fewer than one item in _DELTA_MAX_SHARE updates its counts from
    the moved items alone; the counts must equal a full recount bit for bit,
    and so every draw the oracle's."""

    @staticmethod
    def longhand_side(labels, width, y_items):
        ones = np.stack([y_items[labels == k].sum(axis=0) for k in range(width)])
        sizes = np.array([np.count_nonzero(labels == k) for k in range(width)])
        hot = (labels[:, None] == np.arange(width)).astype(float)
        return labels, hot, sizes, ones, sizes[:, None] - ones

    def move(self, monkeypatch, shape, side, moves, seed):
        """Move ``moves`` random items of one side of a random 0/1 matrix,
        check the side against the long-hand counts, and return the (width,
        items) of the one-hots built for the move."""
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=shape).astype(float)
        y_items, width = (y, 3) if side == "rows" else (y.T, 4)
        items = y_items.shape[0]
        labels = rng.integers(0, width, size=items)
        new = labels.copy()
        moved = rng.choice(items, size=moves, replace=False)
        new[moved] = (labels[moved] + rng.integers(1, width, size=moves)) % width
        calls = TestRecountSkip.count_products(monkeypatch)
        side_state = _follow_moves(_count_side(labels, width, y_items), new, y_items)
        for got, want in zip(side_state, self.longhand_side(new, width, y_items)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        return calls[1:]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_moves_either_side_of_the_cut(self, side, offset, monkeypatch):
        shape = (_DELTA_MIN_CELLS // 64, 64)
        items = shape[0] if side == "rows" else shape[1]
        moves = items // _DELTA_MAX_SHARE + offset
        calls = self.move(monkeypatch, shape, side, moves, seed=offset + 5)
        # below the cut one one-hot of the moved items, from it a full recount
        width = 3 if side == "rows" else 4
        assert calls == [(width, moves if offset < 0 else items)]

    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_small_matrix_recounts_in_full(self, side, monkeypatch):
        shape = (_DELTA_MIN_CELLS // 64 - 1, 64)
        calls = self.move(monkeypatch, shape, side, 1, seed=7)
        width, items = (3, shape[0]) if side == "rows" else (4, shape[1])
        assert calls == [(width, items)]

    def test_unmoved_side_is_kept(self):
        y = np.random.default_rng(2).integers(0, 2, size=(20, 6)).astype(float)
        side = _count_side(np.arange(20) % 3, 3, y)
        assert _follow_moves(side, np.arange(20) % 3, y) is side

    @pytest.mark.parametrize("transpose", [False, True])
    def test_few_moving_items_match_recount_every_sweep(self, transpose, monkeypatch):
        cells = halfway_rows_staircase(400, 96, 0.1, 2)
        data = BinaryDataMatrix(cells.T if transpose else cells)
        g, m = (4, 3) if transpose else (3, 4)
        calls = TestRecountSkip.count_products(monkeypatch)
        for seed in (3, 4, 5):
            params, part = gibbs_init(data, g, m, PRIOR, seed=seed)
            ref_params, ref_part = recount_every_sweep_gibbs(data, g, m, PRIOR, seed=seed)
            for name in ("pi", "rho", "alpha"):
                assert np.array_equal(getattr(params, name), getattr(ref_params, name)), name
            assert np.array_equal(part.z, ref_part.z)
            assert np.array_equal(part.w, ref_part.w)
        # the halfway rows (columns, transposed) took the delta path many times
        width = m if transpose else g
        assert sum(1 for w, items in calls if w == width and items < 400) >= 150

    def test_settled_chain_makes_no_full_size_product(self, monkeypatch):
        data = BinaryDataMatrix(halfway_rows_staircase(400, 96, 0.1, 2))
        calls = TestRecountSkip.count_products(monkeypatch)
        draws = []
        original = inference._sample_labels

        def counting(rng, logits):
            draws.append(len(calls))
            return original(rng, logits)

        monkeypatch.setattr(inference, "_sample_labels", counting)
        gibbs_init(data, 3, 4, PRIOR, seed=3)
        # the chain settles within its first ten sweeps; from then on only the
        # two halfway rows move, and no count reads all of y
        settled = calls[draws[20]:]
        assert len(settled) >= 30
        assert all(items <= 2 for _, items in settled)


class TestSampleLabels:
    # (groups, items): equal logits, a ramp, one dominant group, logits far
    # below zero, and an irregular column
    LOGITS = np.array([
        [0.0, 0.0, 0.0, -1000.0, 0.3],
        [0.0, 1.0, 0.0, -1001.0, -2.1],
        [0.0, 2.0, 0.0, -999.5, 1.7],
        [0.0, 3.0, 40.0, -1000.2, 0.0],
        [0.0, 4.0, 0.0, -1003.0, -0.4],
        [0.0, 5.0, 0.0, -998.9, 1.1],
        [0.0, 6.0, 0.0, -1000.0, 0.9],
    ])

    @staticmethod
    def longhand(logits, u):
        labels = []
        for column, threshold in zip(logits.T.tolist(), u.tolist()):
            top = max(column)
            weights = [math.exp(v - top) for v in column]
            total = 0.0
            for weight in weights:
                total += weight
            label, cdf = len(column) - 1, 0.0
            for k, weight in enumerate(weights):
                cdf += weight / total
                if cdf >= threshold:
                    label = k
                    break
            labels.append(label)
        return labels

    def test_matches_longhand_inverse_cdf(self):
        before = self.LOGITS.copy()
        for seed in range(20):
            labels = _sample_labels(np.random.default_rng(seed), self.LOGITS)
            # the draw reads the logits and never writes them
            assert np.array_equal(self.LOGITS, before)
            u = np.random.default_rng(seed).random(self.LOGITS.shape[1])
            assert labels.tolist() == self.longhand(self.LOGITS, u)

    def test_uniform_above_last_cumulative_sum_takes_last_group(self):
        # seven equal logits give probabilities fl(1/7), whose running sum
        # rounds to 1 - 2**-52, below the largest uniform 1 - 2**-53
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(np.full(7, 1.0 / 7.0))[-1] < top

        class TopUniform:
            @staticmethod
            def random(size):
                return np.full(size, top)

        labels = _sample_labels(TopUniform(), self.LOGITS[:, :1])
        assert labels.tolist() == [6] == self.longhand(self.LOGITS[:, :1], np.array([top]))
        # the same at a wider draw
        wide = np.zeros((7, 256))
        labels = _sample_labels(TopUniform(), wide)
        assert labels.tolist() == [6] * 256 == self.longhand(wide, np.full(256, top))

    @pytest.mark.parametrize("items", [255, 256])
    @pytest.mark.parametrize("groups", range(1, 9))
    def test_matches_longhand_either_side_of_row_cdf_cut(self, groups, items):
        # logits spread over a few units, so every group is drawn somewhere
        logits = np.random.default_rng(groups).normal(scale=2.0, size=(groups, items))
        for seed in range(3):
            labels = _sample_labels(np.random.default_rng(seed), logits)
            u = np.random.default_rng(seed).random(items)
            assert labels.tolist() == self.longhand(logits, u)


class TestSoftmax:
    """The softmax runs over axis 0 of group-major logits.  Each item's
    groups are summed in order, so its probabilities equal those of an
    in-order sum at every width, and the item-major reduce form's bit for bit
    at widths 1-7, where numpy sums a short row in order too; NaN rows
    included, so a NaN still reaches the free energy."""

    @staticmethod
    def reduce_softmax(logits):
        probs = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
        return probs

    @staticmethod
    def in_order_softmax(logits):
        # the item-major form with its row sums taken one column at a time
        probs = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
        total = probs[:, 0].copy()
        for k in range(1, probs.shape[1]):
            total += probs[:, k]
        return probs / total[:, None]

    @pytest.mark.parametrize("rows", [1, 33, 127, 128, 300])
    @pytest.mark.parametrize("width", range(1, 10))
    def test_row_softmax_matches_reduce_form(self, width, rows):
        rng = np.random.default_rng(100 * width + rows)
        logits = rng.normal(scale=3.0, size=(rows, width))
        special = rng.random(logits.shape) < 0.3
        logits[special] = rng.choice([0.0, -0.0, -np.inf, np.nan], size=special.sum())
        # rows of zeros of both signs, and a row of -inf, whose shift is NaN
        logits[0] = np.where(np.arange(width) % 2, -0.0, 0.0)
        logits[-1] = -np.inf
        by_group = np.ascontiguousarray(logits.T)
        before = by_group.copy()
        with np.errstate(invalid="ignore"):
            got = _softmax(by_group).T
            want = self.in_order_softmax(logits)
            reduced = self.reduce_softmax(logits)
        # the softmax reads its logits and never writes them
        assert np.array_equal(by_group.view(np.uint64), before.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if width <= 7:
            assert np.array_equal(got.view(np.uint64), reduced.view(np.uint64))
        assert np.isnan(got[-1]).all()


def expected_counts_vbayes_update(y, nu, logs, prior):
    """``_vbayes_update`` as it was before the nu update and the tallies
    shared one ``tau.T @ y``, kept as the oracle: it reads y three times,
    taking ``y.T @ tau`` for the nu update and the tallies from
    ``_expected_counts``.  Its softmax is TestSoftmax's item-major reduce
    form, which equals the library's group-major one bit for bit at g and m
    up to 7.  The two agree bit for bit only because the BLAS returns the
    same bits for a product and its transpose, such as ``y.T @ tau`` and
    ``(tau.T @ y).T``."""
    log_pi, log_rho, log1, log0 = logs
    ones_by_colgroup = y @ nu
    zeros_by_colgroup = nu.sum(axis=0)[None, :] - ones_by_colgroup
    tau = TestSoftmax.reduce_softmax(
        log_pi[None, :] + ones_by_colgroup @ log1.T + zeros_by_colgroup @ log0.T)

    ones_by_rowgroup = y.T @ tau
    zeros_by_rowgroup = tau.sum(axis=0)[None, :] - ones_by_rowgroup
    nu = TestSoftmax.reduce_softmax(
        log_rho[None, :] + ones_by_rowgroup @ log1 + zeros_by_rowgroup @ log0)

    counts = _expected_counts(y, tau, nu)
    row_mass, col_mass, s1, s_tot = counts
    pi = _dirichlet_mode(row_mass, prior.a)
    rho = _dirichlet_mode(col_mass, prior.a)
    alpha = _beta_mode(s1, s_tot, prior.b)
    return (tau, nu, pi, rho, alpha) + counts


class TestVbayesUpdate:
    @pytest.mark.parametrize("n, q, g, m", [(137, 33, 1, 1), (137, 33, 2, 3), (137, 33, 3, 4),
                                            (137, 33, 7, 7), (600, 300, 3, 4)])
    def test_matches_expected_counts_form(self, n, q, g, m):
        # a soft start, so that no product is of exact integers, then the
        # chain's own iterations
        rng = np.random.default_rng(10 * g + m)
        data, _ = simulate_dataset(staircase_parameters(g, m, 0.2), n, q, seed=n + q)
        y = data.values.astype(float)
        nu = rng.dirichlet(np.ones(m), size=q)
        logs = _log_tables(rng.dirichlet(np.ones(g)), rng.dirichlet(np.ones(m)),
                           rng.uniform(0.05, 0.95, size=(g, m)))
        for _ in range(6):
            got = inference._vbayes_update(y, nu, logs, PRIOR)
            want = expected_counts_vbayes_update(y, nu, logs, PRIOR)
            assert len(got) == len(want) == 9
            for new, old in zip(got, want):
                assert np.array_equal(new, old)
            nu = got[1]
            logs = _log_tables(*got[2:5])


class TestVbayesStep:
    def test_single_group_closed_form(self):
        rng = np.random.default_rng(2)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(5, 4)))
        state = VariationalState(np.ones((5, 1)), np.ones((4, 1)))
        params = LBMParameters(1, 1, [1.0], [1.0], [[0.37]])
        new_state, new_params = vbayes_step(data, state, params, PRIOR)
        assert new_state.tau.tolist() == [[1.0]] * 5
        assert new_state.nu.tolist() == [[1.0]] * 4
        assert new_params.alpha[0, 0] == pytest.approx(data.values.sum() / 20.0, abs=1e-12)
        # with b = 2 the update picks up one pseudo-count on each side
        b2 = vbayes_step(data, state, params, PriorHyperparams(a=4.0, b=2.0))[1]
        assert b2.alpha[0, 0] == pytest.approx((data.values.sum() + 1.0) / 22.0, abs=1e-12)

    def test_pi_lower_bound_with_a4(self):
        params0 = staircase_parameters(2, 3, 0.25)
        data, _ = simulate_dataset(params0, 18, 9, seed=3)
        rng = np.random.default_rng(5)
        tau = rng.dirichlet(np.ones(2), size=18)
        nu = rng.dirichlet(np.ones(3), size=9)
        state = VariationalState(tau, nu)
        params = LBMParameters(2, 3, [0.5, 0.5], np.full(3, 1 / 3), np.full((2, 3), 0.4))
        _, updated = vbayes_step(data, state, params, PRIOR)
        bound = 3.0 / (18 + 3 * 2)
        assert np.all(updated.pi >= bound * (1 - 1e-12))
        assert np.all(updated.rho >= 3.0 / (9 + 3 * 3) * (1 - 1e-12))

    def test_tau_update_matches_longhand(self):
        rng = np.random.default_rng(12)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(4, 3)))
        nu = rng.dirichlet(np.ones(2), size=3)
        tau = rng.dirichlet(np.ones(2), size=4)
        state = VariationalState(tau, nu)
        params = LBMParameters(2, 2, [0.3, 0.7], [0.6, 0.4],
                               [[0.2, 0.8], [0.55, 0.35]])
        new_state, _ = vbayes_step(data, state, params, PRIOR)
        expected = tau_update_oracle(data.values.tolist(), nu.tolist(),
                                     params.pi.tolist(), params.alpha.tolist())
        assert np.allclose(new_state.tau, expected, atol=1e-10)

    @pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
    def test_degenerate_block_takes_the_better_boundary(self, b):
        # den = s_tot + 2(b - 1) <= 0 in every block: exact ties (empty and
        # nearly empty blocks), and masses leaning either way
        s_tot = np.array([[0.0, 2e-179, 1.0 - b, 0.5 * (1.0 - b)],
                          [1e-300, 3e-9, 0.6 * (1.0 - b), 1.2 * (1.0 - b)]])
        s1 = np.array([[0.0, 1e-179, 0.5 * (1.0 - b), 0.25 * (1.0 - b)],
                       [0.0, 3e-9, 0.1 * (1.0 - b), 1.1 * (1.0 - b)]])
        alpha = _beta_mode(s1, s_tot, b)
        assert set(alpha.ravel().tolist()) <= {0.0, 1.0}

        def clamped_objective(rates):
            log1, log0 = _log_rate_tables(rates)
            return (s1 + b - 1.0) * log1 + (s_tot - s1 + b - 1.0) * log0

        for other in (0.0, 0.5, 1.0):
            assert np.all(clamped_objective(alpha)
                          >= clamped_objective(np.full_like(alpha, other)))

    def test_empty_block_at_b_one_stays_at_one_half(self):
        # both boundaries score 0 there, so the former value is kept
        assert _beta_mode(np.zeros((1, 2)), np.zeros((1, 2)), 1.0).tolist() == [[0.5, 0.5]]

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(14)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(8, 6)))
        state = VariationalState(rng.dirichlet(np.ones(3), size=8),
                                 rng.dirichlet(np.ones(2), size=6))
        params = LBMParameters(3, 2, np.full(3, 1 / 3), [0.5, 0.5], np.full((3, 2), 0.5))
        for _ in range(5):
            state, params = vbayes_step(data, state, params, PRIOR)
            assert np.allclose(state.tau.sum(axis=1), 1.0, atol=1e-10)
            assert np.allclose(state.nu.sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("a, b", list(itertools.product([0.5, 1.0, 4.0], [0.1, 0.2, 0.5, 1.0])))
def test_free_energy_ascent_at_every_prior(a, b):
    # criterion 3's loop and tolerance, with g and m up to 4 and 200 fits;
    # at a <= 1 and b < 1 groups and blocks empty out
    prior = PriorHyperparams(a=a, b=b)
    rng = np.random.default_rng(3003)
    worst_dip = 0.0
    for trial in range(200):
        g = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        if trial % 2 == 0:
            data = BinaryDataMatrix(rng.integers(0, 2, size=(30, 15)))
        else:
            eps = float(rng.uniform(0.1, 0.4))
            data, _ = simulate_dataset(staircase_parameters(g, m, eps), 30, 15,
                                       seed=int(rng.integers(0, 2**31)))
        params, part = gibbs_init(data, g, m, prior, sweeps=50,
                                  seed=int(rng.integers(0, 2**31)))
        state = one_hot_state(part)
        previous = None
        for _ in range(500):
            state, params = vbayes_step(data, state, params, prior)
            current = free_energy(data, state, params, prior)
            if previous is not None:
                worst_dip = min(worst_dip, current - previous)
                if abs(current - previous) < 1e-6 * abs(current):
                    break
            previous = current
    assert worst_dip >= -1e-8


def test_single_step_ascent_when_no_shifted_mass_is_positive():
    # at a = 0.1 one row cannot fill three row groups: every mass + a - 1 of
    # pi is <= 0, and the mode is the vertex at the largest mass
    data = BinaryDataMatrix([[1, 0, 1]])
    prior = PriorHyperparams(a=0.1)
    params, part = gibbs_init(data, 3, 1, prior, sweeps=3, seed=5)
    state = one_hot_state(part)
    before = free_energy(data, state, params, prior)
    state, params = vbayes_step(data, state, params, prior)
    assert free_energy(data, state, params, prior) >= before
    assert sorted(params.pi.tolist()) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5])
def test_free_energy_ascent_on_tiny_matrices(a):
    # one or two rows and fewer than four columns for up to four groups, so
    # many sides have fewer items than groups x (1 - a); every step counts,
    # the first one from the Gibbs start too
    prior = PriorHyperparams(a=a)
    rng = np.random.default_rng(2311)
    worst = 0.0
    for _ in range(300):
        n, q = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        g, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        data = BinaryDataMatrix(rng.integers(0, 2, size=(n, q)))
        params, part = gibbs_init(data, g, m, prior, sweeps=3,
                                  seed=int(rng.integers(0, 2**31)))
        state = one_hot_state(part)
        previous = free_energy(data, state, params, prior)
        for _ in range(4):
            state, params = vbayes_step(data, state, params, prior)
            current = free_energy(data, state, params, prior)
            worst = min(worst, (current - previous) / max(abs(previous), 1.0))
            previous = current
    assert worst >= -1e-12


class TestFreeEnergy:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(3, 3)))
        tau = rng.dirichlet(np.ones(2), size=3)
        nu = rng.dirichlet(np.ones(2), size=3)
        state = VariationalState(tau, nu)
        params = LBMParameters(2, 2, [0.4, 0.6], [0.55, 0.45],
                               [[0.1, 0.7], [0.45, 0.9]])
        prior = PriorHyperparams(a=4.0, b=2.0)
        expected = free_energy_bruteforce(data.values.tolist(), tau.tolist(), nu.tolist(),
                                          params.pi.tolist(), params.rho.tolist(),
                                          params.alpha.tolist(), 4.0, 2.0)
        assert free_energy(data, state, params, prior) == pytest.approx(expected, abs=1e-10)

    @staticmethod
    def bruteforce(data, state, params, prior):
        return free_energy_bruteforce(data.values.tolist(), state.tau.tolist(),
                                      state.nu.tolist(), params.pi.tolist(),
                                      params.rho.tolist(), params.alpha.tolist(),
                                      prior.a, prior.b)

    def test_one_hot_states_match_bruteforce(self):
        # exact zeros in tau and nu: the entropies must take 0 * log 0 = 0
        rng = np.random.default_rng(29)
        prior = PriorHyperparams(a=4.0, b=2.0)
        for _ in range(20):
            n, q = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            g, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            data = BinaryDataMatrix(rng.integers(0, 2, size=(n, q)))
            part = CoPartition(rng.integers(0, g, size=n), rng.integers(0, m, size=q), g, m)
            params = LBMParameters(g, m, rng.dirichlet(np.ones(g)), rng.dirichlet(np.ones(m)),
                                   rng.uniform(0.05, 0.95, size=(g, m)))
            state = one_hot_state(part)
            assert free_energy(data, state, params, prior) == pytest.approx(
                self.bruteforce(data, state, params, prior), abs=1e-10)

    def test_empty_group_column_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(6, 4)))
        tau = np.zeros((6, 3))
        tau[:, [0, 2]] = rng.dirichlet(np.ones(2), size=6)
        state = VariationalState(tau, rng.dirichlet(np.ones(2), size=4))
        params = LBMParameters(3, 2, [0.3, 0.2, 0.5], [0.6, 0.4],
                               [[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])
        assert free_energy(data, state, params, PRIOR) == pytest.approx(
            self.bruteforce(data, state, params, PRIOR), abs=1e-10)

    def test_single_group_closed_form(self):
        rng = np.random.default_rng(31)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(6, 4)))
        state = VariationalState(np.ones((6, 1)), np.ones((4, 1)))
        alpha = 0.3
        params = LBMParameters(1, 1, [1.0], [1.0], [[alpha]])
        prior = PriorHyperparams(a=2.5, b=1.0)
        ones = int(data.values.sum())
        expected = ones * math.log(alpha) + (24 - ones) * math.log(1.0 - alpha)
        assert free_energy(data, state, params, prior) == pytest.approx(expected, abs=1e-10)

    def test_row_permutation_symmetry(self):
        rng = np.random.default_rng(37)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(7, 5)))
        tau = rng.dirichlet(np.ones(2), size=7)
        nu = rng.dirichlet(np.ones(3), size=5)
        params = LBMParameters(2, 3, [0.5, 0.5], np.full(3, 1 / 3),
                               rng.uniform(0.1, 0.9, size=(2, 3)))
        base = free_energy(data, VariationalState(tau, nu), params, PRIOR)
        perm = rng.permutation(7)
        permuted = free_energy(BinaryDataMatrix(data.values[perm]),
                               VariationalState(tau[perm], nu), params, PRIOR)
        assert permuted == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("a, b", [(4.0, 1.0), (1.0, 0.5), (0.5, 2.0)])
    def test_bounded_by_exact_log_evidence(self, a, b):
        # for fixed parameters the free energy is a lower bound on
        # log p(y | theta) + log p(theta), both enumerated long-hand over
        # every labelling of a 4x3 matrix; at g = m = 1 the state is certain
        # and the two are equal
        rng = np.random.default_rng(int(10 * a + 100 * b))
        prior = PriorHyperparams(a=a, b=b)
        for g, m in itertools.product((1, 2), repeat=2):
            for _ in range(6):
                data = BinaryDataMatrix(rng.integers(0, 2, size=(4, 3)))
                params = LBMParameters(g, m, rng.dirichlet(np.ones(g)), rng.dirichlet(np.ones(m)),
                                       rng.uniform(0.05, 0.95, size=(g, m)))
                state = VariationalState(rng.dirichlet(np.ones(g), size=4),
                                         rng.dirichlet(np.ones(m), size=3))
                pi, rho, alpha = (params.pi.tolist(), params.rho.tolist(),
                                  params.alpha.tolist())
                bound = (log_evidence_oracle(data.values.tolist(), pi, rho, alpha)
                         + log_prior_oracle(pi, rho, alpha, a, b))
                value = free_energy(data, state, params, prior)
                assert value <= bound + 1e-12 * abs(bound), (g, m)
                if g == m == 1:
                    assert abs(value - bound) <= 1e-12 * abs(bound)

    def test_boundary_alpha_never_crashes(self):
        data = BinaryDataMatrix(np.array([[1, 0], [0, 1]]))
        state = VariationalState(np.ones((2, 1)), np.ones((2, 1)))
        params = LBMParameters(1, 1, [1.0], [1.0], [[0.0]])
        value = free_energy(data, state, params, PRIOR)
        assert math.isfinite(value)


class TestFit:
    def test_single_group_closed_form(self):
        rng = np.random.default_rng(41)
        data = BinaryDataMatrix(rng.integers(0, 2, size=(9, 5)))
        result = fit(data, 1, 1, PRIOR, restarts=2, seed=6)
        assert not result.map_part.z.any() and not result.map_part.w.any()
        assert result.free_energy == pytest.approx(
            free_energy(data, result.state, result.params, PRIOR), abs=1e-12)
        assert result.params.alpha[0, 0] == pytest.approx(data.values.mean(), abs=1e-12)

    def test_determinism(self):
        params0 = staircase_parameters(2, 2, 0.2)
        data, _ = simulate_dataset(params0, 30, 12, seed=15)
        first = fit(data, 2, 2, PRIOR, restarts=3, seed=51)
        second = fit(data, 2, 2, PRIOR, restarts=3, seed=51)
        assert first.free_energy == second.free_energy
        assert first.icl_value == second.icl_value
        assert first.restart_index == second.restart_index
        assert first.chain_free_energies == second.chain_free_energies
        assert np.array_equal(first.map_part.z, second.map_part.z)
        assert np.array_equal(first.state.tau, second.state.tau)
        assert np.array_equal(first.params.alpha, second.params.alpha)

    def test_restart_dominance_and_prefix(self):
        params0 = staircase_parameters(3, 3, 0.3)
        data, _ = simulate_dataset(params0, 40, 15, seed=29)
        multi = fit(data, 3, 3, PRIOR, restarts=5, seed=8)
        assert multi.free_energy == max(multi.chain_free_energies)
        assert all(fe <= multi.free_energy for fe in multi.chain_free_energies)
        # chain 0 of a multi-restart fit is exactly the single-restart fit
        single = fit(data, 3, 3, PRIOR, restarts=1, seed=8)
        assert single.free_energy == multi.chain_free_energies[0]
        # the winner is the first chain attaining the maximum
        assert multi.chain_free_energies.index(multi.free_energy) == multi.restart_index

    def test_free_energy_ascent(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            g = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            data = BinaryDataMatrix(rng.integers(0, 2, size=(30, 15)))
            params, part = gibbs_init(data, g, m, PRIOR, sweeps=10,
                                      seed=int(rng.integers(0, 2**31)))
            state = one_hot_state(part)
            previous = None
            for _ in range(40):
                state, params = vbayes_step(data, state, params, PRIOR)
                current = free_energy(data, state, params, PRIOR)
                if previous is not None:
                    assert current >= previous - 1e-8
                previous = current

    def test_map_stability_under_monotone_rescaling(self):
        params0 = staircase_parameters(2, 3, 0.15)
        data, _ = simulate_dataset(params0, 24, 12, seed=19)
        result = fit(data, 2, 3, PRIOR, restarts=1, seed=77)
        for transform in (np.sqrt, np.square, lambda x: 10.0 * x):
            assert np.array_equal(np.argmax(transform(result.state.tau), axis=1),
                                  result.map_part.z)
            assert np.array_equal(np.argmax(transform(result.state.nu), axis=1),
                                  result.map_part.w)

    def test_recovers_staircase_partition(self):
        # easiest regime: the MAP rows should match the simulated groups
        # almost perfectly for nearly every seed
        good = 0
        for s in range(20):
            params0 = staircase_parameters(3, 4, 0.05)
            data, truth = simulate_dataset(params0, 137, 33, seed=derive_seed(1000, s))
            result = fit(data, 3, 4, PRIOR, restarts=1, seed=derive_seed(2000, s))
            accuracy = 1.0 - best_match(truth.z, result.map_part.z, 3, 3).rate
            good += accuracy >= 0.95
        assert good >= 18

    def test_input_validation(self):
        data = BinaryDataMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValidationError):
            fit(data, 1, 1, PRIOR, restarts=0)
        with pytest.raises(ValidationError):
            fit(data, 1, 1, PRIOR, max_iter=0)
        with pytest.raises(ValidationError):
            fit(data, 1, 1, PRIOR, tol=0.0)

    def test_all_chains_failing_aggregates(self, monkeypatch):
        data = BinaryDataMatrix(np.zeros((3, 3), dtype=int))

        def explode(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(inference, "_vbayes_update", explode)
        with pytest.raises(NumericalError, match="all restart chains failed"):
            fit(data, 1, 1, PRIOR, restarts=3, seed=0)

    def test_partial_chain_failure_survives(self, monkeypatch):
        data = BinaryDataMatrix(np.eye(4, dtype=int))
        original = inference._vbayes_update
        calls = {"count": 0}

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:
                raise NumericalError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(inference, "_vbayes_update", flaky)
        result = fit(data, 2, 2, PRIOR, restarts=2, seed=0)
        assert result.chain_free_energies[0] is None
        assert result.restart_index == 1
        assert math.isfinite(result.free_energy)


UPDATED = ("tau", "nu", "pi", "rho", "alpha")


def poison_updates(monkeypatch, name, chains):
    """Write NaN into one entry of the updated ``name`` at iteration 2 of
    each listed chain, chains counted by their Gibbs starts from 0."""
    real_gibbs, real_update = inference.gibbs_init, inference._vbayes_update
    seen = {"chain": -1, "iteration": 0}

    def gibbs(*args, **kwargs):
        seen["chain"] += 1
        seen["iteration"] = 0
        return real_gibbs(*args, **kwargs)

    def update(*args):
        out = list(real_update(*args))
        seen["iteration"] += 1
        if seen["chain"] in chains and seen["iteration"] == 2:
            index = UPDATED.index(name)
            out[index] = out[index].copy()
            out[index].flat[0] = np.nan
        return tuple(out)

    monkeypatch.setattr(inference, "gibbs_init", gibbs)
    monkeypatch.setattr(inference, "_vbayes_update", update)


@pytest.mark.parametrize("name", UPDATED)
class TestNonFiniteUpdates:
    """The free energy is the chain's one finiteness check, and a NaN in any
    updated array reaches it; the public step checks every array."""

    @staticmethod
    def data():
        return simulate_dataset(staircase_parameters(2, 2, 0.2), 30, 12, seed=3)[0]

    def test_every_chain_poisoned_fails_naming_the_iteration(self, name, monkeypatch):
        poison_updates(monkeypatch, name, chains={0, 1})
        failure = "iteration 2: free energy evaluated to a non-finite value"
        with pytest.raises(NumericalError, match=(f"all restart chains failed numerically: "
                                                  f"restart 0: {failure}; restart 1: {failure}$")):
            fit(self.data(), 2, 2, PRIOR, restarts=2, seed=4)

    def test_one_poisoned_chain_is_recorded_and_skipped(self, name, monkeypatch):
        clean = fit(self.data(), 2, 2, PRIOR, restarts=2, seed=4)
        poison_updates(monkeypatch, name, chains={0})
        result = fit(self.data(), 2, 2, PRIOR, restarts=2, seed=4)
        assert result.chain_free_energies == (None, clean.chain_free_energies[1])
        assert result.restart_index == 1
        assert result.free_energy == clean.chain_free_energies[1]

    def test_public_step_names_the_array(self, name, monkeypatch):
        data = self.data()
        params, part = gibbs_init(data, 2, 2, PRIOR, sweeps=10, seed=5)
        state = one_hot_state(part)
        # vbayes_step draws no Gibbs start, so its calls count as chain -1
        poison_updates(monkeypatch, name, chains={-1})
        state, params = vbayes_step(data, state, params, PRIOR)
        with pytest.raises(NumericalError, match=f"^non-finite values in updated {name}$"):
            vbayes_step(data, state, params, PRIOR)

    def test_failed_chain_record_carries_its_failure(self, name, monkeypatch, caplog):
        poison_updates(monkeypatch, name, chains={0})
        with caplog.at_level(logging.DEBUG, logger="binlbm"):
            fit(self.data(), 2, 2, PRIOR, restarts=2, seed=4)
        chains = [r.chain for r in caplog.records if r.levelno == logging.DEBUG]
        assert chains[0] == dict(g=2, m=2, restart=0, failure=(
            "iteration 2: free energy evaluated to a non-finite value"))
        assert chains[1]["restart"] == 1 and "failure" not in chains[1]


class TestChainKernel:
    """The chain loop on plain arrays against the public step functions."""

    @staticmethod
    def public_chain(data, g, m, seed):
        params, part = gibbs_init(data, g, m, PRIOR, sweeps=DEFAULT_GIBBS_SWEEPS, seed=seed)
        state = one_hot_state(part)
        previous = None
        for iterations in range(1, DEFAULT_MAX_ITER + 1):
            state, params = vbayes_step(data, state, params, PRIOR)
            current = free_energy(data, state, params, PRIOR)
            converged = (previous is not None
                         and abs(current - previous) < DEFAULT_TOL * abs(current))
            previous = current
            if converged:
                break
        return state, params, previous, iterations

    @pytest.mark.parametrize("g, m", [(1, 1), (3, 4), (7, 7)])
    def test_matches_public_steps_exactly(self, g, m):
        data, _ = simulate_dataset(staircase_parameters(3, 4, 0.28), 137, 33, seed=21)
        seed = derive_seed(5, g, m)
        (tau, nu, pi, rho, alpha), energy, iterations, *_ = _run_chain(
            data, g, m, PRIOR, DEFAULT_GIBBS_SWEEPS, DEFAULT_MAX_ITER, DEFAULT_TOL, seed)
        state, params = VariationalState(tau, nu), LBMParameters(g, m, pi, rho, alpha)
        ref_state, ref_params, ref_energy, ref_iterations = self.public_chain(data, g, m, seed)
        assert np.array_equal(state.tau, ref_state.tau)
        assert np.array_equal(state.nu, ref_state.nu)
        for name in ("pi", "rho", "alpha"):
            assert np.array_equal(getattr(params, name), getattr(ref_params, name))
        assert energy == ref_energy
        assert iterations == ref_iterations


class TestChainLogging:
    def test_chain_at_max_iter_warns(self, caplog):
        data, _ = simulate_dataset(staircase_parameters(2, 2, 0.1), 30, 12, seed=3)
        with caplog.at_level(logging.DEBUG, logger="binlbm"):
            fit(data, 2, 2, PRIOR, restarts=2, max_iter=1, seed=4)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(warnings) == 2 and all("max_iter=1" in r.getMessage() for r in warnings)
        assert len(debug) == 2 and all("converged False" in r.getMessage() for r in debug)
        assert all(r.name == "binlbm" for r in caplog.records)

    def test_converged_chains_do_not_warn(self, caplog):
        data, _ = simulate_dataset(staircase_parameters(3, 4, 0.05), 137, 33, seed=8)
        with caplog.at_level(logging.DEBUG, logger="binlbm"):
            result = fit(data, 3, 4, PRIOR, restarts=2, seed=2)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        winner = (f"restart {result.restart_index}: {result.iterations} iterations, "
                  f"converged True, free energy {result.free_energy!r}")
        assert winner in messages[result.restart_index]

    def test_chain_records_carry_their_fields(self, caplog):
        data, _ = simulate_dataset(staircase_parameters(3, 4, 0.05), 137, 33, seed=8)
        with caplog.at_level(logging.DEBUG, logger="binlbm"):
            result = fit(data, 3, 4, PRIOR, restarts=3, seed=2)
        chains = [r.chain for r in caplog.records if r.levelno == logging.DEBUG]
        assert [chain["restart"] for chain in chains] == [0, 1, 2]
        fields = {"g", "m", "restart", "iterations", "converged", "free_energy",
                  "gibbs_s", "vbayes_s"}
        assert all(chain.keys() == fields for chain in chains)
        assert all((chain["g"], chain["m"]) == (3, 4) for chain in chains)
        assert [chain["free_energy"] for chain in chains] == list(result.chain_free_energies)
        winner = chains[result.restart_index]
        assert winner["iterations"] == result.iterations
        assert winner["free_energy"] == result.free_energy
        for chain in chains:
            for key in ("gibbs_s", "vbayes_s"):
                assert isinstance(chain[key], float) and chain[key] >= 0.0
